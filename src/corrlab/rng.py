"""Deterministic, seedable random streams.

The generator is SplitMix64 (Steele, Lea and Flood's mixer): 64-bit state
advanced by a fixed odd constant, output whitened by two xor-shift-multiply
rounds.  It was chosen over ``random.Random`` because the whole algorithm
fits in a dozen lines, is trivially ported to any language, and therefore
keeps experiment reports replayable outside this codebase.

Independent sub-streams are obtained with :func:`derive_seed`, which mixes a
textual purpose label (FNV-1a) into the master seed.  Row choice, outcome
choice and hidden-parameter choice in the simulators each run on their own
derived stream so that adding draws to one purpose never perturbs another.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def derive_seed(seed: int, label: str) -> int:
    """Derive the sub-seed for the stream named ``label``."""
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return (seed ^ h) & _MASK64


class SplitMix64:
    """Minimal deterministic PRNG; identical output on every platform."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def sign(self) -> int:
        return 1 if self.next_u64() & 1 else -1
