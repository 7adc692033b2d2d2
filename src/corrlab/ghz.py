"""Three-station experiment driven by square-wave response functions.

Each station's output is a signed product of Rademacher functions
r_k(t) = sign(sin(2^k pi t)) evaluated at a shared measurement time t.  The
station assignments switch with the active setting regime (yyx, yxy, xyy,
xxx), each regime owning its own time window in the schedule.  With the
default assignment the three-fold output product is exactly -1 in every
yyx, yxy and xyy trial and exactly +1 in every xxx trial, while each
individual output is +1 half of the time — all without any station seeing
another station's output.

Times are exact rationals and r_k is evaluated in integers, never through
floating trigonometry, so the product identities hold with zero tolerance.
For t = num/den > 0, reduced or not, let x = num * (2^k mod 2den) mod 2den.
floor(2^k t) is even exactly when x < den, and x = 0 or x = den is an exact
sine zero, whose sign is defined as +1 (uniform sampling hits one with
probability zero); so r_k(t) = +1 if x <= den, else -1.  The multiplier is
computed once per index and denominator, so the cost does not grow with k.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import DomainError
from .rng import SplitMix64, derive_seed


class Regime(str, enum.Enum):
    YYX = "yyx"
    YXY = "yxy"
    XYY = "xyy"
    XXX = "xxx"


REGIME_ORDER = (Regime.YYX, Regime.YXY, Regime.XYY, Regime.XXX)

#: Expected three-fold output product per regime under the default assignment.
EXPECTED_PRODUCT = {
    Regime.YYX: -1,
    Regime.YXY: -1,
    Regime.XYY: -1,
    Regime.XXX: 1,
}

NODES = (1, 2, 3)


def _multipliers(indices: Sequence[int], den: int) -> list[int]:
    """2^k mod 2den for each index k: all that r_k needs at times over ``den``."""
    return [pow(2, k, 2 * den) for k in indices]


def _output(sign: int, multipliers: Sequence[int], num: int, den: int) -> int:
    """``sign`` times r_k(num/den) for each k behind ``multipliers``, by the rule above."""
    modulus = 2 * den
    for multiplier in multipliers:
        if num * multiplier % modulus > den:
            sign = -sign
    return sign


def rademacher(k: int, t: Fraction) -> int:
    """r_k(t) = sign(sin(2^k pi t)) for t > 0, with sign(0) := +1."""
    return Response(1, (k,))(t)


@dataclass(frozen=True)
class Response:
    """A signed product of Rademacher functions, e.g. -r1 or r2*r3."""

    sign: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DomainError("response sign must be ±1")
        if any(k < 1 for k in self.indices):
            raise DomainError("Rademacher indices must be >= 1")

    def __call__(self, t: Fraction) -> int:
        t = Fraction(t)
        if t <= 0:
            raise DomainError("Rademacher functions are defined for t > 0 only")
        den = t.denominator
        return _output(self.sign, _multipliers(self.indices, den), t.numerator, den)


@dataclass(frozen=True)
class NodeAssignment:
    """Per (node, regime) response functions for the three stations."""

    responses: Mapping[tuple[int, Regime], Response]

    def __post_init__(self):
        for node in NODES:
            for regime in REGIME_ORDER:
                if (node, regime) not in self.responses:
                    raise DomainError(f"missing response for node {node}, {regime.value}")

    def response(self, node: int, regime: Regime) -> Response:
        if node not in NODES:
            raise DomainError(f"node must be 1, 2 or 3, got {node}")
        return self.responses[(node, Regime(regime))]


def default_assignment(indices: tuple[int, int, int] = (1, 2, 3)) -> NodeAssignment:
    """The reference assignment; ``indices`` substitutes the three Rademacher
    subscripts (must be distinct) without changing any product identity."""
    k1, k2, k3 = indices
    if len({k1, k2, k3}) != 3:
        raise DomainError("the three Rademacher indices must be distinct")
    r = Response
    return NodeAssignment(
        {
            (1, Regime.YYX): r(-1, (k1,)),
            (1, Regime.YXY): r(-1, (k1,)),
            (1, Regime.XYY): r(1, (k2, k3)),
            (1, Regime.XXX): r(1, (k2, k3)),
            (2, Regime.YYX): r(1, (k2,)),
            (2, Regime.YXY): r(1, (k1, k3)),
            (2, Regime.XYY): r(1, (k2,)),
            (2, Regime.XXX): r(1, (k1, k3)),
            (3, Regime.YYX): r(1, (k1, k2)),
            (3, Regime.YXY): r(1, (k3,)),
            (3, Regime.XYY): r(-1, (k3,)),
            (3, Regime.XXX): r(1, (k1, k2)),
        }
    )


@dataclass(frozen=True)
class Window:
    regime: Regime
    start: Fraction
    end: Fraction

    def __post_init__(self):
        object.__setattr__(self, "start", Fraction(self.start))
        object.__setattr__(self, "end", Fraction(self.end))
        if self.start <= 0 or self.end <= self.start:
            raise DomainError(f"invalid window ({self.start}, {self.end})")

    def contains(self, t: Fraction) -> bool:
        return self.start < t < self.end


@dataclass(frozen=True)
class Schedule:
    """Ordered, non-overlapping regime windows; gaps model switching time."""

    windows: tuple[Window, ...]

    def __post_init__(self):
        if not self.windows:
            raise DomainError("schedule needs at least one window")
        previous_end = Fraction(0)
        for window in self.windows:
            if window.start < previous_end:
                raise DomainError("windows must be ordered and non-overlapping")
            previous_end = window.end
        if len({window.regime for window in self.windows}) != len(self.windows):
            raise DomainError("schedule has two windows for one regime")

    def window_for(self, regime: Regime) -> Window:
        for window in self.windows:
            if window.regime == Regime(regime):
                return window
        raise DomainError(f"schedule has no window for regime {Regime(regime).value}")


def default_schedule() -> Schedule:
    """Unit-length windows separated by 1/4 switching gaps, starting at t = 1."""
    windows = []
    start = Fraction(1)
    for regime in REGIME_ORDER:
        windows.append(Window(regime, start, start + 1))
        start += Fraction(5, 4)
    return Schedule(tuple(windows))


def node_output(
    assignment: NodeAssignment,
    schedule: Schedule,
    node: int,
    regime: Regime,
    t: Fraction,
) -> int:
    """One station's output: a pure function of (node, regime, t) only."""
    regime = Regime(regime)
    if not schedule.window_for(regime).contains(t):
        raise DomainError(f"t = {t} lies outside the {regime.value} window")
    return assignment.response(node, regime)(t)


@dataclass(frozen=True)
class TrialTriple:
    regime: Regime
    t: Fraction
    outputs: tuple[int, int, int]

    @property
    def product(self) -> int:
        o1, o2, o3 = self.outputs
        return o1 * o2 * o3


#: Denominator grid for sampled measurement times: fine enough that balance
#: statistics are unaffected, coarse enough to keep rationals small.
TIME_DENOMINATOR_BITS = 32


def _numerators(schedule: Schedule, regime: Regime, seed: int, count: int):
    """The window's time denominator and its first ``count`` seeded numerators:
    with start a/b and width c/d, grid point m in [1, 2^32) is the time
    (a*d*2^32 + m*c*b) / (b*d*2^32), start + m/2^32 * width unreduced."""
    window = schedule.window_for(regime)
    (a, b), (c, d) = window.start.as_integer_ratio(), (window.end - window.start).as_integer_ratio()
    grid = 1 << TIME_DENOMINATOR_BITS
    base, step = a * d * grid, c * b
    rng = SplitMix64(derive_seed(seed, f"ghz:{Regime(regime).value}"))
    return b * d * grid, (base + (1 + rng.below(grid - 1)) * step for _ in range(count))


def window_times(schedule: Schedule, regime: Regime, seed: int, count: int) -> Iterator[Fraction]:
    """The regime's first ``count`` seeded measurement times, in trial order.

    The in-process run and the networked coordinator both draw from here,
    which is what makes a networked session equal the in-process one.
    """
    den, numerators = _numerators(schedule, regime, seed, count)
    return (Fraction(num, den) for num in numerators)


def _trials(schedule, regime, samples, seed, assignment):
    """The window's time denominator and each trial's (numerator, outputs); drawn
    times are interior, so the window check of :func:`node_output` is skipped."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    responses = [(assignment or default_assignment()).response(node, regime) for node in NODES]
    den, numerators = _numerators(schedule, regime, seed, samples)
    (s1, m1), (s2, m2), (s3, m3) = [(r.sign, _multipliers(r.indices, den)) for r in responses]
    return den, (
        (num, (_output(s1, m1, num, den), _output(s2, m2, num, den), _output(s3, m3, num, den)))
        for num in numerators
    )


def run_window(
    schedule: Schedule,
    regime: Regime,
    samples: int,
    seed: int,
    assignment: NodeAssignment | None = None,
) -> list[TrialTriple]:
    """Sample shared measurement times in the regime's window and record all
    three outputs per trial.  Deterministic given the seed."""
    den, trials = _trials(schedule, regime, samples, seed, assignment)
    return [TrialTriple(Regime(regime), Fraction(num, den), outputs) for num, outputs in trials]


def output_counts(schedule: Schedule, regime: Regime, samples: int, seed: int,
                  assignment: NodeAssignment | None = None) -> dict[tuple[int, int, int], int]:
    """Trials per output triple over the trials of :func:`run_window`, keeping none."""
    counts: dict[tuple[int, int, int], int] = {}
    for _num, outputs in _trials(schedule, regime, samples, seed, assignment)[1]:
        counts[outputs] = counts.get(outputs, 0) + 1
    return counts


def run_all_regimes(
    schedule: Schedule,
    samples_per_regime: int,
    seed: int,
    assignment: NodeAssignment | None = None,
) -> dict[Regime, list[TrialTriple]]:
    return {
        regime: run_window(schedule, regime, samples_per_regime, seed, assignment)
        for regime in REGIME_ORDER
    }


def marginal_balance(trials: Sequence[TrialTriple], node: int) -> float:
    """Empirical fraction of +1 outputs for one node over the given trials."""
    if not trials:
        raise DomainError("marginal balance needs at least one trial")
    if node not in NODES:
        raise DomainError(f"node must be 1, 2 or 3, got {node}")
    plus = sum(1 for trial in trials if trial.outputs[node - 1] == 1)
    return plus / len(trials)
