"""Exact finite joint distributions over ±1-valued variables.

Everything here is computed over :class:`fractions.Fraction`; there is no
floating point anywhere in a probability.  Irrational covariances such as
1/sqrt(2) enter the system only through :func:`rationalize`, which replaces
them by a nearby rational at a caller-chosen precision.

Variables are identified positionally (0-based indices).  A joint table is a
sparse map from outcome tuples like ``(+1, -1, +1)`` to probability mass;
absent outcomes carry mass zero.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DomainError

SignVector = tuple[int, ...]

#: Default bound on the error introduced when rationalizing an irrational.
DEFAULT_PRECISION = Fraction(1, 10**9)

ZERO = Fraction(0)


def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"expected an exact rational, got {value!r}")


#: The one text form of an exact rational: ASCII ``n`` or ``n/d`` with d > 0.
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def rational_text(value: Fraction) -> str:
    """``value`` as ``n`` or ``n/d``; :func:`parse_rational` reads it back."""
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def parse_rational(text: str) -> Fraction:
    """The rational written ``n`` or ``n/d`` in ASCII digits; DomainError otherwise."""
    if not _RATIONAL.fullmatch(text):
        raise DomainError(f"{text!r} is not a rational n or n/d with d > 0")
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def covariance(value) -> Fraction:
    """``value`` as an exact covariance: a Fraction or int within [-1, 1]."""
    sigma = _as_rational(value)
    if abs(sigma) > 1:
        raise DomainError(f"covariance {sigma} outside [-1, 1]")
    return sigma


def rationalize(value: float, max_error: Fraction = DEFAULT_PRECISION) -> Fraction:
    """Best rational approximation of ``value`` with error below ``max_error``.

    Returns the input unchanged when it is already a Fraction or int.
    """
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if not math.isfinite(value):
        raise DomainError(f"cannot rationalize non-finite value {value!r}")
    exact = Fraction(value)
    approx = exact.limit_denominator(max(1, int(1 / max_error)))
    if abs(approx - exact) >= max_error:  # pragma: no cover - limit_denominator guarantee
        approx = exact
    return approx


def sign_vectors(arity: int) -> Iterable[SignVector]:
    """All outcome tuples of the given arity, in a fixed canonical order."""
    return itertools.product((1, -1), repeat=arity)


def _check_sign_vector(values: Sequence[int], arity: int) -> SignVector:
    vec = tuple(values)
    if len(vec) != arity:
        raise DomainError(f"outcome {vec} has length {len(vec)}, expected {arity}")
    if any(v not in (1, -1) for v in vec):
        raise DomainError(f"outcome {vec} has entries outside {{-1, +1}}")
    return vec


@dataclass(frozen=True)
class JointTable:
    """A probability distribution over {±1}^arity, stored sparsely and exactly.

    Zero-mass atoms are dropped on construction so that equality of tables is
    equality of distributions.
    """

    arity: int
    atoms: Mapping[SignVector, Fraction]

    def __post_init__(self):
        if self.arity < 1:
            raise DomainError("arity must be positive")
        cleaned: dict[SignVector, Fraction] = {}
        total = ZERO
        for key, mass in self.atoms.items():
            vec = _check_sign_vector(key, self.arity)
            mass = _as_rational(mass)
            if mass < 0:
                raise DomainError(f"negative mass {mass} on {vec}")
            if mass > 0:
                cleaned[vec] = cleaned.get(vec, ZERO) + mass
            total += mass
        if total != 1:
            raise DomainError(f"masses sum to {total}, expected exactly 1")
        object.__setattr__(self, "atoms", cleaned)

    def mass(self, outcome: Sequence[int]) -> Fraction:
        return self.atoms.get(tuple(outcome), ZERO)

    def __eq__(self, other):
        if not isinstance(other, JointTable):
            return NotImplemented
        return self.arity == other.arity and dict(self.atoms) == dict(other.atoms)

    def __hash__(self):
        return hash((self.arity, frozenset(self.atoms.items())))


def pair_table_from_covariance(sigma) -> JointTable:
    """Pair table with uniform ±1 marginals and covariance ``sigma``.

    Diagonal cells get (1+sigma)/4, off-diagonal cells (1-sigma)/4.
    """
    sigma = covariance(sigma)
    same = (1 + sigma) / 4
    diff = (1 - sigma) / 4
    return JointTable(2, {(1, 1): same, (1, -1): diff, (-1, 1): diff, (-1, -1): same})


def covariance_of(joint: JointTable, i: int, j: int) -> Fraction:
    """Exact E[X_i X_j] under ``joint``."""
    for index in (i, j):
        if not 0 <= index < joint.arity:
            raise DomainError(f"variable index {index} out of range for arity {joint.arity}")
    if i == j:
        raise DomainError("covariance needs two distinct variables")
    return sum((mass * (vec[i] * vec[j]) for vec, mass in joint.atoms.items()), ZERO)


def marginalize(joint: JointTable, subset: Sequence[int]) -> JointTable:
    """Marginal distribution of ``joint`` on the ordered variable ``subset``."""
    indices = tuple(subset)
    if not indices:
        raise DomainError("cannot marginalize to an empty subset")
    if len(set(indices)) != len(indices):
        raise DomainError(f"subset {indices} contains repeated variables")
    for index in indices:
        if not 0 <= index < joint.arity:
            raise DomainError(f"variable index {index} out of range for arity {joint.arity}")
    atoms: dict[SignVector, Fraction] = {}
    for vec, mass in joint.atoms.items():
        key = tuple(vec[i] for i in indices)
        atoms[key] = atoms.get(key, ZERO) + mass
    return JointTable(len(indices), atoms)


def qm_covariance(angle_radians: float, max_error: Fraction = DEFAULT_PRECISION) -> Fraction:
    """Covariance predicted for two analyzers separated by the given angle.

    The model value is -cos(angle); the result is rationalized so the exact
    engine can consume it.
    """
    if not math.isfinite(angle_radians):
        raise DomainError("angle must be finite")
    # No clamp is needed: -cos lies in [-1, 1], and so does its best rational
    # approximation, since -1 and 1 are themselves candidates.
    return rationalize(-math.cos(angle_radians), max_error)
