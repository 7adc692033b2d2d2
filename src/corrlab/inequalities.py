"""Pairwise-correlation inequalities for three and four ±1 variables.

Two families are implemented for the three-variable case, each in its
three cyclic variants:

* ``difference`` — |s1 - s2| <= 1 - s3, the form used throughout the
  source material for this project's triangle systems;
* ``sum``        — |s1 + s2| <= 1 + s3, the mirror obtained by flipping
  the sign of one variable.

The three cyclic difference variants alone do not characterize
realizability: they miss the all-negative facet (covariances (-1, -1, -1)
satisfy every difference variant yet extend to no joint distribution).
Adding the sum variants completes the facet description of the realizable
set, which the test suite checks against the LP decision on a full grid.

All comparisons are exact rational arithmetic; no floats in any verdict.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dist import covariance

#: Cyclic role permutations for a triple (s_ab, s_ac, s_bc): each entry
#: gives (lhs index 1, lhs index 2, bound index).
_CYCLIC = ((0, 1, 2), (0, 2, 1), (1, 2, 0))
_PAIR_NAMES = ("ab", "ac", "bc")

#: The two three-variable families: (name, sign character, combine).
_FAMILIES = (("difference", "-", operator.sub), ("sum", "+", operator.add))


@dataclass(frozen=True)
class BellTriple:
    sigma_ab: Fraction
    sigma_ac: Fraction
    sigma_bc: Fraction

    def __post_init__(self):
        for name in ("sigma_ab", "sigma_ac", "sigma_bc"):
            object.__setattr__(self, name, covariance(getattr(self, name)))

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.sigma_ab, self.sigma_ac, self.sigma_bc)


@dataclass(frozen=True)
class ChshQuad:
    sigma_ab: Fraction
    sigma_ac: Fraction
    sigma_db: Fraction
    sigma_dc: Fraction

    def __post_init__(self):
        for name in ("sigma_ab", "sigma_ac", "sigma_db", "sigma_dc"):
            object.__setattr__(self, name, covariance(getattr(self, name)))

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.sigma_ab, self.sigma_ac, self.sigma_db, self.sigma_dc)


@dataclass(frozen=True)
class InequalityVerdict:
    """One evaluated inequality: satisfied iff |lhs| <= bound, exactly."""

    variant: str
    lhs: Fraction
    bound: Fraction
    satisfied: bool


def bell_check_all(triple: BellTriple) -> list[InequalityVerdict]:
    """Both families' cyclic variants, e.g. ``difference:ab-ac|bc`` is |s_ab - s_ac| <= 1 - s_bc."""
    sigmas = triple.as_tuple()
    verdicts = []
    for form, sign, combine in _FAMILIES:
        for i, j, k in _CYCLIC:
            lhs = combine(sigmas[i], sigmas[j])
            bound = combine(1, sigmas[k])
            name = f"{form}:{_PAIR_NAMES[i]}{sign}{_PAIR_NAMES[j]}|{_PAIR_NAMES[k]}"
            verdicts.append(InequalityVerdict(name, lhs, bound, abs(lhs) <= bound))
    return verdicts


def chsh_value(quad: ChshQuad) -> Fraction:
    """The signed combination s_ab + s_ac + s_db - s_dc."""
    return quad.sigma_ab + quad.sigma_ac + quad.sigma_db - quad.sigma_dc


_CHSH_SIGNS = (
    ("minus-dc", (1, 1, 1, -1)),
    ("minus-db", (1, 1, -1, 1)),
    ("minus-ac", (1, -1, 1, 1)),
    ("minus-ab", (-1, 1, 1, 1)),
)


def chsh_check_all(quad: ChshQuad) -> list[InequalityVerdict]:
    """Every placement of the single minus sign; |lhs| covers both global signs."""
    sigmas = quad.as_tuple()
    verdicts = []
    for name, signs in _CHSH_SIGNS:
        lhs = sum((e * s for e, s in zip(signs, sigmas)), Fraction(0))
        verdicts.append(InequalityVerdict(name, lhs, Fraction(2), abs(lhs) <= 2))
    return verdicts


def all_satisfied(verdicts: Sequence[InequalityVerdict]) -> bool:
    return all(v.satisfied for v in verdicts)
