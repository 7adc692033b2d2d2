import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corrlab.dist import rationalize
from corrlab.errors import DomainError
from corrlab.inequalities import (
    BellTriple,
    ChshQuad,
    all_satisfied,
    bell_check_all,
    chsh_check_all,
    chsh_value,
)
from corrlab.realizability import (
    check_realizability,
    four_cycle_system,
    triangle_system,
)

SQRT_HALF = rationalize(1 / math.sqrt(2))

covariance_grid = st.integers(-8, 8).map(lambda k: Fraction(k, 8))


class TestBellCheck:
    def test_primary_variant_on_qm_covariances(self):
        triple = BellTriple(SQRT_HALF, SQRT_HALF, Fraction(0))
        verdict = bell_check_all(triple)[0]
        assert verdict.variant == "difference:ab-ac|bc"
        assert verdict.lhs == 0
        assert verdict.bound == 1
        assert verdict.satisfied

    def test_cyclic_variants_catch_qm_covariances(self):
        # The two rotated variants both fail: |r - 0| > 1 - r for r ~ 0.707.
        triple = BellTriple(SQRT_HALF, SQRT_HALF, Fraction(0))
        for verdict in bell_check_all(triple)[1:3]:
            assert verdict.lhs == SQRT_HALF
            assert verdict.bound == 1 - SQRT_HALF
            assert not verdict.satisfied

    def test_perfect_correlations_saturate(self):
        triple = BellTriple(Fraction(1), Fraction(1), Fraction(1))
        for verdict in bell_check_all(triple):
            assert verdict.satisfied
            assert abs(verdict.lhs) == verdict.bound or verdict.bound == 2

    def test_difference_family_misses_all_negative_point(self):
        # (-1, -1, -1) passes every difference variant but is unrealizable;
        # the sum variants flag it.
        triple = BellTriple(Fraction(-1), Fraction(-1), Fraction(-1))
        verdicts = bell_check_all(triple)
        assert all_satisfied([v for v in verdicts if v.variant.startswith("difference:")])
        assert not all_satisfied([v for v in verdicts if v.variant.startswith("sum:")])
        assert not check_realizability(triangle_system(list(triple.as_tuple()))).feasible

    def test_variant_names_are_stable(self):
        triple = BellTriple(Fraction(0), Fraction(0), Fraction(0))
        names = [v.variant for v in bell_check_all(triple)]
        assert names == [
            "difference:ab-ac|bc",
            "difference:ab-bc|ac",
            "difference:ac-bc|ab",
            "sum:ab+ac|bc",
            "sum:ab+bc|ac",
            "sum:ac+bc|ab",
        ]

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            BellTriple(Fraction(2), Fraction(0), Fraction(0))
        with pytest.raises(DomainError):
            BellTriple(0.5, Fraction(0), Fraction(0))


class TestChsh:
    def test_qm_quad_reaches_two_sqrt_two(self):
        quad = ChshQuad(SQRT_HALF, SQRT_HALF, SQRT_HALF, -SQRT_HALF)
        value = chsh_value(quad)
        assert value == 4 * SQRT_HALF
        assert abs(float(value) - 2 * math.sqrt(2)) < 1e-8
        verdicts = chsh_check_all(quad)
        assert not all_satisfied(verdicts)
        assert [v.variant for v in verdicts if not v.satisfied] == ["minus-dc"]

    def test_classical_bound_holds_on_deterministic_points(self):
        # Every deterministic sign assignment satisfies all four variants.
        for a, d, b, c in itertools.product((1, -1), repeat=4):
            quad = ChshQuad(
                Fraction(a * b), Fraction(a * c), Fraction(d * b), Fraction(d * c)
            )
            assert all_satisfied(chsh_check_all(quad))
            assert abs(chsh_value(quad)) <= 2

    def test_all_variants_present(self):
        quad = ChshQuad(Fraction(0), Fraction(0), Fraction(0), Fraction(0))
        assert [v.variant for v in chsh_check_all(quad)] == [
            "minus-dc",
            "minus-db",
            "minus-ac",
            "minus-ab",
        ]
        assert all(v.bound == 2 for v in chsh_check_all(quad))


class TestEquivalenceWithRealizability:
    """The inequality families decide exactly what the LP decides.

    The full fine grids run in the acceptance suite; here we use coarse
    grids and random rational points.
    """

    def test_triangle_coarse_grid(self):
        points = [Fraction(k, 4) for k in range(-4, 5)]
        for sigmas in itertools.product(points, repeat=3):
            by_family = all_satisfied(bell_check_all(BellTriple(*sigmas)))
            by_lp = check_realizability(triangle_system(list(sigmas))).feasible
            assert by_family == by_lp, sigmas

    @settings(max_examples=60, deadline=None)
    @given(covariance_grid, covariance_grid, covariance_grid, covariance_grid)
    def test_four_cycle_random_points(self, s1, s2, s3, s4):
        quad = ChshQuad(s1, s2, s3, s4)
        by_family = all_satisfied(chsh_check_all(quad))
        by_lp = check_realizability(four_cycle_system([s1, s2, s3, s4])).feasible
        assert by_family == by_lp
