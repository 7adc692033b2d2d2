import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from corrlab.dist import (
    JointTable,
    covariance_of,
    marginalize,
    pair_table_from_covariance,
    parse_rational,
    qm_covariance,
    rational_text,
    rationalize,
    sign_vectors,
)
from corrlab.errors import DomainError

#: Spellings that ``int``/``Fraction`` would read but the one rational text
#: form rejects; the config and wire tests run them through their own entry.
REJECTED_RATIONALS = ["1_0", "+1/2", "1/-2", "1/0", "\u0660", "", "1 /2"]

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

covariances = st.integers(-20, 20).map(lambda k: Fraction(k, 20))


def uniform_joint(arity):
    mass = Fraction(1, 2**arity)
    return JointTable(arity, {vec: mass for vec in sign_vectors(arity)})


class TestPairTableFromCovariance:
    def test_irrational_covariance_rationalized(self):
        sigma = rationalize(1 / math.sqrt(2))
        table = pair_table_from_covariance(sigma)
        assert table.mass((1, 1)) == table.mass((-1, -1)) == (1 + sigma) / 4
        assert table.mass((1, -1)) == table.mass((-1, 1)) == (1 - sigma) / 4
        assert abs(float(table.mass((1, 1))) - (1 + 1 / math.sqrt(2)) / 4) < 1e-9

    def test_zero_covariance_gives_uniform_cells(self):
        table = pair_table_from_covariance(Fraction(0))
        assert all(table.mass(cell) == QUARTER for cell in sign_vectors(2))

    def test_perfect_correlation(self):
        table = pair_table_from_covariance(Fraction(1))
        assert table.mass((1, 1)) == table.mass((-1, -1)) == HALF
        assert table.mass((1, -1)) == table.mass((-1, 1)) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            pair_table_from_covariance(Fraction(3, 2))

    @given(covariances)
    def test_single_variable_marginals_are_uniform(self, sigma):
        joint = pair_table_from_covariance(sigma)
        for var in (0, 1):
            marginal = marginalize(joint, [var])
            assert marginal.mass((1,)) == HALF
            assert marginal.mass((-1,)) == HALF

    @given(covariances)
    def test_covariance_round_trip(self, sigma):
        joint = pair_table_from_covariance(sigma)
        assert covariance_of(joint, 0, 1) == sigma


class TestCovarianceOf:
    def test_uniform_pair_is_independent(self):
        assert covariance_of(uniform_joint(2), 0, 1) == 0

    def test_perfectly_correlated_pair(self):
        joint = JointTable(2, {(1, 1): HALF, (-1, -1): HALF})
        assert covariance_of(joint, 0, 1) == 1

    def test_uniform_triple_any_pair(self):
        joint = uniform_joint(3)
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert covariance_of(joint, i, j) == 0

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            covariance_of(uniform_joint(2), 0, 5)

    def test_index_equal_to_arity(self):
        joint = uniform_joint(3)
        for i, j in [(joint.arity, 0), (0, joint.arity)]:
            with pytest.raises(DomainError):
                covariance_of(joint, i, j)


class TestMarginalize:
    def test_uniform_triple_to_pair(self):
        marginal = marginalize(uniform_joint(3), [0, 1])
        assert all(marginal.mass(vec) == QUARTER for vec in sign_vectors(2))

    def test_point_mass_projects_to_point_mass(self):
        joint = JointTable(3, {(1, -1, 1): Fraction(1)})
        assert marginalize(joint, [2]) == JointTable(1, {(1,): Fraction(1)})

    def test_full_subset_is_identity(self):
        joint = JointTable(2, {(1, 1): HALF, (-1, 1): HALF})
        assert marginalize(joint, [0, 1]) == joint

    def test_empty_subset_rejected(self):
        with pytest.raises(DomainError):
            marginalize(uniform_joint(2), [])

    @given(covariances, covariances)
    def test_composition(self, sa, sb):
        # Marginalizing stepwise must agree with marginalizing directly.
        joint = JointTable(
            3,
            {
                vec: (1 + sa * vec[0] * vec[1]) * (1 + sb * vec[1] * vec[2]) / 8
                for vec in sign_vectors(3)
            },
        )
        via_pair = marginalize(marginalize(joint, [0, 1]), [1])
        assert via_pair == marginalize(joint, [1])


class TestQmCovariance:
    def test_right_angle_is_zero(self):
        assert qm_covariance(math.radians(90)) == 0

    def test_paper_angles(self):
        plus = qm_covariance(math.radians(135))
        minus = qm_covariance(math.radians(45))
        assert abs(float(plus) - 1 / math.sqrt(2)) < 1e-9
        assert abs(float(minus) + 1 / math.sqrt(2)) < 1e-9

    def test_result_in_range(self):
        for degrees in range(0, 361, 15):
            assert abs(qm_covariance(math.radians(degrees))) <= 1


def test_joint_table_rejects_bad_mass():
    with pytest.raises(DomainError):
        JointTable(1, {(1,): Fraction(2)})
    with pytest.raises(DomainError):
        JointTable(1, {(1,): Fraction(3, 2), (-1,): Fraction(-1, 2)})
    with pytest.raises(DomainError):
        JointTable(2, {(1, 2): Fraction(1)})


class TestRationalText:
    @given(st.fractions())
    def test_round_trip(self, value):
        assert parse_rational(rational_text(value)) == value

    def test_spellings(self):
        texts = [rational_text(Fraction(n, d)) for n, d in ((2, 1), (-3, 7), (0, 5))]
        assert texts == ["2", "-3/7", "0"]
        assert parse_rational("1/1") == 1 and parse_rational("-04/6") == Fraction(-2, 3)

    @pytest.mark.parametrize("text", REJECTED_RATIONALS)
    def test_rejected(self, text):
        with pytest.raises(DomainError):
            parse_rational(text)


def test_rationalize_precision():
    for value in (1 / math.sqrt(2), math.pi / 4, 0.123456789123):
        approx = rationalize(value)
        assert abs(float(approx) - value) < 1e-9
        assert approx.denominator <= 10**9
