import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corrlab.dist import JointTable, marginalize, rationalize, sign_vectors
from corrlab.errors import CapacityError, DomainError
from corrlab.realizability import (
    DEFAULT_ARITY_CAP,
    FeasibilityResult,
    MarginalSystem,
    build_constraint_system,
    check_realizability,
    four_cycle_system,
    system_from_pair_covariances,
    triangle_system,
    verify_certificate,
)

from oracle import realizability_oracle

SQRT_HALF = rationalize(1 / math.sqrt(2))

#: Exact L1 violation of the modified Vorob'ev system (sigmas r, r, 0):
#: equals 2r - 1, confirmed against an independent float LP and strictly
#: above the hand-derivable single-event gap (2r - 1)/4 ~ 0.1036.
TABLE1_MARGIN = 2 * SQRT_HALF - 1

covariance_grid = st.integers(-10, 10).map(lambda k: Fraction(k, 10))


def table1_system():
    return triangle_system([SQRT_HALF, SQRT_HALF, Fraction(0)])


class TestBuildConstraintSystem:
    def test_table1_shape(self):
        encoded = build_constraint_system(table1_system())
        assert len(encoded.matrix) == 13  # 3 pairs x 4 cells + normalization
        assert all(len(row) == 8 for row in encoded.matrix)
        assert all(entry in (0, 1) for row in encoded.matrix for entry in row)

    def test_single_pair_shape(self):
        system = system_from_pair_covariances([Fraction(0)], [(0, 1)], 2)
        encoded = build_constraint_system(system)
        assert len(encoded.matrix) == 5
        assert all(len(row) == 4 for row in encoded.matrix)

    def test_four_cycle_shape(self):
        encoded = build_constraint_system(four_cycle_system([Fraction(0)] * 4))
        assert len(encoded.matrix) == 17
        assert all(len(row) == 16 for row in encoded.matrix)

    def test_arity_cap(self):
        encoded = build_constraint_system(MarginalSystem(DEFAULT_ARITY_CAP, ()))
        assert len(encoded.atoms) == 2**DEFAULT_ARITY_CAP
        with pytest.raises(CapacityError):
            build_constraint_system(MarginalSystem(DEFAULT_ARITY_CAP + 1, ()))


class TestCheckRealizability:
    def test_table1_infeasible(self):
        result = check_realizability(table1_system())
        assert not result.feasible
        assert result.margin == TABLE1_MARGIN
        assert verify_certificate(table1_system(), result)

    def test_all_quarter_feasible(self):
        system = triangle_system([Fraction(0)] * 3)
        result = check_realizability(system)
        assert result.feasible
        assert result.margin == 0
        for subset, table in system.constraints:
            assert marginalize(result.witness, subset) == table

    def test_four_cycle_qm_infeasible(self):
        system = four_cycle_system([SQRT_HALF, SQRT_HALF, SQRT_HALF, -SQRT_HALF])
        result = check_realizability(system)
        assert not result.feasible
        assert result.margin == 2 * TABLE1_MARGIN
        assert verify_certificate(system, result)

    def test_deterministic(self):
        a = check_realizability(table1_system())
        b = check_realizability(table1_system())
        assert a == b

    def test_monotone_under_constraint_deletion(self):
        full = table1_system()
        for drop in range(3):
            kept = tuple(
                c for index, c in enumerate(full.constraints) if index != drop
            )
            result = check_realizability(MarginalSystem(3, kept))
            assert result.feasible  # any two pair tables alone always extend

    def test_witness_is_genuine_distribution(self):
        result = check_realizability(triangle_system([Fraction(1, 2)] * 3))
        assert result.feasible
        assert sum(result.witness.atoms.values()) == 1
        assert all(mass > 0 for mass in result.witness.atoms.values())


class TestVerifyCertificate:
    def test_accepts_solver_output_both_ways(self):
        infeasible = table1_system()
        feasible = triangle_system([Fraction(0)] * 3)
        assert verify_certificate(infeasible, check_realizability(infeasible))
        assert verify_certificate(feasible, check_realizability(feasible))

    def test_rejects_forged_witness(self):
        eighth = Fraction(1, 8)
        forged = FeasibilityResult(
            feasible=True,
            margin=Fraction(0),
            witness=JointTable(3, {vec: eighth for vec in sign_vectors(3)}),
        )
        assert not verify_certificate(table1_system(), forged)

    def test_rejects_tampered_certificate(self):
        result = check_realizability(table1_system())
        tampered = FeasibilityResult(
            feasible=False,
            margin=result.margin,
            certificate=result.certificate[:-1] + (result.certificate[-1] + 1,),
        )
        assert not verify_certificate(table1_system(), tampered)

    def test_rejects_certificate_with_a_positive_atom_score(self):
        # The gain equals the claimed margin, but every atom in the first
        # cell scores 1/2 > 0, so the functional separates nothing.
        system = table1_system()
        encoded = build_constraint_system(system)
        certificate = (Fraction(1, 2),) + (Fraction(0),) * (len(encoded.cells) - 1)
        forged = FeasibilityResult(
            feasible=False, margin=encoded.rhs[0] / 2, certificate=certificate
        )
        assert not verify_certificate(system, forged)


class TestAgainstBruteForceOracle:
    def test_triangle_grid_agrees_with_vertex_enumeration(self):
        # Full-resolution grids run in the acceptance suite; step 0.4 plus the
        # boundary keeps this under a minute while still crossing every facet.
        points = [Fraction(k, 10) for k in range(-10, 11, 4)]
        for sigmas in itertools.product(points, repeat=3):
            system = triangle_system(list(sigmas))
            assert check_realizability(system).feasible == realizability_oracle(system)

    @settings(max_examples=50, deadline=None)
    @given(covariance_grid, covariance_grid, covariance_grid)
    def test_random_triples_agree(self, sa, sb, sc):
        system = triangle_system([sa, sb, sc])
        assert check_realizability(system).feasible == realizability_oracle(system)

    @settings(max_examples=15, deadline=None)
    @given(st.tuples(covariance_grid, covariance_grid, covariance_grid, covariance_grid))
    def test_four_cycle_spot_checks(self, sigmas):
        system = four_cycle_system(list(sigmas))
        assert check_realizability(system).feasible == realizability_oracle(system)


def test_overlapping_subsets_allowed_but_inconsistent_marginals_detected():
    # Same pair constrained twice with different tables can never be realized.
    tables = [
        system_from_pair_covariances([Fraction(0)], [(0, 1)], 2).constraints[0],
        system_from_pair_covariances([Fraction(1)], [(0, 1)], 2).constraints[0],
    ]
    system = MarginalSystem(2, tuple(tables))
    result = check_realizability(system)
    assert not result.feasible
    assert verify_certificate(system, result)


def test_invalid_systems_rejected():
    with pytest.raises(DomainError):
        MarginalSystem(2, (((0, 5), JointTable(2, {(1, 1): Fraction(1)})),))
    with pytest.raises(DomainError):
        MarginalSystem(2, (((0,), JointTable(2, {(1, 1): Fraction(1)})),))
