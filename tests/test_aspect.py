import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corrlab.aspect import (
    ROW_LABELS,
    SourceModel,
    StochasticMatrix,
    estimate_gamma,
    gamma_max_matrix,
    matrix_from_covariances,
    random_source_model,
    reorder_demonstration,
    sample_delayed_choice,
    simulate_source_model,
)
from corrlab.dist import covariance_of, qm_covariance
from corrlab.errors import DomainError, InsufficientDataError
from corrlab.rng import SplitMix64, derive_seed

QM_ANGLES = tuple(math.radians(d) for d in (135, 135, 135, 45))
QM_MATRIX = matrix_from_covariances([qm_covariance(angle) for angle in QM_ANGLES])


def row_covariance(matrix, label):
    return covariance_of(matrix.rows[label], 0, 1)


class TestMatrices:
    def test_qm_matrix_row_covariances(self):
        matrix = QM_MATRIX
        r = row_covariance(matrix, "ab")
        assert abs(float(r) - 1 / math.sqrt(2)) < 1e-9
        assert row_covariance(matrix, "ac") == r
        assert row_covariance(matrix, "db") == r
        assert abs(float(row_covariance(matrix, "dc")) + 1 / math.sqrt(2)) < 1e-9

    def test_gamma_max_matrix(self):
        matrix = gamma_max_matrix()
        for label in ("ab", "ac", "db"):
            assert row_covariance(matrix, label) == 1
        assert row_covariance(matrix, "dc") == -1

    def test_matrix_from_covariances(self):
        matrix = matrix_from_covariances([Fraction(1, 2)] * 4)
        assert all(row_covariance(matrix, label) == Fraction(1, 2) for label in ROW_LABELS)

    def test_row_validation(self):
        half = Fraction(1, 2)
        good = {(1, 1): half, (-1, -1): half}
        with pytest.raises(DomainError):
            StochasticMatrix({"ab": good, "ac": good, "db": good})
        with pytest.raises(DomainError):
            StochasticMatrix(
                {"ab": good, "ac": good, "db": good, "dc": {(1, 1): Fraction(1, 3)}}
            )
        with pytest.raises(DomainError):  # masses are exact, as in every JointTable
            StochasticMatrix(
                {"ab": good, "ac": good, "db": good, "dc": {(1, 1): 0.5, (-1, -1): 0.5}}
            )


def row_totals(counts):
    return {label: sum(counts[label].values()) for label in ROW_LABELS}


class TestSampling:
    def test_deterministic_given_seed_and_shards(self):
        matrix = QM_MATRIX
        a = sample_delayed_choice(matrix, 2000, seed=11)
        b = sample_delayed_choice(matrix, 2000, seed=11)
        assert a == b
        assert a != sample_delayed_choice(matrix, 2000, seed=12)
        # one shard: the rows come from the stream labelled shard 0
        row_rng = SplitMix64(derive_seed(11, "aspect:rows:0"))
        rows = [ROW_LABELS[row_rng.below(4)] for _ in range(2000)]
        assert row_totals(a) == {label: rows.count(label) for label in ROW_LABELS}

    def test_counts_add_up_to_trials(self):
        for trials in (1, 7, 100):
            counts = sample_delayed_choice(QM_MATRIX, trials, seed=5)
            assert sorted(counts) == sorted(ROW_LABELS)
            assert all(len(row) == 4 for row in counts.values())
            assert sum(row_totals(counts).values()) == trials

    def test_rows_roughly_uniform(self):
        counts = row_totals(sample_delayed_choice(gamma_max_matrix(), 40000, seed=17))
        # binomial(n, 1/4): five sigmas around n/4
        n = 40000
        slack = 5 * math.sqrt(n * 0.25 * 0.75)
        for label in ROW_LABELS:
            assert abs(counts[label] - n / 4) < slack

    def test_bad_arguments(self):
        matrix = gamma_max_matrix()
        with pytest.raises(DomainError):
            sample_delayed_choice(matrix, 0, seed=1)


class TestEstimateGamma:
    def test_gamma_max_estimate_is_exactly_four(self):
        counts = sample_delayed_choice(gamma_max_matrix(), 10000, seed=2)
        estimate = estimate_gamma(counts)
        assert estimate.gamma == 4.0
        assert estimate.standard_error == 0.0

    def test_qm_estimate_near_two_sqrt_two(self):
        counts = sample_delayed_choice(QM_MATRIX, 200000, seed=42)
        estimate = estimate_gamma(counts)
        assert abs(estimate.gamma - 2 * math.sqrt(2)) < 5 * estimate.standard_error
        assert 0 < estimate.standard_error < 0.01

    def test_missing_row_raises_with_row_name(self):
        counts = dict(sample_delayed_choice(gamma_max_matrix(), 400, seed=1))
        counts["dc"] = dict.fromkeys(counts["dc"], 0)
        with pytest.raises(InsufficientDataError, match="dc"):
            estimate_gamma(counts)
        del counts["dc"]
        with pytest.raises(InsufficientDataError, match="dc"):
            estimate_gamma(counts)


class TestSourceModels:
    def test_random_model_is_reproducible(self):
        assert random_source_model(9) == random_source_model(9)
        assert random_source_model(9) != random_source_model(10)

    def test_support_validation(self):
        with pytest.raises(DomainError):
            SourceModel((), {})
        with pytest.raises(DomainError):
            SourceModel(
                (("l0", Fraction(1, 2)),),
                {(s, "l0"): 1 for s in "adbc"},
            )
        with pytest.raises(DomainError):
            SourceModel(
                (("l0", Fraction(1)),),
                {("a", "l0"): 1, ("d", "l0"): 1, ("b", "l0"): 1, ("c", "l0"): 0},
            )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_gamma_within_classical_bound(self, seed):
        model = random_source_model(seed)
        estimate = simulate_source_model(model, 20000, seed=seed + 1)
        assert abs(estimate.gamma) <= 2 + 5 * estimate.standard_error

    def test_exact_gamma_matches_row_products(self):
        model = random_source_model(123)
        exact = sum(
            (
                prob * model.row_product(row, label) * (1 if row != "dc" else -1)
                for label, prob in model.support
                for row in ROW_LABELS
            ),
            Fraction(0),
        )
        estimate = simulate_source_model(model, 200000, seed=77)
        assert abs(estimate.gamma - float(exact)) < 5 * estimate.standard_error


class TestReorderDemonstration:
    def test_quadruples_all_plus_minus_two(self):
        for seed in (1, 2, 3, 50):
            model = random_source_model(seed)
            report = reorder_demonstration(model, 8000, seed=seed + 1000)
            assert report.quadruples > 0
            assert report.all_plus_minus_two
            assert set(report.gammas_seen) <= {-2, 2}

    def test_accounting_adds_up(self):
        model = random_source_model(4)
        report = reorder_demonstration(model, 5000, seed=8)
        assert 4 * report.quadruples + report.discarded == 5000

    def test_single_parameter_model_keeps_nearly_everything(self):
        model = SourceModel(
            (("only", Fraction(1)),),
            {("a", "only"): 1, ("d", "only"): -1, ("b", "only"): 1, ("c", "only"): 1},
        )
        report = reorder_demonstration(model, 4000, seed=21)
        # with one parameter, only row-count imbalance is discarded
        assert report.discarded < 400
        assert report.gammas_seen in ((-2,), (2,), (-2, 2))
