import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corrlab.errors import DomainError
from corrlab.ghz import (
    EXPECTED_PRODUCT,
    NODES,
    REGIME_ORDER,
    Regime,
    Response,
    Schedule,
    Window,
    default_assignment,
    default_schedule,
    marginal_balance,
    node_output,
    output_counts,
    rademacher,
    run_all_regimes,
    run_window,
    window_times,
)
from corrlab.ghznet import schedule_from_wire
from corrlab.rng import SplitMix64

times = st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(100))

#: Windows whose starts and widths are not dyadic, so sampled times are not
#: on a power-of-two grid and no r_k with a large k is an exact zero.
NON_DYADIC = "yyx:1/3:5/7;yxy:1:3/2;xyy:2:5;xxx:6:61/10"
BOTH_SCHEDULES = pytest.mark.parametrize("wire", [None, NON_DYADIC], ids=["default", "non-dyadic"])


def reference_rademacher(k, t):
    """r_k(t) from the definition: the parity of floor(2^k t), +1 at a sine zero."""
    u = t * 2**k
    if u.denominator == 1:
        return 1
    return 1 if math.floor(u) % 2 == 0 else -1


class TestRademacher:
    def test_reference_values(self):
        assert rademacher(1, Fraction(1, 4)) == 1
        assert rademacher(1, Fraction(3, 4)) == -1
        assert rademacher(2, Fraction(3, 10)) == -1
        assert rademacher(3, Fraction(1, 16)) == 1

    def test_matches_float_sine_off_grid(self):
        for num in range(1, 193, 3):
            t = Fraction(num, 193)  # prime denominator avoids exact zeros
            for k in (1, 2, 3):
                expected = 1 if math.sin((1 << k) * math.pi * float(t)) > 0 else -1
                assert rademacher(k, t) == expected

    def test_zero_crossing_convention(self):
        assert rademacher(1, Fraction(1, 2)) == 1
        assert rademacher(2, Fraction(3, 4)) == 1

    @given(st.integers(1, 6), times)
    def test_unit_periodicity(self, k, t):
        assert rademacher(k, t) == rademacher(k, t + 1)

    @given(times)
    def test_halving_relation(self, t):
        # r_{k+1}(t) = r_k(2t) by definition of the dyadic squeeze.
        assert rademacher(2, t) == rademacher(1, 2 * t)

    @given(st.integers(1, 200), st.fractions(
        min_value=Fraction(1, 10**6), max_value=100, max_denominator=10**15))
    def test_matches_floor_parity_reference(self, k, t):
        assert rademacher(k, t) == reference_rademacher(k, t)

    @given(st.integers(1, 200), st.data())
    def test_exact_zeros_and_their_neighbours(self, k, data):
        # j/2^m with m <= k is a sine zero of r_k; an odd multiple of 2^-(k+1)
        # lies midway between two zeros.
        j = data.draw(st.integers(1, 10**6))
        t = Fraction(j, 2 ** data.draw(st.integers(0, k)))
        assert rademacher(k, t) == reference_rademacher(k, t) == 1
        t = Fraction(2 * j - 1, 2 ** (k + 1))
        assert rademacher(k, t) == reference_rademacher(k, t)

    def test_huge_index_costs_no_more(self):
        # 2^k t would be a 125 GB integer; the rule needs 2^k mod 2den only.
        # 2^(10^12) = 2 (mod 14), so 2^k * 5/7 is 10/7 plus an even integer.
        t = Fraction(5, 7)
        assert rademacher(10**12, t) == reference_rademacher(1, t) == -1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rademacher(0, Fraction(1, 2))
        with pytest.raises(DomainError):
            rademacher(1, Fraction(0))


class TestAssignmentIdentities:
    @given(times)
    def test_products_are_exact_in_every_regime(self, t):
        assignment = default_assignment()
        for regime in REGIME_ORDER:
            product = 1
            for node in NODES:
                product *= assignment.response(node, regime)(t)
            assert product == EXPECTED_PRODUCT[regime]

    @given(times)
    def test_index_substitution_preserves_identities(self, t):
        assignment = default_assignment(indices=(4, 1, 6))
        for regime in REGIME_ORDER:
            product = 1
            for node in NODES:
                product *= assignment.response(node, regime)(t)
            assert product == EXPECTED_PRODUCT[regime]

    def test_distinct_indices_required(self):
        with pytest.raises(DomainError):
            default_assignment(indices=(1, 1, 2))

    def test_response_labels(self):
        assignment = default_assignment()
        assert assignment.response(1, Regime.YYX) == Response(-1, (1,))
        assert assignment.response(3, Regime.XXX) == Response(1, (1, 2))


class TestSchedule:
    def test_default_layout(self):
        schedule = default_schedule()
        assert [w.regime for w in schedule.windows] == list(REGIME_ORDER)
        assert schedule.window_for(Regime.YYX).start == 1
        assert schedule.window_for(Regime.YYX).contains(Fraction(3, 2))
        # switching gap
        assert not any(w.contains(Fraction(17, 8)) for w in schedule.windows)

    def test_second_window_for_a_regime_rejected(self):
        with pytest.raises(DomainError, match="two windows"):
            Schedule(
                (
                    Window(Regime.YYX, Fraction(1), Fraction(2)),
                    Window(Regime.YYX, Fraction(3), Fraction(4)),
                )
            )

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            Schedule(
                (
                    Window(Regime.YYX, Fraction(1), Fraction(2)),
                    Window(Regime.YXY, Fraction(3, 2), Fraction(5, 2)),
                )
            )

    def test_node_output_outside_window(self):
        with pytest.raises(DomainError):
            node_output(
                default_assignment(), default_schedule(), 1, Regime.YYX, Fraction(5)
            )


class TestRunWindow:
    def test_deterministic(self):
        schedule = default_schedule()
        a = run_window(schedule, Regime.YYX, 500, seed=7)
        assert a == run_window(schedule, Regime.YYX, 500, seed=7)
        assert a != run_window(schedule, Regime.YYX, 500, seed=8)

    def test_times_inside_window(self):
        schedule = default_schedule()
        window = schedule.window_for(Regime.XYY)
        for trial in run_window(schedule, Regime.XYY, 300, seed=1):
            assert window.contains(trial.t)

    def test_products_exact_per_regime(self):
        results = run_all_regimes(default_schedule(), 2000, seed=13)
        for regime, trials in results.items():
            assert all(trial.product == EXPECTED_PRODUCT[regime] for trial in trials)

    def test_marginals_balanced(self):
        results = run_all_regimes(default_schedule(), 20000, seed=99)
        # binomial five-sigma band around 1/2
        slack = 5 * math.sqrt(0.25 / 20000)
        for trials in results.values():
            for node in NODES:
                assert abs(marginal_balance(trials, node) - 0.5) < slack

    @BOTH_SCHEDULES
    def test_window_times_strictly_interior(self, wire):
        schedule = default_schedule() if wire is None else schedule_from_wire(wire)
        for regime in REGIME_ORDER:
            window = schedule.window_for(regime)
            for t in window_times(schedule, regime, 0, 100):
                assert window.start < t < window.end

    @given(st.lists(st.integers(1, 200), min_size=3, max_size=3, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_sampled_outputs_match_the_reference(self, indices):
        assignment = default_assignment(tuple(indices))
        schedule = schedule_from_wire(NON_DYADIC)
        for regime in REGIME_ORDER:
            for trial in run_window(schedule, regime, 20, seed=3, assignment=assignment):
                for node, output in zip(NODES, trial.outputs):
                    response = assignment.response(node, regime)
                    expected = response.sign
                    for k in response.indices:
                        expected *= reference_rademacher(k, trial.t)
                    assert output == expected

    @BOTH_SCHEDULES
    @pytest.mark.parametrize("indices", [(1, 2, 3), (4, 5, 6)])
    def test_output_counts_tally_run_all_regimes(self, wire, indices):
        schedule = default_schedule() if wire is None else schedule_from_wire(wire)
        assignment = default_assignment(indices)
        for seed in range(1, 21):
            by_regime = run_all_regimes(schedule, 200, seed, assignment)
            for regime in REGIME_ORDER:
                expected = {}
                for trial in by_regime[regime]:
                    expected[trial.outputs] = expected.get(trial.outputs, 0) + 1
                assert output_counts(schedule, regime, 200, seed, assignment) == expected

    def test_output_counts_need_a_trial(self):
        with pytest.raises(DomainError):
            output_counts(default_schedule(), Regime.YYX, 0, seed=1)


class TestCounterfactual:
    """Same time, different regime: the 'same' observable need not repeat."""

    def test_fixed_relations_at_random_times(self):
        # Station 3's yxy and xyy responses are sign-opposite functions;
        # station 1's yyx and yxy responses are the identical function.
        assignment = default_assignment()
        rng = SplitMix64(31)
        for _ in range(200):
            t = Fraction(1 + rng.below((1 << 20) - 1), 1 << 20)
            y3 = assignment.response(3, Regime.YXY)(t) * assignment.response(3, Regime.XYY)(t)
            y1 = assignment.response(1, Regime.YYX)(t) * assignment.response(1, Regime.YXY)(t)
            assert (y3, y1) == (-1, 1)

    def test_invalid_time(self):
        with pytest.raises(DomainError):
            default_assignment().response(3, Regime.YXY)(Fraction(-1))


def test_locality_outputs_depend_only_on_node_regime_time():
    # Recomputing any single output in isolation reproduces the trial value.
    assignment = default_assignment()
    schedule = default_schedule()
    for regime in REGIME_ORDER:
        for trial in run_window(schedule, regime, 50, seed=5):
            for node in NODES:
                recomputed = node_output(assignment, schedule, node, regime, trial.t)
                assert recomputed == trial.outputs[node - 1]


def test_response_validation():
    with pytest.raises(DomainError):
        Response(0, (1,))
    with pytest.raises(DomainError):
        Response(1, (0,))
