"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS or FAIL line so a log scrape shows the
verdict per criterion.  Tolerances and runtime budgets are fixed here and
are not meant to be relaxed.
"""

import itertools
import math
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from corrlab.aspect import (
    estimate_gamma,
    gamma_max_matrix,
    matrix_from_covariances,
    random_source_model,
    reorder_demonstration,
    sample_delayed_choice,
    simulate_source_model,
)
from corrlab.cli import preset_config, run
from corrlab.dist import marginalize, qm_covariance, rationalize
from corrlab.ghz import (
    EXPECTED_PRODUCT,
    NODES,
    REGIME_ORDER,
    Regime,
    default_assignment,
    default_schedule,
    marginal_balance,
    run_all_regimes,
)
from corrlab.ghznet import coordinator_run, verify_transcript
from corrlab.inequalities import (
    BellTriple,
    ChshQuad,
    all_satisfied,
    bell_check_all,
    chsh_check_all,
)
from corrlab.realizability import (
    check_realizability,
    four_cycle_system,
    triangle_system,
    verify_certificate,
)
from corrlab.rng import SplitMix64

SQRT_HALF = rationalize(1 / math.sqrt(2))


@pytest.fixture
def announce(capfd):
    def _announce(line: str) -> None:
        # step outside pytest's capture so the verdict line always reaches the log
        with capfd.disabled():
            print(line, flush=True)

    return _announce


@contextmanager
def criterion(announce, number: int, description: str, budget_seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        announce(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.monotonic() - started
    if elapsed > budget_seconds:
        announce(f"ACCEPTANCE {number} FAIL: {description} (took {elapsed:.1f} s, budget {budget_seconds:g} s)")
        raise AssertionError(f"criterion {number} exceeded {budget_seconds:g} s budget: {elapsed:.1f} s")
    announce(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f} s)")


def test_criterion_1_triangle_infeasibility_both_branches(announce):
    with criterion(announce, 1, "triangle system infeasible with certificate; flat variant feasible", 1.0):
        report = run(preset_config("vorobev-table1"))
        results = dict(report.results)
        assert results["verdict"] == "INFEASIBLE"
        assert results["certificate_verified"] == "true"

        flat = triangle_system([Fraction(0)] * 3)
        outcome = check_realizability(flat)
        assert outcome.feasible
        for subset, table in flat.constraints:
            assert marginalize(outcome.witness, subset) == table


def test_criterion_2_four_cycle_infeasibility(announce):
    with criterion(announce, 2, "four-cycle system at the quantum point is infeasible", 1.0):
        system = four_cycle_system([SQRT_HALF, SQRT_HALF, SQRT_HALF, -SQRT_HALF])
        outcome = check_realizability(system)
        assert not outcome.feasible
        assert verify_certificate(system, outcome)


def test_criterion_3_satisfied_yet_infeasible_in_one_report(announce):
    with criterion(announce, 3, "primary inequality satisfied, cyclic variant violated, verdict infeasible", 5.0):
        from corrlab.cli import ExperimentConfig

        report = run(ExperimentConfig(mode="bell", sigmas=[SQRT_HALF, SQRT_HALF, Fraction(0)]))
        results = dict(report.results)
        assert results["bell[difference:ab-ac|bc]"].endswith("satisfied")
        cyclic = [
            results["bell[difference:ab-bc|ac]"],
            results["bell[difference:ac-bc|ab]"],
        ]
        assert any(line.endswith("VIOLATED") for line in cyclic)
        assert results["verdict"] == "INFEASIBLE"


def test_criterion_4_inequalities_equivalent_to_realizability(announce):
    with criterion(announce, 4, "inequality families match the solver on full grids and random points", 600.0):
        grid3 = [Fraction(k, 10) for k in range(-10, 11)]
        points3 = 0
        for sigmas in itertools.product(grid3, repeat=3):
            by_family = all_satisfied(bell_check_all(BellTriple(*sigmas)))
            assert by_family == check_realizability(triangle_system(list(sigmas))).feasible, sigmas
            points3 += 1
        assert points3 == 9261

        grid4 = [Fraction(k, 4) for k in range(-4, 5)]
        points4 = 0
        for sigmas in itertools.product(grid4, repeat=4):
            by_family = all_satisfied(chsh_check_all(ChshQuad(*sigmas)))
            assert by_family == check_realizability(four_cycle_system(list(sigmas))).feasible, sigmas
            points4 += 1
        assert points4 == 6561

        rng = SplitMix64(20260824)
        for _ in range(10_000):
            sigmas = [Fraction(rng.below(2001) - 1000, 1000) for _ in range(4)]
            by_family = all_satisfied(chsh_check_all(ChshQuad(*sigmas)))
            assert by_family == check_realizability(four_cycle_system(sigmas)).feasible, sigmas


def test_criterion_5_gamma_beyond_two(announce):
    with criterion(announce, 5, "gamma near 2*sqrt(2) for the quantum table and near 4 at the extreme", 60.0):
        angles = [math.radians(d) for d in (135, 135, 135, 45)]
        matrix = matrix_from_covariances([qm_covariance(angle) for angle in angles])
        estimate = estimate_gamma(sample_delayed_choice(matrix, 1_000_000, seed=20260824))
        assert abs(estimate.gamma - 2 * math.sqrt(2)) <= 5 * estimate.standard_error

        extreme = estimate_gamma(sample_delayed_choice(gamma_max_matrix(), 1_000_000, seed=20260824))
        assert abs(extreme.gamma - 4) <= 5 * max(extreme.standard_error, 1e-12)


def test_criterion_6_source_models_respect_the_bound(announce):
    with criterion(announce, 6, "100 random source models stay within |gamma| <= 2 and regroup to ±2", 120.0):
        for index in range(100):
            model = random_source_model(index)
            estimate = simulate_source_model(model, 100_000, seed=index + 1)
            assert abs(estimate.gamma) <= 2 + 5 * estimate.standard_error, index
            reorder = reorder_demonstration(model, 20_000, seed=index + 500)
            assert reorder.quadruples > 0, index
            assert reorder.all_plus_minus_two, index


def test_criterion_7_ghz_products_exact_and_marginals_balanced(announce):
    with criterion(announce, 7, "three-station products exact over 1e5 trials per regime, marginals balanced", 30.0):
        samples = 100_000
        by_regime = run_all_regimes(default_schedule(), samples, seed=20260824)
        for regime in REGIME_ORDER:
            trials = by_regime[regime]
            assert len(trials) == samples
            assert all(trial.product == EXPECTED_PRODUCT[regime] for trial in trials)
        slack = 5 * math.sqrt(0.25 / samples)
        for regime in REGIME_ORDER:
            for node in NODES:
                assert abs(marginal_balance(by_regime[regime], node) - 0.5) < slack, (regime, node)


def test_criterion_8_counterfactual_product_is_minus_one(announce):
    with criterion(announce, 8, "station 3's yxy and xyy responses multiply to -1 at 1000 random times", 1.0):
        assignment = default_assignment()
        rng = SplitMix64(8)
        for _ in range(1000):
            t = Fraction(1 + rng.below((1 << 32) - 1), 1 << 32) + rng.below(10)
            product = assignment.response(3, Regime.YXY)(t) * assignment.response(3, Regime.XYY)(t)
            assert product == -1, t


def test_criterion_9_networked_session_matches_in_process(announce, tmp_path):
    with criterion(announce, 9, "four-process session is byte-identical to in-process and never forwards results", 60.0):
        trials_per_regime = 25
        seed = 20260824
        processes = []
        endpoints = []
        try:
            for node in (1, 2, 3):
                config = tmp_path / f"node{node}.cfg"
                config.write_text(
                    f"mode = ghz-net-node\nrole = node{node}\nlisten = 127.0.0.1:0\n"
                )
                proc = subprocess.Popen(
                    [sys.executable, "-m", "corrlab", "--config", str(config)],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
                processes.append(proc)
                line = proc.stdout.readline()
                match = re.match(r"listening (\S+):(\d+)", line)
                assert match, f"node {node} announced {line!r}"
                endpoints.append((match.group(1), int(match.group(2))))

            transcript = coordinator_run(
                default_schedule(), trials_per_regime, seed, endpoints
            )
            for proc in processes:
                assert proc.wait(timeout=30) == 0
        finally:
            for proc in processes:
                if proc.poll() is None:
                    proc.kill()

        assert transcript.aborted_reason is None
        assert transcript.void_trials == []
        in_process = run_all_regimes(default_schedule(), trials_per_regime, seed)
        expected = [t for regime in REGIME_ORDER for t in in_process[regime]]
        assert transcript.trials == expected

        for entry in transcript.entries:
            if entry.direction.startswith("coord>"):
                assert entry.message.kind != "RESULT"
        report = verify_transcript(transcript)
        assert report.ok
        assert report.trials_checked == 3 * 4 * trials_per_regime
