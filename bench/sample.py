"""Sampling workload: the stochastic modes as users run them, through cli.run.

One job is a pass of five reports: the deterministic presets
vorobev-table1 and chsh-qm, then gamma-max (1e6 delayed-choice trials),
ghz-table5 (1e5 trials per regime) and a source-model run (1e5 trials).
The first pass runs the stochastic reports at the presets' own seed and
compares the SHA-256 of every rendered report with the digest recorded at
the seed commit; later passes use seeds drawn from the benchmark seed and
check invariants that hold for every seed instead.
"""

from __future__ import annotations

import hashlib
import math
import random
import tracemalloc
from dataclasses import replace
from time import perf_counter

import corrlab.aspect
import corrlab.ghz
from corrlab.aspect import (
    estimate_gamma,
    gamma_max_matrix,
    random_source_model,
    reorder_demonstration,
    sample_delayed_choice,
    simulate_source_model,
)
from corrlab.cli import ExperimentConfig, preset_config, run as cli_run
from corrlab.ghz import (
    EXPECTED_PRODUCT,
    NODES,
    REGIME_ORDER,
    default_assignment,
    default_schedule,
    marginal_balance,
    run_all_regimes,
)
from corrlab.rng import SplitMix64

from harness import Outcome, Tracer, end_to_end, run_jobs, timed_setup

PRESET_SEED = 20260824
SOURCE_TRIALS = 100_000

#: SHA-256 of ``Report.render()`` for each report of a pass at the presets'
#: own seed, recorded at the seed commit.  Report bytes must never change.
PINNED_DIGESTS = {
    "vorobev-table1": "9a8d0df98daea7a43bdb386457245dd60a8fd65cd6a0a3bb34b7b9e5e9be8110",
    "chsh-qm": "0476297c2b2e81ff16ae12942f75aafb0fb84b02debcc16942e6a362df90a38b",
    "gamma-max": "6b4c0e1051a0dce407de962ca7af189dea8e30f3693d1de10224f66fd3fd79d4",
    "ghz-table5": "449a742336e356681af8741363982a9f1b52fa508196c0e1d17c1042c3243fa9",
    "source": "f91bc5fc0217c32462941a1230ae28c07cd757beefe82af0c7767a26ef73e9bf",
}


def pass_configs(seed: int | None) -> list[tuple[str, ExperimentConfig]]:
    """The five reports of one pass; ``seed`` None means the presets' own."""
    stochastic = PRESET_SEED if seed is None else seed
    return [
        ("vorobev-table1", preset_config("vorobev-table1")),
        ("chsh-qm", preset_config("chsh-qm")),
        ("gamma-max", replace(preset_config("gamma-max"), seed=stochastic)),
        ("ghz-table5", replace(preset_config("ghz-table5"), seed=stochastic)),
        ("source", ExperimentConfig(mode="source", seed=stochastic, trials=SOURCE_TRIALS)),
    ]


def pass_seeds(seed: int, count: int = 64) -> list[int]:
    """Seeds for the stochastic reports of passes after the first."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**63) for _ in range(count)]


def trials_of(config: ExperimentConfig) -> int:
    if config.mode == "ghz":
        return config.trials * len(REGIME_ORDER)
    return config.trials or 0


# --- correctness --------------------------------------------------------------


def invariants_hold(config: ExperimentConfig, results: dict) -> bool:
    """Seed-independent checks on one rendered report."""
    if config.mode == "aspect":
        counts = [int(results[f"row[{r}]"].split()[0][2:]) for r in ("ab", "ac", "db", "dc")]
        gamma = float(results["gamma"])
        population = float(results["population_gamma"])
        error = float(results["standard_error"])
        return sum(counts) == config.trials and abs(gamma - population) <= 5 * error
    if config.mode == "ghz":
        if results["products_exact"] != "true":
            return False
        for regime in REGIME_ORDER:
            tally = dict(
                part.split(":") for part in results[f"product[{regime.value}]"].split(", ")
            )
            if tally != {f"{EXPECTED_PRODUCT[regime]:+d}": str(config.trials)}:
                return False
        slack = 5 * math.sqrt(0.25 / config.trials)
        return all(
            abs(float(part.split(":")[1]) - 0.5) < slack
            for node in NODES
            for part in results[f"balance[node{node}]"].split(", ")
        )
    if config.mode == "source":
        return (
            results["within_bound"] == "true"
            and results["all_quadruples_pm2"] == "true"
            and int(results["quadruples"]) > 0
        )
    return True  # deterministic presets are covered by their digest


def report_ok(name: str, config: ExperimentConfig, text: str, results: dict,
              pinned: bool) -> tuple[bool, bool]:
    """(report correct, digest mismatch) for one report."""
    if pinned or config.mode in ("check", "chsh"):
        mismatch = hashlib.sha256(text.encode("utf-8")).hexdigest() != PINNED_DIGESTS[name]
        return not mismatch, mismatch
    return invariants_hold(config, results), False


# --- replay of the mode runners' own calls ------------------------------------


def replay(config: ExperimentConfig, tracer: Tracer) -> None:
    """Call what the mode runner calls, one span per call."""
    if config.mode == "aspect":
        with tracer.span("aspect.sample"):
            records = sample_delayed_choice(gamma_max_matrix(), config.trials, config.seed)
        with tracer.span("aspect.estimate"):
            estimate_gamma(records)
    elif config.mode == "source":
        with tracer.span("aspect.source"):
            model = random_source_model(config.seed, config.lambdas)
            simulate_source_model(model, config.trials, config.seed)
        with tracer.span("aspect.reorder"):
            reorder_demonstration(model, config.trials, config.seed)
    elif config.mode == "ghz":
        with tracer.span("ghz.run"):
            by_regime = run_all_regimes(
                default_schedule(), config.trials, config.seed,
                default_assignment(config.rademacher),
            )
        with tracer.span("ghz.balance"):
            for node in NODES:
                for regime in REGIME_ORDER:
                    marginal_balance(by_regime[regime], node)
        tracer.count("ghz.product_violations", sum(
            1 for regime in REGIME_ORDER for trial in by_regime[regime]
            if trial.product != EXPECTED_PRODUCT[regime]
        ))


class CountingSplitMix64(SplitMix64):
    """SplitMix64 that counts its 64-bit draws; used only while instrumenting."""

    draws = 0

    def next_u64(self) -> int:
        CountingSplitMix64.draws += 1
        return super().next_u64()


def instrument(configs: list[tuple[str, ExperimentConfig]], tracer: Tracer) -> None:
    """Count the pass's RNG draws and measure the delayed-choice records.

    Draws are counted by swapping a counting generator into the sampling
    modules for one replay; ``rng.draw_s`` is then the time to make that many
    draws alone.  ``aspect.records_mb`` is the traced memory still held by
    the record list that ``sample_delayed_choice`` returns.
    """
    modules = (corrlab.aspect, corrlab.ghz)
    CountingSplitMix64.draws = 0
    for module in modules:
        module.SplitMix64 = CountingSplitMix64
    try:
        for _name, config in configs:
            if config.mode == "aspect":
                tracemalloc.start()
                records = sample_delayed_choice(gamma_max_matrix(), config.trials, config.seed)
                held, _peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                tracer.peak("aspect.records_mb", held / 2**20)
                estimate_gamma(records)
                del records
            elif config.mode in ("source", "ghz"):
                replay(config, Tracer())
    finally:
        for module in modules:
            module.SplitMix64 = SplitMix64
    draws = CountingSplitMix64.draws
    tracer.count("rng.draws", draws)
    generator = SplitMix64(PRESET_SEED)
    with tracer.span("rng.draw"):
        for _ in range(draws):
            generator.next_u64()


# --- workload -------------------------------------------------------------------


def run(seed: int, seconds: float, tracer: Tracer | None, import_s: float,
        outcome: Outcome) -> None:
    generate_s, seeds = timed_setup(lambda: pass_seeds(seed))
    passes = []
    latencies: list[float] = []
    trials = [0]
    mismatches = [0]

    def job():
        pinned = not passes
        configs = pass_configs(None if pinned else seeds[len(passes) % len(seeds)])
        passes.append(configs)
        for name, config in configs:
            if tracer is not None:
                tracer.next_op()
            start = perf_counter()
            try:
                if tracer is None:
                    text = cli_run(config).render()
                else:
                    with tracer.span("cli.run"):
                        report = cli_run(config)
                    with tracer.span("cli.render"):
                        text = report.render()
                elapsed = perf_counter() - start
                ok, mismatch = report_ok(name, config, text, dict(report_results(text)), pinned)
            except Exception as exc:  # a crashed report is a failed one
                elapsed = perf_counter() - start
                outcome.problem(f"{name} failed: {type(exc).__name__}: {exc}")
                ok, mismatch = False, False
            if not ok:
                outcome.problem(f"{name} (seed {config.seed}) failed its check")
            mismatches[0] += mismatch
            latencies.append(elapsed)
            trials[0] += trials_of(config)
            outcome.check(ok)
            if tracer is not None:
                replay(config, tracer)

    walls = run_jobs(seconds, job)
    if tracer is not None:
        instrument(passes[0], tracer)
    outcome.note("digest_mismatches", mismatches[0], "", "reports whose SHA-256 differs from the pinned one")
    end_to_end(
        outcome,
        ("trials_per_s", "report_p50_ms", "report_tail_ms"),
        import_s + generate_s,
        walls,
        trials[0],
        sum(latencies),
        latencies,
    )
    if tracer is not None:
        per = 1.0 / len(passes)
        outcome.metrics.update({
            "rng.draws": tracer.counts["rng.draws"],
            "rng.draw_s": tracer.total("rng.draw"),
            "aspect.sample_s": tracer.total("aspect.sample") * per,
            "aspect.estimate_s": tracer.total("aspect.estimate") * per,
            "aspect.records_mb": tracer.maxima["aspect.records_mb"],
            "aspect.source_s": tracer.total("aspect.source") * per,
            "aspect.reorder_s": tracer.total("aspect.reorder") * per,
            "ghz.run_s": tracer.total("ghz.run") * per,
            "ghz.balance_s": tracer.total("ghz.balance") * per,
            "ghz.product_violations": tracer.counts.get("ghz.product_violations", 0),
            "cli.run_s": tracer.total("cli.run") * per,
            "cli.render_s": tracer.total("cli.render") * per,
            "cli.digest_mismatches": mismatches[0],
        })


def report_results(text: str):
    """(key, value) pairs of a rendered report's [result] block."""
    body = text.split("[result]\n", 1)[1]
    for line in body.splitlines():
        key, _, value = line.partition(" = ")
        yield key, value
