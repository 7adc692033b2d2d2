"""Shared pieces of the corrlab benchmark: spans, job loop, quantiles, output.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returned.  Work is grouped into *jobs* (a batch
of decisions, one pass of reports, one networked session); jobs run until
the next one would end past the time budget, so each run holds whole jobs.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: Minimum number of samples beyond the reported tail percentile.
TAIL_BEYOND = 10


class Tracer:
    """Spans around public corrlab calls, kept in memory until the run ends.

    A span is (name, op, start, end); spans of one operation share ``op``,
    which is the identifier of the operation that caused them.  Counters and
    maxima are recorded at the same call boundaries.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.op = 0

    def next_op(self) -> None:
        self.op += 1

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, self.op, start, perf_counter()))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def durations(self, name: str) -> list[float]:
        return [end - start for span, _op, start, end in self.spans if span == name]

    def total(self, name: str) -> float:
        return math.fsum(self.durations(name))

    def self_time(self, name: str, children: tuple[str, ...]) -> float:
        """Time in ``name`` spans minus the child spans of the same operations."""
        by_op: dict[int, float] = {}
        for span, op, start, end in self.spans:
            if span == name:
                by_op[op] = by_op.get(op, 0.0) + (end - start)
        for span, op, start, end in self.spans:
            if span in children and op in by_op:
                by_op[op] -= end - start
        return math.fsum(by_op.values())


def run_jobs(seconds: float, job) -> list[float]:
    """Run ``job()`` back to back while the next one is expected to finish
    within ``seconds``; always at least once.  Returns each job's duration."""
    durations: list[float] = []
    began = perf_counter()
    while not durations or (
        perf_counter() - began + statistics.fmean(durations) <= seconds
    ):
        start = perf_counter()
        job()
        durations.append(perf_counter() - start)
    return durations


def tail_rank(n: int) -> int:
    """Index, in ascending order, of the highest percentile with TAIL_BEYOND
    samples beyond it; with too few samples for that to lie above the median,
    the maximum."""
    return n - 1 if n <= 2 * TAIL_BEYOND else n - 1 - TAIL_BEYOND


def order_statistic(ordered: list[float], rank: float) -> float:
    """Value at a possibly fractional 0-based ``rank``, interpolated linearly."""
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def grid_statistic(width: float):
    """Order statistic for values recorded on a grid of ``width``, spread
    uniformly inside the grid cell that holds the rank (grouped-data formula),
    so that a clock with coarse ticks still gives a continuous estimate."""

    def estimate(ordered: list[float], rank: float) -> float:
        cell = ordered[round(rank)]
        below = bisect_left(ordered, cell - width / 2)
        within = bisect_left(ordered, cell + width / 2) - below
        return cell - width / 2 + width * (rank + 0.5 - below) / within

    return estimate


def import_seconds(repeats: int = 5) -> float:
    """Median time to import the whole package in a fresh interpreter."""
    probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import corrlab.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", probe, str(SRC)],
            check=True, capture_output=True, text=True, timeout=60,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def timed_setup(generate, repeats: int = 3):
    """Median seconds of ``generate()`` over ``repeats`` calls, and its last result."""
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        inputs = generate()
        samples.append(perf_counter() - start)
    return statistics.median(samples), inputs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


class Outcome:
    """What a workload hands back: correctness counts, metrics, readable lines."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.lines: list[str] = []
        self.problems = 0

    def check(self, ok: bool, amount: int = 1) -> None:
        self.attempted += amount
        if not ok:
            self.failed += amount

    def problem(self, text: str) -> None:
        """Record why an operation failed; the first few reasons are printed."""
        self.problems += 1
        if self.problems <= 5:
            self.lines.append(text)

    def note(self, name: str, value, unit: str = "", detail: str = "") -> None:
        text = f"{name:<22} {value:.6g}" if isinstance(value, float) else f"{name:<22} {value}"
        self.lines.append(" ".join(part for part in (text, unit, detail) if part))


def end_to_end(
    outcome: Outcome,
    names: tuple[str, str, str],
    setup_s: float,
    job_walls: list[float],
    work: int,
    busy_s: float,
    latencies: list[float],
    statistic=order_statistic,
) -> None:
    """Fill the end-to-end metrics shared by every workload.

    ``names`` gives the workload's own words for throughput, median latency
    and tail latency (e.g. decisions_per_s, decision_p50_ms,
    decision_tail_ms); they appear in the readable lines next to the generic
    metric names of the JSON result.
    """
    rate_name, p50_name, tail_name = names
    ordered = sorted(latencies)
    n = len(ordered)
    rank = tail_rank(n)
    metrics = outcome.metrics
    metrics["setup_s"] = setup_s
    metrics["wall_s"] = statistics.median(job_walls)
    metrics["throughput_per_s"] = work / busy_s
    metrics["latency_p50_ms"] = statistic(ordered, (n - 1) / 2) * 1e3
    metrics["latency_tail_ms"] = statistic(ordered, rank) * 1e3
    metrics["peak_rss_mb"] = peak_rss_mb()
    outcome.note("setup_s", setup_s, "s")
    outcome.note("wall_s", metrics["wall_s"], "s", f"median of {len(job_walls)} jobs")
    outcome.note(rate_name, metrics["throughput_per_s"], "1/s", f"{work} in {busy_s:.3f} s")
    outcome.note(p50_name, metrics["latency_p50_ms"], "ms", f"n={n}")
    outcome.note(tail_name, metrics["latency_tail_ms"], "ms",
                 f"p{100.0 * (rank + 1) / n:.3f}, n={n}, {n - 1 - rank} beyond")
    outcome.note("peak_rss_mb", metrics["peak_rss_mb"], "MB")


def emit(outcome: Outcome, wanted: list[dict]) -> None:
    """Print the readable lines, then the one-line JSON result."""
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError(f"workload did not produce {missing}")
    for line in outcome.lines:
        print(line)
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
