"""Networked workload: the three-station experiment as four processes.

One job is one session: three node processes started as
``python -m corrlab --config ghz-node.cfg --role nodeN`` (listening on port
0), the coordinator run inside the benchmark over loopback, then
``verify_transcript``.  Every trial of the transcript must equal the
in-process ``run_all_regimes`` trial for the same seed; an aborted session
counts all its missing trials as failed.  Per-trial round trips come from the
transcript's own timestamps, from the trial's first MEASURE to its last
RESULT.
"""

from __future__ import annotations

import os
import random
import re
import select
import statistics
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter

from corrlab.ghz import REGIME_ORDER, default_schedule, run_all_regimes
from corrlab.ghznet import coordinator_run, encode_frame, verify_transcript

from harness import SRC, Outcome, Tracer, end_to_end, grid_statistic, run_jobs, timed_setup

#: Trials per regime in one session (four regimes per session).
SESSION_TRIALS = 2000
NODE_CONFIG = Path(__file__).resolve().parent / "ghz-node.cfg"
#: Seconds to wait for a node to announce itself or to exit.
NODE_TIMEOUT = 30.0
#: Transcript timestamps are ISO strings with microsecond resolution.
TIMESTAMP_TICK = 1e-6


def spawn_nodes(processes: list) -> list[tuple[str, int]]:
    """Start the three nodes, appending each to ``processes``; return their
    endpoints once all have printed their ``listening`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for node in (1, 2, 3):
        processes.append(subprocess.Popen(
            [sys.executable, "-m", "corrlab", "--config", str(NODE_CONFIG),
             "--role", f"node{node}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        ))
    endpoints = []
    for proc in processes:
        ready, _, _ = select.select([proc.stdout], [], [], NODE_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        match = re.match(r"listening (\S+):(\d+)", line)
        if not match:
            raise RuntimeError(f"node did not announce itself: {line!r}")
        endpoints.append((match.group(1), int(match.group(2))))
    return endpoints


def stop_nodes(processes: list) -> None:
    """Wait for every node to exit; kill any that outlives the timeout."""
    for proc in processes:
        try:
            proc.communicate(timeout=NODE_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


def round_trips(transcript) -> list[float]:
    """Seconds from each trial's first MEASURE to its last RESULT."""
    first: dict[str, str] = {}
    last: dict[str, str] = {}
    for entry in transcript.entries:
        kind = entry.message.kind
        if kind == "MEASURE":
            first.setdefault(entry.message.fields[0], entry.timestamp)
        elif kind == "RESULT":
            last[entry.message.fields[0]] = entry.timestamp
    tick = timedelta(microseconds=1)
    return [
        (datetime.fromisoformat(last[trial]) - datetime.fromisoformat(first[trial])) / tick * 1e-6
        for trial in last if trial in first
    ]


def session_seeds(seed: int, count: int = 64) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**63) for _ in range(count)]


def run(seed: int, seconds: float, tracer: Tracer | None, import_s: float,
        outcome: Outcome) -> None:
    generate_s, seeds = timed_setup(lambda: session_seeds(seed))
    schedule = default_schedule()
    expected_trials = SESSION_TRIALS * len(REGIME_ORDER)
    spawns: list[float] = []
    sessions: list[float] = []
    walls: list[float] = []
    latencies: list[float] = []
    slowest: list[float] = []
    completed = [0]
    layer = {"frames": 0, "frame_bytes": 0, "void": 0, "mismatches": 0,
             "verify_s": 0.0, "reference_s": 0.0}

    def job():
        session_seed = seeds[len(sessions) % len(seeds)]
        processes: list = []
        try:
            start = perf_counter()
            endpoints = spawn_nodes(processes)
            spawns.append(perf_counter() - start)
            start = perf_counter()
            transcript = coordinator_run(schedule, SESSION_TRIALS, session_seed, endpoints)
            session_s = perf_counter() - start
            stop_nodes(processes)
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            outcome.problem(f"session failed: {type(exc).__name__}: {exc}")
            outcome.check(False, expected_trials)
            return
        finally:
            for proc in processes:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        start = perf_counter()
        verification = verify_transcript(transcript)
        verify_s = perf_counter() - start
        start = perf_counter()
        in_process = run_all_regimes(schedule, SESSION_TRIALS, session_seed)
        layer["reference_s"] += perf_counter() - start
        reference = [trial for regime in REGIME_ORDER for trial in in_process[regime]]

        if transcript.aborted_reason:
            outcome.problem(f"session aborted: {transcript.aborted_reason}")
        if not verification.ok:
            outcome.problem(f"transcript replay failed: {verification.mismatches[:3]}")
        matching = sum(1 for got, want in zip(transcript.trials, reference) if got == want)
        if transcript.trials != reference[:len(transcript.trials)]:
            outcome.problem("networked trials differ from the in-process run")
        good = matching if verification.ok and not transcript.void_trials else 0
        outcome.check(True, good)
        outcome.check(False, expected_trials - good)

        sessions.append(session_s)
        walls.append(session_s + verify_s)
        completed[0] += len(transcript.trials)
        trips = round_trips(transcript)
        latencies.extend(trips)
        if trips:
            slowest.append(max(trips))
        layer["verify_s"] += verify_s
        layer["void"] += len(transcript.void_trials)
        layer["mismatches"] += len(verification.mismatches)
        if tracer is not None:
            layer["frames"] += len(transcript.entries)
            layer["frame_bytes"] += sum(len(encode_frame(e.message)) for e in transcript.entries)

    run_jobs(seconds, job)
    end_to_end(
        outcome,
        ("trials_per_s", "round_trip_p50_ms", "round_trip_tail_ms"),
        import_s + generate_s + statistics.median(spawns),
        walls,
        completed[0],
        sum(sessions),
        latencies,
        statistic=grid_statistic(TIMESTAMP_TICK),
    )
    outcome.note("spawn_s", statistics.median(spawns), "s", "median node start until listening")
    outcome.note("round_trip_max_ms", statistics.median(slowest) * 1e3, "ms",
                 "median over sessions of the slowest trial")
    if tracer is not None:
        per = 1.0 / len(sessions)
        outcome.metrics.update({
            "ghz.run_s": layer["reference_s"] * per,
            "ghznet.spawn_s": statistics.fmean(spawns),
            "ghznet.session_s": statistics.fmean(sessions),
            "ghznet.frames": layer["frames"] * per,
            "ghznet.frame_bytes": layer["frame_bytes"] * per,
            "ghznet.frames_per_s": layer["frames"] / sum(sessions),
            "ghznet.verify_s": layer["verify_s"] * per,
            "ghznet.void_trials": layer["void"],
            "ghznet.replay_mismatches": layer["mismatches"],
        })
