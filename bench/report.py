"""Run every workload once untraced and once traced, each in a fresh process.

    python3 bench/report.py [--seed 1] [--seconds 20] [--baseline bench/baseline.json]

Prints the machine (nproc, Python, platform, load average at start), then
per workload every end-to-end metric with its unit, the per-layer metrics
of the traced run and the tracing overhead (traced wall_s minus untraced
wall_s).  With ``--baseline`` the numbers are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import harness  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """(readable lines, parsed JSON result) of one fresh benchmark process."""
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--baseline", help="also write the numbers to this JSON file")
    args = parser.parse_args(argv)

    env = harness.environment()
    print(f"nproc {env['nproc']}  python {env['python']}  platform {env['platform']}  "
          f"loadavg {' '.join(map(str, env['loadavg']))}")
    record = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
              "environment": env, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        lines, plain = run_workload(workload, args.seed, args.seconds, 0)
        _traced_lines, traced = run_workload(workload, args.seed, args.seconds, 1)
        overhead = (traced["metrics"]["trace.wall_s"]["value"]
                    - plain["metrics"]["wall_s"]["value"])
        print(f"\n== {workload}")
        for line in lines[2:]:
            print("  " + line)
        print(f"  correct {plain['correct'] and traced['correct']}  "
              f"trace overhead {overhead:.6g} s (traced wall_s minus untraced wall_s)")
        for name, metric in traced["metrics"].items():
            if metric["value"]:
                print(f"  {name:<30} {metric['value']:.6g} {metric['unit']}")
        record["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace_overhead_s": overhead,
        }
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
