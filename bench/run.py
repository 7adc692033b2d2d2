"""corrlab benchmark: run one workload and print its result.

    python3 bench/run.py --workload decide-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run replays each operation as
separate public calls with a span around each, and the metrics are the
per-layer ones.  Layers a workload does not exercise read 0.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import harness  # noqa: E402  (after the bytecode switch)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = harness.SRC / "corrlab" / "__init__.py"
    if not package.is_file() or not harness.SPEC.is_file():
        print(f"error: no corrlab source at {package.parent} (run from a checkout)",
              file=sys.stderr)
        return 2
    spec = harness.load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r} (have {', '.join(workloads)})",
              file=sys.stderr)
        return 2

    env = harness.environment()
    import_s = harness.import_seconds()
    sys.path.insert(0, str(harness.SRC))
    import corrlab

    if Path(corrlab.__file__).resolve().parent != package.parent.resolve():
        print(f"error: imported corrlab from {corrlab.__file__}", file=sys.stderr)
        return 2

    import decide
    import net
    import sample

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"nproc {env['nproc']}  python {env['python']}  platform {env['platform']}  "
          f"loadavg {' '.join(map(str, env['loadavg']))}")
    tracer = harness.Tracer() if args.trace else None
    outcome = harness.Outcome()
    outcome.note("import_s", import_s, "s", "median fresh-interpreter import")
    gc.collect()
    if args.workload.startswith("decide-"):
        decide.run(args.workload, args.seed, args.seconds, tracer, import_s, outcome)
    elif args.workload == "sample":
        sample.run(args.seed, args.seconds, tracer, import_s, outcome)
    else:
        net.run(args.seed, args.seconds, tracer, import_s, outcome)
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    outcome.note("error_rate", rate, "", f"{outcome.failed} of {outcome.attempted} failed")

    if tracer is None:
        wanted = spec["end_to_end"]
    else:
        wanted = spec["per_layer"]
        outcome.metrics["trace.wall_s"] = outcome.metrics["wall_s"]
        known = {m["name"] for m in wanted} | {m["name"] for m in spec["end_to_end"]}
        unknown = sorted(set(outcome.metrics) - known)
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
        for metric in wanted:
            outcome.metrics.setdefault(metric["name"], 0)
        for metric in wanted:
            outcome.note(metric["name"], outcome.metrics[metric["name"]], metric["unit"])
    harness.emit(outcome, wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
