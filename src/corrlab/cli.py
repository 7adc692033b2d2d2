"""Command-line entry point.

One command drives every part of the package: realizability checks, the
inequality sweeps, the delayed-choice and source-model simulations, and the
three-station experiment in-process or across four processes.  Input is a
small ``key = value`` config (or a named preset), output is a structured
report with a stable field order: a ``[provenance]`` block that is itself a
valid config reproducing the run, followed by a ``[result]`` block.

:data:`KEYS` is the single place a config key is defined: its parser and its
renderer.  The table drives the key check and conversion in
:func:`parse_config`, the ``[provenance]`` echo of every key that differs
from its :class:`ExperimentConfig` default, and the command-line overrides.
:data:`MODES` is the single place a mode is defined: its runner and the keys it
reads and needs.  A key the mode does not read is a config error, and
:func:`run` checks a config built in code by parsing its ``[provenance]``.

Exit codes: 0 success, 2 domain/config error, 3 capacity error, 4 network
or protocol failure.  A reader that closes stdout early is not a failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from . import __version__
from .aspect import (
    ROW_LABELS,
    estimate_gamma,
    gamma_max_matrix,
    matrix_from_covariances,
    random_source_model,
    run_source_model,
    sample_delayed_choice,
)
from .dist import (
    DEFAULT_PRECISION,
    covariance,
    covariance_of,
    parse_rational,
    qm_covariance,
    rational_text,
    rationalize,
)
from .errors import CapacityError, DomainError, ProtocolError
from .ghz import (
    EXPECTED_PRODUCT,
    NODES,
    REGIME_ORDER,
    default_assignment,
    default_schedule,
    output_counts,
)
from .ghznet import (
    coordinator_run,
    node_serve,
    schedule_from_wire,
    verify_transcript,
)
from .inequalities import (
    BellTriple,
    ChshQuad,
    bell_check_all,
    chsh_check_all,
    chsh_value,
)
from .realizability import (
    check_realizability,
    four_cycle_system,
    triangle_system,
    verify_certificate,
)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CAPACITY = 3
EXIT_NETWORK = 4


class ConfigError(DomainError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class ExperimentConfig:
    mode: str
    seed: int | None = None
    trials: int | None = None
    sigmas: list[Fraction] | None = None
    angles: list[float] | None = None  # radians
    matrix: str | None = None
    precision: Fraction = DEFAULT_PRECISION
    lambdas: int = 8
    rademacher: tuple[int, int, int] = (1, 2, 3)
    schedule: str | None = None  # wire-format schedule override
    role: str | None = None
    listen: str | None = None
    nodes: list[str] | None = None


def _parse_angle(text: str) -> float:
    text = text.strip()
    for suffix, factor in (("deg", math.pi / 180), ("rad", 1.0)):
        if text.endswith(suffix):
            return float(text[: -len(suffix)].strip()) * factor
    raise ValueError(f"angle {text!r} needs a 'deg' or 'rad' suffix")


def _choice(text: str, what: str, choices) -> str:
    if text not in choices:
        raise ValueError(f"unknown {what} {text!r} (have: {', '.join(choices)})")
    return text


def integer(text: str) -> int:
    """An integer written ``-?[0-9]+`` in ASCII digits, as ``parse_rational`` reads one."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"{text!r} is not an integer in ASCII digits")
    return int(text)


def positive_int(text: str) -> int:
    """An integer >= 1, such as a trial count."""
    value = integer(text)
    if value < 1:
        raise ValueError(f"{value} is not an integer >= 1")
    return value


def _parse_precision(text: str) -> Fraction:
    value = parse_rational(text)
    if value <= 0:
        raise ValueError("precision must be positive")
    return value


def _parse_rademacher(text: str) -> tuple[int, int, int]:
    indices = tuple(integer(part.strip()) for part in text.split(","))
    if len(indices) != 3 or len(set(indices)) != 3 or min(indices) < 1:
        raise ValueError("rademacher needs three distinct indices >= 1")
    return indices


def _parse_schedule(text: str) -> str:
    try:
        schedule = schedule_from_wire(text)
    except ProtocolError as exc:
        raise ValueError(exc) from None
    for regime in REGIME_ORDER:
        schedule.window_for(regime)  # a DomainError, so a ValueError, names a missing one
    return text


def _address(text: str) -> tuple[str, int]:
    """(host, port) of ``host:port`` text; the host defaults to 127.0.0.1."""
    host, _, port = text.rpartition(":")
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"{text!r} is not host:port with a port in 0-65535")
    return host or "127.0.0.1", int(port)


def endpoint(text: str) -> str:
    _address(text)
    return text


def endpoint_list(text: str) -> list[str]:
    return [endpoint(part.strip()) for part in text.split(",")]


def _join(render):
    return lambda values: ", ".join(map(render, values))


#: Every config key, in ``[provenance]`` order: key -> (parse, render).
#: ``parse`` turns the config text into the ``ExperimentConfig`` field value
#: and raises ValueError on bad input; ``render`` writes the value back.
KEYS = {
    "mode": (lambda text: _choice(text, "mode", MODES), str),
    "sigmas": (lambda text: [covariance(parse_rational(part.strip())) for part in text.split(",")],
               _join(rational_text)),
    "angles": (lambda text: [_parse_angle(part) for part in text.split(",")],
               _join(lambda angle: f"{angle!r} rad")),
    "matrix": (lambda text: _choice(text, "matrix", ("gamma-max",)), str),
    "trials": (positive_int, str),
    "seed": (integer, str),
    "lambdas": (positive_int, str),
    "precision": (_parse_precision, rational_text),
    "rademacher": (_parse_rademacher, _join(str)),
    "schedule": (_parse_schedule, str),
    "nodes": (endpoint_list, _join(str)),
    "role": (lambda text: _choice(text, "role", ("node1", "node2", "node3")), str),
    "listen": (endpoint, str),
}

#: Keys that a command-line flag of the same name overrides, with its help.
_OVERRIDES = {
    "seed": "override the config seed",
    "trials": "override the config trial count",
    "role": "ghz-net-node role: node1, node2 or node3",
    "listen": "ghz-net-node listen address host:port",
    "nodes": "ghz-net-coordinator node addresses, comma separated",
}


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse the documented key = value format, collecting all errors.

    ``overrides`` (the command-line flags, already parsed) replace the keys of
    the same name before the config is checked against :data:`MODES`.
    """
    values: dict[str, str] = {}
    problems: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value'")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    values.pop("version", None)  # provenance echo, carries no settings

    settings = {}
    for key, value in values.items():
        if key not in KEYS:
            problems.append(f"unknown key {key!r}")
            continue
        try:
            settings[key] = KEYS[key][0](value)
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
    settings.update(overrides or {})
    if "mode" not in values:
        problems.append("missing mandatory key 'mode'")
    elif "mode" in settings:
        problems += _schema_problems(ExperimentConfig(**settings), values.keys() | settings.keys())
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(**settings)


_SQRT_HALF = 1 / math.sqrt(2)


def preset_config(name: str) -> ExperimentConfig:
    """Built-in configurations reproducing the headline results."""
    r = rationalize(_SQRT_HALF)
    if name == "vorobev-table1":
        return ExperimentConfig(mode="check", sigmas=[r, r, Fraction(0)])
    if name == "chsh-qm":
        return ExperimentConfig(mode="chsh", sigmas=[r, r, r, -r])
    if name == "gamma-max":
        return ExperimentConfig(
            mode="aspect", matrix="gamma-max", trials=1_000_000, seed=20260824
        )
    if name == "ghz-table5":
        return ExperimentConfig(mode="ghz", trials=100_000, seed=20260824)
    raise DomainError(f"unknown preset {name!r} (have: vorobev-table1, chsh-qm, gamma-max, ghz-table5)")


@dataclass
class Report:
    provenance: list[tuple[str, str]] = field(default_factory=list)
    results: list[tuple[str, str]] = field(default_factory=list)
    summary: str = ""

    def provenance_text(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.provenance)

    def render(self) -> str:
        lines = ["[provenance]", self.provenance_text(), "[result]"]
        lines.extend(f"{k} = {v}" for k, v in self.results)
        return "\n".join(lines) + "\n"


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _provenance(config: ExperimentConfig) -> list[tuple[str, str]]:
    pairs = [("version", __version__)]
    for key, (_parse, render) in KEYS.items():
        value = getattr(config, key)
        if value != _DEFAULTS[key]:
            pairs.append((key, render(value)))
    return pairs


def _schema_problems(config: ExperimentConfig, given) -> list[str]:
    """Every way ``config``, which sets the keys in ``given``, breaks its row of :data:`MODES`."""
    _run, reads, needs, lengths = MODES[config.mode]
    name = f"mode {config.mode!r}"
    problems = [f"{name} does not read {k!r}" for k in KEYS if k in given and k not in ("mode", *reads)]
    for group in needs:
        keys = group.split("|")
        have = [repr(key) for key in keys if key in given]
        if len(have) != 1:
            problems.append(f"{' and '.join(have)} conflict; give one of them" if have
                            else f"{name} needs {' or '.join(map(repr, keys))}")
    if "precision" in given and "precision" in reads and "angles" not in given:
        problems.append("'precision' applies only to 'angles'")
    for key, allowed in lengths.items():
        value = getattr(config, key)
        if value is not None and len(value) not in allowed:
            problems.append(f"{name} needs {' or '.join(map(str, allowed))} {key}, not {len(value)}")
    return problems


def _sigmas_for(config: ExperimentConfig) -> list[Fraction]:
    """The covariances from ``sigmas``, or from ``angles`` at ``precision``."""
    if config.sigmas is not None:
        return config.sigmas
    return [qm_covariance(a, config.precision) for a in config.angles]


def _verdict_lines(family: str, verdicts, results: list[tuple[str, str]]) -> None:
    for v in verdicts:
        results.append(
            (f"{family}[{v.variant}]",
             f"|{rational_text(v.lhs)}| <= {rational_text(v.bound)} : "
             + ("satisfied" if v.satisfied else "VIOLATED"))
        )


def _product_line(regime: str, counts) -> tuple[str, str]:
    """The ``product[regime]`` line: how often each three-fold output product occurred."""
    return f"product[{regime}]", ", ".join(f"{p:+d}:{n}" for p, n in sorted(counts.items()))


def _realizability_lines(system, results: list[tuple[str, str]]):
    outcome = check_realizability(system)
    results.append(("verdict", outcome.verdict))
    results.append(("margin", rational_text(outcome.margin)))
    results.append(("margin_float", f"{float(outcome.margin):.9f}"))
    if outcome.feasible:
        atoms = sorted(outcome.witness.atoms.items())
        results.append(
            ("witness", "; ".join(
                f"{''.join('+' if v > 0 else '-' for v in atom)}:{rational_text(mass)}"
                for atom, mass in atoms
            ))
        )
    else:
        results.append(
            ("certificate", "; ".join(rational_text(y) for y in outcome.certificate))
        )
        results.append(
            ("certificate_note", "margin is the implementation-defined minimal L1 cell violation")
        )
    results.append(("certificate_verified", str(verify_certificate(system, outcome)).lower()))
    return outcome


def run(config: ExperimentConfig, out_path: str | None = None) -> Report:
    """Dispatch a config to its mode runner once its ``[provenance]`` echo parses."""
    report = Report(provenance=_provenance(config))
    parse_config(report.provenance_text())  # a ConfigError names every defect
    MODES[config.mode][0](config, report, out_path)
    return report


def _run_check(config, report, out_path):
    sigmas = _sigmas_for(config)
    system = triangle_system(sigmas) if len(sigmas) == 3 else four_cycle_system(sigmas)
    outcome = _realizability_lines(system, report.results)
    report.summary = f"{outcome.verdict} (margin {float(outcome.margin):.6f})"


def _run_bell(config, report, out_path):
    triple = BellTriple(*_sigmas_for(config))
    verdicts = bell_check_all(triple)
    _verdict_lines("bell", verdicts, report.results)
    report.results.append(
        ("all_variants_satisfied", str(all(v.satisfied for v in verdicts)).lower())
    )
    outcome = _realizability_lines(triangle_system(list(triple.as_tuple())), report.results)
    violated = sum(1 for v in verdicts if not v.satisfied)
    report.summary = (
        f"{violated}/{len(verdicts)} variants violated; realizability {outcome.verdict}"
    )


def _run_chsh(config, report, out_path):
    quad = ChshQuad(*_sigmas_for(config))
    value = chsh_value(quad)
    report.results.append(("chsh_value", rational_text(value)))
    report.results.append(("chsh_value_float", f"{float(value):.9f}"))
    _verdict_lines("chsh", chsh_check_all(quad), report.results)
    outcome = _realizability_lines(four_cycle_system(list(quad.as_tuple())), report.results)
    report.summary = f"chsh value {float(value):.4f}; realizability {outcome.verdict}"


def _run_aspect(config, report, out_path):
    matrix = gamma_max_matrix() if config.matrix else matrix_from_covariances(_sigmas_for(config))
    trials = config.trials or 1_000_000
    records = sample_delayed_choice(matrix, trials, config.seed)
    estimate = estimate_gamma(records)
    population = sum(
        (covariance_of(matrix.rows[label], 0, 1) for label in ROW_LABELS[:3]), Fraction(0)
    ) - covariance_of(matrix.rows["dc"], 0, 1)
    for label in ROW_LABELS:
        report.results.append(
            (f"row[{label}]",
             f"n={estimate.row_counts[label]} mean={estimate.row_means[label]:+.6f}")
        )
    report.results.append(("gamma", f"{estimate.gamma:.6f}"))
    report.results.append(("standard_error", f"{estimate.standard_error:.6f}"))
    report.results.append(("population_gamma", f"{float(population):.6f}"))
    report.summary = f"gamma = {estimate.gamma:.4f} ± {estimate.standard_error:.4f}"


def _run_source(config, report, out_path):
    trials = config.trials or 100_000
    model = random_source_model(config.seed, config.lambdas)
    estimate, reorder = run_source_model(model, trials, config.seed)
    bound_ok = abs(estimate.gamma) <= 2 + 5 * estimate.standard_error
    report.results.extend([
        ("support_size", str(len(model.support))),
        ("gamma", f"{estimate.gamma:.6f}"),
        ("standard_error", f"{estimate.standard_error:.6f}"),
        ("within_bound", str(bound_ok).lower()),
        ("quadruples", str(reorder.quadruples)),
        ("discarded_trials", str(reorder.discarded)),
        ("quadruple_gammas", ", ".join(map(str, reorder.gammas_seen))),
        ("all_quadruples_pm2", str(reorder.all_plus_minus_two).lower()),
        ("grouping_note", "greedy arrival-order grouping; remainder discarded"),
    ])
    report.summary = (
        f"gamma = {estimate.gamma:.4f} ± {estimate.standard_error:.4f}; "
        f"quadruple gammas {list(reorder.gammas_seen)}"
    )


def _ghz_schedule(config):
    return schedule_from_wire(config.schedule) if config.schedule else default_schedule()


def _run_ghz(config, report, out_path):
    schedule = _ghz_schedule(config)
    assignment = default_assignment(config.rademacher)
    trials = config.trials or 100_000
    tables = {r: output_counts(schedule, r, trials, config.seed, assignment) for r in REGIME_ORDER}
    products_exact = True
    for regime, table in tables.items():
        counts = {}
        for (o1, o2, o3), n in table.items():
            counts[o1 * o2 * o3] = counts.get(o1 * o2 * o3, 0) + n
        report.results.append(_product_line(regime.value, counts))
        products_exact &= set(counts) == {EXPECTED_PRODUCT[regime]}
    report.results.append(("products_exact", str(products_exact).lower()))
    for node in NODES:
        balances = ", ".join(
            f"{regime.value}:{sum(n for o, n in table.items() if o[node - 1] == 1) / trials:.4f}"
            for regime, table in tables.items()
        )
        report.results.append((f"balance[node{node}]", balances))
    report.summary = f"products exact: {products_exact} ({trials} trials/regime)"


def _run_coordinator(config, report, out_path):
    schedule = _ghz_schedule(config)
    trials = config.trials or 100
    endpoints = [_address(n) for n in config.nodes]
    transcript = coordinator_run(schedule, trials, config.seed, endpoints)
    if out_path:
        transcript.save(out_path)
        report.results.append(("transcript", out_path))
    report.results.append(("trials_completed", str(len(transcript.trials))))
    report.results.append(("void_trials", str(len(transcript.void_trials))))
    report.results.append(("aborted", transcript.aborted_reason or "no"))
    if transcript.aborted_reason:
        report.summary = f"session aborted: {transcript.aborted_reason}"
        raise ProtocolError(transcript.aborted_reason)
    verification = verify_transcript(transcript, default_assignment(config.rademacher))
    report.results.append(("replay_mismatches", str(len(verification.mismatches))))
    report.results.append(
        ("forwarding_violations", str(len(verification.forwarding_violations)))
    )
    for regime, counts in sorted(verification.product_counts.items()):
        report.results.append(_product_line(regime, counts))
    report.summary = (
        f"{len(transcript.trials)} trials, replay ok: {verification.ok}"
    )


def _run_node(config, report, out_path):
    node_id = int(config.role[-1])

    def announce(address):
        print(f"listening {address[0]}:{address[1]}", flush=True)

    node_serve(node_id, default_assignment(config.rademacher), _address(config.listen), announce)
    report.results.append(("served", "done"))
    report.summary = f"node {node_id} session complete"


_PAIR = ("sigmas", "angles", "precision")
_GHZ = ("trials", "seed", "schedule", "rademacher")

#: Every mode: (runner, keys it reads, keys it needs, lengths of its list keys).
#: A needed ``a|b`` takes exactly one of a and b.  :func:`_schema_problems` applies it.
MODES = {
    "check": (_run_check, _PAIR, ["sigmas|angles"], {"sigmas": (3, 4), "angles": (3, 4)}),
    "bell": (_run_bell, _PAIR, ["sigmas|angles"], {"sigmas": (3,), "angles": (3,)}),
    "chsh": (_run_chsh, _PAIR, ["sigmas|angles"], {"sigmas": (4,), "angles": (4,)}),
    "aspect": (_run_aspect, (*_PAIR, "matrix", "trials", "seed"), ["sigmas|angles|matrix", "seed"],
               {"sigmas": (4,), "angles": (4,)}),
    "source": (_run_source, ("trials", "seed", "lambdas"), ["seed"], {}),
    "ghz": (_run_ghz, _GHZ, ["seed"], {}),
    "ghz-net-coordinator": (_run_coordinator, (*_GHZ, "nodes"), ["seed", "nodes"], {"nodes": (3,)}),
    "ghz-net-node": (_run_node, ("role", "listen", "rademacher"), ["role", "listen"], {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrlab",
        description="Joint-distribution realizability checks and locality experiments.",
        exit_on_error=False,
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", help="path to a key = value config file")
    source.add_argument("--preset", help="named built-in configuration")
    parser.add_argument("--out", help="write the report (or transcript) to this path")
    parser.add_argument("--summary", action="store_true", help="print the one-line summary only")
    for key, help_text in _OVERRIDES.items():
        parser.add_argument(f"--{key}", type=KEYS[key][0], help=help_text)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        overrides = {k: getattr(args, k) for k in _OVERRIDES if getattr(args, k) is not None}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as handle:
                config = parse_config(handle.read(), overrides)
        elif args.preset:
            config = replace(preset_config(args.preset), **overrides)
        else:
            raise DomainError("one of --config or --preset is required")
        report = run(config, out_path=args.out)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_DOMAIN
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ProtocolError as exc:
        print(f"network error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    text = report.render()
    if args.out and config.mode != "ghz-net-coordinator":
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    try:
        if args.summary:
            print(report.summary)
        else:
            sys.stdout.write(text)
            if report.summary:
                print(f"# {report.summary}")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head``); the flush at exit goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
