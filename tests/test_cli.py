import math
import os
import socket
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from corrlab import cli
from corrlab.cli import (
    ConfigError,
    EXIT_DOMAIN,
    EXIT_NETWORK,
    EXIT_OK,
    MODES,
    ExperimentConfig,
    Report,
    _provenance,
    main,
    parse_config,
    preset_config,
    run,
)
from corrlab.dist import qm_covariance
from corrlab.errors import DomainError
from corrlab.ghz import REGIME_ORDER, Schedule, Window
from corrlab.ghznet import schedule_to_wire
from test_dist import REJECTED_RATIONALS


endpoints = st.builds(
    "{}:{}".format, st.from_regex(r"[a-z0-9.-]*", fullmatch=True), st.integers(0, 65535)
)


@st.composite
def schedules(draw):
    """Wire text of a valid schedule: ordered windows, one for each regime."""
    regimes = draw(st.permutations(REGIME_ORDER))
    bounds = sorted(draw(st.sets(
        st.fractions(min_value=Fraction(1, 1000), max_value=100, max_denominator=1000),
        min_size=2 * len(regimes), max_size=2 * len(regimes),
    )))
    windows = zip(regimes, bounds[0::2], bounds[1::2])
    return schedule_to_wire(Schedule(tuple(Window(*w) for w in windows)))


#: A value strategy for every config key except ``mode``; for a list key
#: (``sigmas``, ``angles``, ``nodes``), the strategy of one entry.
CONFIG_VALUES = {
    "seed": st.integers(-(2**63), 2**64),
    "trials": st.integers(1, 10**9),
    "sigmas": st.fractions(-1, 1, max_denominator=10**9),
    "angles": st.floats(-10, 10),
    "matrix": st.just("gamma-max"),
    "precision": st.fractions(min_value=Fraction(1, 10**12), max_value=1),
    "lambdas": st.integers(1, 64),
    "rademacher": st.lists(st.integers(1, 64), min_size=3, max_size=3, unique=True).map(tuple),
    "schedule": schedules(),
    "role": st.sampled_from(["node1", "node2", "node3"]),
    "listen": endpoints,
    "nodes": endpoints,
}

NODE_CONFIG = Path(__file__).resolve().parents[1] / "bench" / "ghz-node.cfg"


def mode_settings(mode):
    """Settings of every key that ``mode`` reads, each with the lengths and
    partners that the mode's row of ``MODES`` allows."""
    _run, reads, needs, lengths = MODES[mode]
    values = {
        key: st.sampled_from(lengths[key]).flatmap(
            lambda n, item=CONFIG_VALUES[key]: st.lists(item, min_size=n, max_size=n))
        if key in lengths else CONFIG_VALUES[key]
        for key in reads
    }

    @st.composite
    def draw_settings(draw):
        settings = draw(st.fixed_dictionaries({}, optional=values))
        for group in needs:
            keys = group.split("|")
            keep = draw(st.sampled_from(keys))
            for key in keys:
                settings.pop(key, None)
            settings[keep] = draw(values[keep])
        if "angles" not in settings:
            settings.pop("precision", None)
        return settings

    return draw_settings()


class TestParseConfig:
    def test_minimal_check_config(self):
        config = parse_config("mode = check\nsigmas = 1/2, 1/2, 1/2\n")
        assert config.mode == "check"
        assert config.sigmas == [Fraction(1, 2)] * 3

    def test_comments_and_sections_skipped(self):
        config = parse_config(
            "# a comment\n[provenance]\nmode = check\n\nsigmas = 0, 0, 0\n"
        )
        assert config.mode == "check"

    def test_all_errors_collected_at_once(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(
                "mode = aspect\n"
                "trials = many\n"
                "sigmas = 0, 0, 0, 0\n"
                "angles = 90 deg, 90 deg, 90 deg, 90 deg\n"
                "colour = blue\n"
            )
        problems = excinfo.value.problems
        assert len(problems) == 4
        assert any("trials" in p for p in problems)
        assert any("conflict" in p for p in problems)
        assert any("colour" in p for p in problems)
        assert any("seed" in p for p in problems)

    def test_angles_need_units(self):
        with pytest.raises(ConfigError, match="suffix"):
            parse_config("mode = bell\nangles = 90, 90, 90\n")
        config = parse_config("mode = bell\nangles = 90 deg, 0.5 rad, 180 deg\n")
        assert config.angles == pytest.approx([math.pi / 2, 0.5, math.pi])

    def test_sigma_range_checked(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("mode = check\nsigmas = 3/2, 0, 0\n")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            parse_config("mode = quantum\n")

    def test_missing_mode(self):
        with pytest.raises(ConfigError, match="mandatory"):
            parse_config("sigmas = 0, 0, 0\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("mode = check\nmode = bell\nsigmas = 0, 0, 0\n")

    def test_rademacher_indices_validated(self):
        with pytest.raises(ConfigError, match="distinct"):
            parse_config("mode = ghz\nseed = 1\nrademacher = 1, 1, 2\n")
        config = parse_config("mode = ghz\nseed = 1\nrademacher = 4, 1, 6\n")
        assert config.rademacher == (4, 1, 6)

    def test_version_key_ignored(self):
        config = parse_config("version = 0.0.9\nmode = check\nsigmas = 0, 0, 0\n")
        assert config.mode == "check"


class TestPresets:
    def test_known_presets_build(self):
        for name in ("vorobev-table1", "chsh-qm", "gamma-max", "ghz-table5"):
            config = preset_config(name)
            assert config.mode in ("check", "chsh", "aspect", "ghz")

    def test_unknown_preset(self):
        with pytest.raises(DomainError, match="unknown preset"):
            preset_config("nope")

    def test_vorobev_preset_reports_infeasible(self):
        report = run(preset_config("vorobev-table1"))
        results = dict(report.results)
        assert results["verdict"] == "INFEASIBLE"
        assert results["margin_float"] == "0.414213562"
        assert results["certificate_verified"] == "true"

    def test_chsh_preset_reports_violation(self):
        report = run(preset_config("chsh-qm"))
        results = dict(report.results)
        assert results["chsh_value_float"].startswith("2.8284271")
        assert "VIOLATED" in results["chsh[minus-dc]"]
        assert results["verdict"] == "INFEASIBLE"


class TestReports:
    def test_provenance_round_trips_through_parser(self):
        report = run(preset_config("vorobev-table1"))
        config = parse_config(report.provenance_text())
        assert config.mode == "check"
        assert config.sigmas == preset_config("vorobev-table1").sigmas

    def test_render_structure(self):
        text = run(preset_config("vorobev-table1")).render()
        assert text.startswith("[provenance]\n")
        assert "\n[result]\n" in text
        body = text.split("\n[result]\n")[1]
        assert all("=" in line for line in body.strip().splitlines())

    @given(st.sampled_from(sorted(MODES)), st.data())
    def test_provenance_reproduces_every_key(self, mode, data):
        settings = data.draw(mode_settings(mode))
        config = ExperimentConfig(mode=mode, **settings)
        echoed = Report(provenance=_provenance(config)).provenance_text()
        assert parse_config(echoed) == config

    def test_aspect_angles_read_precision(self):
        config = parse_config(
            "mode = aspect\nangles = 0 deg, 45 deg, 90 deg, 135 deg\n"
            "precision = 1/10\nseed = 3\ntrials = 1000\n"
        )
        sigmas = [qm_covariance(angle, Fraction(1, 10)) for angle in config.angles]
        population = dict(run(config).results)["population_gamma"]
        assert population == f"{float(sum(sigmas[:3]) - sigmas[3]):.6f}" != "-2.414214"

    def test_bell_mode_three_facts(self):
        report = run(
            parse_config("mode = bell\nangles = 135 deg, 135 deg, 90 deg\n")
        )
        results = dict(report.results)
        assert "satisfied" in results["bell[difference:ab-ac|bc]"]
        assert "VIOLATED" in results["bell[difference:ab-bc|ac]"]
        assert "VIOLATED" in results["bell[difference:ac-bc|ab]"]
        assert results["verdict"] == "INFEASIBLE"

    def test_source_mode_reports_reordering(self):
        report = run(parse_config("mode = source\nseed = 5\ntrials = 4000\n"))
        results = dict(report.results)
        assert results["within_bound"] == "true"
        assert results["all_quadruples_pm2"] == "true"

    def test_ghz_mode_products_exact(self):
        report = run(parse_config("mode = ghz\nseed = 6\ntrials = 500\n"))
        assert dict(report.results)["products_exact"] == "true"

    def test_ghz_report_keeps_no_trials(self):
        # A list of 4 x 20,000 trials would hold about 28 MB.
        config = parse_config("mode = ghz\nseed = 6\ntrials = 20000\n")
        tracemalloc.start()
        try:
            run(config)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_huge_rademacher_index_is_cheap(self, tmp_path, capsys):
        path = tmp_path / "ghz.cfg"
        path.write_text("mode = ghz\nseed = 1\ntrials = 5\nrademacher = 1, 2, 1000000000000\n")
        start = time.perf_counter()
        assert main(["--config", str(path), "--summary"]) == EXIT_OK
        assert time.perf_counter() - start < 1


class TestMainExitCodes:
    def test_preset_summary(self, capsys):
        assert main(["--preset", "vorobev-table1", "--summary"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out == "INFEASIBLE (margin 0.414214)"

    def test_config_file_run(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("mode = check\nsigmas = 0, 0, 0\n")
        assert main(["--config", str(path)]) == EXIT_OK
        assert "verdict = FEASIBLE" in capsys.readouterr().out

    def test_out_file_written(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("mode = chsh\nsigmas = 1, 1, 1, -1\n")
        out = tmp_path / "report.txt"
        assert main(["--config", str(config), "--out", str(out)]) == EXIT_OK
        assert "chsh_value = 4" in out.read_text()

    def test_bad_config_exits_domain(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("mode = aspect\nbogus = 1\n")
        assert main(["--config", str(path)]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "bogus" in err and "seed" in err

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent/path.cfg"]) == EXIT_DOMAIN

    def test_config_and_preset_conflict(self, capsys):
        assert main(["--config", "x", "--preset", "y"]) == EXIT_DOMAIN

    def test_network_error_exit(self, tmp_path, capsys):
        path = tmp_path / "net.cfg"
        path.write_text(
            "mode = ghz-net-coordinator\nseed = 1\ntrials = 2\n"
            "nodes = 127.0.0.1:1, 127.0.0.1:1, 127.0.0.1:1\n"
        )
        assert main(["--config", str(path)]) == EXIT_NETWORK
        assert "network error" in capsys.readouterr().err

    @pytest.mark.parametrize("config_text, argv", [
        ("mode = source\nseed = 5\ntrials = 0\n", []),
        (None, ["--preset", "ghz-table5", "--trials", "0"]),
        ("mode = source\nseed = 5\nlambdas = 0\n", []),
        ("mode = source\nseed = 5\nlambdas = -3\n", []),
    ])
    def test_counts_below_one_exit_domain(self, tmp_path, capsys, config_text, argv):
        if config_text is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(config_text)
            argv = ["--config", str(path)]
        assert main(argv) == EXIT_DOMAIN
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("config_text, argv", [
        ("mode = source\nseed = \u0665\n", []),
        ("mode = source\nseed = 1\ntrials = 1_000\n", []),
        ("mode = source\nseed = 1\nlambdas = +3\n", []),
        ("mode = ghz\nseed = 1\nrademacher = 1, 2, \uff13\n", []),
        (None, ["--preset", "ghz-table5", "--seed", "\u0665"]),
        (None, ["--preset", "ghz-table5", "--trials", "1_000"]),
    ])
    def test_integers_are_ascii_digits_only(self, tmp_path, capsys, config_text, argv):
        if config_text is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(config_text, encoding="utf-8")
            argv = ["--config", str(path)]
        assert main(argv) == EXIT_DOMAIN
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("config_text, argv", [
        ("mode = ghz\nseed = 1\nschedule = garbage\n", []),
        ("mode = ghz\nseed = 1\nschedule = yyx:1/0:2\n", []),
        ("mode = ghz-net-coordinator\nseed = 1\n"
         "nodes = 127.0.0.1:x, 127.0.0.1:1, 127.0.0.1:1\n", []),
        (None, ["--preset", "ghz-table5", "--nodes", "127.0.0.1:x,127.0.0.1:1,127.0.0.1:1"]),
        ("mode = ghz\nseed = 1\ntrials = 5\nschedule = yyx:1:2\n", []),
    ])
    def test_bad_schedule_or_nodes_exit_domain(self, tmp_path, capsys, config_text, argv):
        if config_text is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(config_text)
            argv = ["--config", str(path)]
        assert main(argv) == EXIT_DOMAIN
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", REJECTED_RATIONALS)
    def test_rejected_rational_exits_domain(self, tmp_path, capsys, text):
        path = tmp_path / "bad.cfg"
        config = f"mode = check\nsigmas = {text}, 0, 0\nprecision = {text}\n"
        path.write_text(config, encoding="utf-8")
        assert main(["--config", str(path)]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "config error: sigmas:" in err and "config error: precision:" in err

    def test_closed_stdout_exits_ok(self):
        # The reader is gone before the report is written, as with `| head -1`.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "corrlab", "--preset", "chsh-qm"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""

    @pytest.mark.parametrize("config_text, argv, expected", [
        ("mode = check\nsigmas = 0, 0, 0\ntrials = 5\nlambdas = 3\nmatrix = nonsense\n"
         "rademacher = 4, 5, 6\nrole = node9\nschedule = xxx:1/4:1;xyy:1:2;yxy:3:7/2;yyx:4:8\n"
         "nodes = 127.0.0.1:1, 127.0.0.1:2\n", [],
         ["matrix: unknown matrix 'nonsense' (have: gamma-max)",
          "role: unknown role 'node9' (have: node1, node2, node3)"]
         + [f"mode 'check' does not read '{key}'" for key in
            ("matrix", "trials", "lambdas", "rademacher", "schedule", "nodes", "role")]),
        ("mode = aspect\nseed = 1\nsigmas = 0, 0, 0\n", [], ["mode 'aspect' needs 4 sigmas, not 3"]),
        ("mode = ghz-net-node\nrole = node1\n", [], ["mode 'ghz-net-node' needs 'listen'"]),
        ("mode = aspect\nseed = 1\nmatrix = gamma-max\nsigmas = 0, 0, 0, 0\n", [],
         ["'sigmas' and 'matrix' conflict; give one of them"]),
        ("mode = check\nsigmas = 0, 0, 0\nprecision = 1/10\n", [],
         ["'precision' applies only to 'angles'"]),
        ("mode = ghz-net-coordinator\nseed = 1\nnodes = 127.0.0.1:1, 127.0.0.1:2\n", [],
         ["mode 'ghz-net-coordinator' needs 3 nodes, not 2"]),
        (None, ["--preset", "vorobev-table1", "--seed", "5"], ["mode 'check' does not read 'seed'"]),
    ], ids=["check-unread-keys", "aspect-three-sigmas", "node-without-listen",
            "aspect-matrix-and-sigmas", "precision-with-sigmas", "coordinator-two-nodes",
            "deterministic-preset-seed"])
    def test_schema_rule_exits_domain(self, tmp_path, capsys, config_text, argv, expected):
        if config_text is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(config_text)
            argv = ["--config", str(path)]
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert sorted(captured.err.splitlines()) == sorted(f"config error: {p}" for p in expected)

    @pytest.mark.parametrize("config, problem", [
        (ExperimentConfig(mode="chsh", sigmas=[Fraction(0)] * 4, lambdas=3),
         "mode 'chsh' does not read 'lambdas'"),
        (ExperimentConfig(mode="aspect", matrix="nonsense", seed=1),
         "matrix: unknown matrix 'nonsense' (have: gamma-max)"),
        (ExperimentConfig(mode="source", seed=1, trials=0), "trials: 0 is not an integer >= 1"),
    ], ids=["unread-key", "unknown-matrix", "zero-trials"])
    def test_code_built_config_checked_by_run(self, config, problem):
        with pytest.raises(ConfigError) as excinfo:
            run(config)
        assert excinfo.value.problems == [problem]

    @pytest.mark.parametrize("role", ["node1", "node2", "node3"])
    def test_bench_node_config_takes_role_flag(self, monkeypatch, capsys, role):
        served = []
        monkeypatch.setattr(socket, "socket", lambda *a, **k: pytest.fail("a socket was opened"))
        monkeypatch.setattr(cli, "node_serve", lambda node, _assignment, address, _announce:
                            served.append((node, address)))
        assert main(["--config", str(NODE_CONFIG), "--role", role]) == EXIT_OK
        assert served == [(int(role[-1]), ("127.0.0.1", 0))]

    def test_bench_node_config_needs_role(self, monkeypatch, capsys):
        monkeypatch.setattr(socket, "socket", lambda *a, **k: pytest.fail("a socket was opened"))
        assert main(["--config", str(NODE_CONFIG)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == "config error: mode 'ghz-net-node' needs 'role'\n"

    def test_seed_override(self, tmp_path, capsys):
        path = tmp_path / "ghz.cfg"
        path.write_text("mode = ghz\ntrials = 50\n")
        # config alone is invalid (no seed); the flag supplies it
        assert main(["--config", str(path)]) == EXIT_DOMAIN
        assert main(["--config", str(path), "--seed", "9", "--summary"]) == EXIT_OK
