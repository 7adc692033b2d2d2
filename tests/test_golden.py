"""Golden reports: every ``golden/<case>.cfg`` prints exactly ``<case>.out``.

The expected files hold the full command output, so a failure shows which
line drifted.  The stochastic cases run at reduced trial counts; the
benchmark pins the full-size preset digests.  Record a new case with
``python -m corrlab --config tests/golden/<case>.cfg > tests/golden/<case>.out``;
changing an existing ``.out`` file changes a check.
"""

from pathlib import Path

import pytest

from corrlab.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.cfg"))


def test_every_case_has_its_report():
    assert len(CASES) >= 16
    assert sorted(path.stem for path in GOLDEN.glob("*.out")) == CASES


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, capsys):
    assert main(["--config", str(GOLDEN / f"{case}.cfg")]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
