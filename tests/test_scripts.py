"""The experiment scripts run end to end and report a small worst figure."""

import pathlib

import pytest

from helpers import run_python

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [("landen_report.py",), ("modulus_sweep.py", "--max-n", "3")],
    ids=lambda argv: argv[0],
)
def test_script_reports_small_worst_figure(script):
    code, out, err = run_python(str(ROOT / "scripts" / script[0]), *script[1:])
    assert code == 0, err
    last = out.strip().splitlines()[-1]
    assert last.startswith("worst")
    assert float(last.rsplit(" ", 1)[1]) < 1e-10
