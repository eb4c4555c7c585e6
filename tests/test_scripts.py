"""The experiment scripts run end to end and report a small worst figure."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [("landen_report.py",), ("modulus_sweep.py", "--max-n", "3")],
    ids=lambda argv: argv[0],
)
def test_script_reports_small_worst_figure(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0]), *script[1:]],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert last.startswith("worst")
    assert float(last.rsplit(" ", 1)[1]) < 1e-10
