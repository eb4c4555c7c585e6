"""The benchmark's own tests; not part of the repository's tier-1 suite.

Run from the repository root:
    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace=0, seconds=0.2, seed=3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload):
    result = _run(workload)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    pool = inputs.POOLS[workload](3)
    expected_failures = sum(item["expect"] is not None for item in pool)
    assert result["failed"] * len(pool) == expected_failures * result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_repeats_call_counts():
    first, second = _run("tabulate", trace=1, seconds=0.4), _run("tabulate", trace=1, seconds=0.8)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    calls = [name for name in first["metrics"] if name.endswith((".calls", ".failed"))]
    assert first["metrics"]["theta.theta.calls"]["value"] > 0
    for name in calls:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_set_up_does_not_import_the_references():
    """setup_s must not pay for reference.py (and mpmath) before READY."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(BENCH / "worker.py"), "--workload", "tabulate",
         "--seed", "1", "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.stdout.strip() == "READY", proc.stderr[-2000:]
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()}
    assert "inputs" in imported
    assert "reference" not in imported


def test_same_seed_same_inputs():
    for workload, make in inputs.POOLS.items():
        assert make(11) == make(11), workload
        assert workload == "verify" or make(11) != make(12), workload


def test_checker_rejects_a_perturbed_critical_value():
    item = {"n": 5, "y": 0.5}
    s = float(reference.sqrt_k_ref(5 * 0.5))
    good = reference.Checker()
    reference.check_critical(item, {"values": (complex(-s), complex(s))}, good)
    assert good.ok
    bad = reference.Checker()
    reference.check_critical(item, {"values": (complex(-s), complex(s + 1e-6))}, bad)
    assert not bad.ok


def test_checker_rejects_a_perturbed_cli_document():
    item = {"argv": ["theta", "--j", "3", "--v", "0", "--tau-im", "0.5"]}
    value = float(reference.theta_ref(3, 0, 0.5).real)
    doc = '{"status": "ok", "payload": {"re": %r, "im": 0.0}}'
    good = reference.Checker()
    reference.check_cli(item, doc % value, good)
    assert good.ok
    bad = reference.Checker()
    reference.check_cli(item, doc % (value * (1 + 1e-9)), bad)
    assert not bad.ok


def test_run_fails_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "perfbench" / "domain.json").write_text(inputs.DOMAIN_FILE.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tabulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
