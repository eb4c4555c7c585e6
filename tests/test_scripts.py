"""The experiment scripts run end to end and report a small worst figure."""

import importlib.util
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


def _bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_summary_arithmetic():
    bench = _bench_record()
    s = bench.summarize([10, 12, 11, 13, 9], [14, 12, 15, 16, 13], "higher")
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) == (10, 11, 12)
    assert (s["change"]["q1"], s["change"]["median"], s["change"]["q3"]) == (13, 14, 15)
    assert (s["pairs"], s["change_wins"], s["ties"], s["parent_iqr"]) == (5, 4, 1, 2)
    assert s["median_change_pct"] == pytest.approx(300 / 11)
    assert not s["claimable"]  # 4 of 5 pairs is short of nine tenths

    s = bench.summarize([2.0, 2.2, 2.1], [1.0, 1.1, 1.2], "lower")
    assert s["change_wins"] == 3 and s["parent_iqr"] == pytest.approx(0.1)
    assert s["claimable"]
    s = bench.summarize([2.0, 2.2, 2.1], [2.0, 2.0, 2.09], "lower")
    assert s["change_wins"] == 2 and not s["claimable"]
    # every pair won, but the medians differ by less than the parent's spread
    s = bench.summarize([1.0, 3.0, 2.0, 4.0], [1.1, 3.1, 2.1, 4.1], "higher")
    assert s["change_wins"] == 4 and not s["claimable"]

    # a clear win does not count when the change fails more operations or a
    # run's outputs are wrong
    def run(m, failed=0, correct=True):
        return {"metrics": {"m": m}, "failed": failed, "correct": correct}

    clear = [{"parent": run(2.0), "change": run(1.0)}, {"parent": run(2.2), "change": run(1.1)}]
    assert bench.summarize_workload(clear, [("m", "lower")])["m"]["claimable"]
    more_failed = clear + [{"parent": run(2.1, failed=1), "change": run(1.2, failed=2)}]
    assert not bench.summarize_workload(more_failed, [("m", "lower")])["m"]["claimable"]
    wrong = clear + [{"parent": run(2.1), "change": run(1.2, correct=False)}]
    assert not bench.summarize_workload(wrong, [("m", "lower")])["m"]["claimable"]
    assert not bench.summarize([2.0, 2.2], [1.0, 1.1], "lower", sound=False)["claimable"]

    assert bench.quartiles([7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        bench.summarize([1.0], [1.0, 2.0], "higher")


def test_bench_record_summary_skips_unfinished_pairs():
    bench = _bench_record()
    def run(m):
        return {"metrics": {"m": m}, "failed": 0, "correct": True}

    runs = [
        {"parent": run(1.0), "change": run(2.0)},
        {"parent": {"error": "exit 2"}, "change": run(9.0)},
        {"parent": run(3.0), "change": run(2.0)},
    ]
    s = bench.summarize_workload(runs, [("m", "lower")])["m"]
    assert s["pairs"] == 2 and s["change_wins"] == 1
    assert s["parent"]["runs"] == [1.0, 3.0] and s["change"]["runs"] == [2.0, 2.0]
    assert bench.summarize_workload(runs[1:2], [("m", "lower")]) == {}
