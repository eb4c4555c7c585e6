#!/usr/bin/env python3
"""chebdisk benchmark: one workload, one run, one JSON line.

Usage, from the repository root:
    python3 perfbench/run.py --workload tabulate|critical|verify|cli \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  tabulate, critical and verify run in a
worker process (worker.py); cli starts one ``python -m chebdisk.cli``
process per operation.  The last line of stdout is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics with --trace 0 and the per-layer metrics
(tracing.PER_LAYER) with --trace 1.  Result and trace files go to
perfbench/out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("tabulate", "critical", "verify", "cli")
SETUPS = 3          # set-ups per run; setup_s is their median
STARTUP_REPEATS = 5
BUDGET_S = 170      # a run that is not done by then is killed and fails

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("accuracy_digits", "digits"),
)


class BenchmarkError(Exception):
    pass


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def _remaining(start):
    left = BUDGET_S - (time.perf_counter() - start)
    if left <= 0:
        raise BenchmarkError("time budget exhausted")
    return left


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def run_worker(args, start, trace_file):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-file", str(trace_file)]
    setups = []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + ([] if last else ["--setup-only"]),
                                stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
        try:
            ready = proc.stdout.readline()
            setups.append(time.perf_counter() - t0)
            rest, _ = proc.communicate(timeout=_remaining(start))
        except (subprocess.TimeoutExpired, BenchmarkError):
            proc.kill()
            proc.wait()
            raise BenchmarkError("worker did not finish in time") from None
        if ready.strip() != "READY" or proc.returncode != 0:
            raise BenchmarkError(f"worker exited with {proc.returncode}")
    report = json.loads(rest.strip().splitlines()[-1])
    report["setups"] = setups
    report["peak_rss_mb"] = report["peak_rss_kb"] / 1024.0
    return report


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------

def _invoke(cmd, start):
    t0 = time.perf_counter_ns()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=_env(), cwd=ROOT,
                              timeout=min(60, _remaining(start)))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{cmd} did not finish in time") from None
    return time.perf_counter_ns() - t0, proc


def _cli_rounds(pool, seconds, start, traced):
    durations, stdouts, failed = [], [], 0
    agg = tracing.Tracer(keep_ops=0)
    spans = []
    t_start = time.perf_counter_ns()
    deadline = t_start + int(seconds * 1e9)
    while True:
        round_out = []
        for item in pool:
            if traced:
                cmd = [sys.executable, str(HERE / "cli_traced.py"), *item["argv"]]
            else:
                cmd = [sys.executable, "-m", "chebdisk.cli", *item["argv"]]
            duration, proc = _invoke(cmd, start)
            durations.append(duration)
            if proc.returncode != 0:
                failed += 1
            round_out.append(proc.stdout)
            if traced:
                data = json.loads(proc.stderr.decode().strip().splitlines()[-1])
                agg.merge(data["aggregates"])
                if not stdouts:
                    spans.append({"argv": item["argv"], "spans": data["spans"]})
        stdouts.append(round_out)
        if time.perf_counter_ns() >= deadline:
            break
    return {"durations_ns": durations, "failed": failed, "stdouts": stdouts,
            "elapsed_s": (time.perf_counter_ns() - t_start) / 1e9,
            "aggregates": agg.aggregates(), "spans": spans}


def run_cli(args, start, trace_file):
    pool = inputs.cli_pool(args.seed)
    setups = []
    first_command = shlex.split(inputs.README_COMMANDS[0])
    for _ in range(SETUPS):
        duration, proc = _invoke([sys.executable, "-m", "chebdisk.cli", *first_command], start)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up invocation failed: {proc.stderr.decode()[-500:]}")
        setups.append(duration / 1e9)
    layers = None
    if args.trace:
        plain = _cli_rounds(pool, args.seconds / 2, start, traced=False)
        run = _cli_rounds(pool, args.seconds / 2, start, traced=True)
        layers = tracing.report(plain, run, run["aggregates"], trace_file,
                                {"workload": "cli", "seed": args.seed,
                                 "invocations": run["spans"]})
        attempted = len(plain["durations_ns"]) + len(run["durations_ns"])
        failed = plain["failed"] + run["failed"]
    else:
        run = _cli_rounds(pool, args.seconds, start, traced=False)
        attempted, failed = len(run["durations_ns"]), run["failed"]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    chk = reference.Checker()
    first = run["stdouts"][0]
    for k, item in enumerate(pool):
        again = [r[k] for r in run["stdouts"][1:]]
        chk.true(f"cli {item['argv']}: repeated output byte-identical",
                 all(out == first[k] for out in again))
        reference.check_cli(item, first[k].decode(), chk)
    for line in chk.failures[:20]:
        print(line, file=sys.stderr)
    return {"durations_ns": run["durations_ns"], "elapsed_s": run["elapsed_s"],
            "attempted": attempted, "failed": failed, "correct": chk.ok,
            "digits": chk.digits, "worst": chk.worst, "setups": setups,
            "peak_rss_mb": peak_kb / 1024.0, "layers": layers}


# ---------------------------------------------------------------------------
# interpreter start and import split (traced runs)
# ---------------------------------------------------------------------------

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import chebdisk.cli; "
    "print((time.perf_counter() - t) * 1e3)"
)


def startup_metrics(start):
    bare = []
    for _ in range(STARTUP_REPEATS):
        duration, proc = _invoke([sys.executable, "-c", "pass"], start)
        bare.append(duration / 1e6)
    total, numpy_ms, mpmath_ms = [], [], []
    for _ in range(STARTUP_REPEATS):
        _, proc = _invoke([sys.executable, "-X", "importtime", "-c", _IMPORT_PROBE], start)
        if proc.returncode != 0:
            raise BenchmarkError("import probe failed")
        total.append(float(proc.stdout.decode().split()[-1]))
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e3)
        numpy_ms.append(cumulative.get("numpy", 0.0))
        mpmath_ms.append(cumulative.get("mpmath", 0.0))
    return {
        "startup.python_ms": statistics.median(bare),
        "import.chebdisk_cli_ms": statistics.median(total),
        "import.numpy_ms": statistics.median(numpy_ms),
        "import.mpmath_ms": statistics.median(mpmath_ms),
    }


# ---------------------------------------------------------------------------

def end_to_end(report):
    ms = [d / 1e6 for d in report["durations_ns"]]
    return {
        "setup_s": statistics.median(report["setups"]),
        "ops_per_s": len(ms) / report["elapsed_s"],
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
        "peak_rss_mb": report["peak_rss_mb"],
        "accuracy_digits": report["digits"],
    }


def main():
    parser = argparse.ArgumentParser(description="chebdisk benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "chebdisk" / "__init__.py").is_file():
        print(f"chebdisk sources not found under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = OUT / f"trace-{stem}.json"
    try:
        if args.workload == "cli":
            report = run_cli(args, start, trace_file)
        else:
            report = run_worker(args, start, trace_file)
        if args.trace:
            values = dict(report["layers"], **startup_metrics(start))
            units = dict(tracing.PER_LAYER)
        else:
            values = end_to_end(report)
            units = dict(END_TO_END)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump(dict(result, worst_check=report.get("worst")), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
