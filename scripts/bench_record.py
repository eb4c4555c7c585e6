#!/usr/bin/env python3
"""Record alternated parent/change benchmark pairs in BENCH_<label>.json.

Usage, from the repository root:
    python3 scripts/bench_record.py --parent PARENT_DIR --change CHANGE_DIR \
        --label LABEL

PARENT_DIR and CHANGE_DIR are two checkouts of the repository, for example
the parent commit cloned into a scratch directory and the working tree.
The run length and the workloads are the ones BENCHMARK.json declares.
Pair i (0..9) runs ``python3 perfbench/run.py --trace 0`` once in each
checkout, for every workload, at seed 101 + i; even pairs run the parent
first, odd pairs the change.  After the pairs, one traced run per side and
workload (``--trace 1`` at seed 101) gives the per-layer metrics.  The file
is rewritten after every pair, so an interrupted record keeps the pairs it
finished.

Per workload and end-to-end metric the file holds each side's runs, median
and quartiles (inclusive method), the pairs the change won (ties count for
neither side), and whether a gain would be claimable: every run's outputs
were correct, the change failed no more operations than the parent, it won
at least nine tenths of the pairs, and its median beats the parent's by
more than the parent's interquartile range.  It also records each
checkout's commit, whether its src/ differs from that commit, a digest of
its src/, and whether the two checkouts' benchmark files are
byte-identical.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
SEED = 101


def quartiles(values):
    """(q1, median, q3) of a non-empty list, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent, change, better, sound=True):
    """Compare two lists of one metric's values, paired by index.

    ``better`` is "higher" or "lower"; ``sound`` says that every run was
    correct and the change failed no more operations than the parent.
    Returns each side's runs, median and quartiles, the pairs the change won
    and tied, the median change in percent of the parent's median, and
    whether the claim rule holds.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs on both sides")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    out = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, med, q3 = quartiles(values)
        out[side] = {"median": med, "q1": q1, "q3": q3, "runs": list(values)}
    gain = sign * (out["change"]["median"] - out["parent"]["median"])
    parent_iqr = out["parent"]["q3"] - out["parent"]["q1"]
    base = out["parent"]["median"]
    out.update({
        "better": better,
        "pairs": len(parent),
        "change_wins": wins,
        "ties": ties,
        "median_change_pct": 100.0 * (out["change"]["median"] - base) / base if base else None,
        "parent_iqr": parent_iqr,
        "claimable": sound and 10 * wins >= 9 * len(parent) and gain > parent_iqr,
    })
    return out


def describe(checkout):
    """The checkout's HEAD commit, whether its src/ differs from it, and a
    digest of the source it runs.

    The digest covers every file under src/ (path and bytes), so it names
    uncommitted source too: hash the same files of any later commit to see
    whether it runs what was measured.
    """
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0")
        digest.update(path.read_bytes())
    head = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    status = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain", "--", "src"],
                            capture_output=True, text=True)
    return {
        "commit": head.stdout.strip() if head.returncode == 0 else None,
        "src_modified": bool(status.stdout.strip()) if status.returncode == 0 else None,
        "src_sha256": digest.hexdigest(),
    }


def benchmark_files(checkout):
    files = sorted(p for p in (checkout / "perfbench").rglob("*")
                   if p.is_file() and "out" not in p.relative_to(checkout / "perfbench").parts
                   and "__pycache__" not in p.parts)
    files.append(checkout / "BENCHMARK.json")
    return {str(p.relative_to(checkout)): p.read_bytes() for p in files}


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def summarize_workload(runs, end_to_end):
    """Summaries of every end-to-end metric over the pairs both sides finished."""
    done = [pair for pair in runs if all("metrics" in pair[side] for side in SIDES)]
    if not done:
        return {}
    failed = {side: sum(pair[side]["failed"] for pair in done) for side in SIDES}
    sound = (failed["change"] <= failed["parent"]
             and all(pair[side]["correct"] for pair in done for side in SIDES))
    return {
        name: summarize([pair["parent"]["metrics"][name] for pair in done],
                        [pair["change"]["metrics"][name] for pair in done], better, sound)
        for name, better in end_to_end
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    out_path = ROOT / f"BENCH_{args.label}.json"
    record = {
        "label": args.label,
        "command": spec["command"],
        "seconds": seconds,
        "seeds": [SEED + i for i in range(PAIRS)],
        "order": "pair i runs the parent first when i is even",
        "checkouts": {side: describe(path) for side, path in checkouts.items()},
        "benchmark_identical": benchmark_files(checkouts["parent"])
        == benchmark_files(checkouts["change"]),
        "workloads": {w: {"runs": [], "summary": {}, "traced": {}} for w in workloads},
    }

    def save():
        out_path.write_text(json.dumps(record, indent=1) + "\n")

    for i in range(PAIRS):
        seed = SEED + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], w, seed, seconds, 0)
            entry = record["workloads"][w]
            entry["runs"].append(pair)
            entry["summary"] = summarize_workload(entry["runs"], end_to_end)
            print(f"{time.strftime('%H:%M:%S')} pair {i} {w}", file=sys.stderr)
        save()
    for w in workloads:
        for side in SIDES:
            traced = run_once(checkouts[side], w, SEED, seconds, 1)
            record["workloads"][w]["traced"][side] = traced.get("metrics", traced)
        save()
    print(out_path)


if __name__ == "__main__":
    main()
