"""One process of an in-process workload (tabulate, critical, verify).

Started by run.py.  It imports chebdisk, runs one warm-up operation on a
fixed input outside the pool, prints READY, and with --setup-only exits
there.  Otherwise it times whole rounds of the seeded pool, one operation
at a time, for --seconds, then checks the outputs against the references
and prints one JSON line for run.py.  With --trace 1 the first half of the
time runs untraced and the second half traced, which gives the overhead.
"""

import argparse
import json
import resource
import sys
import time

import inputs
import ops
import tracing

WARM_UP = {
    "tabulate": {"n": 5, "y": 0.5},
    "critical": {"n": 3, "y": 1.0},
    "verify": {"suite_seed": 0},
}
REPEATED = 5          # operations called a second time to check repeatability
KEPT_SPAN_OPS = 400   # operations whose spans a traced run writes out


def run_rounds(pool, op, seconds, tracer=None):
    """Whole rounds of the pool, one operation at a time, until ``seconds``
    have passed; returns the operation times and the first round's outputs."""
    durations = []
    failed = 0
    first = None
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while True:
        outputs = []
        for item in pool:
            if tracer is not None:
                tracer.op = len(durations)
            t0 = time.perf_counter_ns()
            try:
                out = op(item)
            except Exception as exc:  # noqa: BLE001  a failed operation, counted
                out = exc
                failed += 1
            durations.append(time.perf_counter_ns() - t0)
            outputs.append(out)
        first = first or outputs
        if time.perf_counter_ns() >= deadline:
            break
    return {
        "durations_ns": durations,
        "failed": failed,
        "elapsed_s": (time.perf_counter_ns() - start) / 1e9,
        "outputs": list(zip(pool, first)),
    }


def _same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def check(workload, op, outputs):
    """Check every output; repeat the first few operations to see that a
    second call gives the same result.  ``reference`` imports mpmath, so it
    is imported here, after the timed phase, and not before READY."""
    import reference

    check_one = getattr(reference, f"check_{workload}")
    chk = reference.Checker()
    unexpected = []
    for item, out in outputs[:REPEATED]:
        try:
            again = op(item)
        except Exception as exc:  # noqa: BLE001
            again = exc
        chk.true(f"{workload} {item}: a repeated call gives the same output", _same(out, again))
    for item, out in outputs:
        if isinstance(out, Exception):
            if type(out).__name__ != item["expect"]:
                unexpected.append(f"{item}: {type(out).__name__}: {out}")
            continue
        check_one(item, out, chk)
    return chk, unexpected


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WARM_UP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    op = ops.OPS[args.workload]
    op(WARM_UP[args.workload])
    print("READY", flush=True)
    if args.setup_only:
        return
    pool = inputs.POOLS[args.workload](args.seed)

    if args.trace:
        plain = run_rounds(pool, op, args.seconds / 2)
        tracer = tracing.Tracer(keep_ops=KEPT_SPAN_OPS)
        tracing.install(tracer)
        run = run_rounds(pool, op, args.seconds / 2, tracer)
        layers = tracing.report(plain, run, tracer.aggregates(), args.trace_file,
                                {"workload": args.workload, "seed": args.seed,
                                 "spans": tracer.spans})
        attempted = len(plain["durations_ns"]) + len(run["durations_ns"])
        failed = plain["failed"] + run["failed"]
    else:
        run = run_rounds(pool, op, args.seconds)
        layers = None
        attempted, failed = len(run["durations_ns"]), run["failed"]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    chk, unexpected = check(args.workload, op, run["outputs"])
    for line in chk.failures[:20] + unexpected[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "durations_ns": run["durations_ns"],
        "elapsed_s": run["elapsed_s"],
        "attempted": attempted,
        "failed": failed,
        "correct": chk.ok,
        "digits": chk.digits,
        "worst": chk.worst,
        "peak_rss_kb": peak_kb,
        "layers": layers,
    }), flush=True)


if __name__ == "__main__":
    main()
