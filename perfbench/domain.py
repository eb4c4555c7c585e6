#!/usr/bin/env python3
"""Regenerate domain.json: the Im(tau) grid cells the seeded workloads use.

For every degree of the tabulate and critical workloads and every point of
the Im(tau) grid, this runs the workload's operation and all of its checks
against the mpmath references.  A cell is kept when the operation raises
nothing and every checked value is within a hundredth of its tolerance, so
that seeded runs never fail and a last-digit change of the program does
not push a kept cell over a tolerance.  Cells left out are where the
program fails or is inaccurate; README.md lists them.

Usage (from the repository root; takes several minutes):
    python3 perfbench/domain.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402

MARGIN_DIGITS = 2.0
DEGREES = {"tabulate": inputs.TABULATE_DEGREES, "critical": inputs.CRITICAL_DEGREES}
CHECKS = {"tabulate": reference.check_tabulate, "critical": reference.check_critical}


def cell_ok(workload, n, y):
    item = {"n": n, "y": y}
    try:
        out = ops.OPS[workload](item)
    except Exception:  # noqa: BLE001  any failure leaves the cell out
        return False
    chk = reference.Checker()
    CHECKS[workload](item, out, chk)
    return chk.ok and chk.digits >= MARGIN_DIGITS


def _ranges(ks):
    out = []
    for k in ks:
        if out and out[-1][1] == k - 1:
            out[-1][1] = k
        else:
            out.append([k, k])
    return out


def safe_cells(workload):
    table = {}
    for n in DEGREES[workload]:
        ks = [k for k in range(inputs.Y_STEPS + 1) if cell_ok(workload, n, inputs.y_at(k))]
        table[str(n)] = _ranges(ks)
        print(f"{workload} n={n}: {len(ks)} of {inputs.Y_STEPS + 1} cells", file=sys.stderr)
    return table


def main():
    domain = {workload: safe_cells(workload) for workload in sorted(DEGREES)}
    domain["y_grid"] = {"min": inputs.Y_MIN, "max": inputs.Y_MAX, "steps": inputs.Y_STEPS}
    with open(inputs.DOMAIN_FILE, "w") as fh:
        fh.write(dump(domain))


def dump(domain):
    """JSON with one line per degree, so a regenerated file diffs by degree."""
    parts = [f' "y_grid": {json.dumps(domain["y_grid"], sort_keys=True)}']
    for workload in sorted(DEGREES):
        rows = ",\n".join(f'  "{n}": {json.dumps(domain[workload][str(n)])}'
                          for n in DEGREES[workload])
        parts.append(f' "{workload}": {{\n{rows}\n }}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()
