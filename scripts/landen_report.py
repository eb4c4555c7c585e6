#!/usr/bin/env python3
"""Sweep the Landen-type identity catalog over a tau grid and print a table.

Usage:
    python scripts/landen_report.py
    python scripts/landen_report.py --grid 0.4,0.6,1.0,2.5 --y-large 25
"""

import argparse

from chebdisk import landen


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--grid",
        default=",".join(str(y) for y in landen.DEFAULT_TAU_GRID),
        help="comma-separated Im(tau) values",
    )
    parser.add_argument("--y-large", type=float, default=landen.Y_LARGE)
    args = parser.parse_args()
    grid = tuple(float(tok) for tok in args.grid.split(","))

    print(f"{'identity':8s} " + " ".join(f"y={y:<9g}" for y in grid) + " | trig target  residual")
    worst = 0.0
    for identity_id in sorted(landen.CATALOG):
        row = []
        for y in grid:
            rep = landen.verify_identity(identity_id, landen.UpperHalfPoint(1j * y))
            row.append(f"{rep.residual:.2e}  ")
            worst = max(worst, rep.residual)
        trig = landen.trig_limit(identity_id, args.y_large)
        print(
            f"{identity_id:8s} " + " ".join(row)
            + f"| {trig.rhs.real:<11g} {trig.residual:.2e}"
        )
    print(f"\nworst identity residual over the grid: {worst:.3e}")


if __name__ == "__main__":
    main()
