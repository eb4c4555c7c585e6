#!/usr/bin/env python3
"""Cross-check the modulus keystone over a (degree, Im tau) sweep.

For each n and y the table shows the modulus of the disk minus the geodesic
between the two critical values +-sqrt(k(n * iy)), the prediction n*y/4, and
the dessin size Im(tau)/4 obtained after dividing by the covering degree.

Usage:
    python scripts/modulus_sweep.py --max-n 6 --grid 0.4,0.8,1.2,2.0
"""

import argparse

from chebdisk import (
    GeodesicSegment,
    UpperHalfPoint,
    build,
    dessin_size,
    disk_minus_geodesic_modulus,
    sqrt_k,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--grid", default="0.5,1.0,2.0")
    args = parser.parse_args()
    grid = tuple(float(tok) for tok in args.grid.split(","))

    print(f"{'n':>2s} {'y':>6s} {'M(D - l)':>14s} {'n y / 4':>10s} {'deviation':>10s} {'dessin':>9s}")
    worst = 0.0
    for n in range(1, args.max_n + 1):
        for y in grid:
            cb = build(n, UpperHalfPoint(1j * y))
            s = sqrt_k(cb.nctx).real
            M = disk_minus_geodesic_modulus(GeodesicSegment(-s, s))
            dev = abs(M - n * y / 4.0)
            worst = max(worst, dev)
            size = dessin_size(cb) if n >= 2 else float("nan")
            print(f"{n:2d} {y:6.2f} {M:14.10f} {n * y / 4.0:10.6f} {dev:10.2e} {size:9.5f}")
    print(f"\nworst deviation from n*Im(tau)/4: {worst:.3e}")


if __name__ == "__main__":
    main()
