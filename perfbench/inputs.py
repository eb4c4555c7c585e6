"""Seeded inputs of the four workloads.

Every run repeats whole rounds of one pool of operations, so the share of
failed operations is the same in every run whatever its length or seed.
Seeded points are drawn only from ``domain.json``: the cells of the Im(tau)
grid where every check of the workload passed with a hundredfold margin when
the file was last regenerated (``python3 perfbench/domain.py``).  The two
faults the benchmark keeps are fixed, seed-independent operations appended
to each round (``FIXED_FAILURES``).

This module imports neither chebdisk nor mpmath.
"""

import cmath
import json
import math
import random
import shlex
from pathlib import Path

HERE = Path(__file__).resolve().parent
DOMAIN_FILE = HERE / "domain.json"

# Log-spaced Im(tau) grid over the README's full-accuracy domain [0.05, 3].
Y_MIN = 0.05
Y_MAX = 3.0
Y_STEPS = 240

TABULATE_DEGREES = range(2, 41)
CRITICAL_DEGREES = range(2, 25)
TABULATE_STRATA = 8
CRITICAL_STRATA = 4

# The tabulate batch, fixed so that every evaluated point lies inside the
# cells domain.json verified: 8 points on the unit circle and 8 inside it.
BOUNDARY_POINTS = tuple(cmath.exp(1j * (2.0 * math.pi * k / 8 + 0.3)) for k in range(8))
INTERIOR_POINTS = tuple(
    r * cmath.exp(1j * (2.0 * math.pi * k / 8 + 0.1 * r))
    for k, r in enumerate((0.2, 0.45, 0.7, 0.9, 0.3, 0.55, 0.8, 0.94))
)
CD_ARGUMENTS = (0.3, -1.1, 1.9)

# workload -> (n, Im tau, error the program raises there)
FIXED_FAILURES = {
    "tabulate": [(2, 0.05, "PrecisionError")],
    "critical": [
        (10, 2.0, "RootFindingError"),
        (4, 0.05, "RootFindingError"),
        (7, 0.1, "RootFindingError"),
    ],
}


def y_at(k):
    """Grid point k of the Im(tau) grid, k = 0..Y_STEPS."""
    return Y_MIN * (Y_MAX / Y_MIN) ** (k / Y_STEPS)


def load_domain():
    with open(DOMAIN_FILE) as fh:
        return json.load(fh)


def _expand(ranges):
    return [k for lo, hi in ranges for k in range(lo, hi + 1)]


def _strata(items, count):
    """Split a sorted list into ``count`` contiguous, near-equal chunks."""
    size = len(items)
    return [items[size * s // count : size * (s + 1) // count] for s in range(count)]


def _grid_pool(workload, degrees, strata, rng, pick):
    """One point per (degree, stratum of that degree's safe Im tau cells),
    ``pick`` choosing the cell in the stratum, in seeded order, followed by
    the fixed failing points."""
    safe = load_domain()[workload]
    pool = []
    for n in degrees:
        for chunk in _strata(_expand(safe[str(n)]), strata):
            pool.append({"n": n, "y": y_at(pick(chunk)), "expect": None})
    rng.shuffle(pool)
    for n, y, error in FIXED_FAILURES[workload]:
        pool.append({"n": n, "y": y, "expect": error})
    return pool


def tabulate_pool(seed):
    rng = random.Random(f"tabulate:{seed}")
    return _grid_pool("tabulate", TABULATE_DEGREES, TABULATE_STRATA, rng, rng.choice)


def critical_pool(seed):
    """The middle cell of every stratum, in seeded order.

    Unlike tabulate, the cells are not seeded: the cost of one call ranges
    over three decades within a degree, so with seeded cells the median
    operation of a run moved by 15-20 % from seed to seed.
    """
    return _grid_pool("critical", CRITICAL_DEGREES, CRITICAL_STRATA,
                      random.Random(f"critical:{seed}"), lambda chunk: chunk[len(chunk) // 2])


def verify_pool(seed):
    """One acceptance suite per round, at a suite seed taken from --seed."""
    return [{"suite_seed": seed, "expect": None}]


# The README's CLI examples except verify-all, with the README's arguments.
README_COMMANDS = (
    "theta --j 3 --v 0 --tau-im 0.5",
    "elliptic --v 0.7 --tau-im 20",
    "cb build --n 5 --tau-im 0.75",
    "cb eval --n 2 --tau-im 0.5 --z 0.5,0",
    "cb coeffs --n 4 --tau-im 1",
    "cb derivs --n 3 --tau-im 1 --order 7",
    "cb critical --n 3 --tau-im 1",
    "cb modulus --n 2 --tau-im 1",
    "cb compose --m 2 --n 3 --tau-im 0.5",
    'monodromy analyze --sigma1 "(1 2)" --sigma2 "(2 3)"',
    'monodromy equiv --sigma1 "(1 2)" --sigma2 "(2 3)" --other-sigma1 "(2 3)" '
    '--other-sigma2 "(1 2)" --n 3',
    "monodromy chebyshev --n 6",
    "modulus annulus --r 0.1",
    "modulus grotzsch --t 0.70710678118654752",
    "modulus geodesic --a=-0.41,0 --b=0.41,0",
    "modulus dessin-size --n 2 --tau-im 1",
    "landen verify --id n4_sum --tau-im 1",
    "landen limit --id n6_prod --y-large 30",
    "landen all",
)


def cli_pool(seed):
    """Each round runs every README command once, in a seeded order.

    The arguments stay the README's: a call's cost is interpreter start and
    imports whatever the arguments, and fixed arguments keep the accuracy
    metric, a minimum over only 19 documents, from moving with the seed.
    """
    rng = random.Random(f"cli:{seed}")
    pool = [{"argv": shlex.split(line), "expect": None}
            for line in README_COMMANDS]
    rng.shuffle(pool)
    return pool


POOLS = {
    "tabulate": tabulate_pool,
    "critical": critical_pool,
    "verify": verify_pool,
    "cli": cli_pool,
}
