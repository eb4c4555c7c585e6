"""Acceptance criteria, runnable as a library call.

Each criterion function returns a CriterionResult; run_all() executes all
eleven numeric criteria (the CLI determinism criterion lives in the test
suite, since it exercises the executable from outside).  The CLI command
``verify-all`` and tests/test_acceptance.py both drive these functions.
"""

import cmath
import math
import operator
import random
import time
from dataclasses import dataclass, field, replace
from itertools import permutations

from . import landen, modulus, monodromy, products
from .elliptic import EllipticContext, cd, omega1, sqrt_k
from .theta import UpperHalfPoint, theta

DEFAULT_SEED = 1729

_THETA_GRID = (0.3j, 0.5j, 1j, 2j, 0.25 + 0.75j)
_V_POINTS = (0.0, 0.3, 0.7, 1.1)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str
    # wall time, set by run_all; 0.0 when a criterion is called directly
    seconds: float = field(default=0.0, compare=False)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} criterion {self.number}: {self.name} "
            f"(worst {self.worst:.3e} vs tol {self.tolerance:.1e}) {self.detail}"
        )


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def criterion_1_theta_transforms():
    """Quartic relation, tau-shift / inversion transforms, Gamma0(4) transform.

    The theta2 shift carries the phase factor i that the (n+1/2)^2 weights
    force under tau -> tau + 1.
    """
    worst = 0.0
    for tval in _THETA_GRID:
        tau = UpperHalfPoint(tval)
        t2, t3, t0 = (theta(j, 0.0, tau) for j in (2, 3, 0))
        worst = max(worst, _rel(t3**4, t2**4 + t0**4))
        tau_plus = UpperHalfPoint(tval + 1)
        tau_quarter = UpperHalfPoint(tval / 4)
        tau_inv = UpperHalfPoint(-1 / tval)
        for v in _V_POINTS:
            worst = max(worst, _rel(theta(3, v, tau_plus), theta(3, v, tau)))
            worst = max(worst, _rel(theta(2, v, tau_plus), 1j * theta(2, v, tau)))
            prefactor = cmath.sqrt(-1j * tval / 2) * cmath.exp(
                1j * tval * v * v / (2 * math.pi)
            )
            worst = max(
                worst,
                _rel(
                    theta(3, v, tau_inv),
                    prefactor * theta(3, tval * v / 2, tau_quarter),
                ),
            )
            worst = max(
                worst,
                _rel(
                    theta(2, v, tau_inv),
                    prefactor * theta(0, tval * v / 2, tau_quarter),
                ),
            )
        worst = max(worst, _rel(theta(3, 0.0, UpperHalfPoint(tval - 0.5)), theta(0, 0.0, tau)))
    for tval in (1j, 2j, 0.25 + 1j):
        tau = UpperHalfPoint(tval)
        moved = UpperHalfPoint(tval / (4 * tval + 1))
        worst = max(
            worst, _rel(theta(3, 0.0, moved), cmath.sqrt(4 * tval + 1) * theta(3, 0.0, tau))
        )
    tol = 1e-10
    return CriterionResult(
        1, "theta identity suite", worst <= tol, worst, tol,
        f"grid of {len(_THETA_GRID)} tau points",
    )


def criterion_2_cd_degeneration():
    """cd(u, iy) -> cos u: 1e-10 at y=20 and errors non-increasing in y."""
    us = [-2.0 + 4.0 * i / 31 for i in range(32)]
    errs = {}
    for y in (10, 20, 40):
        ctx = EllipticContext(UpperHalfPoint(1j * y))
        errs[y] = max(abs(cd(u, ctx) - math.cos(u)) for u in us)
    passed = errs[20] <= 1e-10 and errs[40] <= errs[20] <= errs[10]
    return CriterionResult(
        2, "cd degeneration to cosine", passed, errs[20], 1e-10,
        f"errors y=10:{errs[10]:.2e} y=20:{errs[20]:.2e} y=40:{errs[40]:.2e}",
    )


def criterion_3_blaschke_geometry(seed=DEFAULT_SEED):
    """Boundary modulus 1, strict interior contraction, two forms agree."""
    rng = random.Random(seed)
    worst_boundary = 0.0
    worst_agreement = 0.0
    contraction_ok = True
    for n in range(1, 9):
        for y in (0.8, 1.0, 2.0):
            cb = products.build(n, UpperHalfPoint(1j * y))
            for idx in range(64):
                z = cmath.exp(2j * math.pi * idx / 64)
                worst_boundary = max(
                    worst_boundary, abs(abs(products.eval_product(cb, z)) - 1.0)
                )
            radii = [rng.uniform(0.0, 0.95) for _ in range(100)]
            angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(100)]
            for r, ang in zip(radii, angles):
                z = r * cmath.exp(1j * ang)
                fz = products.eval_product(cb, z)
                if not abs(fz) < 1.0:
                    contraction_ok = False
                worst_agreement = max(
                    worst_agreement, abs(fz - products.eval_expanded(cb, z))
                )
    worst = max(worst_boundary, worst_agreement)
    passed = worst_boundary <= 1e-10 and worst_agreement <= 1e-10 and contraction_ok
    return CriterionResult(
        3, "Blaschke boundary/interior geometry", passed, worst, 1e-10,
        f"boundary {worst_boundary:.2e}, forms {worst_agreement:.2e}, "
        f"contraction {'ok' if contraction_ok else 'VIOLATED'}",
    )


def criterion_4_functional_definition():
    """f(sqrt(k) cd(omega1 u, tau)) = sqrt(k(n tau)) cd(n omega1(n tau) u, n tau)."""
    worst = 0.0
    us = [0.05 + 1.95 * i / 19 for i in range(20)]
    for n in (2, 3, 4):
        for y in (0.5, 1.0):
            cb = products.build(n, UpperHalfPoint(1j * y))
            ctx, nctx = cb.ctx, cb.nctx
            for u in us:
                z = sqrt_k(ctx) * cd(omega1(ctx) * u, ctx)
                lhs = products.eval_product(cb, z)
                rhs = sqrt_k(nctx) * cd(n * omega1(nctx) * u, nctx)
                worst = max(worst, abs(lhs - rhs))
    tol = 1e-9
    return CriterionResult(
        4, "functional definition consistency", worst <= tol, worst, tol,
        "n in {2,3,4}, tau in {i/2, i}, 20 u-points",
    )


def criterion_5_composition():
    """f_{m, n tau} o f_{n, tau} = f_{mn, tau} on interior grids."""
    worst = 0.0
    for m, n in ((2, 2), (2, 3), (3, 2), (1, 5)):
        for y in (0.5, 1.0):
            rep = products.compose_check(m, n, UpperHalfPoint(1j * y))
            worst = max(worst, rep["max_deviation"])
    tol = 1e-9
    return CriterionResult(
        5, "composition law", worst <= tol, worst, tol,
        "(m,n) in {(2,2),(2,3),(3,2),(1,5)}",
    )


def criterion_6_coefficient_oracles():
    """S_{n,j} three ways: symmetric polynomials, derivative recurrence
    + linear system, long-division Taylor coefficients."""
    worst = 0.0
    for n in range(2, 11):
        for y in (0.5, 1.0, 2.0):
            tau = UpperHalfPoint(1j * y)
            s_sym = products.build(n, tau).S
            s_der = products.coefficients_from_derivatives(n, tau)
            s_div = products.coefficients_from_longdivision(n, tau)
            for a, b, c in zip(s_sym, s_der, s_div):
                scale = abs(a)
                worst = max(worst, abs(a - b) / scale, abs(a - c) / scale,
                            abs(b - c) / scale)
    tol = products.COEFFICIENT_TOLERANCE
    return CriterionResult(
        6, "coefficient triple-oracle", worst <= tol, worst, tol,
        "n <= 10, tau in {i/2, i, 2i}, pairwise relative",
    )


def criterion_7_critical_values():
    """Critical values sit at +-sqrt(k(n tau)); both signs appear for n >= 3."""
    worst = 0.0
    signs_ok = True
    for n in range(2, 12):
        for y in (0.3, 0.5, 1.0, 2.0):
            cb = products.build(n, UpperHalfPoint(1j * y))
            vals = products.critical_values(cb)
            ref = sqrt_k(cb.nctx).real
            for v in vals:
                worst = max(worst, min(abs(v - ref), abs(v + ref)) / ref)
            signs = {1 if v.real > 0 else -1 for v in vals}
            if signs != ({-1} if n == 2 else {-1, 1}):
                signs_ok = False
    tol = 1e-7
    return CriterionResult(
        7, "critical values", worst <= tol and signs_ok, worst, tol,
        "n in 2..11, tau in {0.3i, i/2, i, 2i}, relative to sqrt(k(n tau)); "
        "n=2 attains only the negative value",
    )


def criterion_8_chebyshev_degeneration():
    """Elliptic rational functions at tau = 10i match Chebyshev polynomials."""
    worst = 0.0
    tau = UpperHalfPoint(10j)
    xs = [-1.0 + 2.0 * i / 20 for i in range(21)]
    for n in range(1, 7):
        cb = products.build(n, tau)
        for x in xs:
            worst = max(
                worst,
                abs(products.elliptic_rational(cb, x) - products.chebyshev_poly(n, x)),
            )
    tol = 1e-8
    return CriterionResult(
        8, "Chebyshev degeneration", worst <= tol, worst, tol,
        "n <= 6, 21 points in [-1,1]",
    )


def criterion_9_monodromy(seed=DEFAULT_SEED):
    """Exhaustive n <= 5 sweep of the tree/Euler formulas; equivalence checks."""
    failures = []
    for n in range(1, 6):
        perms = [monodromy.Permutation(p) for p in permutations(range(1, n + 1))]
        for s1 in perms:
            for s2 in perms:
                rep = monodromy.MonodromyRep(n, s1, s2)
                if not monodromy.is_transitive(rep):
                    continue
                chi = monodromy.euler_characteristic_disk(rep)
                tree = monodromy.is_tree(rep)
                if tree != (chi == 1):
                    failures.append(f"tree<->chi mismatch at n={n}")
                gap = 2 - (chi + monodromy.face_cycles(rep))
                if gap < 0 or gap % 2 != 0:
                    failures.append(f"sphere Euler gap {gap} invalid at n={n}")
                if tree and gap != 0:
                    failures.append(f"tree with nonzero genus gap at n={n}")
    # equivalence: canonical forms vs brute force, exhaustively for n <= 3
    for n in (2, 3):
        perms = [monodromy.Permutation(p) for p in permutations(range(1, n + 1))]
        reps = [
            monodromy.MonodromyRep(n, s1, s2) for s1 in perms for s2 in perms
        ]
        # reference oracle: r1 ~ r2 iff some relabeling iota (any permutation
        # of degree n) has iota.sigma_i(r1) == sigma_i(r2).iota for i = 1, 2;
        # each side's composites are formed once per rep, not once per pair
        after = [
            [r.sigma1.apply_then(iota).images + r.sigma2.apply_then(iota).images
             for iota in perms]
            for r in reps
        ]
        for r1 in reps:
            before = [
                iota.apply_then(r1.sigma1).images + iota.apply_then(r1.sigma2).images
                for iota in perms
            ]
            for r2, r2_after in zip(reps, after):
                fast = monodromy.are_equivalent(r1, r2)
                if fast != any(map(operator.eq, before, r2_after)):
                    failures.append(f"equivalence decision wrong at n={n}")
                if fast:
                    if r1.sigma1.cycle_type() != r2.sigma1.cycle_type() or (
                        r1.sigma2.cycle_type() != r2.sigma2.cycle_type()
                    ):
                        failures.append("equivalent reps with unequal cycle types")
    # seeded conjugations must be detected at n = 4, 5
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randrange(4, 6)
        s1, s2, iota = (
            monodromy.Permutation(tuple(rng.sample(range(1, n + 1), n)))
            for _ in range(3)
        )
        conj1 = iota.inverse().apply_then(s1).apply_then(iota)
        conj2 = iota.inverse().apply_then(s2).apply_then(iota)
        r1 = monodromy.MonodromyRep(n, s1, s2)
        r2 = monodromy.MonodromyRep(n, conj1, conj2)
        if not monodromy.are_equivalent(r1, r2):
            failures.append("conjugate pair not detected as equivalent")
    for n in range(1, 11):
        rep = monodromy.chebyshev_monodromy(n)
        if not monodromy.is_tree(rep):
            failures.append(f"chain rep n={n} not a tree")
        stats = monodromy.dessin_stats(rep)
        if (stats.vertices, stats.edges) != (n + 1, n):
            failures.append(f"chain dessin stats wrong at n={n}")
    passed = not failures
    return CriterionResult(
        9, "monodromy suite", passed, 0.0 if passed else 1.0, 0.0,
        "exhaustive n<=5" + ("" if passed else "; " + failures[0]),
    )


def criterion_10_modulus_keystone():
    """disk-minus-geodesic modulus between +-sqrt(k(n tau)) vs n Im(tau)/4."""
    worst = 0.0
    for n in (1, 2, 3, 4):
        for y in (0.5, 1.0, 2.0):
            tau = UpperHalfPoint(1j * y)
            s = sqrt_k(EllipticContext(tau.scaled(n))).real
            M = modulus.disk_minus_geodesic_modulus(modulus.GeodesicSegment(-s, s))
            worst = max(worst, abs(M - n * y / 4.0))
    anchor = max(
        abs(modulus.grotzsch_modulus(1.0 / math.sqrt(2.0)) - 0.25),
        abs(modulus.grotzsch_modulus(3.0 - 2.0 * math.sqrt(2.0)) - 0.5),
    )
    worst_dessin = 0.0
    for n in (2, 3, 4):
        for y in (0.5, 1.0, 2.0):
            cb = products.build(n, UpperHalfPoint(1j * y))
            worst_dessin = max(worst_dessin, abs(modulus.dessin_size(cb) - y / 4.0))
    passed = worst <= 1e-8 and anchor <= 1e-10 and worst_dessin <= 1e-8
    return CriterionResult(
        10, "modulus keystone", passed, max(worst, anchor, worst_dessin), 1e-8,
        f"keystone {worst:.2e}, anchors {anchor:.2e}, dessin {worst_dessin:.2e}",
    )


def criterion_11_landen_catalog():
    """Every catalog identity over the six-point grid; nine trig targets."""
    worst_id = 0.0
    for report in landen.run_catalog():
        worst_id = max(worst_id, report.residual)
    worst_trig = 0.0
    for report in landen.run_trig_limits():
        worst_trig = max(worst_trig, report.residual)
    passed = worst_id <= landen.IDENTITY_TOLERANCE and worst_trig <= landen.TRIG_TOLERANCE
    return CriterionResult(
        11, "Landen catalog and trig limits", passed,
        max(worst_id, worst_trig), landen.IDENTITY_TOLERANCE,
        f"identities {worst_id:.2e} (tol 1e-10), trig {worst_trig:.2e} (tol 1e-6)",
    )


_CRITERIA = (
    criterion_1_theta_transforms,
    criterion_2_cd_degeneration,
    criterion_3_blaschke_geometry,
    criterion_4_functional_definition,
    criterion_5_composition,
    criterion_6_coefficient_oracles,
    criterion_7_critical_values,
    criterion_8_chebyshev_degeneration,
    criterion_9_monodromy,
    criterion_10_modulus_keystone,
    criterion_11_landen_catalog,
)


def run_all(seed=DEFAULT_SEED):
    """Execute criteria 1..11 and return their results, each timed, in order."""
    results = []
    for fn in _CRITERIA:
        start = time.perf_counter()
        if fn in (criterion_3_blaschke_geometry, criterion_9_monodromy):
            result = fn(seed=seed)
        else:
            result = fn()
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
