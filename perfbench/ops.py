"""One operation of each in-process workload, called through chebdisk's
public functions.  Each returns plain values for the checker in
``reference.py``; a failing operation raises.

Functions are looked up on their modules at call time, so the wrappers
that tracing.install puts there see these calls too."""

from chebdisk import elliptic, landen, modulus, products
from chebdisk.theta import UpperHalfPoint

from inputs import BOUNDARY_POINTS, CD_ARGUMENTS, INTERIOR_POINTS

LANDEN_IDS = {
    n: sorted(i for i, (deg, _) in landen.CATALOG.items() if deg == n) for n in range(2, 7)
}


def tabulate(item):
    """build, both evaluation forms, cd, dessin size and, for n <= 6, the
    Landen identities of degree n at one (n, Im tau) point."""
    n = item["n"]
    tau = UpperHalfPoint(complex(0.0, item["y"]))
    cb = products.build(n, tau)
    points = BOUNDARY_POINTS + INTERIOR_POINTS
    product = [products.eval_product(cb, z) for z in points]
    expanded = [products.eval_expanded(cb, z) for z in points]
    ctx = elliptic.EllipticContext(tau)
    cds = [elliptic.cd(u, ctx) for u in CD_ARGUMENTS]
    size = modulus.dessin_size(cb)
    reports = [landen.verify_identity(i, tau) for i in LANDEN_IDS.get(n, ())]
    return {
        "b": cb.b,
        "product": product,
        "expanded": expanded,
        "cd": cds,
        "dessin_size": size,
        "landen": [(r.identity_id, r.lhs, r.residual) for r in reports],
    }


def critical(item):
    tau = UpperHalfPoint(complex(0.0, item["y"]))
    return {"values": products.critical_values(products.build(item["n"], tau))}


def verify(item):
    from chebdisk import acceptance  # numpy comes with it; only verify needs it

    return {
        "criteria": [
            (r.number, r.passed, r.worst, r.tolerance)
            for r in acceptance.run_all(seed=item["suite_seed"])
        ]
    }


OPS = {"tabulate": tabulate, "critical": critical, "verify": verify}
