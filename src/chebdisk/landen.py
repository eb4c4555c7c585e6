"""Landen-type theta identities and their trigonometric degenerations.

Each identity equates a symmetric polynomial e_j of the squared-zero
parameters b_i(tau) of a degree-n product with a closed expression in
theta nulls at tau and n*tau.  The top coefficient (j = floor(n/2)) has a
general closed form for every n; the lower coefficients have individual
closed forms for
n = 4, 5, 6.  Dividing e_j by k(tau)^j and letting tau -> +i*infinity turns
each identity into an exact cosine identity.
"""

from dataclasses import dataclass

from .elliptic import k_modulus
from .errors import DenominatorNearZero, DomainError
from .products import build
from .theta import UpperHalfPoint

IDENTITY_TOLERANCE = 1e-10
TRIG_TOLERANCE = 1e-6

DEFAULT_TAU_GRID = (0.4, 0.5, 0.75, 1.0, 1.5, 2.0)
# Im(tau) at which the trigonometric limits are evaluated.
Y_LARGE = 30.0

# id -> (degree, symmetric-polynomial index)
CATALOG = {
    "n2_prod": (2, 1),
    "n3_prod": (3, 1),
    "n4_sum": (4, 1),
    "n4_prod": (4, 2),
    "n5_sum": (5, 1),
    "n5_prod": (5, 2),
    "n6_e1": (6, 1),
    "n6_e2": (6, 2),
    "n6_prod": (6, 3),
}

@dataclass(frozen=True)
class IdentityReport:
    """Two evaluated sides of one identity at one tau."""

    identity_id: str
    tau: UpperHalfPoint
    lhs: complex
    rhs: complex
    residual: float
    tolerance: float
    passed: bool


def _report(identity_id, tau, lhs, rhs, tolerance):
    lhs = complex(lhs)
    rhs = complex(rhs)
    residual = abs(lhs - rhs) / max(1.0, abs(rhs))
    return IdentityReport(
        identity_id=identity_id,
        tau=tau,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
    )


def _guard(num, den, what):
    if abs(den) < 1e-12 * max(1.0, abs(num)):
        raise DenominatorNearZero(f"{what}: denominator {den} degenerate")


def verify_identity(identity_id, tau):
    """Both sides of one catalog identity at tau.

    The lhs is S_j = e_j(b) of the degree-n product; the rhs is its closed
    form in the theta nulls t2, t3 at tau and s2, s3 at n*tau.  The top
    coefficient (j = floor(n/2)) has a closed form for every n:

        even n:  prod b_i = s2 / s3
        odd n:   prod b_i = n s2 s3 / (t2 t3)

    and n4_sum, n5_sum, n6_e1, n6_e2 have closed forms of their own.
    """
    if identity_id not in CATALOG:
        raise DomainError(f"unknown identity id {identity_id!r}")
    n, j = CATALOG[identity_id]
    cb = build(n, tau)
    lhs = cb.S[j - 1]
    s2, s3 = cb.nctx.theta2_null, cb.nctx.theta3_null
    if j == n // 2 and n % 2 == 0:
        return _report(identity_id, tau, lhs, s2 / s3, IDENTITY_TOLERANCE)
    t2, t3 = cb.ctx.theta2_null, cb.ctx.theta3_null
    if j == n // 2:
        rhs = n * s2 * s3 / (t2 * t3)
    elif identity_id == "n4_sum":
        num = s3**4 - s2**4
        den = s3 - s2
        _guard(num, den, identity_id)
        rhs = 8.0 * s2 / (t2**2 * t3**2) * num / den
    elif identity_id == "n5_sum":
        num = t3**4 + t2**4 - 25.0 * (s3**4 + s2**4)
        den = 5.0 * s2 * s3 - t2 * t3
        _guard(num, den, identity_id)
        rhs = 5.0 * s2 * s3 / (6.0 * t2**2 * t3**2) * num / den
    else:
        prefactor = 6.0 * s2 * (s2**2 + s3**2) / (t2**2 * t3**2)
        den = t2**2 * t3**2 - 18.0 * s2 * s3 * (s2**2 + s3**2)
        if identity_id == "n6_e1":
            num = 3.0 * t2**2 * t3**2 * s2 - s3 * (
                t2**4 + t3**4 + 45.0 * s2**4 - 9.0 * s3**4
            )
        else:
            num = 3.0 * t2**2 * t3**2 * s3 - s2 * (
                t2**4 + t3**4 - 9.0 * s2**4 + 45.0 * s3**4
            )
        _guard(num, den, identity_id)
        rhs = prefactor * num / den
    return _report(identity_id, tau, lhs, rhs, IDENTITY_TOLERANCE)


def _trig_target(n, j):
    """e_j of cos^2((2i-1)pi/2n), i = 1..n//2: (-1)^j [x^(n-2j)] T_n / 2^(n-1),
    the limit of e_j / k^j as tau -> +i*infinity."""
    prev, cur = [1], [0, 1]  # T_0, T_1, coefficients by ascending power
    for _ in range(n - 1):  # T_{m+1} = 2x T_m - T_{m-1}
        prev, cur = cur, [2 * a - b for a, b in zip([0] + cur, prev + [0, 0])]
    return (-1) ** j * cur[n - 2 * j] / 2 ** (n - 1)


def trig_limit(identity_id, y_large=Y_LARGE):
    """e_j / k(tau)^j at tau = i*y_large against the exact cosine constant."""
    if identity_id not in CATALOG:
        raise DomainError(f"unknown identity id {identity_id!r}")
    n, j = CATALOG[identity_id]
    tau = UpperHalfPoint(complex(0.0, y_large))
    cb = build(n, tau)
    lhs = cb.S[j - 1] / k_modulus(cb.ctx) ** j
    return _report(identity_id, tau, lhs, _trig_target(n, j), TRIG_TOLERANCE)


def run_catalog():
    """Every catalog identity over DEFAULT_TAU_GRID, ordered by (id, tau)."""
    out = []
    for identity_id in sorted(CATALOG):
        for y in sorted(DEFAULT_TAU_GRID):
            out.append(verify_identity(identity_id, UpperHalfPoint(1j * y)))
    return out


def run_trig_limits():
    return [trig_limit(identity_id) for identity_id in sorted(CATALOG)]
