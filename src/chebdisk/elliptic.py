"""Jacobi elliptic functions sn, cn, dn, cd as theta quotients.

With omega1(tau) = theta3(0,tau)^2 and w = u / omega1(tau):

    sn(u) = theta3(0)/theta2(0) * theta1(w)/theta0(w)
    cn(u) = theta0(0)/theta2(0) * theta2(w)/theta0(w)
    dn(u) = theta0(0)/theta3(0) * theta3(w)/theta0(w)
    cd(u) = cn(u)/dn(u) = theta3(0)/theta2(0) * theta2(w)/theta3(w)

cd is evaluated through the simplified right-hand quotient; the tests check
cd*dn = cn against the separately evaluated cn and dn.
"""

from .errors import DomainError, PoleError
from .theta import theta

_POLE_RATIO = 1e-12
_NULL_FLOOR = 1e-300


class EllipticContext:
    """Caches the three theta nulls for a fixed tau.

    Immutable after construction; safe to share between threads.
    """

    def __init__(self, tau):
        self.tau = tau
        self.theta0_null = theta(0, 0.0, tau)
        self.theta2_null = theta(2, 0.0, tau)
        self.theta3_null = theta(3, 0.0, tau)
        for name, val in (
            ("theta0", self.theta0_null),
            ("theta2", self.theta2_null),
            ("theta3", self.theta3_null),
        ):
            if abs(val) < _NULL_FLOOR:
                raise DomainError(f"{name}(0, tau) vanished at tau={tau.value}")


def omega1(ctx):
    """theta3(0, tau)^2, the elliptic argument scale."""
    return ctx.theta3_null ** 2


def k_modulus(ctx):
    """k(tau) = theta2(0)^2 / theta3(0)^2."""
    return (ctx.theta2_null / ctx.theta3_null) ** 2


def sqrt_k(ctx):
    """sqrt(k)(tau) = theta2(0)/theta3(0); its square is k_modulus exactly."""
    return ctx.theta2_null / ctx.theta3_null


def _theta_arg(u, ctx):
    return complex(u) / omega1(ctx)


def _quotient(num_j, den_j, w, ctx):
    num = theta(num_j, w, ctx.tau)
    den = theta(den_j, w, ctx.tau)
    if abs(den) < _POLE_RATIO * abs(num):
        raise PoleError(
            f"theta{den_j}({w}) ~ 0 relative to theta{num_j}; pole of the quotient"
        )
    return num, den


def sn(u, ctx):
    w = _theta_arg(u, ctx)
    num, den = _quotient(1, 0, w, ctx)
    return ctx.theta3_null / ctx.theta2_null * num / den


def cn(u, ctx):
    w = _theta_arg(u, ctx)
    num, den = _quotient(2, 0, w, ctx)
    return ctx.theta0_null / ctx.theta2_null * num / den


def dn(u, ctx):
    w = _theta_arg(u, ctx)
    num, den = _quotient(3, 0, w, ctx)
    return ctx.theta0_null / ctx.theta3_null * num / den


def cd(u, ctx):
    w = _theta_arg(u, ctx)
    num, den = _quotient(2, 3, w, ctx)
    return ctx.theta3_null / ctx.theta2_null * num / den
