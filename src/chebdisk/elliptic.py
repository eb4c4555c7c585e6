"""Jacobi elliptic functions sn, cn, dn, cd as theta quotients.

With omega1(tau) = theta3(0,tau)^2 and w = u / omega1(tau):

    sn(u) = theta3(0)/theta2(0) * theta1(w)/theta0(w)
    cn(u) = theta0(0)/theta2(0) * theta2(w)/theta0(w)
    dn(u) = theta0(0)/theta3(0) * theta3(w)/theta0(w)
    cd(u) = cn(u)/dn(u) = theta3(0)/theta2(0) * theta2(w)/theta3(w)

cd is evaluated through the simplified right-hand quotient; the tests check
cd*dn = cn against the separately evaluated cn and dn.
"""

from functools import cached_property

from .errors import DomainError, PoleError
from .theta import theta

_POLE_RATIO = 1e-12
_NULL_FLOOR = 1e-300


class EllipticContext:
    """The theta nulls theta_j(0, tau), j = 0, 2, 3, at one fixed tau.

    The library reads every null through a context (the theta identity
    criterion, which tests theta itself, aside).  Each null is evaluated on
    first read and kept, so a caller pays only for the nulls it reads.  A
    null is a deterministic function of tau: threads racing on a first read
    store the same value, so a context is safe to share between threads.

    Reading a null never raises.  theta2(0, tau) underflows below 1e-300
    near Im(tau) = 440; the functions below that divide by a null raise
    DomainError when it has vanished.
    """

    def __init__(self, tau):
        self.tau = tau

    @cached_property
    def theta0_null(self):
        return theta(0, 0.0, self.tau)

    @cached_property
    def theta2_null(self):
        return theta(2, 0.0, self.tau)

    @cached_property
    def theta3_null(self):
        return theta(3, 0.0, self.tau)


def _divisor(ctx, j):
    """theta_j(0, tau) for use as a divisor; DomainError once it has vanished."""
    val = getattr(ctx, f"theta{j}_null")
    if abs(val) < _NULL_FLOOR:
        raise DomainError(f"theta{j}(0, tau) vanished at tau={ctx.tau.value}")
    return val


def omega1(ctx):
    """theta3(0, tau)^2, the elliptic argument scale."""
    return ctx.theta3_null ** 2


def k_modulus(ctx):
    """k(tau) = theta2(0)^2 / theta3(0)^2."""
    return sqrt_k(ctx) ** 2


def sqrt_k(ctx):
    """sqrt(k)(tau) = theta2(0)/theta3(0); its square is k_modulus exactly."""
    return ctx.theta2_null / _divisor(ctx, 3)


def _jacobi(u, ctx, top, bottom, num_j, den_j):
    """ctx.<top>/theta_bottom(0) * theta_num_j(w)/theta_den_j(w), w = u/theta3(0)^2."""
    # theta3(0) is read first, so a failure names it; top is a name, as f-strings are slow
    w = complex(u) / _divisor(ctx, 3) ** 2
    scale = getattr(ctx, top) / _divisor(ctx, bottom)
    num = theta(num_j, w, ctx.tau)
    den = theta(den_j, w, ctx.tau)
    if abs(den) < _POLE_RATIO * abs(num):
        raise PoleError(
            f"theta{den_j}({w}) ~ 0 relative to theta{num_j}; pole of the quotient"
        )
    return scale * num / den


def sn(u, ctx):
    return _jacobi(u, ctx, "theta3_null", 2, 1, 0)


def cn(u, ctx):
    return _jacobi(u, ctx, "theta0_null", 2, 2, 0)


def dn(u, ctx):
    return _jacobi(u, ctx, "theta0_null", 3, 3, 0)


def cd(u, ctx):
    return _jacobi(u, ctx, "theta3_null", 2, 2, 3)
