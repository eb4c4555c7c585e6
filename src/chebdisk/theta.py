"""Jacobi theta functions under the q = e^{2 pi i tau} convention.

The four series are

    theta1(v) = sum_n i^{2n-1} q^{(n+1/2)^2} e^{(2n+1) i v}
    theta2(v) = sum_n q^{(n+1/2)^2} e^{(2n+1) i v}
    theta3(v) = sum_n q^{n^2} e^{2 n i v}
    theta0(v) = sum_n (-1)^n q^{n^2} e^{2 n i v}

Every term exponent is evaluated as e^{2 pi i tau w} with a *real* weight
w = n^2 or (n + 1/2)^2.  No fractional power of a stored nome is ever taken,
which pins the q^{1/4}-type branch unambiguously for complex tau.

Summation runs over the symmetric index range n = -N..N, accumulating the
two members of each +-n (or n, -n-1) pair together so that the exact
cancellations of the odd/even symmetries survive in floating point.  One
fixed truncation rule serves every evaluation: the sum stops after two
consecutive pairs below REL_TOL * |sum|, and a series that has not stopped
by pair index MAX_INDEX raises PrecisionError.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, PrecisionError

TWO_PI = 2.0 * math.pi

# Below this Im(tau) the direct series still converges inside MAX_INDEX but
# the full-accuracy guarantee is withdrawn (UpperHalfPoint.degraded).
TAU_IM_FLOOR = 0.05

REL_TOL = 1e-15
MAX_INDEX = 64


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point tau in the open upper half plane.

    Construction rejects Im(tau) <= 0.  Points with Im(tau) below
    ``TAU_IM_FLOOR`` are accepted but marked degraded: series evaluations
    there fall outside the validated accuracy regime.  ``degraded`` is the
    one rule for that flag; the CLI appends it to every payload, ok or
    error, computed at such a point.
    """

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if not v.imag > 0:
            raise DomainError(f"tau must satisfy Im(tau) > 0, got {v}")
        object.__setattr__(self, "value", v)

    @property
    def degraded(self):
        """True when Im(tau) sits below the full-accuracy floor."""
        return self.value.imag < TAU_IM_FLOOR

    @property
    def on_imaginary_axis(self):
        return self.value.real == 0.0

    def scaled(self, n):
        """The point n*tau (n > 0 keeps it in the upper half plane)."""
        return UpperHalfPoint(n * self.value)


def _sum_integer_family(j, v, tau):
    # theta3 (j=3) and theta0 (j=0): n = 0 term is 1, then +-n pairs.
    total = 1 + 0j
    below = 0
    for n in range(1, MAX_INDEX + 1):
        radial = cmath.exp(2j * math.pi * tau * (n * n))
        tp = radial * cmath.exp(2j * n * v)
        tm = radial * cmath.exp(-2j * n * v)
        pair = -(tp + tm) if (j == 0 and n % 2 == 1) else (tp + tm)
        total += pair
        below = below + 1 if abs(pair) <= REL_TOL * abs(total) else 0
        # A single tiny pair can be an accidental angular zero
        # (cos(2nv) ~ 0); two consecutive tiny pairs cannot be unless the
        # whole tail is negligible, so stop only then.
        if below >= 2:
            return total
    return None


def _sum_half_integer_family(j, v, tau):
    # theta2 (j=2) and theta1 (j=1): pairs (n, -n-1), weight (n+1/2)^2.
    total = 0j
    below = 0
    for n in range(0, MAX_INDEX + 1):
        m = 2 * n + 1
        radial = cmath.exp(2j * math.pi * tau * (m * m / 4.0))
        tp = radial * cmath.exp(1j * m * v)
        tm = radial * cmath.exp(-1j * m * v)
        if j == 2:
            pair = tp + tm
        else:
            # i^{2n-1} = -i(-1)^n at index n, i(-1)^n at index -n-1
            pair = (-1) ** n * (-1j * tp + 1j * tm)
        total += pair
        if n >= 1:
            below = below + 1 if abs(pair) <= REL_TOL * abs(total) else 0
            if below >= 2:
                return total
    return None


def theta(j, v, tau):
    """Evaluate theta_j(v, tau) for j in {0, 1, 2, 3}.

    Raises PrecisionError when MAX_INDEX is exhausted before the pair
    criterion is met, or when a term overflows.
    """
    if j not in (0, 1, 2, 3):
        raise DomainError(f"theta index must be one of 0,1,2,3, got {j}")
    tval = tau.value
    if not tval.imag > 0:
        raise DomainError(f"Im(tau) must be positive, got {tval}")
    v = complex(v)
    try:
        if j in (3, 0):
            total = _sum_integer_family(j, v, tval)
        else:
            total = _sum_half_integer_family(j, v, tval)
    except OverflowError:
        raise PrecisionError(
            f"theta{j}(v={v}, tau={tval}) has a term beyond double range"
        ) from None
    if total is None:
        raise PrecisionError(
            f"theta{j}(v={v}, tau={tval}) did not meet rel_tol="
            f"{REL_TOL} within max_index={MAX_INDEX}"
        )
    return total
