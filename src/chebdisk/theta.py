"""Jacobi theta functions under the q = e^{2 pi i tau} convention.

The four series are

    theta1(v) = sum_n i^{2n-1} q^{(n+1/2)^2} e^{(2n+1) i v}
    theta2(v) = sum_n q^{(n+1/2)^2} e^{(2n+1) i v}
    theta3(v) = sum_n q^{n^2} e^{2 n i v}
    theta0(v) = sum_n (-1)^n q^{n^2} e^{2 n i v}

Every term exponent is evaluated as e^{2 pi i tau w} with a *real* weight
w = n^2 or (n + 1/2)^2.  No fractional power of a stored nome is ever taken,
which pins the q^{1/4}-type branch unambiguously for complex tau.

One loop sums all four.  Pair n joins the terms at +-n (theta3, theta0)
or at n and -n-1 (theta2, theta1), so the exact cancellations of the
odd/even symmetries survive in floating point.  Its frequency is k = 2n or
k = 2n + 1, its weight k^2/4 and its phases e^{+-i k v}; only the sign
depends on j.  One fixed truncation rule serves every evaluation: the sum
stops after two consecutive pairs (from n = 1) below REL_TOL * |sum|, and a
series that has not stopped by pair index MAX_INDEX raises PrecisionError.

On the imaginary axis (tau = iy) with a real, finite v every term is real,
and theta sums them with a real loop instead.  It repeats the complex
loop's float operations on their real parts, so it returns the same bits
at about half the cost; every other (v, tau) takes the complex loop.
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

    Construction rejects Im(tau) <= 0 and non-finite tau.  Points with
    Im(tau) below ``TAU_IM_FLOOR`` are accepted but marked degraded: series
    evaluations there fall outside the validated accuracy regime.  ``degraded`` is the
    one rule for that flag; the CLI appends it to every payload, ok or
    error, computed at such a point.
    """

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if not v.imag > 0:
            raise DomainError(f"tau must satisfy Im(tau) > 0, got {v}")
        if not cmath.isfinite(v):
            raise DomainError(f"tau must be finite, got {v}")
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


def _series(j, v, tau):
    # Pair n has frequency k = 2n (theta3, theta0; the n = 0 term is 1) or
    # k = 2n + 1 (theta2, theta1; pairs (n, -n-1)), and weight k^2/4.
    half = j in (1, 2)
    total = 0j if half else 1 + 0j
    below = 0
    step = 2j * math.pi * tau
    for n in range(0 if half else 1, MAX_INDEX + 1):
        k = 2 * n + 1 if half else 2 * n
        radial = cmath.exp(step * (k * k / 4.0))
        tp = radial * cmath.exp(1j * k * v)
        tm = radial * cmath.exp(-1j * k * v)
        if j == 1:
            # i^{2n-1} = -i(-1)^n at index n, i(-1)^n at index -n-1
            pair = (-1) ** n * (-1j * tp + 1j * tm)
        elif j == 0 and n % 2 == 1:
            pair = -(tp + tm)
        else:
            pair = tp + tm
        total += pair
        if n >= 1:
            below = below + 1 if abs(pair) <= REL_TOL * abs(total) else 0
            # A single tiny pair can be an accidental angular zero
            # (cos(kv) ~ 0); two consecutive tiny pairs cannot be unless
            # the whole tail is negligible, so stop only then.
            if below >= 2:
                return total
    return None


def _series_real(j, v, y):
    # _series at tau = iy and real v, on the real parts: there the step is
    # (-2 pi y, 0), the radial factor (e^a, 0), and (r, 0)(c, s) = (rc, rs),
    # so each pair is t + t with t = r cos(kv) (r sin(kv) for theta1).
    half = j in (1, 2)
    trig = math.sin if j == 1 else math.cos
    alternate = j in (0, 1)
    total = 0.0 if half else 1.0
    below = 0
    step = -(TWO_PI * y)
    for n in range(0 if half else 1, MAX_INDEX + 1):
        k = 2 * n + 1 if half else 2 * n
        t = math.exp(step * (k * k / 4.0)) * trig(k * v)
        pair = -(t + t) if alternate and n % 2 == 1 else t + t
        total += pair
        if n >= 1:
            below = below + 1 if abs(pair) <= REL_TOL * abs(total) else 0
            if below >= 2:
                return complex(total)
    return None


def theta(j, v, tau):
    """Evaluate theta_j(v, tau) for j in {0, 1, 2, 3}.

    Raises PrecisionError when MAX_INDEX is exhausted before the pair
    criterion is met, or when a term overflows; DomainError instead when
    that failure comes from a non-finite v (tested only then).
    """
    if j not in (0, 1, 2, 3):
        raise DomainError(f"theta index must be one of 0,1,2,3, got {j}")
    tval = tau.value
    v = complex(v)
    try:
        if tau.on_imaginary_axis and v.imag == 0.0 and math.isfinite(v.real):
            total = _series_real(j, v.real, tval.imag)
        else:
            # theta_j(v, tau + m) = i^m theta_j(v, tau) for j = 1, 2 and
            # theta_j(v, tau) for j = 0, 3; tau - m is exact in floats.
            m = round(tval.real)
            total = _series(j, v, tval - m)
            if total is not None and j in (1, 2):
                for _ in range(m % 4):  # each quarter turn is exact
                    total = complex(-total.imag, total.real)
        if total is not None:
            return total
        reason = f"did not meet rel_tol={REL_TOL} within max_index={MAX_INDEX}"
    except (OverflowError, ValueError):
        # ValueError: a finite k*v overflowing to an infinite angle
        reason = "has a term beyond double range"
    if not cmath.isfinite(v):
        raise DomainError(f"theta{j}: v must be finite, got {v}")
    raise PrecisionError(f"theta{j}(v={v}, tau={tval}) {reason}")
