"""Chebyshev-Blaschke products.

The degree-n product for tau on the positive imaginary axis is

    f(z) = z^p * prod_i (z^2 - b_i) / (1 - b_i z^2),      p = n mod 2,

with squared-zero parameters b_i given by theta quotients at the odd
half-angles (2i-1)pi/2n.  Coefficients S_j are the elementary symmetric
polynomials of the b_i; they also solve a small linear system built from
the Taylor coefficients of f at 0, which the mpmath oracles compute two
ways (closed forms + ODE recurrence, and long division of the expanded
form) for cross-validation; in double precision they come from the factors.
"""

import cmath
import math
from functools import cached_property

from .errors import (
    DomainError,
    NoCriticalValues,
    ParseError,
    PoleError,
    PrecisionError,
    RootFindingError,
    SingularSystemError,
)
from .elliptic import EllipticContext, sqrt_k
from .jsonio import render_json
from .theta import UpperHalfPoint, theta

_CRITICAL_MATCH_TOL = 1e-7  # relative to sqrt(k(n tau))
_PIVOT_FLOOR = 1e-12
# Working digits of the long-division oracle; at 60 its S matched a
# 250-digit run exactly at spot checks from (n, Im tau) = (40, 0.5) to (2, 30).
_LONGDIVISION_DPS = 60
# Pairwise relative agreement of the coefficient routes (criterion 6, cb coeffs).
COEFFICIENT_TOLERANCE = 1e-8


def _axis_height(tau):
    """Im(tau) for tau on the positive imaginary axis, the only tau a
    product is defined at; DomainError for any other point."""
    if not tau.on_imaginary_axis:
        raise DomainError(f"tau={tau.value} is off the imaginary axis")
    return tau.value.imag


class ChebyshevBlaschke:
    """Immutable value object: degree, parameter, zeros-squared, coefficients.

    tau must lie on the positive imaginary axis.  ``ctx`` and ``nctx`` hold
    the theta nulls at tau and at n*tau, the two points whose moduli
    sqrt(k(tau)) and sqrt(k(n tau)) define the product; each is made on
    first read, and its nulls on their first reads.
    """

    def __init__(self, n, tau, b, S):
        _axis_height(tau)
        self.n = n
        self.tau = tau
        self.b = tuple(b)
        self.S = tuple(S)
        self.parity = n % 2

    def __repr__(self):
        return (
            f"ChebyshevBlaschke(n={self.n}, tau={self.tau.value}, "
            f"b={self.b}, S={self.S})"
        )

    @cached_property
    def ctx(self):
        return EllipticContext(self.tau)

    @cached_property
    def nctx(self):
        return EllipticContext(self.tau.scaled(self.n))

    def sqrt_k_ntau(self):
        """sqrt(k(n tau)) = theta2(0, n tau)/theta3(0, n tau) as a float;
        PrecisionError where it underflows to 0, towards the cusp."""
        sk = self.nctx.theta2_null.real / self.nctx.theta3_null.real
        if sk == 0.0:
            raise PrecisionError(
                f"sqrt(k(n tau)) underflows to 0 at n={self.n}, Im(tau)={self.tau.value.imag}"
            )
        return sk


def elementary_symmetric(values):
    """All elementary symmetric polynomials e_1..e_m of the given values;
    generic in number type."""
    m = len(values)
    e = [1.0] + [0.0] * m
    for v in values:
        for j in range(m, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e[1:]


def build(n, tau):
    """Construct the degree-n Chebyshev-Blaschke product at tau.

    tau must lie on the positive imaginary axis; the b_i are validated to
    be real, inside (0,1), and strictly decreasing.
    """
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    _axis_height(tau)
    raw = []
    for i in range(1, n // 2 + 1):
        v = (2 * i - 1) * math.pi / (2 * n)
        q2 = theta(2, v, tau)
        q3 = theta(3, v, tau)
        raw.append((q2 / q3) ** 2)
    b = _checked_squared_zeros(raw)
    return ChebyshevBlaschke(n, tau, b, elementary_symmetric(b))


def _checked_squared_zeros(raw):
    """The b_i as floats, each real and inside (0,1) and strictly
    decreasing, as every product's are; DomainError otherwise."""
    b = []
    for bi in raw:
        if not (0.0 < bi.real < 1.0) or abs(bi.imag) > 1e-13 * abs(bi):
            raise DomainError(f"squared zero {bi} outside (0,1)")
        b.append(bi.real)
    for lo, hi in zip(b[1:], b[:-1]):
        if not lo < hi:
            raise DomainError(f"squared zeros not strictly decreasing: {b}")
    return b


def eval_product(cb, z):
    """Evaluate via the factored form z^p prod (z^2 - b_i)/(1 - b_i z^2)."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    val = z ** cb.parity if cb.parity else 1.0 + 0j
    zz = z * z
    for bi in cb.b:
        den = 1.0 - bi * zz
        if abs(den) < 1e-14 * (1.0 + abs(bi * zz)):
            raise PoleError(f"denominator factor 1 - b z^2 vanished at z={z}")
        val *= (zz - bi) / den
    if not cmath.isfinite(val):
        raise PrecisionError(f"factored form overflows double range at z={z}")
    return val


def _expanded_coefficients(S):
    """(numerator, denominator) coefficient lists in ascending powers of z^2
    for the coefficients S_1..S_m; generic in number type."""
    m = len(S)
    num = [0.0] * (m + 1)
    den = [0.0] * (m + 1)
    num[m] = 1.0
    den[0] = 1.0
    for j in range(1, m + 1):
        num[m - j] = (-1) ** j * S[j - 1]
        den[j] = (-1) ** j * S[j - 1]
    return num, den


def eval_expanded(cb, z):
    """Evaluate via the expanded rational form in the coefficients S_j."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    num, den = _expanded_coefficients(cb.S)
    zz = z * z
    nv = 0j
    for c in reversed(num):
        nv = nv * zz + c
    dv = 0j
    for c in reversed(den):
        dv = dv * zz + c
    # an nv that overflowed is no pole: the check on the value names it
    if abs(dv) < 1e-14 * (1.0 + abs(nv)) < math.inf:
        raise PoleError(f"expanded denominator vanished at z={z}")
    head = z ** cb.parity if cb.parity else 1.0 + 0j
    val = head * nv / dv
    if not cmath.isfinite(val):
        raise PrecisionError(f"expanded form overflows double range at z={z}")
    return val


def chebyshev_poly(n, x):
    """T_n(x) by the three-term recurrence."""
    if n == 0:
        return 1.0 + 0j if isinstance(x, complex) else 1.0
    prev, cur = 1.0, x
    for _ in range(n - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def elliptic_rational(cb, z):
    """T_{n,tau}(z) = f_{n,tau}(sqrt(k(tau)) z) / sqrt(k(n tau))."""
    w = sqrt_k(cb.ctx) * complex(z)
    if abs(w) > 1.0 + 1e-12:
        raise DomainError(f"sqrt(k) z = {w} lies outside the closed unit disk")
    return eval_product(cb, w) / cb.sqrt_k_ntau()


def modulus_lambda(cb):
    """The product's modulus in the n*pi*Im(tau)/4 normalization."""
    return cb.n * math.pi * cb.tau.value.imag / 4.0


def normalized_modulus(cb):
    """Same quantity under the (1/2 pi) log(1/r) annulus convention: n*Im(tau)/4."""
    return cb.n * cb.tau.value.imag / 4.0


# ---------------------------------------------------------------------------
# derivatives at the origin
# ---------------------------------------------------------------------------

def closed_derivatives(n, generators):
    """Orders 0..5 of f at 0 from the closed forms; generic in number type.

    ``generators`` is (sqrt_k(tau), sqrt_k(n tau), omega1(n tau)/omega1(tau)):
    every derivative of f at 0 is a rational expression in these three
    numbers.  Opposite-parity orders are exactly zero.
    """
    skt, sknt, R = generators
    zero = skt * 0
    out = {}
    if n % 2 == 0:
        sign = (-1) ** (n // 2)
        out[0] = sign * sknt
        out[1] = zero
        out[2] = sign * n**2 * R**2 * sknt * (sknt**4 - 1) / skt**2
        out[3] = zero
        out[4] = (
            sign
            * (n**2 * R**2 * sknt / skt**4)
            * (1 - sknt**4)
            * (n**2 * R**2 * (1 - 5 * sknt**4) - 4 * (1 + skt**4))
        )
        out[5] = zero
    else:
        sign = (-1) ** ((n - 1) // 2)
        out[0] = zero
        out[1] = sign * n * R * sknt / skt
        out[2] = zero
        out[3] = (
            (-1) ** ((n + 1) // 2)
            * (n * R * sknt / skt**3)
            * (n**2 * R**2 * (1 + sknt**4) - (1 + skt**4))
        )
        out[4] = zero
        out[5] = sign * (n * R * sknt / skt**5) * (
            n**4 * R**4 * (sknt**8 + 14 * sknt**4 + 1)
            - 10 * n**2 * R**2 * (1 + skt**4) * (1 + sknt**4)
            + 3 * (3 * skt**8 + 2 * skt**4 + 3)
        )
    return out


def recurrence_step(n, i, lower, generators):
    """f^{(i+2)}(0) from the differentiated ODE, given all lower orders.

    ``lower`` maps derivative order -> value; orders of parity opposite to
    n may be omitted (they are zero).  Requires i >= 4 and i = n (mod 2).
    """
    if i < 4:
        raise DomainError(f"recurrence needs i >= 4, got {i}")
    if (i - n) % 2 != 0:
        raise DomainError(f"order {i} has the wrong parity for degree {n}")
    skt, sknt, R = generators
    kt = skt**2
    knt = sknt**2
    zero = skt * 0

    def f(order):
        if (order - n) % 2 != 0:
            return zero
        try:
            return lower[order]
        except KeyError:
            raise DomainError(f"missing lower-order derivative {order}") from None

    coef = n**2 * R**2 * (1 + (3 * (-1) ** (n - 1) - 2) * knt**2) / kt - i**2 * (
        1 / kt + kt
    )
    cubic = 12 * n**2 * R**2 * knt / kt
    # f(k) f(j-k) f(i-j) vanishes unless all three orders share n's parity,
    # that is unless j is even and k = n (mod 2).
    triple = zero
    for j in range(2, i, 2):
        cj = math.comb(i - 1, j)
        for k in range(n % 2, j, 2):
            triple = triple + cj * math.comb(j - 1, k) * f(k) * f(j - k) * f(i - j)
    return -(coef * f(i) + i * (i - 1) ** 2 * (i - 2) * f(i - 2) - cubic * triple)


def derivatives_at_zero(cb, top):
    """[f^{(i)}(0) for i = 0..top] from the factors' series in z^2, where no
    negative power of sqrt(k(tau)) enters: (z^2 - b)/(1 - b z^2) = -b +
    sum_{k>=1} (1 - b^2) b^{k-1} z^{2k}.  PrecisionError once i! overflows."""
    if top < 0:
        raise DomainError(f"derivative order must be >= 0, got {top}")
    # 170! is the last factorial below the double maximum
    first = 172 - cb.parity
    if top >= first:
        raise PrecisionError(f"order {first}: {first}! exceeds double range")
    m = (top - cb.parity) // 2
    series = [1.0] + [0.0] * m
    for b in cb.b:
        factor = [-b] + [(1.0 - b * b) * b ** (k - 1) for k in range(1, m + 1)]
        series = [sum(series[j] * factor[k - j] for j in range(k + 1)) for k in range(m + 1)]
    out = [0j] * (top + 1)
    for i in range(cb.parity, top + 1, 2):
        out[i] = complex(math.factorial(i) * series[i // 2])
    return out


# ---------------------------------------------------------------------------
# coefficient oracles
# ---------------------------------------------------------------------------

def solve_partial_pivoting(A, rhs):
    """Gaussian elimination with partial pivoting; generic in number type."""
    m = len(rhs)
    A = [row[:] for row in A]
    rhs = rhs[:]
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(A[r][col]))
        pivot = abs(A[piv][col])
        if pivot < _PIVOT_FLOOR:
            raise SingularSystemError(
                f"pivot {float(pivot):.3e} below {_PIVOT_FLOOR} in column {col}"
            )
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(col + 1, m):
            factor = A[r][col] / A[col][col]
            for c in range(col, m):
                A[r][c] = A[r][c] - factor * A[col][c]
            rhs[r] = rhs[r] - factor * rhs[col]
    x = [None] * m
    for r in range(m - 1, -1, -1):
        acc = rhs[r]
        for c in range(r + 1, m):
            acc = acc - A[r][c] * x[c]
        x[r] = acc / A[r][r]
    return x


def series_long_division(num, den, order):
    """Taylor coefficients of num/den to the given order (ascending lists)."""
    acc = list(num) + [num[0] * 0] * (order + 1)
    out = []
    for k in range(order + 1):
        ck = acc[k] / den[0]
        out.append(ck)
        for j in range(1, len(den)):
            if k + j < len(acc):
                acc[k + j] = acc[k + j] - ck * den[j]
    return out


def _coefficient_system(n, a):
    """Rows r = 1..m of the matching in degrees n+2r, where the expanded
    numerator no longer contributes."""
    m = n // 2
    A = [
        [(-1) ** j * a[n + 2 * r - 2 * j] for j in range(1, m + 1)]
        for r in range(1, m + 1)
    ]
    rhs = [-a[n + 2 * r] for r in range(1, m + 1)]
    return A, rhs


def coefficients_from_derivatives(n, tau):
    """S_{n,j} from the derivative closed forms + recurrence + linear solve.

    The pipeline runs on arbitrary-precision numbers: orders up to
    top = n + 2 floor(n/2) carry powers of 1/sqrt(k(tau)) up to the top-th,
    so the recurrence loses about top * log10(1/sqrt(k(tau))) digits to
    cancellation.  It runs with that many digits plus 30, and at least 60.
    """
    y = _axis_height(tau)
    if n < 2:
        raise DomainError(f"coefficient system needs n >= 2, got {n}")
    import mpmath as mp
    from . import _mpkernel

    m = n // 2
    top = n + 2 * m
    with mp.workdps(15):
        lost = top * mp.log10(1 / _mpkernel.field_generators_mp(n, y)[0])
    with mp.workdps(max(60, 30 + int(mp.ceil(lost)))):
        gens = _mpkernel.field_generators_mp(n, y)
        vals = closed_derivatives(n, gens)
        for i in range(4 + n % 2, top - 1, 2):
            vals[i + 2] = recurrence_step(n, i, vals, gens)
        # the system reads only orders of n's parity, and vals holds them all
        a = {order: v / math.factorial(order) for order, v in vals.items()}
        A, rhs = _coefficient_system(n, a)
        S = solve_partial_pivoting(A, rhs)
    return [float(v.real) for v in S]


def coefficients_from_longdivision(n, tau):
    """S_{n,j} recovered from long-division Taylor coefficients of the
    expanded form; independent of the closed forms and the recurrence."""
    y = _axis_height(tau)
    if n < 2:
        raise DomainError(f"coefficient system needs n >= 2, got {n}")
    import mpmath as mp
    from . import _mpkernel

    m = n // 2
    p = n % 2
    with mp.workdps(_LONGDIVISION_DPS):
        b = _mpkernel.squared_zero_parameters_mp(n, y)
        num, den = _expanded_coefficients(elementary_symmetric(b))
        even = series_long_division(num, den, (n + 2 * m - p) // 2 + 1)
        a = {2 * k + p: c for k, c in enumerate(even)}
        A, rhs = _coefficient_system(n, a)
        S = solve_partial_pivoting(A, rhs)
    return [float(v.real) for v in S]


# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------

def critical_values(cb):
    """The distinct critical values of f inside the unit disk.

    The interior critical points are z_j = theta2(j pi/n)/theta3(j pi/n),
    j = 1..n-1, the even-index partners of the zero angles, and f maps each
    of them to +-sqrt(k(n tau)).  For n >= 3 both signs are attained; for
    n = 2 the single critical point z = 0 gives only -sqrt(k(2 tau)).
    """
    if cb.n < 2:
        raise NoCriticalValues("f(z) = z has no critical point in the disk")
    ref = complex(cb.sqrt_k_ntau())
    values = {}
    for j in range(1, cb.n):
        v = j * math.pi / cb.n
        z = theta(2, v, cb.tau) / theta(3, v, cb.tau)
        value = eval_product(cb, z)
        target = ref if abs(value - ref) <= abs(value + ref) else -ref
        if abs(value - target) > _CRITICAL_MATCH_TOL * abs(ref):
            raise RootFindingError(
                f"critical value {value} at z={z} does not match "
                f"+-sqrt(k(n tau)) = +-{ref}"
            )
        values.setdefault(target, value)
    return tuple(sorted(values.values(), key=lambda v: (v.real, v.imag)))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def _interior_grid():
    """Ten points on each of five circles, each circle turned a little."""
    per = 10
    pts = []
    for ri, r in enumerate((0.15, 0.35, 0.55, 0.75, 0.9)):
        for j in range(per):
            ang = 2.0 * math.pi * j / per + 0.1 * (ri + 1)
            pts.append(r * cmath.exp(1j * ang))
    return pts


def compose_check(m, n, tau):
    """Max over an interior grid of |f_{m, n tau}(f_{n,tau}(z)) - f_{mn,tau}(z)|."""
    if m < 1 or n < 1:
        raise DomainError("degrees must be >= 1")
    inner = build(n, tau)
    outer = build(m, tau.scaled(n))
    full = build(m * n, tau)
    worst = 0.0
    pts = _interior_grid()
    for z in pts:
        lhs = eval_product(outer, eval_product(inner, z))
        rhs = eval_product(full, z)
        worst = max(worst, abs(lhs - rhs))
    return {
        "m": m,
        "n": n,
        "tau_im": tau.value.imag,
        "points": len(pts),
        "max_deviation": worst,
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def serialize(cb):
    """One-line JSON record {n, tau_im, b, S, parity}; floats survive
    round-trip exactly (17 significant digits)."""
    return render_json(
        {"n": cb.n, "tau_im": cb.tau.value.imag, "b": cb.b, "S": cb.S, "parity": cb.parity}
    )


_RECORD_FIELDS = (("n", int), ("tau_im", float), ("b", list), ("S", list), ("parity", int))


def _is_field(value, kind):
    """Whether a decoded JSON value is an int, a number (float) or a list
    of numbers (list)."""
    if kind is list:
        return isinstance(value, list) and all(_is_field(x, float) for x in value)
    numbers = int if kind is int else (int, float)
    return isinstance(value, numbers) and not isinstance(value, bool)


def deserialize(record):
    """Rebuild a ChebyshevBlaschke from its serialized record.

    ParseError when the record is not a JSON object with the fields
    serialize writes; DomainError when its values are not a product build
    could make (S must be e_j(b) exactly, as floats round-trip exactly).
    """
    import json  # only this function reads JSON

    try:
        data = json.loads(record)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"product record is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("product record is not a JSON object")
    for key, kind in _RECORD_FIELDS:
        if key not in data:
            raise ParseError(f"product record has no field {key!r}")
        if not _is_field(data[key], kind):
            raise ParseError(f"product record field {key!r} is not {kind.__name__}: "
                             f"{data[key]!r}")
    n = data["n"]
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    try:
        tau_im, b, S = (float(data["tau_im"]), [float(x) for x in data["b"]],
                        [float(x) for x in data["S"]])
    except OverflowError:
        raise DomainError("product record holds a number beyond double range") from None
    tau = UpperHalfPoint(complex(0.0, tau_im))
    if len(b) != n // 2 or len(S) != n // 2:
        raise DomainError(f"record length mismatch for degree {n}")
    if data["parity"] != n % 2:
        raise DomainError("parity inconsistent with degree")
    b = _checked_squared_zeros(b)
    if S != elementary_symmetric(b):
        raise DomainError(f"S {S} is not e_j(b) = {elementary_symmetric(b)}")
    return ChebyshevBlaschke(n, tau, b, S)
