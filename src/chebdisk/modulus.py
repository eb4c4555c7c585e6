"""Conformal moduli: annuli, Grotzsch rings, and disk-minus-geodesic domains.

Conventions: the modulus of the annulus r < |z| < 1 is (1/2 pi) log(1/r).
Under this normalization the domain obtained by slitting the disk along the
hyperbolic geodesic between -sqrt(k(n tau)) and +sqrt(k(n tau)), tau = iy,
has modulus n*y/4.  (The n*pi*y/4 variant is exposed separately through
products.modulus_lambda.)
"""

import math
from dataclasses import dataclass

from .errors import DomainError, PrecisionError

_AGM_REL_TOL = 1e-14


@dataclass(frozen=True)
class GeodesicSegment:
    """Hyperbolic geodesic between two distinct points of the unit disk."""

    a: complex
    b: complex

    def __post_init__(self):
        a = complex(self.a)
        b = complex(self.b)
        if abs(a) >= 1.0 or abs(b) >= 1.0:
            raise DomainError(f"endpoints must lie inside the disk: {a}, {b}")
        if a == b:
            raise DomainError("endpoints must be distinct")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def pseudo_hyperbolic_distance(a, b):
    """|(b - a) / (1 - conj(a) b)| for a, b in the disk."""
    a = complex(a)
    b = complex(b)
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise DomainError("arguments must lie inside the unit disk")
    return abs((b - a) / (1.0 - a.conjugate() * b))


def poincare_distance(a, b):
    """Hyperbolic distance in curvature -1 normalization: log((1+d)/(1-d))."""
    d = pseudo_hyperbolic_distance(a, b)
    return math.log((1.0 + d) / (1.0 - d))


def annulus_modulus(r):
    """(1/2 pi) log(1/r) for the round annulus r < |z| < 1."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"annulus parameter must be in (0,1), got {r}")
    return math.log(1.0 / r) / (2.0 * math.pi)


def _agm(a, b):
    while abs(a - b) > _AGM_REL_TOL * abs(a):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def _ring_modulus(t, t_complement):
    # K(t') / (4 K(t)) with K(t') = pi / (2 agm(1, t)), K(t) = pi / (2 agm(1, t'))
    return _agm(1.0, t_complement) / (4.0 * _agm(1.0, t))


def grotzsch_modulus(t):
    """Modulus of the disk slit along [0, t]: K(sqrt(1-t^2)) / (4 K(t))."""
    if not 0.0 < t < 1.0:
        raise DomainError(f"slit length must be in (0,1), got {t}")
    return _ring_modulus(t, math.sqrt((1.0 - t) * (1.0 + t)))


def disk_minus_geodesic_modulus(seg):
    """Modulus of the disk minus the geodesic between seg.a and seg.b.

    A disk automorphism sends a to 0 and the geodesic to a radial slit of
    length equal to the pseudo-hyperbolic distance between the endpoints.
    """
    return grotzsch_modulus(pseudo_hyperbolic_distance(seg.a, seg.b))


def covering_modulus(M, n):
    """Degree-n unbranched covers divide the modulus: M -> M/n."""
    if M <= 0:
        raise DomainError(f"modulus must be positive, got {M}")
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    return M / n


def dessin_size(cb):
    """Modulus of the disk minus the full preimage of the critical geodesic.

    Equals (disk minus geodesic between +-sqrt(k(n tau)))/n, which the
    covering law pins at Im(tau)/4; the cross-check is enforced here.
    """
    if cb.n < 2:
        raise DomainError("dessin size is defined for n >= 2")
    nctx = cb.nctx
    t0, t2, t3 = nctx.theta0_null.real, nctx.theta2_null.real, nctx.theta3_null.real
    sk = t2 / t3
    k = sk * sk
    k_comp = (t0 / t3) ** 2
    # The geodesic between +-sqrt(k) moves to a radial slit of length
    # 2 sqrt(k)/(1+k); its complementary length (1-k)/(1+k) is taken as
    # k'^2/(1+k)^2, which does not cancel as k -> 1.
    M = _ring_modulus(2.0 * sk / (1.0 + k), (k_comp / (1.0 + k)) ** 2)
    size = covering_modulus(M, cb.n)
    expected = cb.tau.value.imag / 4.0
    if abs(size - expected) > 1e-8:
        raise PrecisionError(
            f"dessin size {size} deviates from Im(tau)/4 = {expected}"
        )
    return size
