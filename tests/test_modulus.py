import cmath
import math
import random

import pytest

from chebdisk import modulus, products
from chebdisk.errors import DomainError, PrecisionError
from chebdisk.theta import UpperHalfPoint

from helpers import SQRT_K_AT_2I, SQRT_K_AT_I


def uhp(y):
    return UpperHalfPoint(1j * y)


# --- hyperbolic distance ---------------------------------------------------------

def test_poincare_distance_examples():
    assert modulus.poincare_distance(0.0, 0.0) == 0.0
    assert modulus.poincare_distance(0.0, 0.5) == pytest.approx(math.log(3.0), abs=1e-14)
    assert modulus.poincare_distance(0.3, 0.3) == 0.0


def test_poincare_distance_symmetry_and_domain():
    assert modulus.poincare_distance(0.2j, -0.5) == modulus.poincare_distance(-0.5, 0.2j)
    with pytest.raises(DomainError):
        modulus.poincare_distance(1.2, 0.0)


# --- annulus ------------------------------------------------------------------------

def test_annulus_modulus_examples():
    assert modulus.annulus_modulus(math.exp(-2 * math.pi)) == pytest.approx(1.0, abs=1e-14)
    assert modulus.annulus_modulus(math.exp(-math.pi)) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(DomainError):
        modulus.annulus_modulus(1.0)


def test_annulus_modulus_monotone_to_zero():
    rs = [0.9 + 0.0099 * i for i in range(11)]
    vals = [modulus.annulus_modulus(r) for r in rs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 2e-4


# --- Grotzsch ring --------------------------------------------------------------------

def test_grotzsch_anchor_lemniscatic():
    # k = k' forces the K-ratio to one
    assert abs(modulus.grotzsch_modulus(1.0 / math.sqrt(2.0)) - 0.25) <= 1e-10


def test_grotzsch_anchor_singular_value_four():
    # K'/K = 2 at t = 3 - 2 sqrt(2)
    assert abs(modulus.grotzsch_modulus(3.0 - 2.0 * math.sqrt(2.0)) - 0.5) <= 1e-10


def test_grotzsch_strictly_decreasing():
    ts = [0.005 + 0.0099 * i for i in range(100)]
    vals = [modulus.grotzsch_modulus(t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --- disk minus geodesic -----------------------------------------------------------------

def test_geodesic_segment_validation():
    with pytest.raises(DomainError):
        modulus.GeodesicSegment(0.3, 0.3)
    with pytest.raises(DomainError):
        modulus.GeodesicSegment(1.0, 0.0)


def test_disk_minus_geodesic_examples():
    seg = modulus.GeodesicSegment(-SQRT_K_AT_I, SQRT_K_AT_I)
    assert abs(modulus.disk_minus_geodesic_modulus(seg) - 0.25) <= 1e-10
    # radial segment from the origin reduces to the Grotzsch modulus itself
    seg0 = modulus.GeodesicSegment(0.0, 0.3)
    assert modulus.disk_minus_geodesic_modulus(seg0) == modulus.grotzsch_modulus(0.3)
    seg2 = modulus.GeodesicSegment(-SQRT_K_AT_2I, SQRT_K_AT_2I)
    assert abs(modulus.disk_minus_geodesic_modulus(seg2) - 0.5) <= 1e-8


def test_mobius_invariance():
    rng = random.Random(1729)
    a, b = -0.37, 0.41 + 0.11j
    base = modulus.disk_minus_geodesic_modulus(modulus.GeodesicSegment(a, b))
    for _ in range(10):
        center = (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6))
        phase = cmath.exp(2j * math.pi * rng.random())

        def phi(z):
            return phase * (z - center) / (1.0 - center.conjugate() * z)

        moved = modulus.disk_minus_geodesic_modulus(
            modulus.GeodesicSegment(phi(a), phi(b))
        )
        assert abs(moved - base) <= 1e-10


# --- covering law -----------------------------------------------------------------------

def test_covering_modulus():
    assert modulus.covering_modulus(1.0, 4) == 0.25
    assert modulus.covering_modulus(modulus.annulus_modulus(math.exp(-2 * math.pi)), 2) == 0.5
    assert modulus.covering_modulus(0.7, 1) == 0.7
    rng = random.Random(7)
    for _ in range(20):
        r = rng.uniform(0.05, 0.95)
        n = rng.randrange(1, 9)
        assert modulus.covering_modulus(modulus.annulus_modulus(r), n) == pytest.approx(
            modulus.annulus_modulus(r ** (1.0 / n)), rel=1e-12
        )


# --- dessin size -------------------------------------------------------------------------

def test_dessin_size_examples():
    assert abs(modulus.dessin_size(products.build(2, uhp(1.0))) - 0.25) <= 1e-8
    assert abs(modulus.dessin_size(products.build(2, uhp(0.5))) - 0.125) <= 1e-8
    # k(n tau) -> 1 here; the slit's complementary length must not cancel
    for n in (2, 3, 5, 40):
        for y in (0.05, 0.054, 0.1):
            assert abs(modulus.dessin_size(products.build(n, uhp(y))) - y / 4.0) <= 1e-14


def test_dessin_size_needs_degree_two():
    with pytest.raises(DomainError):
        modulus.dessin_size(products.build(1, uhp(1.0)))


def test_keystone_cross_check():
    # ties the theta kernel, the elliptic quotients and the AGM together
    from chebdisk.elliptic import EllipticContext, sqrt_k

    for n in (1, 2, 3, 4):
        for y in (0.5, 1.0, 2.0):
            s = sqrt_k(EllipticContext(uhp(n * y))).real
            M = modulus.disk_minus_geodesic_modulus(modulus.GeodesicSegment(-s, s))
            assert abs(M - n * y / 4.0) <= 1e-8
