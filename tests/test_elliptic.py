import math
import re

import pytest

from chebdisk.elliptic import EllipticContext, cd, cn, dn, k_modulus, omega1, sn, sqrt_k
from chebdisk.errors import DomainError, PoleError, PrecisionError
from chebdisk.theta import UpperHalfPoint

from helpers import (
    CD_07_AT_20I,
    K_AT_I,
    K_AT_I2,
    OMEGA1_AT_I,
    OMEGA1_AT_I2,
    SQRT_K_AT_I,
    rel_err,
)


def ctx_at(y):
    return EllipticContext(UpperHalfPoint(1j * y))


def test_omega1_values():
    assert abs(omega1(ctx_at(50)) - 1.0) < 1e-120
    assert rel_err(omega1(ctx_at(0.5)), OMEGA1_AT_I2) < 1e-15
    assert rel_err(omega1(ctx_at(1.0)), OMEGA1_AT_I) < 1e-15


def test_modulus_values():
    assert rel_err(k_modulus(ctx_at(0.5)), K_AT_I2) < 1e-15
    assert rel_err(k_modulus(ctx_at(1.0)), K_AT_I) < 1e-14
    assert rel_err(sqrt_k(ctx_at(1.0)), SQRT_K_AT_I) < 1e-15


def test_sqrt_k_squares_to_k_exactly():
    # both derive from the same cached nulls
    for y in (0.4, 0.7, 1.0, 2.0):
        ctx = ctx_at(y)
        assert sqrt_k(ctx) ** 2 == k_modulus(ctx)


def test_values_at_origin():
    for y in (0.5, 1.0, 2.0):
        ctx = ctx_at(y)
        assert abs(sn(0.0, ctx)) < 1e-15
        assert abs(cd(0.0, ctx) - 1.0) < 1e-14
        assert abs(cn(0.0, ctx) - 1.0) < 1e-14
        assert abs(dn(0.0, ctx) - 1.0) < 1e-14


def test_cd_matches_cosine_at_large_im_tau():
    assert abs(cd(0.7, ctx_at(20)) - CD_07_AT_20I) < 1e-10
    assert abs(CD_07_AT_20I - math.cos(0.7)) < 2e-16  # oracle sanity, 1 ulp


def test_cd_degeneration_monotone():
    us = [-2.0 + 4.0 * i / 31 for i in range(32)]
    errs = {}
    for y in (10, 20, 40):
        ctx = ctx_at(y)
        errs[y] = max(abs(cd(u, ctx) - math.cos(u)) for u in us)
    assert errs[20] <= 1e-10
    assert errs[40] <= errs[20] <= errs[10]


def test_parity():
    us = [0.1, 0.5, 0.9, 1.4]
    for y in (0.5, 1.0, 2.0):
        ctx = ctx_at(y)
        for u in us:
            assert rel_err(sn(-u, ctx), -sn(u, ctx)) <= 1e-12
            assert rel_err(cn(-u, ctx), cn(u, ctx)) <= 1e-12
            assert rel_err(dn(-u, ctx), dn(u, ctx)) <= 1e-12
            assert rel_err(cd(-u, ctx), cd(u, ctx)) <= 1e-12


def test_real_on_real_axis():
    for y in (0.5, 1.0, 2.0):
        ctx = ctx_at(y)
        for u in (-1.3, -0.2, 0.4, 1.7):
            for fn in (sn, cn, dn, cd):
                assert abs(fn(u, ctx).imag) <= 1e-13


def test_quotient_identity_cd_dn_cn():
    # cd is evaluated through its own theta quotient, so this is a real check
    for y in (0.5, 1.0, 2.0):
        ctx = ctx_at(y)
        for u in (0.2, 0.8, 1.5):
            assert rel_err(cd(u, ctx) * dn(u, ctx), cn(u, ctx)) <= 1e-12


def test_pole_raises():
    # theta0(w, tau) vanishes at w = pi*tau, theta3(w, tau) at w = pi/2 + pi*tau;
    # sn has the former in its denominator, cd the latter.
    ctx = ctx_at(0.5)
    om = omega1(ctx)
    with pytest.raises(PoleError):
        sn(math.pi * 0.5j * om, ctx)
    with pytest.raises(PoleError):
        cd((math.pi / 2 + math.pi * 0.5j) * om, ctx)


def test_vanished_null_raises_where_it_divides():
    # theta2(0, 500i) underflows; sn, cn and cd divide by it
    ctx = ctx_at(500)
    message = re.escape("theta2(0, tau) vanished at tau=500j")
    for fn in (sn, cn, cd):
        with pytest.raises(DomainError, match=message):
            fn(0.7, ctx)


def test_non_finite_argument_is_a_domain_error():
    ctx = ctx_at(1.0)
    for fn in (sn, cn, dn, cd):
        with pytest.raises(DomainError, match="v must be finite"):
            fn(math.nan, ctx)


def test_context_constructs_where_a_null_is_subnormal():
    ctx = EllipticContext(UpperHalfPoint(460j))
    assert 0.0 < abs(ctx.theta2_null) < 1e-300
    assert abs(sqrt_k(ctx)) < 1e-300


@pytest.mark.parametrize("f", [sn, cn, dn, cd], ids=lambda f: f.__name__)
def test_theta3_null_is_read_first(f):
    # every null fails here; theta3 is read first, for w = u / theta3(0)^2
    with pytest.raises(PrecisionError) as err:
        f(0.3, EllipticContext(UpperHalfPoint(0.001j)))
    assert str(err.value).startswith("theta3(v=0j")
