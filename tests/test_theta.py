import cmath
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from chebdisk.errors import DomainError, PrecisionError
from chebdisk.theta import UpperHalfPoint, _series, _series_real, theta

from helpers import (
    THETA3_AT_I,
    THETA3_AT_I2,
    oracle_theta,
    rel_err,
)

# the module itself: the package exports its theta function under the same name
theta_module = sys.modules["chebdisk.theta"]

GRID = (0.3j, 0.5j, 1j, 2j, 0.25 + 0.75j)


def uhp(value):
    return UpperHalfPoint(complex(value))


# --- domain types -----------------------------------------------------------

def test_upper_half_point_rejects_lower_half():
    with pytest.raises(DomainError):
        UpperHalfPoint(1.0 + 0j)
    with pytest.raises(DomainError):
        UpperHalfPoint(0.3 - 0.2j)
    for value in (complex(0.0, math.inf), complex(math.inf, 1.0), complex(math.nan, 1.0)):
        with pytest.raises(DomainError, match="tau must be finite"):
            UpperHalfPoint(value)


def test_degraded_flag_below_floor():
    assert not uhp(0.06j).degraded
    low = uhp(0.01j)
    assert low.degraded  # construction succeeds, accuracy flag set


# --- series values ----------------------------------------------------------

def test_theta3_frozen_values():
    assert rel_err(theta(3, 0.0, uhp(0.5j)), THETA3_AT_I2) < 1e-15
    assert rel_err(theta(3, 0.0, uhp(1j)), THETA3_AT_I) < 1e-15


def test_theta3_at_huge_im_tau_is_one():
    # all n != 0 terms are below 2 e^{-100 pi}
    assert abs(theta(3, 0.0, uhp(50j)) - 1.0) < 1e-130


def test_theta1_vanishes_at_origin():
    for t in GRID:
        assert abs(theta(1, 0.0, uhp(t))) < 1e-14


def test_theta2_vanishes_at_half_pi():
    # terms cancel in (n, -n-1) pairs
    for t in GRID:
        assert abs(theta(2, math.pi / 2, uhp(t))) < 1e-14


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_against_independent_oracle(j):
    for t in GRID:
        for v in (0.0, 0.3, 1.2, 0.4 + 0.1j):
            mine = theta(j, v, uhp(t))
            ref = oracle_theta(j, v, t)
            assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref))


def test_rejects_bad_index():
    with pytest.raises(DomainError):
        theta(4, 0.0, uhp(1j))


@pytest.mark.parametrize("v", [math.nan, math.inf, complex(0.0, math.inf)], ids=str)
@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_non_finite_v_is_a_domain_error(j, v):
    with pytest.raises(DomainError, match="v must be finite"):
        theta(j, v, uhp(1j))


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_precision_error_when_index_cap_too_small(j):
    # at Im(tau) = 0.001 the pairs still grow past the 64-pair cap; v = 0.3
    # because theta1(0) is exactly 0 and stops at once
    low = UpperHalfPoint(0.001j)
    with pytest.raises(PrecisionError) as err:
        theta(j, 0.3, low)
    assert "rel_tol=1e-15 within max_index=64" in str(err.value)


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_precision_error_when_a_term_overflows(j):
    # e^{300 k} passes the double maximum at k = 3 or 4
    with pytest.raises(PrecisionError, match="has a term beyond double range"):
        theta(j, 300j, uhp(1j))


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_precision_error_text_is_the_same_on_both_loops(j):
    # Im(tau) = 0.001 exhausts MAX_INDEX on the real loop as on the complex one
    assert _series_real(j, 0.3, 0.001) is None
    with pytest.raises(PrecisionError) as err:
        theta(j, 0.3, UpperHalfPoint(0.001j))
    assert str(err.value) == (
        f"theta{j}(v=(0.3+0j), tau=0.001j) did not meet rel_tol=1e-15 within max_index=64"
    )


def _axis_identity_cases():
    rng = random.Random(1907)
    heights = [0.05 * (316 / 0.05) ** (i / 15) for i in range(16)]
    heights[-1] = 316.0
    angles = [0.0, -0.0] + [rng.uniform(-4.0, 4.0) for _ in range(24)]
    for n in (2, 3, 5, 8, 13, 24, 40):
        angles.append((2 * rng.randint(1, n) - 1) * math.pi / (2 * n))  # zero angle
        angles.append(rng.randint(1, n - 1) * math.pi / n)  # critical angle
    angles += [(2 * i - 1) * math.pi / 80 for i in range(1, 41, 3)]
    for j in range(4):
        for y in heights:
            for v in angles:
                yield j, y, v


def test_real_loop_repeats_the_complex_loop_bit_for_bit():
    cases = 0
    for j, y, v in _axis_identity_cases():
        expected = _series(j, complex(v), complex(0.0, y))
        assert repr(_series_real(j, v, y)) == repr(expected), (j, y, v)
        cases += 1
    assert cases == 4 * 16 * 54


def _complex_loop_forbidden(*args):
    raise AssertionError("complex theta loop reached on the imaginary axis")


def test_axis_traffic_takes_the_real_loop(monkeypatch):
    from chebdisk import landen, modulus, products
    from chebdisk.elliptic import EllipticContext, cd

    monkeypatch.setattr(theta_module, "_series", _complex_loop_forbidden)
    tau = UpperHalfPoint(0.5j)
    ctx = EllipticContext(tau)
    assert (ctx.theta0_null, ctx.theta2_null, ctx.theta3_null) == tuple(
        theta(j, 0.0, tau) for j in (0, 2, 3)
    )
    assert cd(0.4, ctx).imag == 0.0
    cb = products.build(6, tau)
    assert len(products.critical_values(cb)) == 2
    assert abs(modulus.dessin_size(cb) - 0.5 / 4) <= 1e-8
    assert landen.verify_identity("n4_sum", tau).passed


def test_off_axis_tau_and_complex_v_take_the_complex_loop(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _series(*args)

    monkeypatch.setattr(theta_module, "_series", counted)
    for tval in (0.3j, 0.5j, 1j, 2j, 0.25 + 0.75j):
        for shifted in (tval + 1, tval / 4, -1 / tval, tval - 0.5):
            if shifted.real != 0.0:
                before = len(calls)
                theta(3, 0.3, uhp(shifted))
                assert len(calls) == before + 1
        before = len(calls)
        theta(2, 0.4 + 0.1j, uhp(tval))
        assert len(calls) == before + 1


def test_determinism_bit_identical():
    a = theta(3, 0.7 + 0.2j, uhp(0.25 + 0.75j))
    b = theta(3, 0.7 + 0.2j, uhp(0.25 + 0.75j))
    assert a == b


# --- transformation identities ----------------------------------------------

def test_quartic_identity():
    for t in GRID:
        tau = uhp(t)
        t3, t2, t0 = (theta(j, 0.0, tau) for j in (3, 2, 0))
        assert abs(t3**4 - t2**4 - t0**4) <= 1e-12 * abs(t3**4)


def test_half_period_relation_pi_over_2():
    # theta0(v, tau) = theta3(v + pi/2, tau); the shift is pi/2, not 1/2,
    # because the kernel is e^{2 n i v}
    vs = [-1.5 + 3.0 * i / 15 for i in range(16)]
    for t in GRID:
        tau = uhp(t)
        for v in vs:
            lhs = theta(0, v, tau)
            rhs = theta(3, v + math.pi / 2, tau)
            assert rel_err(lhs, rhs) <= 1e-12


def test_tau_shift_theta3():
    for t in GRID:
        for v in (0.0, 0.3, 0.9):
            assert rel_err(theta(3, v, uhp(t + 1)), theta(3, v, uhp(t))) <= 1e-12


def test_tau_shift_theta2_carries_phase_i():
    # the (n+1/2)^2 weights pick up e^{i pi / 2} = i under tau -> tau + 1
    for t in GRID:
        for v in (0.0, 0.3, 0.9):
            lhs = theta(2, v, uhp(t + 1))
            rhs = 1j * theta(2, v, uhp(t))
            assert rel_err(lhs, rhs) <= 1e-12


def test_large_re_tau_is_reduced_mod_1():
    # theta_j(v, x + m + i) = i^{m [j in {1, 2}]} theta_j(v, x + i); summed at
    # x + m unreduced, the phases lost up to 1.4e-8 relative by m = 4e8
    references = {
        (j, v): oracle_theta(j, v, 0.375 + 1j)
        for j in range(4)
        for v in (0.0, 0.3, 0.7 + 0.2j)
    }
    for m in (1, 2, 3, -5, 40001, 4000003, 400000001, -400000001):
        for (j, v), reference in references.items():
            phase = 1j ** (m % 4) if j in (1, 2) else 1
            got = theta(j, v, uhp(0.375 + m + 1j))
            assert rel_err(got, phase * reference) <= 1e-15, (j, v, m)


@pytest.mark.parametrize("pair", [(3, 3), (2, 0)])
def test_modular_inversion(pair):
    j_left, j_right = pair
    for t in GRID:
        tau = uhp(t)
        for v in (0.0, 0.4, 1.0):
            lhs = theta(j_left, v, uhp(-1 / t))
            prefactor = cmath.sqrt(-1j * t / 2) * cmath.exp(1j * t * v * v / (2 * math.pi))
            rhs = prefactor * theta(j_right, t * v / 2, uhp(t / 4))
            assert rel_err(lhs, rhs) <= 1e-10


def test_half_shift_null_identity():
    # theta3(0, tau - 1/2) = theta0(0, tau)
    for t in GRID:
        assert rel_err(theta(3, 0.0, uhp(t - 0.5)), theta(0, 0.0, uhp(t))) <= 1e-12


def test_gamma0_4_weight_transform():
    for t in (1j, 2j, 0.25 + 1j):
        lhs = theta(3, 0.0, uhp(t / (4 * t + 1)))
        rhs = cmath.sqrt(4 * t + 1) * theta(3, 0.0, uhp(t))
        assert rel_err(lhs, rhs) <= 1e-10


# --- property tests ----------------------------------------------------------

tau_strategy = st.builds(
    complex,
    st.floats(min_value=-0.45, max_value=0.45),
    st.floats(min_value=0.15, max_value=3.0),
)


@given(tau_strategy)
@settings(max_examples=60, deadline=None)
def test_quartic_identity_random_tau(t):
    tau = uhp(t)
    t3, t2, t0 = (theta(j, 0.0, tau) for j in (3, 2, 0))
    assert abs(t3**4 - t2**4 - t0**4) <= 1e-12 * abs(t3**4)


@given(
    tau_strategy,
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_parity_in_v(t, v):
    tau = uhp(t)
    assert theta(3, -v, tau) == pytest.approx(theta(3, v, tau), rel=1e-13, abs=1e-15)
    assert theta(0, -v, tau) == pytest.approx(theta(0, v, tau), rel=1e-13, abs=1e-15)
    assert theta(2, -v, tau) == pytest.approx(theta(2, v, tau), rel=1e-13, abs=1e-15)
    assert theta(1, -v, tau) == pytest.approx(-theta(1, v, tau), rel=1e-13, abs=1e-15)
