import math
import sys

import mpmath as mp
import pytest

from chebdisk import _mpkernel, products
from chebdisk.elliptic import sqrt_k
from chebdisk.errors import DomainError
from chebdisk.theta import UpperHalfPoint

DEGREES = range(2, 13)
HEIGHTS = (0.3, 0.5, 1.0, 2.0)


def rel(value, reference):
    return abs(complex(value) - reference) / abs(reference)


@pytest.mark.parametrize("y", HEIGHTS)
def test_squared_zero_parameters_match_double_kernel(y):
    for n in DEGREES:
        cb = products.build(n, UpperHalfPoint(1j * y))
        with mp.workdps(60):
            b = _mpkernel.squared_zero_parameters_mp(n, y)
        assert len(b) == len(cb.b)
        for value, reference in zip(b, cb.b):
            assert rel(value, reference) <= 1e-14, (n, y)


@pytest.mark.parametrize("y", HEIGHTS)
def test_field_generators_match_double_kernel(y):
    for n in DEGREES:
        cb = products.build(n, UpperHalfPoint(1j * y))
        references = (
            sqrt_k(cb.ctx),
            sqrt_k(cb.nctx),
            (cb.nctx.theta3_null / cb.ctx.theta3_null) ** 2,
        )
        with mp.workdps(60):
            generators = _mpkernel.field_generators_mp(n, y)
        for value, reference in zip(generators, references):
            assert rel(value, reference) <= 1e-14, (n, y)


@pytest.mark.parametrize(
    "oracle",
    [products.coefficients_from_derivatives, products.coefficients_from_longdivision],
)
def test_oracles_reject_off_axis(oracle):
    with pytest.raises(DomainError, match="off the imaginary axis"):
        oracle(4, UpperHalfPoint(0.25 + 1j))


# --- derivatives at zero against mpmath long division -------------------------

DERIVATIVE_HEIGHTS = (0.3, 1.0, 3.0, 5.0, 10.0, 40.0, 150.0)
DERIVATIVE_TOP = 20


def derivatives_mp(n, y, top):
    """f^{(i)}(0), i = 0..top, by 60-digit long division of the expanded
    form built from mpmath b_i; independent of the factor series."""
    with mp.workdps(60):
        b = _mpkernel.squared_zero_parameters_mp(n, y)
        num, den = products._expanded_coefficients(products.elementary_symmetric(b))
        even = products.series_long_division(num, den, top // 2)
        out = [mp.mpf(0)] * (top + 1)
        for k, c in enumerate(even):
            i = 2 * k + n % 2
            if i <= top:
                out[i] = mp.factorial(i) * c
        return out


def assert_derivatives_match(n, y, top):
    got = products.derivatives_at_zero(products.build(n, UpperHalfPoint(1j * y)), top)
    assert len(got) == top + 1
    for i, (value, reference) in enumerate(zip(got, derivatives_mp(n, y, top))):
        scale = math.factorial(i)
        err = abs(complex(value) - complex(reference))
        if abs(reference) / scale >= sys.float_info.min:
            assert err <= 1e-12 * abs(reference), (n, y, i, value, reference)
        else:
            # the Taylor coefficient itself underflows double range
            assert err <= scale * sys.float_info.min, (n, y, i, value, reference)


@pytest.mark.parametrize("y", DERIVATIVE_HEIGHTS)
def test_derivatives_at_zero_match_mpmath(y):
    for n in range(2, 13):
        assert_derivatives_match(n, y, DERIVATIVE_TOP)


@pytest.mark.parametrize(
    "n,y,order,expected",
    [
        (2, 2.0, 12, 3.4811067e-4),
        (3, 5.0, 7, 1.0301714e-9),
        (3, 3.0, 7, 2.9540299e-4),
        (6, 40.0, 10, 6.934553e-102),
    ],
)
def test_derivatives_at_zero_where_the_recurrence_cancelled(n, y, order, expected):
    assert_derivatives_match(n, y, order)
    value = products.derivatives_at_zero(products.build(n, UpperHalfPoint(1j * y)), order)
    assert abs(value[order].real - expected) <= 1e-7 * expected
