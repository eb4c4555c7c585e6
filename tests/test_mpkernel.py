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
