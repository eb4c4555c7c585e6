import cmath
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from chebdisk import elliptic, modulus, products
from chebdisk.elliptic import EllipticContext, sqrt_k
from chebdisk.errors import DomainError, NoCriticalValues, ParseError, PrecisionError
from chebdisk.theta import UpperHalfPoint, theta

from helpers import (
    B_4_AT_I,
    S2_4_AT_I,
    SQRT_K_AT_2I,
    SQRT_K_AT_3I,
    SQRT_K_AT_I,
    oracle_theta,
    rel_err,
)


def uhp(y):
    return UpperHalfPoint(1j * y)


# --- build ------------------------------------------------------------------

def test_build_degree_one():
    cb = products.build(1, uhp(0.5))
    assert cb.parity == 1
    assert cb.b == ()
    assert cb.S == ()
    for z in (0.3, -0.5 + 0.2j, 0.9j):
        assert products.eval_product(cb, z) == complex(z)


def test_build_degree_two_zero_parameter():
    cb = products.build(2, uhp(0.5))
    assert rel_err(cb.b[0], SQRT_K_AT_I) < 1e-14


def test_build_degree_four_product_identity():
    cb = products.build(4, uhp(1.0))
    assert rel_err(cb.b[0], B_4_AT_I[0]) < 1e-14
    assert rel_err(cb.b[1], B_4_AT_I[1]) < 1e-14
    assert rel_err(cb.b[0] * cb.b[1], S2_4_AT_I) < 1e-13
    assert rel_err(cb.S[1], S2_4_AT_I) < 1e-13


def test_build_rejects_off_axis_without_flag(monkeypatch):
    def theta_off_axis(*args):
        raise AssertionError("build evaluated theta before the axis check")

    off = UpperHalfPoint(0.2 + 1j)
    monkeypatch.setattr(products, "theta", theta_off_axis)
    with pytest.raises(DomainError, match="off the imaginary axis"):
        products.build(3, off)
    with pytest.raises(DomainError, match="off the imaginary axis"):
        products.ChebyshevBlaschke(3, off, [0.5], [0.5])


def test_squared_zeros_strictly_decreasing():
    for n in (4, 7, 10, 16, 24, 40):
        for y in (0.5, 1.0, 2.0):
            b = products.build(n, uhp(y)).b
            assert all(hi > lo for hi, lo in zip(b, b[1:]))
            assert all(0.0 < x < 1.0 for x in b)


def test_induced_blaschke_product_has_n_zeros():
    for n in (1, 2, 5, 8):
        cb = products.build(n, uhp(1.0))
        zeros = [0.0] * cb.parity
        for bi in cb.b:
            zeros += [math.sqrt(bi), -math.sqrt(bi)]
        assert len(zeros) == n
        for z in zeros:
            assert abs(products.eval_product(cb, z)) < 1e-13


# --- evaluation -------------------------------------------------------------

def test_value_one_at_z_one():
    for n in (1, 2, 3, 6):
        for y in (0.5, 1.0):
            cb = products.build(n, uhp(y))
            assert abs(products.eval_product(cb, 1.0) - 1.0) < 1e-14
            assert abs(products.eval_expanded(cb, 1.0) - 1.0) < 1e-12


def test_value_at_zero_even_degree():
    cb = products.build(2, uhp(0.5))
    assert rel_err(products.eval_product(cb, 0.0), -SQRT_K_AT_I) < 1e-14


def test_odd_degree_is_odd_function():
    cb = products.build(3, uhp(1.0))
    for k in range(20):
        z = 0.8 * cmath.exp(2j * math.pi * k / 20) * (0.3 + 0.035 * k)
        assert abs(products.eval_product(cb, -z) + products.eval_product(cb, z)) < 1e-12


def test_parity_of_even_degree():
    cb = products.build(4, uhp(1.0))
    for k in range(10):
        z = 0.7 * cmath.exp(2j * math.pi * k / 10)
        assert abs(products.eval_product(cb, -z) - products.eval_product(cb, z)) < 1e-12


def test_forms_agree():
    cb = products.build(2, uhp(0.5))
    assert abs(products.eval_expanded(cb, 0.5) - products.eval_product(cb, 0.5)) < 1e-12
    cb4 = products.build(4, uhp(1.0))
    assert abs(products.eval_expanded(cb4, 1.0) - 1.0) < 1e-12


def test_boundary_modulus_one():
    for n in (2, 5, 8):
        cb = products.build(n, uhp(0.8))
        for k in range(64):
            z = cmath.exp(2j * math.pi * k / 64)
            assert abs(abs(products.eval_product(cb, z)) - 1.0) <= 1e-10


# --- chebyshev polynomials and elliptic rationals -----------------------------

def test_chebyshev_poly_values():
    assert products.chebyshev_poly(2, 0.3) == pytest.approx(-0.82, abs=1e-15)
    assert products.chebyshev_poly(5, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert products.chebyshev_poly(3, math.cos(0.4)) == pytest.approx(
        math.cos(1.2), abs=1e-14
    )


def test_elliptic_rational_at_one():
    for n in (1, 2, 3, 4):
        for y in (0.5, 1.0):
            val = products.elliptic_rational(products.build(n, uhp(y)), 1.0)
            assert abs(val - 1.0) < 1e-9


def test_elliptic_rational_degenerations():
    cb4 = products.build(4, uhp(10.0))
    cb2 = products.build(2, uhp(20.0))
    assert abs(products.elliptic_rational(cb4, 0.5) - (-0.5)) < 1e-8
    assert abs(products.elliptic_rational(cb2, 0.0) - (-1.0)) < 1e-10


# --- derivatives at zero ------------------------------------------------------

def generators(n, tau):
    """(sqrt_k(tau), sqrt_k(n tau), omega1(n tau)/omega1(tau)) from contexts."""
    ctx = EllipticContext(tau)
    nctx = EllipticContext(tau.scaled(n))
    return sqrt_k(ctx), sqrt_k(nctx), (nctx.theta3_null / ctx.theta3_null) ** 2


def closed(n, tau):
    return products.closed_derivatives(n, generators(n, tau))


def series_coefficient(cb, order):
    """The z^order Taylor coefficient of f at 0, by long division of the
    expanded form."""
    num, den = products._expanded_coefficients(cb.S)
    even = products.series_long_division(num, den, order // 2)
    return complex(even[(order - cb.parity) // 2])


def test_closed_forms_parity_zeros():
    assert closed(2, uhp(0.5))[1] == 0
    assert closed(3, uhp(1.0))[0] == 0
    assert closed(4, uhp(1.0))[3] == 0


def test_closed_form_against_series():
    cb = products.build(2, uhp(0.5))
    series = series_coefficient(cb, 2)
    assert rel_err(complex(closed(2, uhp(0.5))[2]), 2.0 * series) <= 1e-9


def factor_series(n, tau, top):
    return products.derivatives_at_zero(products.build(n, tau), top)


def test_recurrence_against_series():
    # the double-precision recurrence cancels as sqrt(k(tau)) -> 0: by
    # Im(tau) = 2 order 9 is off by 7e-4, so the check stops at Im(tau) = 1
    for n in range(2, 9):
        for y in (0.5, 1.0):
            tau = uhp(y)
            gens = generators(n, tau)
            vals = products.closed_derivatives(n, gens)
            for i in range(4 + n % 2, 8, 2):
                vals[i + 2] = products.recurrence_step(n, i, vals, gens)
            series = factor_series(n, tau, 9)
            for order in range(6, 10):
                if (order - n) % 2 == 0:
                    assert abs(complex(vals[order]) - series[order]) <= 1e-10 * abs(
                        series[order]
                    ), (n, y, order)


def test_recurrence_parity_mismatch():
    with pytest.raises(DomainError):
        products.recurrence_step(2, 5, {}, generators(2, uhp(1.0)))


def test_field_generator_arity():
    # every closed-form derivative is a function of the three generators alone
    for n in range(2, 9):
        for y in (0.5, 1.0, 2.0):
            tau = uhp(y)
            from_gens = closed(n, tau)
            series = factor_series(n, tau, 5)
            for i in range(6):
                if series[i] == 0:
                    assert from_gens[i] == 0
                else:
                    assert abs(complex(from_gens[i]) - series[i]) <= 1e-10 * abs(
                        series[i]
                    ), (n, y, i)


def test_derivatives_at_zero_order_range():
    cb = products.build(3, uhp(1.0))
    with pytest.raises(DomainError, match="order must be >= 0"):
        products.derivatives_at_zero(cb, -1)
    assert len(products.derivatives_at_zero(cb, 170)) == 171
    with pytest.raises(PrecisionError, match="171! exceeds double range"):
        products.derivatives_at_zero(cb, 200)
    # an even degree has no order 171; a huge order is refused at once
    even = products.build(4, uhp(1.0))
    assert len(products.derivatives_at_zero(even, 171)) == 172
    with pytest.raises(PrecisionError, match="order 172: 172! exceeds double range"):
        products.derivatives_at_zero(even, 10**9)


def test_derivatives_at_zero_degree_one():
    cb = products.build(1, uhp(1.0))
    assert products.derivatives_at_zero(cb, 3) == [0j, 1 + 0j, 0j, 0j]


# --- coefficient oracles ------------------------------------------------------

@pytest.mark.parametrize("n,y", [(2, 0.5), (4, 1.0), (5, 1.0)])
def test_coefficients_from_derivatives_examples(n, y):
    tau = uhp(y)
    S = products.coefficients_from_derivatives(n, tau)
    ref = products.build(n, tau).S
    assert len(S) == n // 2
    for a, b in zip(S, ref):
        assert abs(a - b) <= 1e-8 * abs(b)


def test_coefficients_from_derivatives_degree_two_value():
    S = products.coefficients_from_derivatives(2, uhp(0.5))
    assert rel_err(S[0], SQRT_K_AT_I) < 1e-12


def test_cross_oracle_sweep():
    for n in range(2, 11):
        for y in (0.5, 1.0, 2.0):
            tau = uhp(y)
            ref = products.build(n, tau).S
            for route in (
                products.coefficients_from_derivatives,
                products.coefficients_from_longdivision,
            ):
                for a, b in zip(route(n, tau), ref):
                    assert abs(a - b) <= 1e-8 * abs(b)


def test_singular_system_raises():
    from chebdisk.errors import SingularSystemError

    with pytest.raises(SingularSystemError):
        products.solve_partial_pivoting([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    with pytest.raises(SingularSystemError):
        products.solve_partial_pivoting([[1e-13]], [1.0])


def test_pivot_message_rounds_mpmath_pivots():
    import mpmath as mp
    from chebdisk.errors import SingularSystemError

    with mp.workdps(60):
        pivot = mp.mpf(2) / 3 * mp.mpf(10) ** -20
        with pytest.raises(SingularSystemError) as exc:
            products.solve_partial_pivoting([[pivot]], [mp.mpf(1)])
    assert str(exc.value) == "pivot 6.667e-21 below 1e-12 in column 0"


def test_elliptic_rational_domain_guard():
    with pytest.raises(DomainError):
        # sqrt(k) z leaves the disk
        products.elliptic_rational(products.build(3, uhp(0.4)), 5.0)


# --- critical values ----------------------------------------------------------

def test_no_critical_values_for_degree_one():
    with pytest.raises(NoCriticalValues):
        products.critical_values(products.build(1, uhp(1.0)))


def test_critical_value_degree_two():
    # single interior critical point z = 0; the value is -sqrt(k(2 tau))
    vals = products.critical_values(products.build(2, uhp(0.5)))
    assert len(vals) == 1
    assert abs(vals[0] - (-SQRT_K_AT_I)) <= 1e-7


def test_critical_values_degree_three():
    vals = products.critical_values(products.build(3, uhp(1.0)))
    assert len(vals) == 2
    assert abs(vals[0] + SQRT_K_AT_3I) <= 1e-7
    assert abs(vals[1] - SQRT_K_AT_3I) <= 1e-7


def _check_critical_values(n, y):
    """Both (n = 2: the negative) of +-sqrt(k(n tau)) against the mpmath
    oracle, relative 1e-7; returns the product."""
    cb = products.build(n, uhp(y))
    vals = products.critical_values(cb)
    s = (oracle_theta(2, 0, n * y * 1j) / oracle_theta(3, 0, n * y * 1j)).real
    expected = [-s] if n == 2 else [-s, s]
    assert len(vals) == len(expected)
    for v, ref in zip(vals, expected):
        assert abs(v - ref) <= 1e-7 * s, (n, y, v, ref)
    return cb


def test_critical_values_against_oracle():
    for n in range(2, 41):
        for y in (0.3, 0.5, 1.0, 2.0):
            cb = _check_critical_values(n, y)
            # the closed-form points z_j are critical: f'/f =
            # p/z + sum_i [2z/(z^2 - b_i) + 2 b_i z/(1 - b_i z^2)] vanishes
            for j in range(1, n):
                v = j * math.pi / n
                z = theta(2, v, cb.tau) / theta(3, v, cb.tau)
                terms = [2 * z / (z * z - b) + 2 * b * z / (1 - b * z * z) for b in cb.b]
                if cb.parity:
                    terms.append(1 / z)
                scale = max(1.0, sum(abs(t) for t in terms))
                assert abs(sum(terms)) <= 1e-9 * scale, (n, y, j)


def test_critical_values_leave_the_nulls_at_n_tau_on_the_product(monkeypatch):
    cb = products.build(5, uhp(1.0))
    products.critical_values(cb)
    calls = []
    real_theta = elliptic.theta

    def counted(*args):
        calls.append(args)
        return real_theta(*args)

    monkeypatch.setattr(elliptic, "theta", counted)
    sqrt_k(cb.nctx)
    assert calls == []
    sqrt_k(EllipticContext(cb.tau.scaled(5)))  # a fresh context does evaluate
    assert len(calls) == 2


@pytest.mark.parametrize("n,y", [(10, 2.0), (13, 1.0), (18, 0.3), (26, 0.5), (4, 0.05), (7, 0.1)])
def test_critical_values_formerly_failing(n, y):
    # sqrt(k(n tau)) below 1e-8, or near-coincident values at small Im(tau)
    _check_critical_values(n, y)


# --- modulus ------------------------------------------------------------------

def test_modulus_lambda_values():
    assert products.modulus_lambda(products.build(2, uhp(1.0))) == pytest.approx(
        math.pi / 2, abs=1e-15
    )
    assert products.modulus_lambda(products.build(1, uhp(1.0))) == pytest.approx(
        math.pi / 4, abs=1e-15
    )
    assert products.modulus_lambda(products.build(4, uhp(0.5))) == pytest.approx(
        math.pi / 2, abs=1e-15
    )
    assert products.normalized_modulus(products.build(2, uhp(1.0))) == 0.5


# --- composition ----------------------------------------------------------------

def test_compose_examples():
    assert products.compose_check(2, 2, uhp(0.5))["max_deviation"] <= 1e-9
    assert products.compose_check(1, 5, uhp(1.0))["max_deviation"] <= 1e-12
    assert products.compose_check(3, 2, uhp(1.0))["max_deviation"] <= 1e-9


@pytest.mark.parametrize("m, n, tau_im", [(4, 4, 1.0), (5, 8, 0.3), (8, 5, 0.1)])
def test_compose_has_no_degree_cap(m, n, tau_im):
    assert products.compose_check(m, n, uhp(tau_im))["max_deviation"] <= 1e-9


# --- functional-definition consistency ------------------------------------------

def test_functional_definition_consistency():
    from chebdisk.elliptic import cd, omega1

    tau = uhp(0.5)
    n = 3
    ctx = EllipticContext(tau)
    nctx = EllipticContext(tau.scaled(n))
    cb = products.build(n, tau)
    for u in (0.1, 0.6, 1.3):
        z = sqrt_k(ctx) * cd(omega1(ctx) * u, ctx)
        lhs = products.eval_product(cb, z)
        rhs = sqrt_k(nctx) * cd(n * omega1(nctx) * u, nctx)
        assert abs(lhs - rhs) <= 1e-9


# --- serialization ----------------------------------------------------------------

def test_serialize_round_trip_exact():
    cb = products.build(5, uhp(0.75))
    out = products.deserialize(products.serialize(cb))
    assert out.n == cb.n
    assert out.parity == cb.parity
    assert out.tau.value == cb.tau.value
    assert out.b == cb.b
    assert out.S == cb.S


@given(
    st.integers(min_value=1, max_value=9),
    st.floats(min_value=0.3, max_value=3.0),
)
@settings(max_examples=30, deadline=None)
def test_serialize_round_trip_property(n, y):
    cb = products.build(n, uhp(y))
    out = products.deserialize(products.serialize(cb))
    assert out.b == cb.b and out.S == cb.S and out.tau.value == cb.tau.value


_GOOD_RECORD = json.loads(products.serialize(products.build(5, uhp(0.75))))


def _record(**fields):
    return json.dumps({**_GOOD_RECORD, **fields})


@pytest.mark.parametrize(
    "record,error,message",
    [
        pytest.param("not json", ParseError, "is not JSON", id="not-json"),
        pytest.param("[1,2]", ParseError, "is not a JSON object", id="list"),
        pytest.param('{"n": 1}', ParseError, "has no field 'tau_im'", id="missing-key"),
        pytest.param(_record(n=2.9), ParseError, "field 'n' is not int: 2.9", id="float-n"),
        pytest.param(_record(n=True), ParseError, "field 'n' is not int", id="bool-n"),
        pytest.param(_record(tau_im="1"), ParseError, "field 'tau_im' is not float",
                     id="string-tau"),
        pytest.param(_record(b=[0.3, "x"]), ParseError, "field 'b' is not list",
                     id="string-in-b"),
        pytest.param(_record(n=0, b=[], S=[], parity=0), DomainError,
                     "degree must be >= 1, got 0", id="n0"),
        pytest.param(_record(tau_im=-0.75), DomainError, "Im\\(tau\\) > 0", id="lower-half"),
        pytest.param(_record(tau_im=math.inf), DomainError, "tau must be finite", id="inf-tau"),
        pytest.param(_record(tau_im=10**400), DomainError, "beyond double range",
                     id="huge-int-tau"),
        pytest.param(_record(parity=0), DomainError, "parity inconsistent", id="parity"),
        pytest.param(_record(b=[0.5]), DomainError, "length mismatch", id="short-b"),
        pytest.param(_record(b=[1.5, 0.1]), DomainError, "squared zero 1.5 outside",
                     id="b-outside"),
        pytest.param(_record(b=[0.1, 0.3]), DomainError, "not strictly decreasing",
                     id="b-increasing"),
        pytest.param(
            _record(S=[_GOOD_RECORD["S"][0], math.nextafter(_GOOD_RECORD["S"][1], 1.0)]),
            DomainError, "is not e_j\\(b\\)", id="S-one-ulp-off",
        ),
    ],
)
def test_deserialize_refuses_records_build_could_not_make(record, error, message):
    with pytest.raises(error, match=message):
        products.deserialize(record)


# --- interior contraction property ------------------------------------------------

@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.4, max_value=2.5),
    st.complex_numbers(max_magnitude=0.97, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=50, deadline=None)
def test_interior_contraction_and_agreement(n, y, z):
    cb = products.build(n, uhp(y))
    fz = products.eval_product(cb, z)
    assert abs(fz) < 1.0
    assert abs(fz - products.eval_expanded(cb, z)) <= 1e-10


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("z", [math.nan, complex(math.inf, 0.0), complex(0.5, math.nan)])
@pytest.mark.parametrize("evaluate", [products.eval_product, products.eval_expanded])
def test_eval_rejects_non_finite_z(evaluate, z, n):
    with pytest.raises(DomainError, match="z must be finite"):
        evaluate(products.build(n, uhp(1.0)), z)


@pytest.mark.parametrize(
    "n, y, z, evaluate, form",
    [
        # Horner's sums overflow; at (40, 2i) that read as a vanished denominator
        (40, 0.5, 1e10, products.eval_expanded, "expanded"),
        (40, 2.0, 1e8, products.eval_expanded, "expanded"),
        # z^p * nv overflows although nv does not
        (3, 1.0, 1e120, products.eval_expanded, "expanded"),
        # z*z overflows
        (40, 0.5, 1.4e154, products.eval_product, "factored"),
        (40, 0.5, complex(1e200, 1e200), products.eval_product, "factored"),
        (3, 1.0, 1e300, products.eval_product, "factored"),
    ],
)
def test_eval_overflow_is_precision_error(n, y, z, evaluate, form):
    with pytest.raises(PrecisionError, match=f"^{form} form overflows double range at z="):
        evaluate(products.build(n, uhp(y)), z)


def test_eval_product_below_overflow_is_finite():
    cb = products.build(40, uhp(0.5))
    assert cmath.isfinite(products.eval_product(cb, 1e154))
    assert cmath.isfinite(products.eval_product(products.build(3, uhp(1.0)), 1e120))


def test_sqrt_k_ntau_is_the_one_cusp_rule():
    message = r"^sqrt\(k\(n tau\)\) underflows to 0 at n=40, Im\(tau\)=12.0$"
    cb = products.build(40, uhp(12.0))
    # elliptic_rational divided by the zero: ZeroDivisionError
    for call in (cb.sqrt_k_ntau, lambda: products.critical_values(cb),
                 lambda: modulus.dessin_size(cb), lambda: products.elliptic_rational(cb, 0.5)):
        with pytest.raises(PrecisionError, match=message):
            call()
    # subnormal, not zero: the golden dessin-size cell
    cb = products.build(40, uhp(11.5))
    assert cb.sqrt_k_ntau() == sqrt_k(cb.nctx).real > 0.0


def test_eval_expanded_degree_one_is_identity():
    cb = products.build(1, uhp(2.0))
    for z in (0.1, 0.5j, -0.7):
        assert products.eval_expanded(cb, z) == complex(z)
