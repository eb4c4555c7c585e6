"""Arbitrary-precision theta series for the coefficient oracles.

The derivative recurrence loses many digits to cancellation when it
reconstructs the smallest coefficients of high-degree products (the target
values sit up to ~20 decimal orders below the intermediate terms), so that
route runs on mpmath numbers.  ``theta_mp`` sums the same series with the
same pair truncation rule as ``theta.theta``, but it takes only two
exponentials per call, the nome and e^{iv}, and reaches every later term
by multiplication.  Only the coefficient oracles import this module, so
the other layers never load mpmath.
"""

import mpmath as mp

# The pair rule stops below 10^-(dps - GUARD_DIGITS) relative to the sum.
GUARD_DIGITS = 8
MAX_INDEX = 200


def theta_mp(j, v, tau):
    """theta_j(v, tau) on mpmath numbers; same pair rule as theta.theta.

    With q = e^{2 pi i tau}, w = e^{2iv} and u = e^{iv}, pair n >= 1 of
    theta3 is q^{n^2} (w^n + w^-n) and pair n >= 0 of theta2 is
    q^{(2n+1)^2/4} (u^(2n+1) + u^-(2n+1)).  theta0 and theta1 alternate the
    signs of the pairs, and theta1 takes i (u^-(2n+1) - u^(2n+1)) in place
    of theta2's bracket.
    """
    if j not in (0, 1, 2, 3):
        raise ValueError(f"bad theta index {j}")
    v = mp.mpmathify(v)
    tau = mp.mpmathify(tau)
    rel_tol = mp.mpf(10) ** (-(mp.mp.dps - GUARD_DIGITS))
    u = mp.exp(1j * v)
    w = u * u
    w_inv = 1 / w
    if j in (3, 0):
        q = mp.exp(2j * mp.pi * tau)
        q2 = q * q
        first, total = 1, mp.mpc(1)
        radial, growth = q, q * q2  # growth q^{2n+1} takes pair n to n + 1
        up, down = w, w_inv
    else:
        q_quarter = mp.exp(0.5j * mp.pi * tau)
        q2 = q_quarter**8
        first, total = 0, mp.mpc(0)
        radial, growth = q_quarter, q2  # growth q^{2n+2} takes pair n to n + 1
        up, down = u, 1 / u
    below = 0
    for n in range(first, MAX_INDEX + 1):
        pair = radial * (down - up if j == 1 else up + down)
        if j in (0, 1) and n % 2 == 1:
            pair = -pair
        total += pair
        if n >= 1:
            below = below + 1 if abs(pair) <= rel_tol * abs(total) else 0
            if below >= 2:
                return 1j * total if j == 1 else total
        radial *= growth
        growth *= q2
        up *= w
        down *= w_inv
    raise ArithmeticError(f"theta{j} series did not converge at tau={tau}")


def field_generators_mp(n, tau):
    """(sqrt_k(tau), sqrt_k(n tau), omega1(n tau)/omega1(tau)) in mp."""
    t2 = theta_mp(2, 0, tau)
    t3 = theta_mp(3, 0, tau)
    s2 = theta_mp(2, 0, n * tau)
    s3 = theta_mp(3, 0, n * tau)
    return t2 / t3, s2 / s3, (s3 / t3) ** 2


def squared_zero_parameters_mp(n, tau):
    """b_i = theta2^2((2i-1)pi/2n, tau) / theta3^2(...), i = 1..floor(n/2)."""
    out = []
    for i in range(1, n // 2 + 1):
        v = (2 * i - 1) * mp.pi / (2 * n)
        out.append((theta_mp(2, v, tau) / theta_mp(3, v, tau)) ** 2)
    return out
