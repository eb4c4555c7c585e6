"""Arbitrary-precision theta quotients for the coefficient oracles.

The derivative recurrence loses many digits to cancellation when it
reconstructs the smallest coefficients of high-degree products (the target
values sit up to ~20 decimal orders below the intermediate terms), so that
route runs on mpmath numbers.  Both helpers take Im(tau) of a point on the
imaginary axis and evaluate theta through ``mpmath.jtheta`` at the real
nome q = e^{-2 pi Im(tau)}, which is jtheta's nome under this package's
q = e^{2 pi i tau} convention.  Only the coefficient oracles import this
module, so the other layers never load mpmath.
"""

import mpmath as mp


def _nome(y):
    return mp.exp(-2 * mp.pi * y)


def field_generators_mp(n, y):
    """(sqrt_k(tau), sqrt_k(n tau), omega1(n tau)/omega1(tau)) in mp at tau = iy.

    n*y is formed in mp, so the n tau generators sit at the same point as
    the b_i at tau to the working precision.
    """
    q = _nome(y)
    qn = _nome(n * mp.mpf(y))
    t2, t3 = mp.jtheta(2, 0, q), mp.jtheta(3, 0, q)
    s2, s3 = mp.jtheta(2, 0, qn), mp.jtheta(3, 0, qn)
    return t2 / t3, s2 / s3, (s3 / t3) ** 2


def squared_zero_parameters_mp(n, y):
    """b_i = theta2^2((2i-1)pi/2n, iy) / theta3^2(...), i = 1..floor(n/2)."""
    q = _nome(y)
    out = []
    for i in range(1, n // 2 + 1):
        v = (2 * i - 1) * mp.pi / (2 * n)
        out.append((mp.jtheta(2, v, q) / mp.jtheta(3, v, q)) ** 2)
    return out
