import mpmath as mp
import pytest

from chebdisk import _mpkernel

from helpers import oracle_theta_mp


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_theta_mp_against_jtheta(j):
    with mp.workdps(60):
        for tau in (0.05j, 0.3j, 1j, 2j, 0.25 + 0.75j):
            for v in (0, 0.3, 1.1, 0.7 + 0.2j):
                ref = oracle_theta_mp(j, v, tau)
                value = _mpkernel.theta_mp(j, v, tau)
                assert abs(value - ref) / max(1, abs(ref)) <= 1e-50, (tau, v)


def test_theta_mp_rejects_bad_index():
    with pytest.raises(ValueError):
        _mpkernel.theta_mp(4, 0, 1j)
