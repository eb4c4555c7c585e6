"""Shared test oracles.

mpmath.jtheta is an implementation of the theta series independent of
the double-precision kernel in chebdisk.theta; with q = e^{2 pi i tau} it
matches this package's convention whenever Re(tau) in (-1/2, 1/2], where
the principal branch of q^{1/4} coincides with e^{pi i tau / 2}.  The
coefficient oracles evaluate theta through jtheta too, so tests check them
against the double kernel (tests/test_mpkernel.py), not against this
helper.  Frozen constants below were produced at 40 digits from the
defining series (see tests for their single points of use).
"""

import os
import pathlib
import subprocess
import sys

import mpmath as mp

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_JTHETA_INDEX = {1: 1, 2: 2, 3: 3, 0: 4}


def oracle_theta_mp(j, v, tau):
    """Reference theta value via mpmath.jtheta at the working precision."""
    if not -0.5 < complex(tau).real <= 0.5:
        raise ValueError("oracle valid only for Re(tau) in (-1/2, 1/2]")
    q = mp.e ** (2j * mp.pi * mp.mpmathify(tau))
    return mp.jtheta(_JTHETA_INDEX[j], mp.mpmathify(v), q)


def oracle_theta(j, v, tau, dps=30):
    """Reference theta value via mpmath.jtheta; returns complex."""
    with mp.workdps(dps):
        return complex(oracle_theta_mp(j, v, tau))


def run_python(*argv):
    """Run a child interpreter on argv with this checkout's src/ first on its
    PYTHONPATH; returns (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def rel_err(value, reference):
    return abs(value - reference) / max(1.0, abs(reference))


# Values frozen from the 40-digit series oracle.
THETA3_AT_I2 = 1.0864348112133080      # theta3(0, i/2)
THETA3_AT_I = 1.0037348854877391       # theta3(0, i)
THETA2_AT_I2 = 0.91357913815611682     # theta2(0, i/2)
THETA0_AT_I2 = 0.91357913815611682     # theta0(0, i/2)
OMEGA1_AT_I2 = 1.1803405990160962      # theta3(0, i/2)^2
OMEGA1_AT_I = 1.0074837203450847       # theta3(0, i)^2
K_AT_I2 = 0.70710678118654752          # k(i/2) = 1/sqrt(2)
K_AT_I = 0.1715728752538099            # k(i) = 3 - 2 sqrt(2)
SQRT_K_AT_I = 0.41421356237309505      # sqrt(2) - 1
SQRT_K_AT_2I = 0.086427233725889792
SQRT_K_AT_3I = 0.017966581808247286
B_4_AT_I = (0.14676574267917918, 0.025447937612317078)
S2_4_AT_I = 0.0037348854633251336      # = theta2(0,4i)/theta3(0,4i)
CD_07_AT_20I = 0.76484218728448843     # = cos(0.7) to all shown digits
