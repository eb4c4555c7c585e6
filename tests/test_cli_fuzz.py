"""Seeded fuzz gate for the CLI contract.

Drives ``cli.main`` in-process over the 19 subcommands other than
``verify-all`` with argument texts drawn from a fixed palette: zeros,
negatives, the double extremes 1e308 and 5e-324, nan and inf, the empty
string, a non-ASCII digit, hex and underscore literals, complex pairs,
cycle texts and Im(tau) on both sides of the 0.05 floor.  Every call must
either stop in argparse with SystemExit(2) and print nothing, or return
0, 1 or 2 and print exactly one JSON or CSV document whose status agrees
with the exit code; a document computed at a tau with 0 < Im(tau) < 0.05
ends with "degraded": true, and no other has the flag.
"""

import csv
import io
import json
import random

import pytest

from chebdisk import cli
from chebdisk.errors import ChebdiskError

SEED = 27
DRAWS_PER_COMMAND = 30

# Per-call degree bound: every --n and --m text reads as at most MAX_DEGREE
# or is refused by int(), so no call builds a product above degree 24 (cb
# compose: 24 * 24) and the whole gate stays within a few seconds.
MAX_DEGREE = 24
DEGREES = ("", "-1", "0", "1", "2", "3", "٣", "0x10", "1_0", "24")

NUMBERS = ("0", "-1", "1e308", "5e-324", "nan", "inf", "", "٣", "0x10", "1_000",
           "0.5", "0.1")
COMPLEX = NUMBERS + ("0.5,0", "0,0.5", "0.3,-0.2", "1e308,1", "nan,0", "0,inf", "1,2,3",
                     "-0.41,0", "0.41,", ",")
TAU_IM = NUMBERS + ("0.04", "0.049", "0.05", "20")
TAU = (None,) * 6 + ("0,0.04", "0.25,0.5", "0,1", "0,-1", "1e308,1", "0,5e-324", "nan,1")
CYCLES = ("(1 2)", "(2 3)", "()", "2 1 3", "(1 2)(3 4)", "(1 2 3", "(0 1)", "2 1 ++3",
          "(1 ²)", "٣ 1 2", "(1 24)", "")
IDS = ("n2_prod", "n4_sum", "n6_prod", "n6_e1", "nope")
ORDERS = ("-1", "0", "7", "1_000", "0x10", "")

_CB = {"--n": DEGREES, "--tau-im": TAU_IM}
COMMANDS = {
    ("theta",): {"--j": ("0", "1", "2", "3", "4", "٣"), "--v": COMPLEX,
                 "--tau-im": TAU_IM, "--tau": TAU},
    ("elliptic",): {"--v": COMPLEX, "--tau-im": TAU_IM, "--tau": TAU},
    ("cb", "build"): _CB,
    ("cb", "eval"): {**_CB, "--z": COMPLEX},
    ("cb", "coeffs"): _CB,
    ("cb", "derivs"): {**_CB, "--order": ORDERS},
    ("cb", "critical"): _CB,
    ("cb", "modulus"): _CB,
    ("cb", "compose"): {**_CB, "--m": DEGREES},
    ("monodromy", "analyze"): {"--sigma1": CYCLES, "--sigma2": CYCLES, "--n": DEGREES},
    ("monodromy", "equiv"): {"--sigma1": CYCLES, "--sigma2": CYCLES,
                             "--other-sigma1": CYCLES, "--other-sigma2": CYCLES,
                             "--n": DEGREES},
    ("monodromy", "chebyshev"): {"--n": DEGREES},
    ("modulus", "annulus"): {"--r": NUMBERS},
    ("modulus", "grotzsch"): {"--t": NUMBERS},
    ("modulus", "geodesic"): {"--a": COMPLEX, "--b": COMPLEX},
    ("modulus", "dessin-size"): _CB,
    ("landen", "verify"): {"--id": IDS, "--tau-im": TAU_IM},
    ("landen", "limit"): {"--id": IDS, "--y-large": NUMBERS},
    ("landen", "all"): {},
}
_EXIT_BY_STATUS = {"ok": 0, "verification_failure": 1}


def _draws(command):
    """The distinct seeded argvs for one subcommand, with the flags that set tau."""
    rng = random.Random(f"{SEED}:{' '.join(command)}")
    out = {}
    for _ in range(DRAWS_PER_COMMAND):
        flags = {}
        for flag, palette in COMMANDS[command].items():
            # a required flag is left out now and then: a usage error
            text = rng.choice(palette + (None,))
            if text is not None:
                flags[flag] = text
        fmt = rng.choice(([], [], ["--format=csv"], ["--format=json"], ["--format=xml"]))
        argv = fmt + list(command) + [f"{flag}={text}" for flag, text in flags.items()]
        out[tuple(argv)] = flags
    return out.items()


def _degraded_tau(flags):
    """Whether the call reads a tau with 0 < Im(tau) < 0.05, as run does."""
    try:
        if "--tau" in flags:
            im = cli.parse_complex(flags["--tau"]).imag
        elif "--tau-im" in flags:
            im = float(flags["--tau-im"])
        else:
            return False
    except (ChebdiskError, ValueError):
        return False
    return 0.0 < im < 0.05


def _one_document(out, csv_format):
    """(status, field names of the payload, last value) of the one document in out."""
    if csv_format:
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert out.endswith("\r\n") and len(rows) >= 2 and rows[0][0] == "status"
        status = rows[1][0]
        assert all(len(row) == len(rows[0]) and row[0] == status for row in rows[1:])
        return status, rows[0][1:], rows[-1][-1]
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert list(doc) == ["status", "payload"]
    fields = list(doc["payload"])
    return doc["status"], fields, json.dumps(doc["payload"][fields[-1]])


def test_palette_keeps_the_degree_bound():
    for text in DEGREES:
        try:
            assert int(text) <= MAX_DEGREE
        except ValueError:
            pass


@pytest.mark.parametrize("command", list(COMMANDS), ids=" ".join)
def test_every_call_writes_one_document_or_a_usage_error(command, capsys):
    for argv, flags in _draws(command):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            assert exc.code == 2, argv
            assert capsys.readouterr().out == "", argv
            continue
        except Exception as exc:  # the gate: nothing else may escape
            pytest.fail(f"{argv!r} raised {exc!r}")
        csv_format = "--format=csv" in argv
        status, fields, last = _one_document(capsys.readouterr().out, csv_format)
        assert code == _EXIT_BY_STATUS.get(status, 2), argv
        degraded = _degraded_tau(flags)
        assert ("degraded" in fields) == degraded, argv
        if degraded:
            assert fields[-1] == "degraded" and last == "true", argv
