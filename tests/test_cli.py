import json
import random
import re

import pytest

from chebdisk import cli, products

from helpers import SQRT_K_AT_I, THETA3_AT_I2, run_python


def run_cli(*argv):
    return cli.run(list(argv))


def invoke(*argv):
    """Run the CLI as a subprocess; returns (exit_code, stdout, stderr)."""
    return run_python("-m", "chebdisk.cli", *argv)


# --- documented examples -------------------------------------------------------

def test_theta_example():
    result = run_cli("theta", "--j", "3", "--v", "0", "--tau-im", "0.5")
    assert result.status == "ok" and result.exit_code == 0
    assert abs(result.payload["re"] - THETA3_AT_I2) < 1e-15
    assert result.payload["im"] == 0.0


def test_cb_coeffs_example():
    result = run_cli("cb", "coeffs", "--n", "2", "--tau-im", "0.5")
    assert result.status == "ok"
    assert abs(result.payload["S"][0] - SQRT_K_AT_I) < 1e-10
    assert result.payload["cross_check_residual"] <= 1e-8


@pytest.mark.parametrize(
    "n, tau_im",
    [(2, "30"), (12, "4"), (8, "7"), (6, "0.1"), (28, "2")],
    ids=lambda v: str(v),
)
def test_cb_coeffs_derivative_route_where_sqrt_k_is_small(n, tau_im):
    # at fixed 60 digits, or with n*Im(tau) rounded to a double, the route
    # missed S here (residual 1, 0.2, 7e11, 1.2e-6 and 1e2)
    result = run_cli("cb", "coeffs", "--n", str(n), "--tau-im", tau_im)
    assert result.status == "ok" and result.exit_code == 0
    assert result.payload["cross_check_residual"] <= 1e-12


def test_cb_coeffs_route_off_s_is_precision_error(monkeypatch):
    route = products.coefficients_from_derivatives
    monkeypatch.setattr(
        products,
        "coefficients_from_derivatives",
        lambda n, tau: [s * (1 + 1e-6) for s in route(n, tau)],
    )
    result = run_cli("cb", "coeffs", "--n", "4", "--tau-im", "1")
    assert result.status == "precision_error" and result.exit_code == 2
    assert "S_derivative_route" not in result.payload
    assert "beyond 1e-08" in result.payload["error"]


def test_cb_coeffs_underflowed_s_is_precision_error():
    # S_20 of build(40, 100i) is 0.0 in double: no relative check exists
    result = run_cli("cb", "coeffs", "--n", "40", "--tau-im", "100")
    assert result.status == "precision_error" and result.exit_code == 2
    assert "underflows double range" in result.payload["error"]


def test_landen_without_verify_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("landen", "--id", "n4_sum", "--tau-im", "1")
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# --- output document shape ------------------------------------------------------

def test_json_document_parses():
    code, out, _ = invoke("theta", "--j", "3", "--v", "0", "--tau-im", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert set(doc["payload"]) == {"re", "im"}


def test_complex_values_have_re_im_keys():
    code, out, _ = invoke("cb", "eval", "--n", "2", "--tau-im", "0.5", "--z", "0.5,0")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["payload"]["product"]) == {"re", "im"}


def test_csv_format():
    code, out, _ = invoke(
        "--format", "csv", "modulus", "grotzsch", "--t", "0.70710678118654752"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "status,t,modulus"
    fields = lines[1].split(",")
    assert fields[0] == "ok"
    assert abs(float(fields[2]) - 0.25) < 1e-10


def test_unknown_format_exits_two():
    code, out, err = invoke("--format", "xml", "cb", "build", "--n", "2", "--tau-im", "1")
    assert code == 2
    assert out == ""
    assert "invalid choice" in err


def test_no_nan_or_infinity_in_output():
    code, out, _ = invoke("elliptic", "--v", "0.7", "--tau-im", "20")
    assert code == 0
    assert "NaN" not in out and "Infinity" not in out
    json.loads(out)


# --- exit codes -------------------------------------------------------------------

def test_domain_error_exit_two():
    code, out, _ = invoke("theta", "--j", "3", "--v", "0", "--tau-im", "-1")
    assert code == 2
    assert json.loads(out)["status"] == "domain_error"


def test_parse_error_exit_two():
    code, out, _ = invoke("theta", "--j", "3", "--v", "zzz", "--tau-im", "1")
    assert code == 2
    assert json.loads(out)["status"] == "parse_error"


def test_malformed_flags_exit_two_with_usage():
    code, _, err = invoke("theta", "--j", "9", "--v", "0", "--tau-im", "1")
    assert code == 2
    assert "usage" in err.lower() or "invalid" in err.lower()


def test_precision_error_carries_degraded_flag():
    code, out, _ = invoke("theta", "--j", "3", "--v", "0", "--tau-im", "0.001")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "precision_error"
    assert doc["payload"]["degraded"] is True


@pytest.mark.parametrize(
    "argv, tau_im, status",
    [
        (("cb", "build", "--n", "2"), "0.04", "ok"),
        (("landen", "verify", "--id", "n2_prod"), "0.04", "ok"),
        (("cb", "build", "--n", "5"), "0.03", "domain_error"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_degraded_ends_every_payload_below_floor(argv, tau_im, status):
    result = run_cli(*argv, "--tau-im", tau_im)
    assert result.status == status
    assert list(result.payload)[-1] == "degraded"
    assert result.payload["degraded"] is True
    assert "degraded" not in run_cli(*argv, "--tau-im", "0.05").payload


AXIS_ONLY_COMMANDS = [
    ("cb", "build"),
    ("cb", "eval", "--z", "0.5,0"),
    ("cb", "coeffs"),
    ("cb", "derivs"),
    ("cb", "critical"),
    ("cb", "modulus"),
    ("cb", "compose", "--m", "2"),
    ("modulus", "dessin-size"),
]


@pytest.mark.parametrize(
    "argv",
    [(*cmd, "--n", "3") for cmd in AXIS_ONLY_COMMANDS]
    + [("landen", "verify", "--id", "n2_prod")],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_axis_only_commands_refuse_complex_tau(argv, capsys):
    # --tau abbreviates --tau-im here, which takes a float
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--tau", "0,1")
    assert exc.value.code == 2
    assert "invalid float value: '0,1'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("cb", "eval", "--n", "3", "--tau-im", "1", "--z", "nan,0"),
        ("cb", "eval", "--n", "3", "--tau-im", "1", "--z", "inf,0"),
        ("cb", "eval", "--n", "3", "--tau-im", "1", "--z", "1e200,0"),
        ("theta", "--j", "3", "--v", "0,400", "--tau-im", "1"),
        # a finite v whose angle k*v overflows
        ("theta", "--j", "3", "--v", "1e308,0", "--tau-im", "1"),
        ("theta", "--j", "3", "--v", "1e308,0.5", "--tau-im", "1"),
        ("elliptic", "--v", "1e308", "--tau-im", "1"),
        ("cb", "derivs", "--n", "3", "--tau-im", "300", "--order", "9"),
        ("cb", "derivs", "--n", "3", "--tau-im", "1", "--order", "200"),
        ("cb", "derivs", "--n", "3", "--tau-im", "1", "--order", "-1"),
        ("cb", "derivs", "--n", "0", "--tau-im", "1", "--order", "3"),
        # tokens that look numeric but that int() refuses
        ("monodromy", "analyze", "--sigma1", "2 1 ++3", "--sigma2", "()"),
        ("monodromy", "analyze", "--sigma1", "(1 ²)", "--sigma2", "()"),
        ("monodromy", "analyze", "--sigma1", "2 1 ³", "--sigma2", "()"),
    ],
    ids=" ".join,
)
def test_numeric_edge_inputs_exit_two_with_one_document(argv):
    code, out, err = invoke(*argv)
    assert code == 2
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["status"] in ("parse_error", "domain_error", "precision_error")
    assert doc["payload"]["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("theta", "--j", "3", "--tau-im", "inf"),
        ("landen", "limit", "--id", "n6_prod", "--y-large", "inf"),
    ],
    ids=" ".join,
)
def test_non_finite_tau_is_domain_error(argv):
    result = run_cli(*argv)
    assert result.status == "domain_error"
    assert result.payload["error"] == "tau must be finite, got infj"


@pytest.mark.parametrize(
    "flags,status,message",
    [
        (("--n", "3", "--tau-im", "1", "--order", "-1"), "domain_error",
         "derivative order must be >= 0, got -1"),
        (("--n", "3", "--tau-im", "1", "--order", "200"), "precision_error",
         "order 171: 171! exceeds double range"),
        (("--n", "0", "--tau-im", "1", "--order", "3"), "domain_error",
         "degree must be >= 1, got 0"),
        (("--n", "3", "--tau-im", "300", "--order", "9"), "domain_error",
         "squared zero 0j outside (0,1)"),
        # raises where build raises, degraded or not
        (("--n", "3", "--tau-im", "0.02", "--order", "3"), "domain_error",
         "squared zero (1.0000000000000004+0j) outside (0,1)"),
        # refused before any series is formed
        (("--n", "40", "--tau-im", "1", "--order", "100000"), "precision_error",
         "order 172: 172! exceeds double range"),
    ],
)
def test_cb_derivs_typed_errors(flags, status, message):
    result = run_cli("cb", "derivs", *flags)
    assert (result.status, result.payload["error"]) == (status, message)


def test_cb_derivs_at_large_tau_im():
    # powers of b underflow gracefully: no guard on sqrt(k(tau)) remains
    result = run_cli("cb", "derivs", "--n", "2", "--tau-im", "100", "--order", "4")
    assert result.status == "ok"
    assert result.payload["values"][2] == 2


def test_series_flags_are_gone():
    code, out, err = invoke("theta", "--j", "3", "--tau-im", "1", "--tol", "1e-8")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --tol" in err


def test_unverified_limit_exits_one():
    # y = 0.4 is far from the trigonometric limit: a verification failure
    code, out, _ = invoke("landen", "limit", "--id", "n2_prod", "--y-large", "0.4")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "verification_failure"
    assert doc["payload"]["pass"] is False


@pytest.mark.parametrize("command", ["limit", "all"])
def test_landen_limit_and_all_take_no_tau(command):
    argv = ["landen", command] + (["--id", "n2_prod"] if command == "limit" else [])
    for flags in (["--tau-im", "7"], ["--tau", "0,7"]):
        code, out, err = invoke(*argv, *flags)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in err


def test_missing_tau_is_parse_error():
    result = run_cli("theta", "--j", "3", "--v", "0")
    assert result.status == "parse_error" and result.exit_code == 2


# --- determinism --------------------------------------------------------------------

def test_byte_identical_repeated_runs():
    args = ("cb", "build", "--n", "5", "--tau-im", "0.75")
    first = invoke(*args)
    second = invoke(*args)
    assert first == second
    assert first[0] == 0


def test_cli_import_leaves_numpy_out():
    code, out, err = run_python(
        "-c", "import sys, chebdisk.cli; print('numpy' in sys.modules)"
    )
    assert code == 0, err
    assert out.strip() == "False"


def test_cli_import_leaves_mpmath_out():
    code, out, err = run_python(
        "-c", "import sys, chebdisk.cli; print('mpmath' in sys.modules)"
    )
    assert code == 0, err
    assert out.strip() == "False"


def test_cli_import_leaves_fractions_out():
    code, out, err = run_python(
        "-c",
        "import sys, chebdisk.cli;"
        " print('fractions' in sys.modules, 'decimal' in sys.modules)",
    )
    assert code == 0, err
    assert out.strip() == "False False"


def test_cli_import_leaves_acceptance_out():
    code, out, err = run_python(
        "-c", "import sys, chebdisk.cli; print('chebdisk.acceptance' in sys.modules)"
    )
    assert code == 0, err
    assert out.strip() == "False"


def test_monodromy_commands():
    result = run_cli("monodromy", "analyze", "--sigma1", "(1 2)", "--sigma2", "(2 3)")
    assert result.payload["tree"] is True
    assert result.payload["dessin"] == {"vertices": 4, "edges": 3}
    result = run_cli(
        "monodromy", "equiv",
        "--sigma1", "(1 2)", "--sigma2", "(2 3)",
        "--other-sigma1", "(2 3)", "--other-sigma2", "(1 2)",
        "--n", "3",
    )
    assert result.payload["equivalent"] is True
    result = run_cli("monodromy", "chebyshev", "--n", "6")
    assert result.payload["dessin"] == {"vertices": 7, "edges": 6}


def test_monodromy_equiv_has_no_degree_cap():
    readme_sigmas = ("--sigma1", "(1 2)", "--sigma2", "(2 3)",
                     "--other-sigma1", "(2 3)", "--other-sigma2", "(1 2)")
    result = run_cli("monodromy", "equiv", *readme_sigmas, "--n", "11")
    assert result.status == "ok" and result.payload["equivalent"] is True
    # the n = 40 chain against a seeded renaming of its points
    odd = "".join(f"({i} {i + 1})" for i in range(1, 40, 2))
    even = "".join(f"({i} {i + 1})" for i in range(2, 39, 2))
    names = random.Random(40).sample(range(1, 41), 40)
    rename = lambda cycles: re.sub(r"\d+", lambda m: str(names[int(m.group()) - 1]), cycles)
    result = run_cli(
        "monodromy", "equiv", "--sigma1", odd, "--sigma2", even,
        "--other-sigma1", rename(odd), "--other-sigma2", rename(even), "--n", "40",
    )
    assert result.status == "ok" and result.payload["equivalent"] is True


def test_cb_compose_has_no_degree_cap():
    result = run_cli("cb", "compose", "--m", "4", "--n", "4", "--tau-im", "1")
    assert result.status == "ok" and result.exit_code == 0
    assert result.payload["max_deviation"] <= 1e-9


def test_verify_all_stderr_lines_carry_wall_times(capsys):
    result = run_cli("verify-all")
    assert result.exit_code == 0
    lines = capsys.readouterr().err.splitlines()
    assert [int(re.match(r"PASS criterion (\d+): ", ln).group(1)) for ln in lines] == list(
        range(1, 12)
    )
    assert all(re.search(r" \[\d+\.\d ms\]$", ln) for ln in lines)


def test_modulus_commands():
    result = run_cli("modulus", "annulus", "--r", "0.0018674427317079893")
    assert abs(result.payload["modulus"] - 1.0) < 1e-12
    result = run_cli("modulus", "dessin-size", "--n", "2", "--tau-im", "1")
    assert abs(result.payload["dessin_size"] - 0.25) < 1e-8
    # leading-dash complex literals take the --flag=value form
    result = run_cli(
        "modulus", "geodesic", f"--a=-{SQRT_K_AT_I},0", f"--b={SQRT_K_AT_I},0"
    )
    assert abs(result.payload["modulus"] - 0.25) < 1e-10


def test_landen_all_passes():
    result = run_cli("landen", "all")
    assert result.exit_code == 0
    assert result.payload["all_passed"] is True
    # one record per (identity, tau) plus one trig record per identity
    expected = 9 * 6 + 9
    assert len(result.payload["records"]) == expected
