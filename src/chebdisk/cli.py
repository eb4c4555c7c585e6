"""Command-line front end.

One invocation writes one structured document (JSON by default, CSV with
--format csv) to stdout; diagnostics go to stderr.  Exit codes: 0 success,
1 verification failure, 2 for input/domain/precision problems.  Output is
byte-identical across repeated invocations: fixed seeds, fixed key order,
floats at 17 significant digits.
"""

import argparse
import cmath
import sys

from . import landen, modulus, monodromy, products
from .elliptic import EllipticContext, cd, cn, dn, k_modulus, omega1, sn, sqrt_k
from .errors import ChebdiskError, DomainError, ParseError, PrecisionError
from .jsonio import flatten_for_csv, render_csv, render_json
from .theta import UpperHalfPoint, theta

_EXIT_OK = 0
_EXIT_VERIFY = 1
_EXIT_INPUT = 2


class CommandResult:
    def __init__(self, status, payload, exit_code, fmt):
        self.status = status
        self.payload = payload
        self.exit_code = exit_code
        self.fmt = fmt


def parse_complex(text):
    """Complex literal as "re" or "re,im" with finite parts."""
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            value = complex(*map(float, parts))
            if cmath.isfinite(value):
                return value
    except ValueError:
        pass
    raise ParseError(f"expected complex literal 're' or 're,im', got {text!r}")


def _cpx(value):
    return {"re": float(value.real), "im": float(value.imag)}


def _tau_from(args):
    if getattr(args, "tau", None) is not None:
        return UpperHalfPoint(parse_complex(args.tau))
    if args.tau_im is not None:
        return UpperHalfPoint(complex(0.0, args.tau_im))
    raise ParseError("--tau-im (or --tau on theta and elliptic) is required")


def _add_tau_flags(p):
    p.add_argument("--tau-im", type=float, help="Im(tau) for tau on the imaginary axis")


def _report_payload(rep):
    return {
        "identity_id": rep.identity_id,
        "tau_im": rep.tau.value.imag,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "residual": rep.residual,
        "tolerance": rep.tolerance,
        "pass": rep.passed,
    }


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_theta(args, tau):
    value = theta(args.j, parse_complex(args.v), tau)
    return {"re": value.real, "im": value.imag}, _EXIT_OK


def _cmd_elliptic(args, tau):
    ctx = EllipticContext(tau)
    u = parse_complex(args.v)
    payload = {
        "tau_im": tau.value.imag,
        "u": _cpx(u),
        "omega1": omega1(ctx),
        "k": k_modulus(ctx),
        "sqrt_k": sqrt_k(ctx),
        "sn": sn(u, ctx),
        "cn": cn(u, ctx),
        "dn": dn(u, ctx),
        "cd": cd(u, ctx),
    }
    return payload, _EXIT_OK


def _cmd_cb_build(args, tau):
    cb = products.build(args.n, tau)
    payload = {
        "n": cb.n,
        "tau_im": tau.value.imag,
        "parity": cb.parity,
        "b": list(cb.b),
        "S": list(cb.S),
        "record": products.serialize(cb),
    }
    return payload, _EXIT_OK


def _cmd_cb_eval(args, tau):
    cb = products.build(args.n, tau)
    z = parse_complex(args.z)
    fz_product = products.eval_product(cb, z)
    fz_expanded = products.eval_expanded(cb, z)
    payload = {
        "n": cb.n,
        "tau_im": tau.value.imag,
        "z": _cpx(z),
        "product": fz_product,
        "expanded": fz_expanded,
        "agreement": abs(fz_product - fz_expanded),
    }
    return payload, _EXIT_OK


def _cmd_cb_coeffs(args, tau):
    cb = products.build(args.n, tau)
    if any(s < sys.float_info.min for s in cb.S):
        raise PrecisionError(
            f"S underflows double range (smallest {min(cb.S)}); no relative cross-check"
        )
    s_der = products.coefficients_from_derivatives(args.n, tau)
    residual = max(
        abs(a - b) / abs(a) for a, b in zip(cb.S, s_der)
    )
    if not residual <= products.COEFFICIENT_TOLERANCE:
        raise PrecisionError(
            f"derivative-route coefficients miss S by relative {residual:.3e}, "
            f"beyond {products.COEFFICIENT_TOLERANCE}"
        )
    payload = {
        "n": cb.n,
        "tau_im": tau.value.imag,
        "S": list(cb.S),
        "S_derivative_route": [float(x) for x in s_der],
        "cross_check_residual": residual,
    }
    return payload, _EXIT_OK


def _cmd_cb_derivs(args, tau):
    cb = products.build(args.n, tau)
    payload = {
        "n": cb.n,
        "tau_im": tau.value.imag,
        "orders": list(range(args.order + 1)),
        "values": products.derivatives_at_zero(cb, args.order),
    }
    return payload, _EXIT_OK


def _cmd_cb_critical(args, tau):
    cb = products.build(args.n, tau)
    vals = products.critical_values(cb)
    payload = {
        "n": cb.n,
        "tau_im": tau.value.imag,
        "values": list(vals),
        "sqrt_k_ntau": sqrt_k(cb.nctx).real,
    }
    return payload, _EXIT_OK


def _cmd_cb_modulus(args, tau):
    cb = products.build(args.n, tau)
    payload = {
        "n": cb.n,
        "tau_im": tau.value.imag,
        "lambda": products.modulus_lambda(cb),
        "normalized_modulus": products.normalized_modulus(cb),
    }
    return payload, _EXIT_OK


def _cmd_cb_compose(args, tau):
    payload = products.compose_check(args.m, args.n, tau)
    return payload, _EXIT_OK


def _parse_rep(sigma1_text, sigma2_text, n):
    s1 = monodromy.parse_permutation(sigma1_text, n)
    s2 = monodromy.parse_permutation(sigma2_text, n)
    size = max(s1.n, s2.n) if n is None else n
    if s1.n < size:
        s1 = monodromy.parse_permutation(sigma1_text, size)
    if s2.n < size:
        s2 = monodromy.parse_permutation(sigma2_text, size)
    return monodromy.MonodromyRep(size, s1, s2)


def _cmd_monodromy_analyze(args):
    rep = _parse_rep(args.sigma1, args.sigma2, args.n)
    transitive = monodromy.is_transitive(rep)
    payload = {
        "n": rep.n,
        "sigma1": rep.sigma1.to_cycle_string(),
        "sigma2": rep.sigma2.to_cycle_string(),
        "transitive": transitive,
        "c1": monodromy.cycle_count(rep.sigma1),
        "c2": monodromy.cycle_count(rep.sigma2),
        "c3": monodromy.face_cycles(rep),
    }
    if transitive:
        payload["euler_characteristic_disk"] = monodromy.euler_characteristic_disk(rep)
        payload["tree"] = monodromy.is_tree(rep)
        if payload["tree"]:
            stats = monodromy.dessin_stats(rep)
            payload["dessin"] = {"vertices": stats.vertices, "edges": stats.edges}
    return payload, _EXIT_OK


def _cmd_monodromy_equiv(args):
    rep1 = _parse_rep(args.sigma1, args.sigma2, args.n)
    rep2 = _parse_rep(args.other_sigma1, args.other_sigma2, args.n or rep1.n)
    payload = {
        "n": rep1.n,
        "equivalent": monodromy.are_equivalent(rep1, rep2),
    }
    return payload, _EXIT_OK


def _cmd_monodromy_chebyshev(args):
    rep = monodromy.chebyshev_monodromy(args.n)
    stats = monodromy.dessin_stats(rep)
    payload = {
        "n": rep.n,
        "sigma1": rep.sigma1.to_cycle_string(),
        "sigma2": rep.sigma2.to_cycle_string(),
        "tree": True,
        "dessin": {"vertices": stats.vertices, "edges": stats.edges},
    }
    return payload, _EXIT_OK


def _cmd_modulus_annulus(args):
    return {"r": args.r, "modulus": modulus.annulus_modulus(args.r)}, _EXIT_OK


def _cmd_modulus_grotzsch(args):
    return {"t": args.t, "modulus": modulus.grotzsch_modulus(args.t)}, _EXIT_OK


def _cmd_modulus_geodesic(args):
    a = parse_complex(args.a)
    b = parse_complex(args.b)
    seg = modulus.GeodesicSegment(a, b)
    payload = {
        "a": _cpx(a),
        "b": _cpx(b),
        "pseudo_hyperbolic_distance": modulus.pseudo_hyperbolic_distance(a, b),
        "poincare_distance": modulus.poincare_distance(a, b),
        "modulus": modulus.disk_minus_geodesic_modulus(seg),
    }
    return payload, _EXIT_OK


def _cmd_modulus_dessin_size(args, tau):
    cb = products.build(args.n, tau)
    payload = {
        "n": args.n,
        "tau_im": tau.value.imag,
        "dessin_size": modulus.dessin_size(cb),
        "expected": tau.value.imag / 4.0,
    }
    return payload, _EXIT_OK


def _cmd_landen_verify(args, tau):
    rep = landen.verify_identity(args.id, tau)
    return _report_payload(rep), _EXIT_OK if rep.passed else _EXIT_VERIFY


def _cmd_landen_limit(args):
    rep = landen.trig_limit(args.id, args.y_large)
    return _report_payload(rep), _EXIT_OK if rep.passed else _EXIT_VERIFY


def _cmd_landen_all(args):
    records = [_report_payload(r) for r in landen.run_catalog()]
    records += [_report_payload(r) for r in landen.run_trig_limits()]
    ok = all(r["pass"] for r in records)
    payload = {"records": records, "all_passed": ok}
    return payload, _EXIT_OK if ok else _EXIT_VERIFY


def _cmd_verify_all(args):
    # imported here: no other command needs the criteria
    from . import acceptance

    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    results = acceptance.run_all(seed=seed)
    records = [
        {
            "criterion": r.number,
            "name": r.name,
            "pass": r.passed,
            "worst": r.worst,
            "tolerance": r.tolerance,
            "detail": r.detail,
        }
        for r in results
    ]
    ok = all(r.passed for r in results)
    for r in results:
        print(f"{r.line()} [{r.seconds * 1e3:.1f} ms]", file=sys.stderr)
    payload = {"records": records, "all_passed": ok}
    return payload, _EXIT_OK if ok else _EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="chebdisk",
        description="Chebyshev-Blaschke products, theta kernels, dessin moduli",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", help="evaluate a Jacobi theta function")
    p.add_argument("--j", type=int, required=True, choices=(0, 1, 2, 3))
    p.add_argument("--v", default="0", help="argument as re or re,im")
    _add_tau_flags(p)
    p.add_argument("--tau", help="complex tau as re,im")
    p.set_defaults(handler=_cmd_theta)

    p = sub.add_parser("elliptic", help="sn/cn/dn/cd and derived quantities")
    p.add_argument("--v", default="0", help="elliptic argument u as re or re,im")
    _add_tau_flags(p)
    p.add_argument("--tau", help="complex tau as re,im")
    p.set_defaults(handler=_cmd_elliptic)

    cb = sub.add_parser("cb", help="Chebyshev-Blaschke products").add_subparsers(
        dest="cb_command", required=True
    )
    for name, handler, extra in (
        ("build", _cmd_cb_build, ()),
        ("eval", _cmd_cb_eval, ("z",)),
        ("coeffs", _cmd_cb_coeffs, ()),
        ("derivs", _cmd_cb_derivs, ("order",)),
        ("critical", _cmd_cb_critical, ()),
        ("modulus", _cmd_cb_modulus, ()),
        ("compose", _cmd_cb_compose, ("m",)),
    ):
        p = cb.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        if "m" in extra:
            p.add_argument("--m", type=int, required=True)
        if "z" in extra:
            p.add_argument("--z", required=True, help="evaluation point re,im")
        if "order" in extra:
            p.add_argument("--order", type=int, default=5)
        _add_tau_flags(p)
        p.set_defaults(handler=handler)

    mono = sub.add_parser("monodromy", help="permutation-pair analysis").add_subparsers(
        dest="monodromy_command", required=True
    )
    p = mono.add_parser("analyze")
    p.add_argument("--sigma1", required=True, help='cycles "(1 2)(3 4)" or one-line "2 1 4 3"')
    p.add_argument("--sigma2", required=True)
    p.add_argument("--n", type=int, help="degree (default: largest point mentioned)")
    p.set_defaults(handler=_cmd_monodromy_analyze)
    p = mono.add_parser("equiv")
    p.add_argument("--sigma1", required=True)
    p.add_argument("--sigma2", required=True)
    p.add_argument("--other-sigma1", required=True)
    p.add_argument("--other-sigma2", required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(handler=_cmd_monodromy_equiv)
    p = mono.add_parser("chebyshev")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_monodromy_chebyshev)

    mod = sub.add_parser("modulus", help="conformal moduli").add_subparsers(
        dest="modulus_command", required=True
    )
    p = mod.add_parser("annulus")
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(handler=_cmd_modulus_annulus)
    p = mod.add_parser("grotzsch")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(handler=_cmd_modulus_grotzsch)
    p = mod.add_parser("geodesic")
    p.add_argument("--a", required=True, help="endpoint re,im")
    p.add_argument("--b", required=True, help="endpoint re,im")
    p.set_defaults(handler=_cmd_modulus_geodesic)
    p = mod.add_parser("dessin-size")
    p.add_argument("--n", type=int, required=True)
    _add_tau_flags(p)
    p.set_defaults(handler=_cmd_modulus_dessin_size)

    lan = sub.add_parser("landen", help="Landen-type identity checks").add_subparsers(
        dest="landen_command", required=True
    )
    p = lan.add_parser("verify")
    p.add_argument("--id", required=True, choices=sorted(landen.CATALOG))
    _add_tau_flags(p)
    p.set_defaults(handler=_cmd_landen_verify)
    p = lan.add_parser("limit")
    p.add_argument("--id", required=True, choices=sorted(landen.CATALOG))
    p.add_argument("--y-large", type=float, default=landen.Y_LARGE)
    p.set_defaults(handler=_cmd_landen_limit)
    p = lan.add_parser("all")
    p.set_defaults(handler=_cmd_landen_all)

    p = sub.add_parser("verify-all", help="run the acceptance criteria")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def run(argv):
    """Execute one invocation; returns a CommandResult without printing.

    tau is read here for every subcommand with --tau-im; every payload at a
    degraded tau, ok or error, ends with "degraded": true.
    """
    args = build_parser().parse_args(argv)
    tau = None
    try:
        if "tau_im" in args:
            tau = _tau_from(args)
            payload, exit_code = args.handler(args, tau)
        else:
            payload, exit_code = args.handler(args)
        status = "ok" if exit_code == _EXIT_OK else "verification_failure"
    except ChebdiskError as exc:
        payload, exit_code = {"error": str(exc)}, _EXIT_INPUT
        status = (
            "parse_error" if isinstance(exc, ParseError)
            else "precision_error" if isinstance(exc, PrecisionError)
            else "domain_error"
        )
    if tau is not None and tau.degraded:
        payload["degraded"] = True
    return CommandResult(status, payload, exit_code, args.format)


def render(result, fmt):
    document = {"status": result.status, "payload": result.payload}
    if fmt == "csv":
        header, rows = flatten_for_csv(
            result.payload if isinstance(result.payload, dict) else {"value": result.payload}
        )
        return render_csv(["status"] + list(header), [[result.status] + row for row in rows])
    return render_json(document) + "\n"


def main(argv=None):
    result = run(sys.argv[1:] if argv is None else argv)
    try:
        document = render(result, result.fmt)
    except DomainError as exc:
        # a payload holding NaN or an infinity has no document of its own
        payload = {"error": str(exc)}
        result = CommandResult("domain_error", payload, _EXIT_INPUT, result.fmt)
        document = render(result, result.fmt)
    sys.stdout.write(document)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
