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


def _all_passed(records):
    ok = all(r["pass"] for r in records)
    return {"records": records, "all_passed": ok}, ok


def _dessin(rep):
    stats = monodromy.dessin_stats(rep)
    return {"vertices": stats.vertices, "edges": stats.edges}


# ---------------------------------------------------------------------------
# command handlers: each returns its payload, or (payload, passed) if it verifies
# ---------------------------------------------------------------------------

def _cmd_theta(args, tau):
    return _cpx(theta(args.j, parse_complex(args.v), tau))


def _cmd_elliptic(args, tau):
    ctx = EllipticContext(tau)
    u = parse_complex(args.v)
    return {
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


def _cmd_cb_build(args, cb):
    return {
        "parity": cb.parity,
        "b": list(cb.b),
        "S": list(cb.S),
        "record": products.serialize(cb),
    }


def _cmd_cb_eval(args, cb):
    z = parse_complex(args.z)
    fz_product = products.eval_product(cb, z)
    fz_expanded = products.eval_expanded(cb, z)
    return {
        "z": _cpx(z),
        "product": fz_product,
        "expanded": fz_expanded,
        "agreement": abs(fz_product - fz_expanded),
    }


def _cmd_cb_coeffs(args, cb):
    if any(s < sys.float_info.min for s in cb.S):
        raise PrecisionError(
            f"S underflows double range (smallest {min(cb.S)}); no relative cross-check"
        )
    s_der = products.coefficients_from_derivatives(cb.n, cb.tau)
    residual = max(abs(a - b) / abs(a) for a, b in zip(cb.S, s_der))
    if not residual <= products.COEFFICIENT_TOLERANCE:
        raise PrecisionError(
            f"derivative-route coefficients miss S by relative {residual:.3e}, "
            f"beyond {products.COEFFICIENT_TOLERANCE}"
        )
    return {
        "S": list(cb.S),
        "S_derivative_route": [float(x) for x in s_der],
        "cross_check_residual": residual,
    }


def _cmd_cb_derivs(args, cb):
    return {
        "orders": list(range(args.order + 1)),
        "values": products.derivatives_at_zero(cb, args.order),
    }


def _cmd_cb_critical(args, cb):
    return {
        "values": list(products.critical_values(cb)),
        "sqrt_k_ntau": sqrt_k(cb.nctx).real,
    }


def _cmd_cb_modulus(args, cb):
    return {
        "lambda": products.modulus_lambda(cb),
        "normalized_modulus": products.normalized_modulus(cb),
    }


def _cmd_cb_compose(args, tau):
    return products.compose_check(args.m, args.n, tau)


def _parse_rep(sigma1_text, sigma2_text, n):
    texts = (sigma1_text, sigma2_text)
    if n is None:
        n = max(monodromy.parse_permutation(t).n for t in texts)
    return monodromy.MonodromyRep(n, *(monodromy.parse_permutation(t, n) for t in texts))


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
            payload["dessin"] = _dessin(rep)
    return payload


def _cmd_monodromy_equiv(args):
    rep1 = _parse_rep(args.sigma1, args.sigma2, args.n)
    rep2 = _parse_rep(args.other_sigma1, args.other_sigma2, args.n or rep1.n)
    return {"n": rep1.n, "equivalent": monodromy.are_equivalent(rep1, rep2)}


def _cmd_monodromy_chebyshev(args):
    rep = monodromy.chebyshev_monodromy(args.n)
    return {
        "n": rep.n,
        "sigma1": rep.sigma1.to_cycle_string(),
        "sigma2": rep.sigma2.to_cycle_string(),
        "tree": True,
        "dessin": _dessin(rep),
    }


def _cmd_modulus_annulus(args):
    return {"r": args.r, "modulus": modulus.annulus_modulus(args.r)}


def _cmd_modulus_grotzsch(args):
    return {"t": args.t, "modulus": modulus.grotzsch_modulus(args.t)}


def _cmd_modulus_geodesic(args):
    a = parse_complex(args.a)
    b = parse_complex(args.b)
    seg = modulus.GeodesicSegment(a, b)
    return {
        "a": _cpx(a),
        "b": _cpx(b),
        "pseudo_hyperbolic_distance": modulus.pseudo_hyperbolic_distance(a, b),
        "poincare_distance": modulus.poincare_distance(a, b),
        "modulus": modulus.disk_minus_geodesic_modulus(seg),
    }


def _cmd_modulus_dessin_size(args, cb):
    return {
        "dessin_size": modulus.dessin_size(cb),
        "expected": cb.tau.value.imag / 4.0,
    }


def _cmd_landen_verify(args, tau):
    rep = landen.verify_identity(args.id, tau)
    return _report_payload(rep), rep.passed


def _cmd_landen_limit(args):
    rep = landen.trig_limit(args.id, args.y_large)
    return _report_payload(rep), rep.passed


def _cmd_landen_all(args):
    reports = landen.run_catalog() + landen.run_trig_limits()
    return _all_passed([_report_payload(r) for r in reports])


def _cmd_verify_all(args):
    # imported here: no other command needs the criteria
    from . import acceptance

    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    results = acceptance.run_all(seed=seed)
    for r in results:
        print(f"{r.line()} [{r.seconds * 1e3:.1f} ms]", file=sys.stderr)
    return _all_passed([
        {
            "criterion": r.number,
            "name": r.name,
            "pass": r.passed,
            "worst": r.worst,
            "tolerance": r.tolerance,
            "detail": r.detail,
        }
        for r in results
    ])


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _command(group, name, handler, takes=None, **kwargs):
    """Subcommand `name` run as handler(args), or with tau (takes="tau") or the
    degree-n product (takes="cb") as well; either of the last two adds --tau-im."""
    p = group.add_parser(name, **kwargs)
    if takes:
        p.add_argument("--tau-im", type=float, help="Im(tau) for tau on the imaginary axis")
    p.set_defaults(handler=handler, takes=takes)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chebdisk",
        description="Chebyshev-Blaschke products, theta kernels, dessin moduli",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "theta", _cmd_theta, "tau", help="evaluate a Jacobi theta function")
    p.add_argument("--j", type=int, required=True, choices=(0, 1, 2, 3))
    p.add_argument("--v", default="0", help="argument as re or re,im")
    p.add_argument("--tau", help="complex tau as re,im")
    p = _command(
        sub, "elliptic", _cmd_elliptic, "tau", help="sn/cn/dn/cd and derived quantities"
    )
    p.add_argument("--v", default="0", help="elliptic argument u as re or re,im")
    p.add_argument("--tau", help="complex tau as re,im")

    cb = sub.add_parser("cb", help="Chebyshev-Blaschke products").add_subparsers(
        dest="cb_command", required=True
    )
    for name, handler in (
        ("build", _cmd_cb_build),
        ("eval", _cmd_cb_eval),
        ("coeffs", _cmd_cb_coeffs),
        ("derivs", _cmd_cb_derivs),
        ("critical", _cmd_cb_critical),
        ("modulus", _cmd_cb_modulus),
        ("compose", _cmd_cb_compose),
    ):
        p = _command(cb, name, handler, "tau" if name == "compose" else "cb")
        p.add_argument("--n", type=int, required=True)
        if name == "compose":
            p.add_argument("--m", type=int, required=True)
        if name == "eval":
            p.add_argument("--z", required=True, help="evaluation point re,im")
        if name == "derivs":
            p.add_argument("--order", type=int, default=5)

    mono = sub.add_parser("monodromy", help="permutation-pair analysis").add_subparsers(
        dest="monodromy_command", required=True
    )
    p = _command(mono, "analyze", _cmd_monodromy_analyze)
    p.add_argument("--sigma1", required=True, help='cycles "(1 2)(3 4)" or one-line "2 1 4 3"')
    p.add_argument("--sigma2", required=True)
    p.add_argument("--n", type=int, help="degree (default: largest point mentioned)")
    p = _command(mono, "equiv", _cmd_monodromy_equiv)
    p.add_argument("--sigma1", required=True)
    p.add_argument("--sigma2", required=True)
    p.add_argument("--other-sigma1", required=True)
    p.add_argument("--other-sigma2", required=True)
    p.add_argument("--n", type=int)
    p = _command(mono, "chebyshev", _cmd_monodromy_chebyshev)
    p.add_argument("--n", type=int, required=True)

    mod = sub.add_parser("modulus", help="conformal moduli").add_subparsers(
        dest="modulus_command", required=True
    )
    p = _command(mod, "annulus", _cmd_modulus_annulus)
    p.add_argument("--r", type=float, required=True)
    p = _command(mod, "grotzsch", _cmd_modulus_grotzsch)
    p.add_argument("--t", type=float, required=True)
    p = _command(mod, "geodesic", _cmd_modulus_geodesic)
    p.add_argument("--a", required=True, help="endpoint re,im")
    p.add_argument("--b", required=True, help="endpoint re,im")
    p = _command(mod, "dessin-size", _cmd_modulus_dessin_size, "cb")
    p.add_argument("--n", type=int, required=True)

    lan = sub.add_parser("landen", help="Landen-type identity checks").add_subparsers(
        dest="landen_command", required=True
    )
    p = _command(lan, "verify", _cmd_landen_verify, "tau")
    p.add_argument("--id", required=True, choices=sorted(landen.CATALOG))
    p = _command(lan, "limit", _cmd_landen_limit)
    p.add_argument("--id", required=True, choices=sorted(landen.CATALOG))
    p.add_argument("--y-large", type=float, default=landen.Y_LARGE)
    _command(lan, "all", _cmd_landen_all)

    p = _command(sub, "verify-all", _cmd_verify_all, help="run the acceptance criteria")
    p.add_argument("--seed", type=int)

    return parser


def run(argv):
    """Execute one invocation; returns a CommandResult without printing.

    The only place that reads tau, builds the product (whose commands' payloads
    start with "n", "tau_im") and sets status and exit code.  Every payload at
    a degraded tau, ok or error, ends with "degraded": true.
    """
    args = build_parser().parse_args(argv)
    tau = None
    try:
        if args.takes is None:
            out = args.handler(args)
        else:
            tau = _tau_from(args)
            if args.takes == "tau":
                out = args.handler(args, tau)
            else:
                cb = products.build(args.n, tau)
                out = {"n": cb.n, "tau_im": tau.value.imag, **args.handler(args, cb)}
        payload, passed = out if isinstance(out, tuple) else (out, True)
        status = "ok" if passed else "verification_failure"
        exit_code = _EXIT_OK if passed else _EXIT_VERIFY
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
        header, rows = flatten_for_csv(result.payload)
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
