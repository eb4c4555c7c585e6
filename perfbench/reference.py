"""Independent references and the output checks of every workload.

References come from mpmath at 30 digits: ``jtheta`` for theta values,
``ellipfun`` for the Jacobi functions and ``ellipk`` for moduli.  Nothing
here imports chebdisk; the tolerances are the ones the README and the
acceptance criteria state.  All of it runs after the timed phase.

``Checker.digits`` is the accuracy metric: the minimum over every checked
value of log10(tolerance / error), the error floored at 1e-17.
"""

import json
import math
import re
from fractions import Fraction
from itertools import permutations

import mpmath as mp

from inputs import BOUNDARY_POINTS, CD_ARGUMENTS, INTERIOR_POINTS

DPS = 30
ERR_FLOOR = 1e-17

TOL_THETA = 1e-11       # theta values, squared zeros b_i, sqrt(k): relative
TOL_PRODUCT = 1e-10     # |f| = 1 on the circle, both forms against the reference
TOL_ELLIPTIC = 1e-10
TOL_DESSIN = 1e-8
TOL_IDENTITY = 1e-10    # Landen residuals and left-hand sides
TOL_TRIG = 1e-6
TOL_CRITICAL = 1e-7     # relative to sqrt(k(n tau))
TOL_COEFFS = 1e-8
TOL_COMPOSE = 1e-9
TOL_EXACT = 1e-13       # closed-form quantities (moduli, lambda)

TRIG_TARGETS = {
    "n2_prod": Fraction(1, 2), "n3_prod": Fraction(3, 4), "n4_sum": Fraction(1),
    "n4_prod": Fraction(1, 8), "n5_sum": Fraction(5, 4), "n5_prod": Fraction(5, 16),
    "n6_e1": Fraction(3, 2), "n6_e2": Fraction(9, 16), "n6_prod": Fraction(1, 32),
}
# id -> (degree, index j of the elementary symmetric polynomial e_j(b))
IDENTITIES = {
    "n2_prod": (2, 1), "n3_prod": (3, 1), "n4_sum": (4, 1), "n4_prod": (4, 2),
    "n5_sum": (5, 1), "n5_prod": (5, 2), "n6_e1": (6, 1), "n6_e2": (6, 2),
    "n6_prod": (6, 3),
}
_JTHETA = {0: 4, 1: 1, 2: 2, 3: 3}


class Checker:
    """Collects failed checks and the accuracy metric."""

    def __init__(self):
        self.failures = []
        self.digits = math.inf
        self.worst = None

    def close(self, label, value, ref, tol, relative=True):
        """|value - ref| / max(1, |ref|) (or / |ref| when relative and
        |ref| < 1) must not exceed tol."""
        ref = mp.mpc(ref)
        scale = abs(ref) if relative and 0 < abs(ref) < 1 else max(1, abs(ref))
        err = float(abs(mp.mpc(complex(value)) - ref) / scale)
        if not err <= tol:
            self.failures.append(f"{label}: error {err:.3e} above {tol:.0e}")
        digits = math.log10(tol / max(err, ERR_FLOOR))
        if digits < self.digits:
            self.digits, self.worst = digits, label

    def true(self, label, condition):
        if not condition:
            self.failures.append(f"{label}: false")

    @property
    def ok(self):
        return not self.failures


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _nome(y):
    return mp.exp(-2 * mp.pi * mp.mpf(y))


def theta_ref(j, v, y):
    """theta_j(v, i y) under q = e^{2 pi i tau}, which is jtheta's nome."""
    with mp.workdps(DPS):
        return mp.jtheta(_JTHETA[j], mp.mpmathify(v), _nome(y))


def sqrt_k_ref(y):
    with mp.workdps(DPS):
        return theta_ref(2, 0, y) / theta_ref(3, 0, y)


def b_ref(n, y):
    """Squared zeros theta2^2/theta3^2 at (2i-1) pi / 2n, i = 1..n//2."""
    with mp.workdps(DPS):
        out = []
        for i in range(1, n // 2 + 1):
            v = (2 * i - 1) * mp.pi / (2 * n)
            out.append((theta_ref(2, v, y) / theta_ref(3, v, y)) ** 2)
        return out


def elementary_ref(b):
    e = [mp.mpf(1)] + [mp.mpf(0)] * len(b)
    for bi in b:
        for j in range(len(b), 0, -1):
            e[j] += bi * e[j - 1]
    return e[1:]


def f_ref(n, b, z):
    with mp.workdps(DPS):
        z = mp.mpc(complex(z))
        val = z ** (n % 2)
        for bi in b:
            val *= (z * z - bi) / (1 - bi * z * z)
        return val


def derivatives_ref(n, b, top):
    """f^{(i)}(0), i = 0..top, from the power series of the product."""
    with mp.workdps(DPS):
        num = [mp.mpf(1)]
        den = [mp.mpf(1)]
        for bi in b:
            num = _poly_mul(num, [-bi, 0, 1])
            den = _poly_mul(den, [1, 0, -bi])
        num = [mp.mpf(0)] * (n % 2) + num
        series = []
        for k in range(top + 1):
            acc = num[k] if k < len(num) else mp.mpf(0)
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * series[k - j]
            series.append(acc / den[0])
        return [mp.factorial(k) * c for k, c in enumerate(series)]


def _poly_mul(p, q):
    out = [mp.mpf(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, c in enumerate(q):
            out[i + j] += a * c
    return out


def cd_ref(u, y):
    """cd(u) = cn/dn from mpmath's own Jacobi functions at nome e^{-2 pi y}."""
    with mp.workdps(DPS):
        q = _nome(y)
        return mp.ellipfun("cn", u, q=q) / mp.ellipfun("dn", u, q=q)


def grotzsch_ref(t):
    with mp.workdps(DPS):
        t = mp.mpf(t)
        return mp.ellipk(1 - t * t) / (4 * mp.ellipk(t * t))


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def check_tabulate(item, out, chk):
    n, y = item["n"], item["y"]
    where = f"tabulate n={n} y={y!r}"
    b = b_ref(n, y)
    chk.true(f"{where} b count", len(out["b"]) == len(b))
    for i, (got, ref) in enumerate(zip(out["b"], b)):
        chk.close(f"{where} b_{i + 1}", got, ref, TOL_THETA)
    points = BOUNDARY_POINTS + INTERIOR_POINTS
    for k, z in enumerate(points):
        ref = f_ref(n, b, z)
        chk.close(f"{where} product z={z:.3f}", out["product"][k], ref, TOL_PRODUCT, False)
        chk.close(f"{where} expanded z={z:.3f}", out["expanded"][k], ref, TOL_PRODUCT, False)
        if k < len(BOUNDARY_POINTS):
            chk.close(f"{where} |f|=1 z={z:.3f}", abs(out["product"][k]), 1, TOL_PRODUCT)
        else:
            chk.true(f"{where} |f|<1 z={z:.3f}", abs(out["product"][k]) < 1.0)
    for u, got in zip(CD_ARGUMENTS, out["cd"]):
        chk.close(f"{where} cd({u})", got, cd_ref(u, y), TOL_ELLIPTIC)
    chk.close(f"{where} dessin size", out["dessin_size"], mp.mpf(y) / 4, TOL_DESSIN, False)
    e = elementary_ref(b)
    ids = sorted(i for i, (deg, _) in IDENTITIES.items() if deg == n)
    chk.true(f"{where} landen ids", [r[0] for r in out["landen"]] == ids)
    for identity_id, lhs, residual in out["landen"]:
        chk.close(f"{where} {identity_id} lhs", lhs, e[IDENTITIES[identity_id][1] - 1],
                  TOL_IDENTITY)
        chk.close(f"{where} {identity_id} residual", residual, 0, TOL_IDENTITY, False)


def check_critical(item, out, chk):
    n, y = item["n"], item["y"]
    where = f"critical n={n} y={y!r}"
    s = sqrt_k_ref(n * y)
    values = out["values"]
    expected = [-s] if n == 2 else [-s, s]
    chk.true(f"{where} count {len(values)}", len(values) == len(expected))
    for got, ref in zip(values, expected):
        chk.close(f"{where} value", got, ref, TOL_CRITICAL)


def check_verify(item, out, chk):
    criteria = out["criteria"]
    chk.true("verify: eleven criteria", [c[0] for c in criteria] == list(range(1, 12)))
    for number, passed, worst, tolerance in criteria:
        chk.true(f"verify seed={item['suite_seed']} criterion {number} passes", passed)
        if tolerance > 0:
            chk.close(f"verify criterion {number} worst", worst, 0, tolerance, False)


# ---------------------------------------------------------------------------
# CLI documents
# ---------------------------------------------------------------------------

def _arg(argv, name):
    for k, tok in enumerate(argv):
        if tok == name:
            return argv[k + 1]
        if tok.startswith(name + "="):
            return tok.split("=", 1)[1]
    return None


def _cpx_arg(text):
    parts = [float(p) for p in text.split(",")]
    return complex(parts[0], parts[1] if len(parts) > 1 else 0.0)


def _cpx(obj):
    return complex(obj["re"], obj["im"])


def _perm_arg(text, n=0):
    """One-line images, from one-line or disjoint-cycle text, on max(n, points) points."""
    if "(" not in text:
        images = [int(x) for x in text.split()]
        return images + list(range(len(images) + 1, n + 1))
    cycles = [[int(x) for x in c.split()] for c in re.findall(r"\(([^)]*)\)", text)]
    images = list(range(1, max([n] + [p for c in cycles for p in c]) + 1))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            images[p - 1] = cyc[(i + 1) % len(cyc)]
    return images


def _cycles(images):
    seen, count = set(), 0
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        count += 1
        p = start
        while p not in seen:
            seen.add(p)
            p = images[p - 1]
    return count


def _transitive(s1, s2):
    seen, todo = {1}, [1]
    while todo:
        p = todo.pop()
        for s in (s1, s2):
            if s[p - 1] not in seen:
                seen.add(s[p - 1])
                todo.append(s[p - 1])
    return len(seen) == len(s1)


def _equivalent(s1, s2, o1, o2):
    n = len(s1)
    for iota in permutations(range(1, n + 1)):
        if all(iota[s[i] - 1] == o[iota[i] - 1] for s, o in ((s1, o1), (s2, o2))
               for i in range(n)):
            return True
    return False


def check_cli(item, text, chk):
    """Check one CLI document against the references for its arguments."""
    argv = item["argv"]
    where = "cli " + " ".join(argv)
    try:
        doc = json.loads(text)
    except ValueError:
        chk.true(f"{where}: JSON parses", False)
        return
    chk.true(f"{where}: status ok", doc.get("status") == "ok")
    p = doc.get("payload", {})
    cmd = tuple(argv[:2]) if argv[0] in ("cb", "monodromy", "modulus", "landen") else (argv[0],)
    y = _arg(argv, "--tau-im")
    y = float(y) if y is not None else None
    n = _arg(argv, "--n")
    n = int(n) if n is not None else None
    if cmd == ("theta",):
        ref = theta_ref(int(_arg(argv, "--j")), _cpx_arg(_arg(argv, "--v")), y)
        chk.close(f"{where} value", complex(p["re"], p["im"]), ref, TOL_THETA)
    elif cmd == ("elliptic",):
        u = _cpx_arg(_arg(argv, "--v")).real
        with mp.workdps(DPS):
            q = _nome(y)
            sn, cn, dn = (mp.ellipfun(k, u, q=q) for k in ("sn", "cn", "dn"))
            t2, t3 = theta_ref(2, 0, y), theta_ref(3, 0, y)
        for key, ref in (("omega1", t3**2), ("k", (t2 / t3) ** 2), ("sqrt_k", t2 / t3),
                         ("sn", sn), ("cn", cn), ("dn", dn), ("cd", cn / dn)):
            chk.close(f"{where} {key}", _cpx(p[key]), ref, TOL_ELLIPTIC)
    elif cmd[0] == "cb" and cmd[1] in ("build", "eval", "coeffs", "critical"):
        b = b_ref(n, y)
        S = elementary_ref(b)
        if cmd[1] == "build":
            record = json.loads(p["record"])
            chk.true(f"{where} record", record["b"] == p["b"] and record["S"] == p["S"])
            for got, ref in zip(p["b"], b):
                chk.close(f"{where} b", got, ref, TOL_THETA)
            for got, ref in zip(p["S"], S):
                chk.close(f"{where} S", got, ref, TOL_THETA)
            chk.true(f"{where} lengths", len(p["b"]) == len(p["S"]) == n // 2)
        elif cmd[1] == "eval":
            ref = f_ref(n, b, _cpx_arg(_arg(argv, "--z")))
            chk.close(f"{where} product", _cpx(p["product"]), ref, TOL_PRODUCT, False)
            chk.close(f"{where} expanded", _cpx(p["expanded"]), ref, TOL_PRODUCT, False)
        elif cmd[1] == "coeffs":
            for got, ref in zip(p["S"], S):
                chk.close(f"{where} S", got, ref, TOL_THETA)
            for got, ref in zip(p["S_derivative_route"], S):
                chk.close(f"{where} S derivative route", got, ref, TOL_COEFFS)
            chk.close(f"{where} residual", p["cross_check_residual"], 0, TOL_COEFFS, False)
        else:
            s = sqrt_k_ref(n * y)
            chk.close(f"{where} sqrt_k_ntau", p["sqrt_k_ntau"], s, TOL_THETA)
            expected = [-s] if n == 2 else [-s, s]
            chk.true(f"{where} count", len(p["values"]) == len(expected))
            for got, ref in zip(p["values"], expected):
                chk.close(f"{where} value", _cpx(got), ref, TOL_CRITICAL)
    elif cmd == ("cb", "derivs"):
        refs = derivatives_ref(n, b_ref(n, y), int(_arg(argv, "--order")))
        chk.true(f"{where} orders", p["orders"] == list(range(len(refs))))
        for order, (got, ref) in enumerate(zip(p["values"], refs)):
            chk.close(f"{where} f^({order})(0)", _cpx(got), ref, TOL_COEFFS)
    elif cmd == ("cb", "modulus"):
        chk.close(f"{where} lambda", p["lambda"], n * mp.pi * mp.mpf(y) / 4, TOL_EXACT)
        chk.close(f"{where} normalized", p["normalized_modulus"], n * mp.mpf(y) / 4, TOL_EXACT)
    elif cmd == ("cb", "compose"):
        chk.close(f"{where} deviation", p["max_deviation"], 0, TOL_COMPOSE, False)
        chk.true(f"{where} fields", (p["m"], p["n"]) == (int(_arg(argv, "--m")), n))
    elif cmd == ("monodromy", "analyze"):
        texts = _arg(argv, "--sigma1"), _arg(argv, "--sigma2")
        size = max(len(_perm_arg(t)) for t in texts)
        s1, s2 = (_perm_arg(t, size) for t in texts)
        c1, c2 = _cycles(s1), _cycles(s2)
        c3 = _cycles([s2[s1[i] - 1] for i in range(len(s1))])
        transitive = _transitive(s1, s2)
        chk.true(f"{where} counts", (p["c1"], p["c2"], p["c3"], p["transitive"])
                 == (c1, c2, c3, transitive))
        if transitive:
            chk.true(f"{where} chi", p["euler_characteristic_disk"] == c1 + c2 - len(s1))
            chk.true(f"{where} tree", p["tree"] == (c1 + c2 == len(s1) + 1))
    elif cmd == ("monodromy", "equiv"):
        perms = [_perm_arg(_arg(argv, k), n) for k in
                 ("--sigma1", "--sigma2", "--other-sigma1", "--other-sigma2")]
        chk.true(f"{where} equivalent", p["equivalent"] == _equivalent(*perms))
    elif cmd == ("monodromy", "chebyshev"):
        chk.true(f"{where} dessin", p["tree"] and p["dessin"] == {"vertices": n + 1, "edges": n})
    elif cmd == ("modulus", "annulus"):
        r = float(_arg(argv, "--r"))
        chk.close(f"{where} modulus", p["modulus"], mp.log(1 / mp.mpf(r)) / (2 * mp.pi),
                  TOL_EXACT)
    elif cmd == ("modulus", "grotzsch"):
        chk.close(f"{where} modulus", p["modulus"], grotzsch_ref(float(_arg(argv, "--t"))),
                  TOL_EXACT)
    elif cmd == ("modulus", "geodesic"):
        a, b = _cpx_arg(_arg(argv, "--a")), _cpx_arg(_arg(argv, "--b"))
        with mp.workdps(DPS):
            a, b = mp.mpc(a), mp.mpc(b)
            d = abs((b - a) / (1 - mp.conj(a) * b))
            chk.close(f"{where} distance", p["pseudo_hyperbolic_distance"], d, TOL_EXACT)
            chk.close(f"{where} poincare", p["poincare_distance"], mp.log((1 + d) / (1 - d)),
                      TOL_EXACT)
            chk.close(f"{where} modulus", p["modulus"], grotzsch_ref(d), TOL_EXACT)
    elif cmd == ("modulus", "dessin-size"):
        chk.close(f"{where} size", p["dessin_size"], mp.mpf(y) / 4, TOL_DESSIN, False)
        chk.true(f"{where} expected", p["expected"] == y / 4.0)
    elif cmd == ("landen", "verify"):
        identity_id = _arg(argv, "--id")
        deg, j = IDENTITIES[identity_id]
        chk.close(f"{where} lhs", _cpx(p["lhs"]), elementary_ref(b_ref(deg, y))[j - 1],
                  TOL_IDENTITY)
        chk.close(f"{where} residual", p["residual"], 0, TOL_IDENTITY, False)
        chk.true(f"{where} pass", p["pass"])
    elif cmd == ("landen", "limit"):
        identity_id = _arg(argv, "--id")
        deg, j = IDENTITIES[identity_id]
        y_large = float(_arg(argv, "--y-large"))
        with mp.workdps(DPS):
            ref = elementary_ref(b_ref(deg, y_large))[j - 1] / sqrt_k_ref(y_large) ** (2 * j)
        chk.close(f"{where} lhs", _cpx(p["lhs"]), ref, TOL_IDENTITY)
        target = TRIG_TARGETS[identity_id]
        chk.close(f"{where} target", _cpx(p["lhs"]),
                  mp.mpf(target.numerator) / target.denominator, TOL_TRIG)
    elif cmd == ("landen", "all"):
        records = p["records"]
        chk.true(f"{where} all passed", p["all_passed"] and len(records) == 63)
        for rec in records:
            chk.close(f"{where} {rec['identity_id']}", rec["residual"], 0, rec["tolerance"], False)
    else:
        chk.true(f"{where}: no check for this command", False)
