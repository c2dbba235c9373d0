"""Output checker: every structured CLI output against an independent reference.

Generated cases carry closed forms from the generator.  Catalog entries are
checked against a hand-written table of exit codes and polytope-side values,
and against a sympy evaluation of the localization formula on the entry's own
data (sympy is used here only, never by the engine).  Roots are checked with
sympy: each bracket holds exactly one real root of the reference numerator
and is no wider than requested, every closed form is an exact root inside its
bracket, and the 18-digit decimal is the correctly rounded value.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import gen
from gen import p_eval, p_mul

DECIMAL_DIGITS = 18
DEFAULT_SAMPLES = 5

# verify exits 5 on the flagship data (weights off by a factor of two) and on
# the deliberately corrupted twin; every other call exits 0.
CATALOG_EXIT = {("verify", "hultgren-c"): 5, ("verify", "hultgren-c-corrupt"): 5}

# Polytope side of the catalog: the three hultgren entries share one toric
# model, whose scaled volumes are 56c-3 and 53-56c and whose barycenter sum is
# -6(112c^2-112c+23)/((56c-3)(56c-53)); cp1 is the segment [-1, 1], and
# cp1-coupled two copies of [-1/2, 1/2].
_F = Fraction
_HULTGREN_TORIC = (
    ((_F(-3), _F(56)), (_F(53), _F(-56))),
    ((_F(-138), _F(672), _F(-672)), (_F(159), _F(-3136), _F(3136))),
)
CATALOG_TORIC = {
    "hultgren-c": _HULTGREN_TORIC,
    "hultgren-c-true": _HULTGREN_TORIC,
    "hultgren-c-corrupt": _HULTGREN_TORIC,
    "cp1": (((_F(2),),), ((), (_F(1),))),
    "cp1-coupled": (((_F(1),), (_F(1),)), ((), (_F(1),))),
}


# ---------------------------------------------------------------------------
# parsing the engine's text forms

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(?:([a-z])(?:\^(\d+))?)?")


def parse_poly_text(text: str) -> tuple:
    """'112c^2-112c+23', '-3/14c^2+3/14c' or '0' as a coefficient tuple."""
    coeffs: dict[int, Fraction] = {}
    pos = 0
    text = text.strip()
    if text == "0":
        return ()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError("cannot read polynomial %r" % text)
        sign, num, var, exp = m.groups()
        co = Fraction(num) if num else Fraction(1)
        if sign == "-":
            co = -co
        deg = 0 if not var else (int(exp) if exp else 1)
        coeffs[deg] = coeffs.get(deg, Fraction(0)) + co
        pos = m.end()
    top = max(coeffs)
    return gen.p_trim(coeffs.get(i, Fraction(0)) for i in range(top + 1))


def parse_rf_text(text: str) -> tuple:
    """A RationalFunction.text() form: 'p' or '(p)/(q)'."""
    m = re.fullmatch(r"\((.*)\)/\((.*)\)", text.strip())
    if m:
        return parse_poly_text(m.group(1)), parse_poly_text(m.group(2))
    return parse_poly_text(text), (Fraction(1),)


def rf_equal(a: tuple, b: tuple) -> bool:
    return p_mul(a[0], b[1]) == p_mul(b[0], a[1])


def rf_eval(f: tuple, x: Fraction) -> Fraction | None:
    d = p_eval(f[1], x)
    return None if d == 0 else p_eval(f[0], x) / d


def default_grid(interval) -> list[Fraction]:
    lo, hi = interval
    n = DEFAULT_SAMPLES
    return [lo + Fraction(j, n + 1) * (hi - lo) for j in range(1, n + 1)]


# ---------------------------------------------------------------------------
# references for catalog entries


def sympy_localization(data: dict):
    """Equivariant volumes and invariant from raw scenario data, via sympy.

    Returns (volumes, invariant) in the checker's coefficient-tuple form.
    """
    import sympy as sp
    from sympy.parsing.sympy_parser import (convert_xor,
                                            implicit_multiplication_application,
                                            parse_expr, standard_transformations)

    param = data["parameter"]["name"]
    c = sp.Symbol(param)
    trans = standard_transformations + (implicit_multiplication_application,
                                        convert_xor)

    def expr(text):
        return parse_expr(str(text), local_dict={param: c},
                          transformations=trans)

    rings = {}
    for name, raw in data["rings"].items():
        gens = [sp.Symbol("g_" + g["name"]) for g in raw["generators"]]
        names = [g["name"] for g in raw["generators"]]
        top = [raw["top"].get(nm, 0) for nm in names]
        rings[name] = (gens, names, top, raw["dimension"])

    def nil(terms: dict, ring):
        gens, names, _, _ = ring
        total = sp.Integer(0)
        for key, val in terms.items():
            mono = sp.Integer(1)
            for piece in key.split("*"):
                nm, _, e = piece.partition("^")
                mono *= gens[names.index(nm.strip())] ** int(e or 1)
            total += expr(val) * mono
        return total

    m = data["dimension"]
    sums = {}
    for alpha in range(data["bundles"]):
        for p in (m, m + 1):
            total = sp.Integer(0)
            for comp in data["components"]:
                ring = rings[comp["ring"]]
                gens, _, top, dim = ring
                s = expr(comp["euler"]["scalar"])
                n = nil(comp["euler"].get("classes", {}), ring)
                inv = sum(((-1) ** j * n ** j / s ** (j + 1)
                           for j in range(dim + 1)), sp.Integer(0))
                b = comp["bundles"][alpha]
                u = expr(b["hamiltonian"])
                ch = nil(b.get("chern", {}), ring)
                power = sum((sp.binomial(p, j) * u ** (p - j) * ch ** j
                             for j in range(min(p, dim) + 1)), sp.Integer(0))
                integrand = sp.expand(power * inv)
                if gens:
                    mono = sp.Integer(1)
                    for g, e in zip(gens, top):
                        mono *= g ** e
                    integrand = sp.Poly(integrand, *gens).coeff_monomial(mono)
                total += integrand
            sums[alpha, p] = sp.cancel(total)
    volumes = []
    for alpha in range(data["bundles"]):
        num, den = _sympy_rf(sums[alpha, m], c)
        if den != (Fraction(1),):
            raise ValueError("bundle %d volume is not a polynomial" % alpha)
        volumes.append(num)
    inv_expr = sp.cancel(sum(sums[a, m + 1] / sums[a, m]
                             for a in range(data["bundles"])) / (m + 1))
    return tuple(volumes), _sympy_rf(inv_expr, c)


def _sympy_rf(e, c) -> tuple:
    import sympy as sp
    num, den = sp.fraction(sp.cancel(sp.together(e)))

    def coeffs(p):
        poly = sp.Poly(p, c, domain="QQ")
        return gen.p_trim(Fraction(int(x.p), int(x.q))
                          for x in reversed(poly.all_coeffs()))

    n, d = coeffs(num), coeffs(den)
    lead = d[-1]
    return gen.p_scale(n, 1 / lead), gen.p_scale(d, 1 / lead)


def fill_catalog_reference(case: gen.Case) -> None:
    """Attach sympy and hand-table references to a catalog case."""
    from coupledfut.catalog import load
    from coupledfut.scenario import scenario_to_dict

    scn = load(case.catalog)
    case.interval = scn.localization.interval
    data = scenario_to_dict(scn)
    volumes, invariant = sympy_localization(data)
    case.volumes = volumes
    case.invariant = invariant
    case.toric_volumes, case.toric_invariant = CATALOG_TORIC[case.catalog]


# ---------------------------------------------------------------------------
# per-subcommand checks; each returns a list of failure reasons


def expected_exit(cmd: str, case: gen.Case) -> int:
    return CATALOG_EXIT.get((cmd, case.catalog), 0)


def check_call(cmd: str, case: gen.Case, extra: list[str], rc: int,
               stdout: str) -> list[str]:
    want = expected_exit(cmd, case)
    if rc != want:
        return ["exit code %d, expected %d" % (rc, want)]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["structured output is not JSON"]
    try:
        return _CHECKS[cmd](case, extra, rc, payload)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return ["unreadable output: %r" % (exc,)]


def _check_volumes(got: list[str], want: tuple, label: str) -> list[str]:
    out = []
    if len(got) != len(want):
        return ["%s: %d entries, expected %d" % (label, len(got), len(want))]
    for i, (g, w) in enumerate(zip(got, want)):
        if not rf_equal(parse_rf_text(g), (w, (Fraction(1),))):
            out.append("%s[%d] = %s differs from the reference" % (label, i, g))
    return out


def _check_localize(case, extra, rc, payload) -> list[str]:
    out = _check_volumes(payload["volumes"], case.volumes, "volumes")
    inv = payload["invariant"]
    got = (parse_poly_text(inv["numerator"]), parse_poly_text(inv["denominator"]))
    if not rf_equal(got, case.invariant):
        out.append("invariant differs from the reference")
    return out


def _check_toric(case, extra, rc, payload) -> list[str]:
    out = _check_volumes(payload["scaled_volumes"], case.toric_volumes,
                         "scaled_volumes")
    inv = payload["invariant"]
    got = (parse_poly_text(inv["numerator"]), parse_poly_text(inv["denominator"]))
    if not rf_equal(got, case.toric_invariant):
        out.append("toric invariant differs from the reference")
    if payload["minkowski"] != "pass":
        out.append("minkowski status %r" % payload["minkowski"])
    return out


def _check_sample(case, extra, rc, payload) -> list[str]:
    out = []
    rows = payload["samples"]
    grid = default_grid(case.interval)
    if [Fraction(r["c"]) for r in rows] != grid:
        out.append("sample abscissae are not the default grid")
    for r in rows:
        want = rf_eval(case.invariant, Fraction(r["c"]))
        got = None if r["fut"] is None else Fraction(r["fut"])
        if got != want:
            out.append("value at %s is %s, expected %s" % (r["c"], got, want))
    return out


def _check_verify(case, extra, rc, payload) -> list[str]:
    out = []
    if payload["ok"] != (rc == 0):
        out.append("ok flag %r disagrees with exit code %d" % (payload["ok"], rc))
    if not payload["validation"]["ok"]:
        out.append("validation failed: %s" % payload["validation"]["messages"])
    out += _check_volumes(payload["volumes_localized"], case.volumes,
                          "volumes_localized")
    out += _check_volumes(payload["volumes_toric"], case.toric_volumes,
                          "volumes_toric")
    if not rf_equal(parse_rf_text(payload["invariant_localized"]),
                    case.invariant):
        out.append("localized invariant differs from the reference")
    if not rf_equal(parse_rf_text(payload["invariant_toric"]),
                    case.toric_invariant):
        out.append("toric invariant differs from the reference")
    grid = default_grid(case.interval)
    if [Fraction(r["at"]) for r in payload["samples"]] != grid:
        out.append("verify samples are not the default grid")
    for r in payload["samples"]:
        x = Fraction(r["at"])
        loc, tor = Fraction(r["localized"]), Fraction(r["toric"])
        if loc != rf_eval(case.invariant, x):
            out.append("localized value at %s differs" % r["at"])
        if tor != rf_eval(case.toric_invariant, x):
            out.append("toric value at %s differs" % r["at"])
        if r["equal"] != (loc == tor):
            out.append("equal flag at %s is wrong" % r["at"])
    if payload["minkowski"] != "pass":
        out.append("minkowski status %r" % payload["minkowski"])
    return out


def _check_roots(case, extra, rc, payload) -> list[str]:
    import sympy as sp

    width = Fraction(extra[extra.index("--root-width") + 1]) \
        if "--root-width" in extra else Fraction(1, 10 ** 12)
    out = []
    if Fraction(payload["width"]) != width:
        out.append("reported width %s, requested %s" % (payload["width"], width))
    lo, hi = case.interval
    num = case.invariant[0]
    records = payload["roots"]
    if not num:
        return out if not records else ["roots reported for a zero invariant"]
    c = sp.Symbol("c")
    poly = sp.Poly([sp.Rational(x.numerator, x.denominator)
                    for x in reversed(num)], c, domain="QQ")
    sqf = poly.sqf_part()
    expected = sqf.count_roots(_q(lo), _q(hi)) - sum(
        1 for e in (lo, hi) if sqf.eval(_q(e)) == 0)
    if len(records) != expected:
        out.append("%d roots reported, %d inside the interval"
                   % (len(records), expected))
    prev_hi = lo
    for i, rec in enumerate(records):
        a, b = Fraction(rec["lo"]), Fraction(rec["hi"])
        if not prev_hi <= a <= b or b - a > width:
            out.append("root %d: bracket [%s, %s] is misplaced or too wide"
                       % (i, rec["lo"], rec["hi"]))
            continue
        prev_hi = b
        if rec["exact"] is not None:
            x = Fraction(rec["exact"])
            if x != a or x != b or p_eval(num, x) != 0:
                out.append("root %d: %s is not an exact root" % (i, rec["exact"]))
                continue
            want = _round_fraction(x)
        else:
            if sqf.count_roots(_q(a), _q(b)) != 1:
                out.append("root %d: bracket does not hold exactly one root" % i)
                continue
            if rec["closed_form"] is not None:
                out += _check_surd(i, rec["closed_form"], poly, c, a, b)
            want = _round_bracketed(sqf, a, b)
        if rec["decimal"] != want:
            out.append("root %d: decimal %s, correctly rounded %s"
                       % (i, rec["decimal"], want))
        if rec["multiplicity"] != _multiplicity(poly, a, b):
            out.append("root %d: multiplicity %d is wrong"
                       % (i, rec["multiplicity"]))
    return out


def _q(x: Fraction):
    import sympy as sp
    return sp.Rational(x.numerator, x.denominator)


_SURD = re.compile(r"\((-?\d+)([+-])(?:(\d+)\*)?sqrt\((\d+)\)\)/(\d+)")


def _check_surd(i, text, poly, c, a, b) -> list[str]:
    import sympy as sp
    m = _SURD.fullmatch(text)
    if not m:
        return ["root %d: unreadable closed form %r" % (i, text)]
    p, sign, q, d, r = (int(x) if x and x not in "+-" else x
                        for x in m.groups())
    q = (q or 1) * (-1 if sign == "-" else 1)
    value = (p + q * sp.sqrt(d)) / sp.Integer(r)
    if sp.expand(poly.as_expr().subs(c, value)) != 0:
        return ["root %d: closed form %s is not a root" % (i, text)]
    if _surd_minus(p, q, d, r, a) < 0 or _surd_minus(p, q, d, r, b) > 0:
        return ["root %d: closed form %s lies outside its bracket" % (i, text)]
    return []


def _surd_minus(p: int, q: int, d: int, r: int, x: Fraction) -> int:
    """Sign of (p + q sqrt(d))/r - x for r > 0, in exact arithmetic."""
    t = r * x - p  # compare q sqrt(d) with t
    lhs = 1 if q > 0 else -1
    rhs = (t > 0) - (t < 0)
    if lhs != rhs:
        return lhs
    sq = q * q * d - t * t  # sign of |q sqrt(d)| - |t|
    return lhs * ((sq > 0) - (sq < 0))


def _round_fraction(x: Fraction) -> str:
    scaled = x * 10 ** DECIMAL_DIGITS
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled - n) >= 1:
        n += 1
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10 ** DECIMAL_DIGITS)
    return "%s%d.%0*d" % (sign, whole, DECIMAL_DIGITS, frac)


def _round_bracketed(sqf, a: Fraction, b: Fraction) -> str:
    """Correctly rounded decimal of the irrational root isolated in [a, b]."""
    import sympy as sp
    eps = 40
    while True:
        s, t = sqf.refine_root(_q(a), _q(b), eps=sp.Rational(1, 10 ** eps))
        lo_txt = _round_fraction(Fraction(int(s.p), int(s.q)))
        if lo_txt == _round_fraction(Fraction(int(t.p), int(t.q))):
            return lo_txt
        eps *= 2


def _multiplicity(poly, a: Fraction, b: Fraction) -> int:
    for factor, k in poly.sqf_list()[1]:
        if factor.count_roots(_q(a), _q(b)) > 0:
            return k
    return 0


_CHECKS = {
    "localize": _check_localize,
    "toric": _check_toric,
    "roots": _check_roots,
    "sample": _check_sample,
    "verify": _check_verify,
}
