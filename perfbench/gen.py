"""Seeded scenario generator for the benchmark's toric ladders.

Every scenario is built from one Delzant polytope per bundle and a direction
xi, following Duistermaat-Heckman / Atiyah-Bott-Berline-Vergne localization:
fixed points are vertices, tangent weights are primitive edge vectors paired
with xi, the Euler scalar is the product of the weights, and the Hamiltonian
is <v, xi>.  Where xi_i = 0 on a box, the fixed components are (CP^1)^j
faces, each factor carrying the Chern class (lo_i + hi_i) h_i.

The generator uses only the standard library (no coupledfut import), and
every case carries its own closed-form reference:

* box volume prod(lo_i + hi_i), simplex volume L^n / n!;
* the invariant, the sum over bundles of the barycenter along xi.

Polynomials in the parameter are tuples of Fractions, lowest degree first.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

PARAM = "c"
Poly = tuple  # tuple[Fraction, ...], lowest degree first


# ---------------------------------------------------------------------------
# polynomial helpers over Fraction


def p_trim(p) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def p_const(x) -> Poly:
    return p_trim((Fraction(x),))


def p_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return p_trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n))


def p_scale(a: Poly, q) -> Poly:
    return p_trim(x * q for x in a)


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return p_trim(out)


def p_eval(a: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for co in reversed(a):
        acc = acc * x + co
    return acc


def p_text(a: Poly) -> str:
    """Expression text the scenario parser reads, e.g. '3/2*c^3-2*c+1/4'."""
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        co = a[i]
        if co == 0:
            continue
        sign = "-" if co < 0 else ("+" if parts else "")
        mag = abs(co)
        num = str(mag.numerator) if mag.denominator == 1 else "%d/%d" % (
            mag.numerator, mag.denominator)
        if i == 0:
            body = num
        else:
            var = PARAM if i == 1 else "%s^%d" % (PARAM, i)
            body = var if mag == 1 else "%s*%s" % (num, var)
        parts.append(sign + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# cases


@dataclass
class Case:
    """One scenario plus its closed-form reference.

    For a catalog entry, data is None and the references are filled in by the
    checker.  volumes are the equivariant volumes m! * vol per bundle; the
    invariant is a (numerator, denominator) pair.
    """

    name: str
    interval: tuple[Fraction, Fraction]
    data: dict | None = None
    catalog: str | None = None
    volumes: tuple[Poly, ...] = ()
    invariant: tuple[Poly, Poly] = ((), (Fraction(1),))
    toric_volumes: tuple[Poly, ...] = ()
    toric_invariant: tuple[Poly, Poly] = ((), (Fraction(1),))

    def source_args(self, scenario_dir: str) -> list[str]:
        if self.catalog is not None:
            return ["--catalog", self.catalog]
        return ["--scenario", "%s/%s.json" % (scenario_dir, self.name)]


def _interval_data(interval) -> list[str]:
    return [str(interval[0]), str(interval[1])]


def _ring(j: int) -> tuple[str, dict]:
    if j == 0:
        return "point", {"generators": [], "top": {}, "dimension": 0}
    gens = [{"name": "h%d" % i, "order": 2, "degree": 2} for i in range(j)]
    return "cp1x%d" % j, {"generators": gens,
                          "top": {g["name"]: 1 for g in gens},
                          "dimension": j}


def box_case(name: str, xi: list[int], offsets, interval,
             toric: bool) -> Case:
    """(CP^1)^n with one box prod [-lo_i, hi_i] per bundle.

    offsets[alpha][i] = (lo_i, hi_i), each a Poly in the parameter.
    """
    n = len(xi)
    bundles = len(offsets)
    zero = [i for i in range(n) if xi[i] == 0]
    moving = [i for i in range(n) if xi[i] != 0]
    ring_name, ring = _ring(len(zero))
    gen_of = {i: "h%d" % k for k, i in enumerate(zero)}
    components = []
    for signs in _sign_vectors(len(moving)):
        euler = 1
        for s, i in zip(signs, moving):
            euler *= s * xi[i]
        restrictions = []
        for alpha in range(bundles):
            ham: Poly = ()
            for s, i in zip(signs, moving):
                lo, hi = offsets[alpha][i]
                ham = p_add(ham, p_scale(hi if s > 0 else p_scale(lo, -1),
                                         xi[i]))
            chern = {gen_of[i]: p_text(p_add(*offsets[alpha][i]))
                     for i in zero}
            restrictions.append({"hamiltonian": p_text(ham), "chern": chern})
        label = "".join("+" if s > 0 else "-" for s in signs) or "face"
        components.append({
            "label": "v" + label,
            "ring": ring_name,
            "codimension": len(moving),
            "euler": {"scalar": str(euler), "classes": {}},
            "bundles": restrictions,
        })
    data = {
        "name": name,
        "description": "generated (CP^1)^%d, %d zero direction entries"
                       % (n, len(zero)),
        "note": "",
        "dimension": n,
        "bundles": bundles,
        "parameter": {"name": PARAM, "interval": _interval_data(interval)},
        "rings": {ring_name: ring},
        "components": components,
    }
    fact = math.factorial(n)
    volumes = []
    invariant: Poly = ()
    for alpha in range(bundles):
        vol = p_const(1)
        for i in range(n):
            lo, hi = offsets[alpha][i]
            vol = p_mul(vol, p_add(lo, hi))
            invariant = p_add(invariant, p_scale(p_add(hi, p_scale(lo, -1)),
                                                 Fraction(xi[i], 2)))
        volumes.append(p_scale(vol, fact))
    if toric:
        polys = []
        for alpha in range(bundles):
            polys.append(_box_polytope(n, offsets[alpha]))
        total = [(_sum_polys(offsets[a][i][0] for a in range(bundles)),
                  _sum_polys(offsets[a][i][1] for a in range(bundles)))
                 for i in range(n)]
        data["toric"] = {"ambient": n, "direction": list(xi),
                         "polytopes": polys,
                         "anticanonical": _box_polytope(n, total)}
    inv = (invariant, (Fraction(1),))
    return Case(name, interval, data=data, volumes=tuple(volumes),
                invariant=inv, toric_volumes=tuple(volumes),
                toric_invariant=inv)


def _sum_polys(polys) -> Poly:
    total: Poly = ()
    for p in polys:
        total = p_add(total, p)
    return total


def _sign_vectors(k: int):
    if k == 0:
        yield ()
        return
    for rest in _sign_vectors(k - 1):
        yield rest + (-1,)
        yield rest + (1,)


def _box_polytope(n: int, offs) -> dict:
    facets = []
    for i in range(n):
        lo, hi = offs[i]
        e = [0] * n
        e[i] = 1
        facets.append({"normal": e, "offset": p_text(hi)})
        facets.append({"normal": [-x for x in e], "offset": p_text(lo)})
    return {"facets": facets}


def simplex_case(name: str, xi: list[int], offsets, interval) -> Case:
    """CP^n with one simplex {-y_i <= a_i, sum y_i <= b} per bundle.

    offsets[alpha] = (a_1..a_n, b); xi needs distinct nonzero entries.
    """
    n = len(xi)
    bundles = len(offsets)
    components = []
    # vertex 0 is (-a_1..-a_n); vertex j adds L e_j, L = b + sum a_i
    eulers = [math.prod(-x for x in xi)]
    for j in range(n):
        eulers.append(xi[j] * math.prod(xi[j] - xi[k]
                                        for k in range(n) if k != j))
    hams = [[] for _ in range(n + 1)]
    volumes = []
    invariant: Poly = ()
    for alpha in range(bundles):
        a, b = offsets[alpha]
        length = p_add(b, _sum_polys(a))
        base: Poly = ()
        for i in range(n):
            base = p_add(base, p_scale(a[i], -xi[i]))
        hams[0].append(base)
        for j in range(n):
            hams[j + 1].append(p_add(base, p_scale(length, xi[j])))
        vol = p_const(1)
        for _ in range(n):
            vol = p_mul(vol, length)
        volumes.append(vol)  # n! * L^n / n!
        invariant = p_add(invariant, p_add(
            base, p_scale(length, Fraction(sum(xi), n + 1))))
    for v in range(n + 1):
        components.append({
            "label": "v%d" % v,
            "ring": "point",
            "codimension": n,
            "euler": {"scalar": str(eulers[v]), "classes": {}},
            "bundles": [{"hamiltonian": p_text(h), "chern": {}}
                        for h in hams[v]],
        })
    polys = [_simplex_polytope(n, *offsets[alpha]) for alpha in range(bundles)]
    anti_a = [_sum_polys(offsets[al][0][i] for al in range(bundles))
              for i in range(n)]
    anti_b = _sum_polys(offsets[al][1] for al in range(bundles))
    data = {
        "name": name,
        "description": "generated CP^%d" % n,
        "note": "",
        "dimension": n,
        "bundles": bundles,
        "parameter": {"name": PARAM, "interval": _interval_data(interval)},
        "rings": {"point": {"generators": [], "top": {}, "dimension": 0}},
        "components": components,
        "toric": {"ambient": n, "direction": list(xi), "polytopes": polys,
                  "anticanonical": _simplex_polytope(n, anti_a, anti_b)},
    }
    inv = (invariant, (Fraction(1),))
    return Case(name, interval, data=data, volumes=tuple(volumes),
                invariant=inv, toric_volumes=tuple(volumes),
                toric_invariant=inv)


def _simplex_polytope(n: int, a, b) -> dict:
    facets = []
    for i in range(n):
        e = [0] * n
        e[i] = -1
        facets.append({"normal": e, "offset": p_text(a[i])})
    facets.append({"normal": [1] * n, "offset": p_text(b)})
    return {"facets": facets}


# ---------------------------------------------------------------------------
# seeded families

INTERVAL = (Fraction(0), Fraction(1))


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def _linear_offset(rng: random.Random, sign: int) -> Poly:
    """p + sign c/8 with p in {3/4, 5/4, 7/4}: positive on [0, 1].

    Offsets keep the same denominators and slope magnitude, and paired
    offsets share the slope's sign, so sums never cancel to a constant:
    seeds change values but not the cost class.
    """
    return (Fraction(rng.choice((3, 5, 7)), 4), Fraction(sign, 8))


def _offset_pair(rng: random.Random) -> tuple[Poly, Poly]:
    sign = rng.choice((-1, 1))
    return _linear_offset(rng, sign), _linear_offset(rng, sign)


def _direction(rng: random.Random, n: int, zeros: int = 0,
               distinct: bool = False) -> list[int]:
    """Seeded direction with a fixed multiset of magnitudes.

    distinct: magnitudes 1..n with random signs (distinct nonzero entries).
    Otherwise the nonzero magnitudes are 1, 2, 3, 1, 2, ... in random order
    and signs, with `zeros` zero entries at random positions.
    """
    if distinct:
        mags = list(range(1, n + 1))
    else:
        mags = [1 + i % 3 for i in range(n - zeros)] + [0] * zeros
    rng.shuffle(mags)
    return [m * rng.choice((-1, 1)) for m in mags]


def box_family(rng: random.Random, name: str, n: int, zeros: int,
               bundles: int, toric: bool) -> Case:
    xi = _direction(rng, n, zeros)
    offsets = [[_offset_pair(rng) for _ in range(n)] for _ in range(bundles)]
    return box_case(name, xi, offsets, INTERVAL, toric)


def simplex_family(rng: random.Random, name: str, n: int,
                   bundles: int) -> Case:
    xi = _direction(rng, n, distinct=True)
    offsets = []
    for _ in range(bundles):
        sign = rng.choice((-1, 1))
        offsets.append(([_linear_offset(rng, sign) for _ in range(n)],
                        _linear_offset(rng, sign)))
    return simplex_case(name, xi, offsets, INTERVAL)


def sign_changing_box(rng: random.Random, name: str, n: int,
                      degree: int) -> Case:
    """A one-bundle box whose invariant xi_1 g(c) changes sign on (0, 1).

    g has small integer coefficients and degree 3-5, drawn until g(0) and
    g(1) have opposite signs.
    """
    while True:
        g = p_trim(Fraction(rng.randint(-6, 6)) for _ in range(degree + 1))
        if len(g) != degree + 1:
            continue
        if p_eval(g, INTERVAL[0]) * p_eval(g, INTERVAL[1]) < 0:
            break
    return box_with_invariant(rng, name, n, g)


def box_with_invariant(rng: random.Random, name: str, n: int,
                       g: Poly) -> Case:
    """A one-bundle box whose invariant is xi_1 g(c).

    Coordinate 0 is [-(K - g), K + g] with K above max |g| on [0, 1], so the
    box stays full; the other coordinates are symmetric and add nothing to
    the invariant.
    """
    bound = sum(abs(x) for x in g) + 1  # |g| <= sum |coeffs| on [0, 1]
    xi = _direction(rng, n)
    first = (p_add(p_const(bound), p_scale(g, -1)), p_add(p_const(bound), g))
    rest = []
    for _ in range(n - 1):
        half = _linear_offset(rng, rng.choice((-1, 1)))
        rest.append((half, half))
    return box_case(name, xi, [[first] + rest], INTERVAL, toric=False)
