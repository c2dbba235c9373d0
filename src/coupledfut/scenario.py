"""Scenario files: JSON parsing and serialization.

A scenario file carries the fixed-point data (rings, components, bundle
restrictions, Euler classes), the parameter's validity interval, and an
optional toric block with the bundle polytopes, a preferred direction, and
the ambient polytope.  Parsing is strict: unknown ring names, malformed
expressions, structural mismatches, and a toric block whose dimension or
polytope count is not the scenario's raise ParseError with the offending
location, and the ring and polytope constructors' ValidationErrors carry
it too; semantic problems are left to validate_scenario.  Each distinct
expression text is parsed once per load, and equal texts share one value.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import ParseError, Record, ValidationError
from .localization import (BundleRestriction, FixedComponent,
                           LocalizationScenario)
from .polytopes import ParamPolytope, ToricModel
from .rationals import (MAX_COEFF_BITS, RationalFunction, parse_poly,
                        poly_text, rat, rat_text)
from .rings import (EquivariantClass, Generator, NilpotentClass, Ring,
                    monomial_text, parse_monomial, ring_create)

# largest dimension of a scenario and of each ring in it; the residue table
# takes powers up to it, and the invariant's degree grows with it
MAX_DIMENSION = 16
# largest monomial table of a ring, the monomials dividing its top one; the
# residue table multiplies over pairs of them.  (CP^1)^10 has 1024
MAX_RING_MONOMIALS = 1024
# largest count of facet subsets of a polytope's ambient size, C(facets,
# ambient), each a candidate vertex and cone whose set-up the polytope route
# pays.  The 6-cube has 924; the 7-cube's 3432 take seconds
MAX_FACET_SUBSETS = 1000


class Scenario(Record):
    """A localization data set together with its optional toric model."""

    localization: LocalizationScenario
    toric: ToricModel | None


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario from JSON text."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # also an integer too long to convert, or nesting too deep
        raise ParseError("invalid JSON: %s" % exc)
    if not isinstance(raw, dict):
        raise ParseError("scenario file must be a JSON object")
    return scenario_from_dict(raw)


def load_scenario(path: str) -> Scenario:
    """Parse a scenario from a JSON file on disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    except OSError as exc:
        raise ParseError("cannot read scenario file %s: %s" % (path, exc))


def _need(raw: dict, key: str, where: str):
    if key not in raw:
        raise ParseError("%s: missing field %r" % (where, key))
    return raw[key]


def _need_str(raw: dict, key: str, where: str) -> str:
    val = _need(raw, key, where)
    if not isinstance(val, str):
        raise ParseError("%s.%s: expected a string" % (where, key))
    return val


def _is_int(val) -> bool:
    """A JSON integer; true and false are not numbers here."""
    return isinstance(val, int) and not isinstance(val, bool)


def _bounded(ints, where: str) -> None:
    """Refuse integers past MAX_COEFF_BITS bits, as rat refuses rationals."""
    if any(x.bit_length() > MAX_COEFF_BITS for x in ints):
        raise ParseError("%s: integer exceeds the limit of %d bits"
                         % (where, MAX_COEFF_BITS))


def _need_int(raw: dict, key: str, where: str) -> int:
    val = _need(raw, key, where)
    if not _is_int(val):
        raise ParseError("%s.%s: expected an integer" % (where, key))
    _bounded((val,), "%s.%s" % (where, key))
    return val


def _object(val, where: str) -> dict:
    if not isinstance(val, dict):
        raise ParseError("%s: expected an object" % where)
    return val


def _list(val, where: str) -> list:
    if not isinstance(val, list):
        raise ParseError("%s: expected a list" % where)
    return val


def _parse_fraction(text, where: str) -> Fraction:
    if not _is_int(text) and not isinstance(text, str):
        raise ParseError("%s: expected an exact rational string" % where)
    try:  # an integer as text too, so that rat bounds its size
        return rat(str(text))
    except (ParseError, ValueError) as exc:  # str: over 4300 digits
        raise ParseError("%s: %s" % (where, exc)) from None


def _parse_expr(text, param: str, where: str,
                memo: dict) -> RationalFunction:
    """The polynomial an expression denotes, as a rational function, parsed
    once per distinct text of a load (see scenario_from_dict)."""
    if not isinstance(text, str) and not _is_int(text):
        raise ParseError("%s: expected an expression string" % where)
    value = memo.get(text)
    if value is None:
        try:  # an integer as text too, so that rat bounds its size
            value = RationalFunction.from_poly(parse_poly(str(text), param))
        except (ParseError, ValueError) as exc:  # str: over 4300 digits
            raise ParseError("%s: %s" % (where, exc))
        memo[text] = value
    return value


def _parse_class(raw, ring: Ring, param: str, where: str,
                 memo: dict) -> NilpotentClass:
    if not isinstance(raw, dict):
        raise ParseError("%s: expected an object of monomial terms" % where)
    terms = {}
    for key, val in raw.items():
        try:
            exps = parse_monomial(ring, key)
        except ParseError as exc:
            raise ParseError("%s: %s" % (where, exc))
        terms[exps] = _parse_expr(val, param, "%s.%s" % (where, key), memo)
    # every value is now a str or an int, so the items can be a key
    class_key = (id(ring), tuple(raw.items()))
    cls = memo.get(class_key)
    if cls is None:
        cls = memo[class_key] = NilpotentClass.create(ring, terms)
    return cls


def _parse_ring(name: str, raw, param: str) -> Ring:
    where = "rings.%s" % name
    raw = _object(raw, where)
    gens = []
    for i, g in enumerate(_list(_need(raw, "generators", where),
                                where + ".generators")):
        gw = "%s.generators[%d]" % (where, i)
        g = _object(g, gw)
        gens.append(Generator(_need_str(g, "name", gw),
                              _need_int(g, "order", gw),
                              _need_int(g, "degree", gw)))
    top = _need(raw, "top", where)
    if not isinstance(top, dict) or not all(_is_int(v) for v in top.values()):
        raise ParseError("%s.top: expected generator-to-exponent map" % where)
    _bounded(top.values(), where + ".top")
    dimension = _need_int(raw, "dimension", where)
    try:
        ring = ring_create(param, gens, top, dimension)
    except ValidationError as exc:
        raise ValidationError("%s: %s" % (where, exc)) from None
    for what, size, limit in (
            ("dimension", ring.dimension, MAX_DIMENSION),
            ("monomial table size", math.prod(e + 1 for e in ring.top),
             MAX_RING_MONOMIALS)):
        if size > limit:
            raise ParseError("%s: %s %d exceeds the limit %d"
                             % (where, what, size, limit))
    return ring


def _parse_polytope(raw, param: str, ambient: int, where: str,
                    memo: dict) -> ParamPolytope:
    facets_raw = _list(_need(_object(raw, where), "facets", where),
                       where + ".facets")
    subsets = math.comb(len(facets_raw), max(ambient, 0))
    if subsets > MAX_FACET_SUBSETS:
        raise ParseError("%s: facet subset count C(%d, %d) = %d exceeds the "
                         "limit %d" % (where, len(facets_raw), ambient, subsets,
                                       MAX_FACET_SUBSETS))
    facets = []
    for i, f in enumerate(facets_raw):
        fw = "%s.facets[%d]" % (where, i)
        f = _object(f, fw)
        normal = _need(f, "normal", fw)
        if not isinstance(normal, list) or not all(_is_int(x) for x in normal):
            raise ParseError("%s.normal: expected a list of integers" % fw)
        _bounded(normal, fw + ".normal")
        offset = _parse_expr(_need(f, "offset", fw), param, fw + ".offset",
                             memo).num
        facets.append((tuple(normal), offset))
    try:
        return ParamPolytope.create(param, ambient, facets, memo)
    except ValidationError as exc:
        raise ValidationError("%s: %s" % (where, exc)) from None


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a scenario from parsed JSON data."""
    name = _need_str(raw, "name", "scenario")
    description, note = (_need_str(raw, key, "scenario") if key in raw else ""
                         for key in ("description", "note"))
    dimension = _need_int(raw, "dimension", "scenario")
    if dimension > MAX_DIMENSION:
        raise ParseError("scenario: dimension %d exceeds the limit %d"
                         % (dimension, MAX_DIMENSION))
    bundles = _need_int(raw, "bundles", "scenario")
    par = _object(_need(raw, "parameter", "scenario"), "parameter")
    param = _need_str(par, "name", "parameter")
    if not (param.isascii() and param.isidentifier()):  # as ring_create's
        raise ValidationError("parameter.name: invalid name %r" % param)
    iv = _need(par, "interval", "parameter")
    if not isinstance(iv, list) or len(iv) != 2:
        raise ParseError("parameter.interval: expected [lo, hi]")
    interval = (_parse_fraction(iv[0], "parameter.interval[0]"),
                _parse_fraction(iv[1], "parameter.interval[1]"))

    rings = {rname: _parse_ring(rname, rraw, param)
             for rname, rraw in _object(raw.get("rings", {}), "rings").items()}

    comps_raw = _list(_need(raw, "components", "scenario"), "components")
    # the values built so far in this load: each expression by its text, each
    # class by its ring and terms, each polytope fan by its normals; equal
    # keys share one object, and an error is never stored, so each bad
    # occurrence reports its own location
    memo: dict = {}
    components = []
    for i, c in enumerate(comps_raw):
        cw = "components[%d]" % i
        c = _object(c, cw)
        label = _need_str(c, "label", cw)
        ring_name = _need_str(c, "ring", cw)
        if ring_name not in rings:
            raise ParseError("%s.ring: unknown ring %r" % (cw, ring_name))
        ring = rings[ring_name]
        codim = _need_int(c, "codimension", cw)
        euler_raw = _object(_need(c, "euler", cw), cw + ".euler")
        euler_scalar = _parse_expr(_need(euler_raw, "scalar", cw + ".euler"),
                                   param, cw + ".euler.scalar", memo)
        euler_nil = _parse_class(euler_raw.get("classes", {}), ring, param,
                                 cw + ".euler.classes", memo)
        euler = EquivariantClass(euler_scalar, euler_nil)
        restrictions = []
        for j, b in enumerate(_list(_need(c, "bundles", cw), cw + ".bundles")):
            bw = "%s.bundles[%d]" % (cw, j)
            b = _object(b, bw)
            ham = _parse_expr(_need(b, "hamiltonian", bw), param,
                              bw + ".hamiltonian", memo)
            chern = _parse_class(b.get("chern", {}), ring, param,
                                 bw + ".chern", memo)
            restrictions.append(BundleRestriction(ham, chern))
        components.append(FixedComponent(label, ring, codim, euler,
                                         tuple(restrictions)))

    loc = LocalizationScenario(name, description, note, param, dimension,
                               bundles, interval, tuple(components))

    toric = None
    if raw.get("toric") is not None:
        t = _object(raw["toric"], "toric")
        ambient = _need_int(t, "ambient", "toric")
        if ambient != dimension:
            raise ParseError("toric.ambient: %d differs from the scenario "
                             "dimension %d" % (ambient, dimension))
        direction = _need(t, "direction", "toric")
        if (not isinstance(direction, list)
                or not all(_is_int(x) for x in direction)
                or len(direction) != ambient):
            raise ParseError("toric.direction: expected %d integers" % ambient)
        _bounded(direction, "toric.direction")
        if not any(direction):  # generates no circle action
            raise ValidationError("toric.direction: zero direction")
        polys_raw = _list(_need(t, "polytopes", "toric"), "toric.polytopes")
        if len(polys_raw) != bundles:
            raise ParseError("toric.polytopes: %d polytopes for %d bundles"
                             % (len(polys_raw), bundles))
        pps = tuple(_parse_polytope(p, param, ambient,
                                    "toric.polytopes[%d]" % i, memo)
                    for i, p in enumerate(polys_raw))
        anti = None
        if t.get("anticanonical") is not None:
            anti = _parse_polytope(t["anticanonical"], param, ambient,
                                   "toric.anticanonical", memo)
        toric = ToricModel(ambient, tuple(direction), pps, anti)
    return Scenario(loc, toric)


# ---------------------------------------------------------------------------
# serialization


def _class_to_dict(cls: NilpotentClass, param: str) -> dict:
    return {monomial_text(cls.ring, exps): _rf_text(coeff, param)
            for exps, coeff in cls.terms}


def _rf_text(rf: RationalFunction, param: str) -> str:
    if not rf.is_polynomial():
        raise ParseError("cannot serialize a non-polynomial coefficient")
    return poly_text(rf.to_poly(), param)


def scenario_to_dict(scn: Scenario) -> dict:
    """Serialize to plain data that scenario_from_dict parses back equal."""
    loc = scn.localization
    rings: dict[str, dict] = {}
    ring_names: dict[Ring, str] = {}
    for comp in loc.components:
        if comp.ring not in ring_names:
            rname = "ring%d" % len(ring_names) if not comp.ring.generators else (
                "-".join(g.name for g in comp.ring.generators) + "-ring")
            base = rname
            k = 2
            while rname in rings:
                rname = "%s%d" % (base, k)
                k += 1
            ring_names[comp.ring] = rname
            rings[rname] = {
                "generators": [{"name": g.name, "order": g.order,
                                "degree": g.degree}
                               for g in comp.ring.generators],
                "top": {g.name: e for g, e in zip(comp.ring.generators,
                                                  comp.ring.top) if e},
                "dimension": comp.ring.dimension,
            }
    out = {
        "name": loc.name,
        "description": loc.description,
        "note": loc.note,
        "dimension": loc.dimension,
        "bundles": loc.bundles,
        "parameter": {
            "name": loc.param,
            "interval": [rat_text(loc.interval[0]), rat_text(loc.interval[1])],
        },
        "rings": rings,
        "components": [
            {
                "label": comp.label,
                "ring": ring_names[comp.ring],
                "codimension": comp.codimension,
                "euler": {
                    "scalar": _rf_text(comp.euler.scalar, loc.param),
                    "classes": _class_to_dict(comp.euler.nilpotent,
                                              loc.param),
                },
                "bundles": [
                    {
                        "hamiltonian": _rf_text(b.hamiltonian, loc.param),
                        "chern": _class_to_dict(b.chern, loc.param),
                    }
                    for b in comp.bundles
                ],
            }
            for comp in loc.components
        ],
    }
    if scn.toric is not None:
        t = scn.toric
        out["toric"] = {
            "ambient": t.ambient,
            "direction": list(t.direction),
            "polytopes": [_polytope_to_dict(pp) for pp in t.polytopes],
        }
        if t.anticanonical is not None:
            out["toric"]["anticanonical"] = _polytope_to_dict(t.anticanonical)
    return out


def _polytope_to_dict(pp: ParamPolytope) -> dict:
    return {"facets": [{"normal": list(f.normal),
                        "offset": poly_text(f.offset, pp.param)}
                       for f in pp.facets]}


def scenario_to_json(scn: Scenario) -> str:
    """Canonical JSON text (sorted keys, stable across runs)."""
    return json.dumps(scenario_to_dict(scn), indent=2, sort_keys=True) + "\n"
