"""Moment-polytope oracle, independent of the localization engine.

A parametric polytope is cut out by integer facet normals with polynomial
offsets: P(c) = { y : <normal_i, y> <= offset_i(c) }.  What does not depend
on the parameter depends on the normals alone, so it is computed once per
fan, shared by the polytopes with the same normals: the boundedness
verdict, the integer inverse of every nonsingular square subsystem, the rank
of the normals tight on each face, which gives the face's dimension, and the
star triangulations.  Realizing at a rational parameter value evaluates the
offsets, multiplies them by each inverse and keeps the feasible solutions as
vertices, all in exact integer arithmetic; each value is realized once and
kept on the polytope.  One pass over a recursive star triangulation gives
the volume and the whole first-moment vector of a realization.  The
triangulation in vertex indices depends only on the vertex-facet
incidences and the normals, so it is reused by every realization in the fan
with the same incidences.

Curves in the parameter are computed on a certified chamber, at degree+1
abscissae.  The polytope is realized once, at the midpoint of the interval,
and each vertex becomes a polynomial vector in the parameter.  Every slack
of every vertex is proved identically zero or positive on the whole open
interval, so the combinatorial type cannot change inside it; a chamber wall
is rejected wherever it lies.  The midpoint's star triangulation is then
measured at as many abscissae as the degree of the moment curve plus one,
and each curve is interpolated once and kept on the polytope.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import cached_property
from fractions import Fraction

from .errors import GeometryError, Record, UsageError, ValidationError
from .rationals import (ParamPoly, RationalFunction, _ipoly_mul, interpolate,
                        positive_on_interval, rat, rat_text, sample_values)

Vector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# exact linear algebra over integers


def _int_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination, in which every division is exact.  Overwrites m."""
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _reduce(m: list[list[int]], width: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination in place, pivoting in the first
    width columns: Bareiss's exact divisions, applied above each pivot too.

    Returns the pivot columns, one per leading row, and the last pivot d.
    Each leading row then holds d in its own pivot column and 0 in the other
    pivot columns, so a nonsingular A next to the identity ends as
    [d I | d A^-1], with d = +-det A.
    """
    prev, pivots = 1, []
    for col in range(width):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for r, row in enumerate(m):
            if r != rank:
                f = row[col]
                m[r] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return pivots, prev


def _rank(rows: Sequence[Sequence[int]], width: int) -> int:
    return len(_reduce([list(row) for row in rows], width)[0])


# ---------------------------------------------------------------------------
# parametric and realized polytopes


class Facet(Record):
    normal: tuple[int, ...]
    offset: ParamPoly


class Fan:
    """Facet normals, and what depends on them alone, each computed on first
    use: the boundedness verdict, the inverses of the square subsystems, the
    face ranks, and the star triangulation of each incidence pattern."""

    def __init__(self, normals: tuple[tuple[int, ...], ...]):
        self.normals = normals
        self.ambient = len(normals[0])
        self.ranks: dict[frozenset[int], int] = {}
        self.stars: dict[tuple[frozenset[int], ...],
                         tuple[tuple[int, ...], ...]] = {}

    @cached_property
    def inverses(self) -> dict[tuple[int, ...],
                               tuple[tuple[tuple[int, ...], ...], int]]:
        """(adjugate, determinant) of every nonsingular n-subset of normals,
        signed so the determinant is positive: the vertex cut out by the
        subset is adjugate . offsets / determinant."""
        n = self.ambient
        out = {}
        for subset in itertools.combinations(range(len(self.normals)), n):
            rows = [self.normals[i] for i in subset]
            # Bareiss stops at the first column without a pivot, where the
            # Gauss-Jordan pass on [A | I] would go on: most n-subsets of a
            # cube's normals are singular
            if _int_det([list(row) for row in rows]) == 0:
                continue
            m = [list(row) + [int(i == j) for j in range(n)]
                 for i, row in enumerate(rows)]
            _, d = _reduce(m, n)
            # d A^-1 is the adjugate of A up to the sign of d = +-det A
            sign = 1 if d > 0 else -1
            out[subset] = (tuple(tuple(sign * x for x in row[n:]) for row in m),
                           abs(d))
        return out

    @cached_property
    def unbounded(self) -> str | None:
        """Why every realization is unbounded, or None when none is."""
        if not self.inverses:
            return "normals span a proper subspace; the polytope is unbounded"
        # the recession cone { d : <normal, d> <= 0 } is then pointed, so it
        # has a ray exactly when an extreme ray is orthogonal to n-1
        # independent normals; with one more normal they form a basis, whose
        # adjugate column for that normal is minus the ray
        for adjugate, _ in self.inverses.values():
            for col in zip(*adjugate):
                if all(sum(a * x for a, x in zip(normal, col)) >= 0
                       for normal in self.normals):
                    return "unbounded: recession ray %s" % (
                        tuple(-x for x in col),)
        return None

    def face_dim(self, tight: frozenset[int]) -> int:
        """Dimension of a nonempty face, from the facets tight at all of its
        vertices: n minus the rank of their normals."""
        rank = self.ranks.get(tight)
        if rank is None:
            rank = self.ranks[tight] = _rank(
                [self.normals[i] for i in tight], self.ambient)
        return self.ambient - rank


class ParamPolytope(Record, hidden=("fan",)):
    """Intersection of half-spaces <normal_i, y> <= offset_i(parameter).

    fan holds what the normals alone determine.  The realizations made so
    far and the certified chambers are kept on the instance, each computed
    on first use.
    """

    param: str
    ambient: int
    facets: tuple[Facet, ...]
    fan: Fan

    @staticmethod
    def create(param: str, ambient: int,
               facets: list[tuple[tuple[int, ...], ParamPoly]],
               fans: dict | None = None) -> "ParamPolytope":
        """The polytope, checked; polytopes created with one fans dict share
        a fan when their normals are the same, in the same order."""
        if ambient < 1:
            raise ValidationError("ambient dimension must be positive")
        if len(facets) < ambient + 1:
            raise ValidationError(
                "%d facets cannot bound a %d-dimensional polytope"
                % (len(facets), ambient))
        built = []
        for normal, offset in facets:
            normal = tuple(int(x) for x in normal)
            if len(normal) != ambient:
                raise ValidationError("normal %r has wrong length" % (normal,))
            if all(x == 0 for x in normal):
                raise ValidationError("zero facet normal")
            if offset.param != param:
                raise ValidationError("offset parameter mismatch")
            built.append(Facet(normal, offset))
        normals = tuple(f.normal for f in built)
        fan = Fan(normals)
        if fans is not None:
            fan = fans.setdefault(normals, fan)
        return ParamPolytope(param, ambient, tuple(built), fan)

    @cached_property
    def _realizations(self) -> dict[Fraction, "RealizedPolytope"]:
        return {}

    @cached_property
    def _chambers(self) -> dict[tuple[Fraction, Fraction], tuple[list, dict]]:
        """Per interval: the certified measures and the curves from them."""
        return {}


class RealizedPolytope(Record, hidden=("polytope",)):
    """Vertex description of one realization, with facet incidence.

    polytope is the parametric polytope realized; the face ranks and the
    star triangulations of its fan serve every realization in the fan.
    """

    ambient: int
    value: Fraction
    vertices: tuple[Vector, ...]
    incidence: tuple[frozenset[int], ...]
    supported: tuple[bool, ...]
    polytope: ParamPolytope

    def is_simple(self) -> bool:
        return all(len(inc) == self.ambient for inc in self.incidence)

    def is_full_dimensional(self) -> bool:
        return self.polytope.fan.face_dim(
            frozenset.intersection(*self.incidence)) == self.ambient

    def signature(self) -> frozenset[frozenset[int]]:
        """Vertex-facet incidence pattern, independent of vertex order."""
        return frozenset(self.incidence)

    @cached_property
    def measures(self) -> tuple[Fraction, Vector]:
        """Volume and moment vector (the integral of y) in one pass, over the
        star triangulation from the first vertex."""
        if not self.is_full_dimensional():
            return Fraction(0), (Fraction(0),) * self.ambient
        return _measure(self.ambient, *_integer_points(self.vertices),
                        _star(self))


def realize(pp: ParamPolytope, value: int | str | Fraction) -> RealizedPolytope:
    """Enumerate the vertices at one parameter value.

    Raises GeometryError when the realization is empty or unbounded.
    Redundant facets are tolerated and reported through the supported flags.
    Each parameter value is realized once; later calls return the same
    object.
    """
    value = rat(value)
    known = pp._realizations.get(value)
    if known is not None:
        return known
    fan = pp.fan
    if fan.unbounded is not None:
        raise GeometryError(fan.unbounded)
    n = pp.ambient
    offsets = [f.offset.eval(value) for f in pp.facets]
    scale = math.lcm(*(b.denominator for b in offsets))
    rhs = [b.numerator * (scale // b.denominator) for b in offsets]
    normals = fan.normals
    found: dict[Vector, frozenset[int]] = {}
    for subset, (adjugate, det) in fan.inverses.items():
        sub = [rhs[i] for i in subset]
        # the candidate vertex is y / (det * scale)
        y = [sum(a * b for a, b in zip(row, sub)) for row in adjugate]
        tight = []
        for i, normal in enumerate(normals):
            lhs = sum(a * b for a, b in zip(normal, y))
            bound = rhs[i] * det
            if lhs > bound:
                break
            if lhs == bound:
                tight.append(i)
        else:
            denom = det * scale
            found.setdefault(tuple(Fraction(c, denom) for c in y),
                             frozenset(tight))
    if not found:
        raise GeometryError("empty realization at %s = %s"
                            % (pp.param, rat_text(value)))
    vertices = sorted(found)
    incidence = tuple(found[v] for v in vertices)
    supported = []
    for i in range(len(normals)):
        face = [inc for inc in incidence if i in inc]
        supported.append(bool(face) and fan.face_dim(
            frozenset.intersection(*face)) == n - 1)
    rp = RealizedPolytope(n, value, tuple(vertices), incidence,
                          tuple(supported), pp)
    pp._realizations[value] = rp
    return rp


# ---------------------------------------------------------------------------
# volume and first moments by recursive star triangulation


def _face_simplices(rp: RealizedPolytope, anchor: int, face: tuple[int, ...],
                    tight: frozenset[int], dim: int) -> list[tuple[int, ...]]:
    """Triangulate one face into dim-simplices coned from its vertex anchor.

    The face is given by its vertex indices in ascending order and the
    facets tight at all of them; dim is its dimension.  Its own facets are
    coned from their first vertices in turn.
    """
    if dim == 0:
        return [(anchor,)]
    incidence = rp.incidence
    simplices: list[tuple[int, ...]] = []
    done = set(tight)
    for g in range(len(rp.supported)):
        if g in done:
            continue
        sub = tuple(v for v in face if g in incidence[v])
        # the cone from the anchor over a facet through it is flat
        if not sub or anchor in sub:
            continue
        sub_tight = frozenset.intersection(*(incidence[v] for v in sub))
        if rp.polytope.fan.face_dim(sub_tight) != dim - 1:
            continue
        # every facet tight on this facet of the face, a facet listed twice
        # among them, cuts out the same one
        done |= sub_tight
        for s in _face_simplices(rp, sub[0], sub, sub_tight, dim - 1):
            simplices.append((anchor,) + s)
    return simplices


def triangulate(rp: RealizedPolytope, apex: int = 0) -> list[tuple[int, ...]]:
    """Star triangulation from one vertex into full-dimensional simplices.

    Each simplex lists n+1 indices into rp.vertices: the apex, then one
    vertex per face dimension, so the simplices depend only on the
    incidences.  Every vertex as apex yields the same volume and moments;
    the default is the first.
    """
    return _face_simplices(rp, apex, tuple(range(len(rp.vertices))),
                           frozenset.intersection(*rp.incidence), rp.ambient)


def _star(rp: RealizedPolytope) -> tuple[tuple[int, ...], ...]:
    """The star triangulation from the first vertex, shared by every
    realization in the fan with the same incidences: with the normals, the
    incidences fix the face lattice, and with it the triangulation."""
    stars = rp.polytope.fan.stars
    star = stars.get(rp.incidence)
    if star is None:
        star = stars[rp.incidence] = tuple(triangulate(rp))
    return star


def _integer_points(points: Sequence[Vector]) -> tuple[list[list[int]], int]:
    """Integer numerators of the points over their common denominator."""
    denom = math.lcm(*(x.denominator for p in points for x in p))
    return [[x.numerator * (denom // x.denominator) for x in p]
            for p in points], denom


def _measure(n: int, points: list[list[int]], denom: int,
             simplices: Sequence[tuple[int, ...]]) -> tuple[Fraction, Vector]:
    """Volume and moment vector of n-simplices with disjoint interiors, coned
    from one apex: each is n+1 indices into points, the apex first.  Points
    are the integer numerators of the coordinates over the common
    denominator denom."""
    if not simplices:
        return Fraction(0), (Fraction(0),) * n
    apex = points[simplices[0][0]]
    rays = [[x - a for x, a in zip(p, apex)] for p in points]
    total = 0
    # the moment of a simplex is its volume times the sum of its vertices
    # over n+1, so each point collects the determinants of its simplices
    weight = [0] * len(points)
    for s in simplices:
        det = abs(_int_det([rays[i][:] for i in s[1:]]))
        total += det
        for i in s:
            weight[i] += det
    moment = [sum(w * x for w, x in zip(weight, col)) for col in zip(*points)]
    scale = math.factorial(n) * denom ** n
    return (Fraction(total, scale),
            tuple(Fraction(m, scale * (n + 1) * denom) for m in moment))


def _measures(rp: RealizedPolytope,
              apex: Vector | None) -> tuple[Fraction, Vector]:
    if apex is None or not rp.is_full_dimensional():
        return rp.measures
    if apex not in rp.vertices:
        raise UsageError("the apex must be a vertex of the realization")
    return _measure(rp.ambient, *_integer_points(rp.vertices),
                    triangulate(rp, rp.vertices.index(apex)))


def volume(rp: RealizedPolytope, apex: Vector | None = None) -> Fraction:
    """Exact Euclidean volume, from the star triangulation about the apex
    (a vertex; by default the first)."""
    return _measures(rp, apex)[0]


def linear_moment(rp: RealizedPolytope, xi: tuple[int, ...],
                  apex: Vector | None = None) -> Fraction:
    """Integral of the linear functional <y, xi> over the polytope."""
    if len(xi) != rp.ambient:
        raise UsageError("direction has wrong length")
    return sum((m * x for m, x in zip(_measures(rp, apex)[1], xi)),
               Fraction(0))


# ---------------------------------------------------------------------------
# parameter curves on a certified chamber


def _chamber_curve(pp: ParamPolytope, interval: tuple[Fraction, Fraction],
                   xi: tuple[int, ...] | None) -> ParamPoly:
    """The volume curve (xi None) or the moment curve along xi.

    The chamber of the interval is certified and measured once per polytope,
    and each curve is interpolated once; both are kept on the polytope.
    """
    key = (interval[0], interval[1])
    chamber = pp._chambers.get(key)
    if chamber is None:
        chamber = pp._chambers[key] = (_certified_samples(pp, key), {})
    samples, curves = chamber
    curve = curves.get(xi)
    if curve is None:
        data = [(x, vol if xi is None else
                 sum((m * a for m, a in zip(mom, xi)), Fraction(0)))
                for x, (vol, mom) in samples]
        curve = curves[xi] = interpolate(pp.param, data)
    return curve


def _certified_samples(pp: ParamPolytope, interval: tuple[Fraction, Fraction]
                       ) -> list[tuple[Fraction, tuple[Fraction, Vector]]]:
    """Measures of the polytope at (n+1)*d+1 abscissae, d the largest offset
    degree, after certifying the midpoint's type on the open interval.

    Each vertex of the midpoint realization is adjugate . offsets(c) /
    determinant over one basis of its tight facets, a vector of polynomials
    of degree at most d; the volume then has degree at most n*d and the
    moment at most (n+1)*d.  The type holds on the interval exactly when
    every slack offset_i(c) - <normal_i, vertex(c)> is identically zero for
    the facets tight at the midpoint and positive for the others: every
    edge at such a vertex then ends at another of them, so no vertex
    appears or disappears.
    """
    lo, hi = interval
    rp = realize(pp, (lo + hi) / 2)
    n = pp.ambient
    degree = max(0, max(f.offset.degree() for f in pp.facets))
    # offset_i(c) = sum_k offsets[i][k] c^k / q, integers
    q = math.lcm(*(f.offset.content.denominator for f in pp.facets))
    offsets = [list(_ipoly_mul(((f.offset.content * q).numerator,),
                               f.offset.ints))
               + [0] * (degree - f.offset.degree()) for f in pp.facets]
    formulas = []
    inverses = pp.fan.inverses
    for tight in rp.incidence:
        subset = next(s for s in itertools.combinations(sorted(tight), n)
                      if s in inverses)
        adjugate, det = inverses[subset]
        # the vertex is sum_k vertex[r][k] c^k / (det * q) in coordinate r
        vertex = [[sum(a * offsets[i][k] for a, i in zip(row, subset))
                   for k in range(degree + 1)] for row in adjugate]
        for i, f in enumerate(pp.facets):
            slack = [det * b - sum(a * v[k] for a, v in zip(f.normal, vertex))
                     for k, b in enumerate(offsets[i])]
            if (any(slack) if i in tight
                    else not _positive_inside(slack, interval, pp.param)):
                raise GeometryError(
                    "facet %d meets the vertices of the realization at %s = "
                    "%s differently elsewhere on the interval; the "
                    "combinatorial type changes inside it"
                    % (i, pp.param, rat_text(rp.value)))
        formulas.append((vertex, det))
    star = _star(rp) if rp.is_full_dimensional() else ()
    common = math.lcm(*(det for _, det in formulas))
    scaled = [[[a * (common // det) for a in coord] for coord in vertex]
              for vertex, det in formulas]
    samples = []
    for x in sample_values(interval, (n + 1) * degree + 1):
        num, den = x.numerator, x.denominator
        powers = [num ** k * den ** (degree - k) for k in range(degree + 1)]
        points = [[sum(a * w for a, w in zip(coord, powers)) for coord in v]
                  for v in scaled]
        samples.append((x, _measure(n, points, common * q * den ** degree,
                                    star)))
    return samples


def _positive_inside(slack: list[int], interval: tuple[Fraction, Fraction],
                     param: str) -> bool:
    """Whether a polynomial (integer coefficients, ascending), known to be
    positive at the midpoint, is positive on the whole open interval."""
    p = ParamPoly.from_ints(param, slack)
    if p.degree() <= 1:
        # a line positive at the midpoint is positive inside exactly when
        # it is not negative at either end
        return all(p.eval(x) >= 0 for x in interval)
    return positive_on_interval(p, interval)


def volume_curve(pp: ParamPolytope,
                 interval: tuple[Fraction, Fraction]) -> ParamPoly:
    """Euclidean volume as a polynomial in the parameter over the interval."""
    return _chamber_curve(pp, interval, None)


def moment_curve(pp: ParamPolytope, xi: tuple[int, ...],
                 interval: tuple[Fraction, Fraction]) -> ParamPoly:
    """First moment along xi as a polynomial in the parameter."""
    if len(xi) != pp.ambient:
        raise UsageError("direction has wrong length")
    return _chamber_curve(pp, interval, tuple(xi))


class ToricModel(Record):
    """Moment polytopes of the bundles, a direction, and the ambient polytope."""

    param: str
    ambient: int
    direction: tuple[int, ...]
    polytopes: tuple[ParamPolytope, ...]
    anticanonical: ParamPolytope | None


def fut_toric(model: ToricModel, interval: tuple[Fraction, Fraction],
              direction: tuple[int, ...] | None = None) -> RationalFunction:
    """Sum over bundles of the barycenter coordinate along the direction."""
    xi = direction if direction is not None else model.direction
    if len(xi) != model.ambient:
        raise UsageError("direction has wrong length")
    total = RationalFunction.const(model.param, 0)
    for pp in model.polytopes:
        vol = volume_curve(pp, interval)
        if vol.is_zero():
            raise GeometryError("polytope with zero volume on the interval")
        mom = moment_curve(pp, xi, interval)
        total = total + (RationalFunction.from_poly(mom)
                         / RationalFunction.from_poly(vol))
    return total


def fut_toric_at(polytopes, xi: tuple[int, ...],
                 x: int | str | Fraction) -> Fraction:
    """The invariant at one parameter value, from polytopes realized at x.

    Unlike the curve version this never interpolates: each polytope is
    realized at x, never interpolated, and measured directly, so the value
    is an oracle for a single parameter value.
    """
    x = rat(x)
    total = Fraction(0)
    for pp in polytopes:
        rp = realize(pp, x)
        vol = volume(rp)
        if vol == 0:
            raise GeometryError("degenerate realization at %s" % rat_text(x))
        total += linear_moment(rp, xi) / vol
    return total


class MinkowskiReport(Record):
    status: str  # "pass" | "fail" | "inconclusive"
    messages: tuple[str, ...]


def minkowski_check(model: ToricModel,
                    interval: tuple[Fraction, Fraction]) -> MinkowskiReport:
    """Certify that the bundle polytopes tile the ambient one additively.

    When all polytopes share the same normals and the same vertex-facet
    incidence pattern at the interval midpoint (strong isomorphism), their
    Minkowski sum adds offsets facetwise; the check then compares offset
    polynomials exactly.  Outside that regime the fast path does not apply
    and the verdict is inconclusive rather than a guess.
    """
    if model.anticanonical is None:
        return MinkowskiReport("inconclusive",
                               ("no ambient polytope to compare against",))
    mid = (interval[0] + interval[1]) / 2
    target = model.anticanonical
    maps = []
    for pp in model.polytopes:
        mapping = _match_normals(pp, target)
        if mapping is None:
            return MinkowskiReport(
                "inconclusive",
                ("facet normals do not correspond one to one",))
        maps.append(mapping)
    realized = [realize(pp, mid) for pp in model.polytopes]
    realized_target = realize(target, mid)
    for rp in realized + [realized_target]:
        if not rp.is_simple() or not rp.is_full_dimensional():
            return MinkowskiReport(
                "inconclusive",
                ("a realization at the midpoint is not simple and "
                 "full-dimensional",))
    target_sig = realized_target.signature()
    for rp, mapping in zip(realized, maps):
        sig = frozenset(frozenset(mapping[i] for i in inc)
                        for inc in rp.incidence)
        if sig != target_sig:
            return MinkowskiReport(
                "inconclusive",
                ("incidence patterns differ; polytopes are not strongly "
                 "isomorphic",))
    for j, tf in enumerate(target.facets):
        total = ParamPoly.zero(model.param)
        for pp, mapping in zip(model.polytopes, maps):
            for i, f in enumerate(pp.facets):
                if mapping[i] == j:
                    total = total + f.offset
        if total != tf.offset:
            return MinkowskiReport(
                "fail",
                ("offsets along normal %s add to %s, expected %s"
                 % (tf.normal, total.text(), tf.offset.text()),))
    return MinkowskiReport("pass", ())


def _match_normals(pp: ParamPolytope, target: ParamPolytope) -> dict[int, int] | None:
    if len(pp.facets) != len(target.facets):
        return None
    tnormals = [f.normal for f in target.facets]
    if len(set(tnormals)) != len(tnormals):
        return None
    mapping = {}
    for i, f in enumerate(pp.facets):
        if f.normal not in tnormals:
            return None
        mapping[i] = tnormals.index(f.normal)
    if len(set(mapping.values())) != len(mapping):
        return None
    return mapping
