"""Moment-polytope oracle, independent of the localization engine.

A parametric polytope is cut out by integer facet normals with polynomial
offsets: P(c) = { y : <normal_i, y> <= offset_i(c) }.  What does not depend on
the parameter depends on the normals alone, so it is computed once per fan,
shared by the polytopes with the same normals: the boundedness verdict, the
integer inverse of every nonsingular square subsystem, the lcm of their
determinants, and the star triangulations.  Realizing at a rational value
multiplies the offsets by each inverse and keeps the feasible solutions, each
with the first basis that cut it out, as integer vertices over one
denominator; each value is realized once and kept on the polytope.  The
vertex-facet incidences fix the face lattice: a face's facets are the largest
proper vertex sets it shares with the polytope's facets, and the realization
is full-dimensional when no facet is tight at every vertex.  One pass over a
recursive star triangulation gives the volume and the whole first-moment
vector of a realization.  The triangulation, in vertex indices, depends on the
incidences alone and serves every realization in the fan that shares them.

Curves in the parameter are computed on a certified chamber.  The polytope
is realized once, at the midpoint of the interval, and each vertex becomes a
polynomial vector in the parameter.  Every slack of every vertex is proved
identically zero or positive on the whole open interval, so the
combinatorial type cannot change inside it; a chamber wall is rejected
wherever it lies.  Each simplex of the midpoint's star is then a product of
those slack polynomials, so the volume curve and the moment vector come out
as polynomials, once per interval, and are kept on the polytope.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from functools import cached_property
from fractions import Fraction

from .errors import GeometryError, Record, UsageError, ValidationError
from .rationals import (MAX_DEGREE, MAX_SIMPLICES, ParamPoly,
                        RationalFunction, _ipoly_add, _ipoly_mul,
                        positive_on_interval, rat, rat_text)

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


def _adjugate(rows: Sequence[Sequence[int]]
              ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Adjugate and determinant of a nonsingular square integer matrix A,
    signed so the determinant is positive, by fraction-free Gauss-Jordan
    elimination on [A | I]: Bareiss's exact divisions, applied above each
    pivot too, end at [d I | d A^-1] with d = +-det A."""
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        # A is nonsingular, so column k has a pivot at or below row k
        swap = next(r for r in range(k, n) if m[r][k])
        m[k], m[swap] = m[swap], m[k]
        top = m[k]
        p = top[k]
        for r, row in enumerate(m):
            if r != k:
                f = row[k]
                m[r] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
    sign = 1 if prev > 0 else -1
    return tuple(tuple(sign * x for x in row[n:]) for row in m), abs(prev)


# ---------------------------------------------------------------------------
# parametric and realized polytopes


class Facet(Record):
    normal: tuple[int, ...]
    offset: ParamPoly


class Fan:
    """Facet normals, and what depends on them alone, each computed on first
    use: the boundedness verdict, the square subsystems' inverses and the lcm
    of their determinants, the stars, and the slacks proved positive."""

    def __init__(self, normals: tuple[tuple[int, ...], ...]):
        self.normals = normals
        self.ambient = len(normals[0])
        self.stars: dict[tuple[frozenset[int], ...],
                         tuple[tuple[int, ...], ...]] = {}
        self.proved: dict[tuple[tuple, ParamPoly], bool] = {}

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
            # Bareiss stops at the first column without a pivot: most
            # n-subsets of a cube's normals are singular
            if _int_det([list(row) for row in rows]) == 0:
                continue
            out[subset] = _adjugate(rows)
        return out

    @cached_property
    def common(self) -> int:
        """A denominator of every vertex at integer offsets."""
        return math.lcm(*(det for _, det in self.inverses.values()))

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
    def _chambers(self) -> dict[tuple[Fraction, Fraction], tuple]:
        """Per interval: the certified moment vector and volume curve."""
        return {}


class RealizedPolytope(Record, hidden=("polytope",)):
    """Vertex description of one realization, with facet incidence.

    The sorted vertices are points over denom, in lowest terms; incidence,
    which fixes every face, lists the facets tight at each vertex, and bases
    the first nonsingular subset of them.  polytope is the realized
    parametric polytope; its fan's stars serve every realization in the fan.
    """

    ambient: int
    value: Fraction
    points: tuple[tuple[int, ...], ...]
    denom: int
    incidence: tuple[frozenset[int], ...]
    bases: tuple[tuple[int, ...], ...]
    supported: tuple[bool, ...]
    polytope: ParamPolytope

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        """The points over denom as Fractions, derived on first read."""
        return tuple(tuple(Fraction(x, self.denom) for x in p)
                     for p in self.points)

    def is_simple(self) -> bool:
        return all(len(inc) == self.ambient for inc in self.incidence)

    def is_full_dimensional(self) -> bool:
        # an inequality tight at every vertex holds with equality on the
        # whole polytope, and a lower-dimensional one always has such
        return not frozenset.intersection(*self.incidence)

    @cached_property
    def measures(self) -> tuple[Fraction, Vector]:
        """Volume and moment vector (the integral of y) in one pass, over the
        star triangulation from the first vertex."""
        return _measure(self, _star(self))


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
    normals, common = fan.normals, fan.common
    found = {}  # vertex over common * scale: (tight facets, first basis)
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
            found.setdefault(tuple(common // det * x for x in y),
                             (frozenset(tight), subset))
    if not found:
        raise GeometryError("empty realization at %s = %s"
                            % (pp.param, rat_text(value)))
    points = sorted(found)  # a positive denominator keeps the order
    incidence, bases = zip(*map(found.get, points))
    cuts = _vertex_sets(incidence, len(normals))
    largest = set(_maximal(cuts))
    # the normals tight at every vertex cut out the affine hull: one line of
    # them leaves codimension 1, and more leave no face of dimension n-1
    flat = [normals[i] for i in frozenset.intersection(*incidence)]
    codim_one = all(a * y == b * x for g in flat[1:] for (a, b), (x, y)
                    in itertools.combinations(zip(flat[0], g), 2))
    supported = tuple(cut in largest and codim_one for cut in cuts)
    k = math.gcd(common * scale, *itertools.chain.from_iterable(points))
    points = tuple(tuple(x // k for x in p) for p in points)
    rp = RealizedPolytope(n, value, points, common * scale // k, incidence,
                          bases, supported, pp)
    pp._realizations[value] = rp
    return rp


# ---------------------------------------------------------------------------
# volume and first moments by recursive star triangulation


def _vertex_sets(incidence: tuple, facets: int) -> list[frozenset[int]]:
    """The vertices at which each facet inequality is tight."""
    return [frozenset(v for v, inc in enumerate(incidence) if g in inc)
            for g in range(facets)]


def _maximal(sets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """The distinct nonempty sets contained in no other, in the order in
    which they first appear."""
    distinct = list(dict.fromkeys(s for s in sets if s))
    return [s for s in distinct if not any(s < t for t in distinct)]


def triangulate(rp: RealizedPolytope, apex: int = 0) -> list[tuple[int, ...]]:
    """Star triangulation from one vertex into full-dimensional simplices.

    Each simplex lists n+1 indices into rp.vertices: the apex, then one
    vertex per face dimension, so the simplices depend only on the
    incidences.  Every vertex as apex yields the same volume and moments;
    the default is the first.  A realization that is not full-dimensional
    has none.  A star past MAX_SIMPLICES simplices is refused mid-build.
    """
    if not rp.is_full_dimensional():
        return []
    cuts = _vertex_sets(rp.incidence, len(rp.supported))
    facets: dict[frozenset[int], list[frozenset[int]]] = {}
    built = 0

    # the simplices of a face coned from its vertex anchor; its facets, the
    # largest proper vertex sets it shares with the polytope's, are coned
    # from their first vertices in turn; each vertex reached ends a simplex
    def cone(face: frozenset[int], anchor: int) -> list[tuple[int, ...]]:
        nonlocal built
        if len(face) == 1:
            built += 1
            if built > MAX_SIMPLICES:
                raise UsageError("the star triangulation exceeds the limit "
                                 "of %d simplices" % MAX_SIMPLICES)
            return [(anchor,)]
        subs = facets.get(face)
        if subs is None:
            subs = facets[face] = _maximal(face & cut for cut in cuts
                                           if not face <= cut)
        # the cone from the anchor over a facet through it is flat
        return [(anchor,) + s for sub in subs if anchor not in sub
                for s in cone(sub, min(sub))]

    return cone(frozenset(range(len(rp.points))), apex)


def _star(rp: RealizedPolytope) -> tuple[tuple[int, ...], ...]:
    """The star triangulation from the first vertex, shared by every
    realization in the fan with the same incidences: the incidences fix the
    face lattice, and with it the triangulation."""
    stars = rp.polytope.fan.stars
    star = stars.get(rp.incidence)
    if star is None:
        star = stars[rp.incidence] = tuple(triangulate(rp))
    return star


def _measure(rp: RealizedPolytope, simplices: Sequence[tuple[int, ...]]
             ) -> tuple[Fraction, Vector]:
    """Volume and moment vector of n-simplices with disjoint interiors, coned
    from one apex: each is n+1 indices into rp.points, the apex first."""
    n, points, denom = rp.ambient, rp.points, rp.denom
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


def volume(rp: RealizedPolytope) -> Fraction:
    """Exact Euclidean volume, from the star triangulation."""
    return rp.measures[0]


def linear_moment(rp: RealizedPolytope, xi: tuple[int, ...]) -> Fraction:
    """Integral of the linear functional <y, xi> over the polytope."""
    if len(xi) != rp.ambient:
        raise UsageError("direction has wrong length")
    return sum((m * x for m, x in zip(rp.measures[1], xi)), Fraction(0))


# ---------------------------------------------------------------------------
# parameter curves on a certified chamber


def _chamber(pp: ParamPolytope, interval: tuple[Fraction, Fraction]
             ) -> tuple[ParamPoly, ...]:
    """The moment vector, then the volume curve, on the certified chamber.

    Each midpoint vertex is adjugate . offsets(c) / determinant over its
    realized basis, of degree at most d, the largest offset degree.
    The type holds on the interval exactly when every slack offset_i(c) -
    <normal_i, vertex(c)> is identically zero for the facets tight at the
    midpoint and positive for the others: every edge at such a vertex then
    ends at another of them.  The volume's degree n*d may be at most
    MAX_DEGREE, checked before anything is realized, since the curves feed
    root finding.  A star simplex (a_n, ..., a_0) is triangular in slack
    coordinates: with T_k the facets tight at a_0..a_k, the slack of G_k,
    the first facet of T_(k-1) outside T_k, vanishes at a_0..a_(k-1) and is
    positive at a_k.  So its volume times n! is the product of those slacks
    over |det| of the normals of G_1..G_n.
    """
    key = (interval[0], interval[1])
    chamber = pp._chambers.get(key)
    if chamber is not None:
        return chamber
    n = pp.ambient
    degree = max(0, max(f.offset.degree() for f in pp.facets))
    if n * degree > MAX_DEGREE:
        raise UsageError("chamber curves of degree %d (ambient dimension "
                         "times offset degree) exceed the limit %d"
                         % (n * degree, MAX_DEGREE))
    rp = realize(pp, (interval[0] + interval[1]) / 2)
    # offset_i(c) = sum_k offsets[i][k] c^k / q, integers
    q = math.lcm(*(f.offset.content.denominator for f in pp.facets))
    offsets = [list(_ipoly_mul(((f.offset.content * q).numerator,),
                               f.offset.ints))
               + [0] * (degree - f.offset.degree()) for f in pp.facets]
    inverses, common = pp.fan.inverses, pp.fan.common
    vertices, slacks, proved = [], [], pp.fan.proved
    for tight, subset in zip(rp.incidence, rp.bases):
        adjugate, det = inverses[subset]
        # the vertex is sum_k vertex[r][k] c^k / (common * q) in coordinate
        # r, and the slack of facet i is slack[i] over the same
        vertex = [[common // det * sum(a * offsets[i][k]
                                       for a, i in zip(row, subset))
                   for k in range(degree + 1)] for row in adjugate]
        slack = [[common * b - sum(a * v[k] for a, v in zip(f.normal, vertex))
                  for k, b in enumerate(offsets[i])]
                 for i, f in enumerate(pp.facets)]
        for i, s in enumerate(slack):
            poly = ParamPoly.from_ints(s)
            if i not in tight and (key, poly) not in proved:
                proved[key, poly] = positive_on_interval(poly, interval)
            if any(s) if i in tight else not proved[key, poly]:
                raise GeometryError(
                    "facet %d meets the vertices of the realization at %s = "
                    "%s differently elsewhere on the interval; the "
                    "combinatorial type changes inside it"
                    % (i, pp.param, rat_text(rp.value)))
        # a last coordinate 1 makes the volume the moment of a constant
        vertices.append(vertex + [[common * q]])
        slacks.append(slack)
    # as in _measure, each vertex collects the volumes of its simplices
    weight = [()] * len(vertices)
    for simplex in _star(rp):
        tight, chosen, w = rp.incidence[simplex[-1]], [], (1,)
        for a in reversed(simplex[:-1]):
            inc = tight & rp.incidence[a]
            g = min(tight - inc)
            chosen.append(g)
            w = _ipoly_mul(w, slacks[a][g])
            tight = inc
        w = _ipoly_mul((common // inverses[tuple(sorted(chosen))][1],), w)
        for i in simplex:
            weight[i] = _ipoly_add(weight[i], w)
    moments = [()] * (n + 1)
    for w, vertex in zip(weight, vertices):
        for r, coord in enumerate(vertex):
            moments[r] = _ipoly_add(moments[r], _ipoly_mul(w, coord))
    den = math.factorial(n + 1) * (common * q) ** (n + 1) * common
    chamber = pp._chambers[key] = tuple(
        ParamPoly.from_ints(m, Fraction(1, den)) for m in moments)
    return chamber


def volume_curve(pp: ParamPolytope,
                 interval: tuple[Fraction, Fraction]) -> ParamPoly:
    """Euclidean volume as a polynomial in the parameter over the interval."""
    return _chamber(pp, interval)[-1]


def moment_curve(pp: ParamPolytope, xi: tuple[int, ...],
                 interval: tuple[Fraction, Fraction]) -> ParamPoly:
    """First moment along xi as a polynomial in the parameter."""
    if len(xi) != pp.ambient:
        raise UsageError("direction has wrong length")
    return sum((m.scale(a) for m, a in zip(_chamber(pp, interval), xi)),
               ParamPoly.zero())


class ToricModel(Record):
    """Moment polytopes of the bundles, a direction, and the ambient polytope."""

    ambient: int
    direction: tuple[int, ...]
    polytopes: tuple[ParamPolytope, ...]
    anticanonical: ParamPolytope | None


def fut_toric(model: ToricModel, interval: tuple[Fraction, Fraction],
              direction: tuple[int, ...] | None = None) -> RationalFunction:
    """Sum over bundles of the barycenter coordinate along the direction."""
    xi = direction if direction is not None else model.direction
    total = RationalFunction.const(0)
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

    Each polytope is realized at x and measured by determinants of its
    coordinates, not by the chamber's slack products, so the value checks
    the curves at a single parameter value.
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

    One map from the ambient normals to their facets sends each bundle
    facet to its target.  When every polytope's normals correspond one to
    one with the ambient ones and all share the vertex-facet incidence
    pattern at the interval midpoint (strong isomorphism), the Minkowski sum
    adds offsets facetwise: one pass over the bundle facets adds them, and
    the first ambient facet whose offset differs from its total fails the
    check.  Outside that regime the verdict is inconclusive rather than a
    guess.
    """
    if model.anticanonical is None:
        return MinkowskiReport("inconclusive",
                               ("no ambient polytope to compare against",))
    target = model.anticanonical
    index = {f.normal: j for j, f in enumerate(target.facets)}
    every = list(range(len(target.facets)))
    # each polytope's target facets; a repeated ambient normal leaves an
    # index no bundle facet can reach
    maps = [[index.get(f.normal, -1) for f in pp.facets]
            for pp in model.polytopes]
    if any(sorted(targets) != every for targets in maps):
        return MinkowskiReport(
            "inconclusive", ("facet normals do not correspond one to one",))
    mid = (interval[0] + interval[1]) / 2
    realized = [realize(pp, mid) for pp in model.polytopes]
    realized_target = realize(target, mid)
    for rp in realized + [realized_target]:
        if not rp.is_simple() or not rp.is_full_dimensional():
            return MinkowskiReport(
                "inconclusive",
                ("a realization at the midpoint is not simple and "
                 "full-dimensional",))
    pattern = frozenset(realized_target.incidence)
    for rp, targets in zip(realized, maps):
        if frozenset(frozenset(targets[i] for i in inc)
                     for inc in rp.incidence) != pattern:
            return MinkowskiReport(
                "inconclusive",
                ("incidence patterns differ; polytopes are not strongly "
                 "isomorphic",))
    totals = [ParamPoly.zero()] * len(every)
    for pp, targets in zip(model.polytopes, maps):
        for f, j in zip(pp.facets, targets):
            totals[j] = totals[j] + f.offset
    for tf, total in zip(target.facets, totals):
        if total != tf.offset:
            return MinkowskiReport(
                "fail",
                ("bundle polytopes do not sum to the ambient polytope: "
                 "offsets along normal %s add to %s, expected %s"
                 % (tf.normal, total.text(target.param),
                    tf.offset.text(target.param)),))
    return MinkowskiReport("pass", ())
