"""Moment-polytope oracle, independent of the localization engine.

A parametric polytope is cut out by integer facet normals with polynomial
offsets: P(c) = { y : <normal_i, y> <= offset_i(c) }.  What does not depend
on the parameter is computed once per polytope: the boundedness verdict of
the normals and the integer inverse of every nonsingular square subsystem.
Realizing at a rational parameter value then evaluates the offsets,
multiplies them by each inverse and keeps the feasible solutions as
vertices, all in exact integer arithmetic; each value is realized once and
kept on the polytope.  One pass over a recursive star triangulation gives
the volume and the whole first-moment vector of a realization.  The
triangulation in vertex indices depends only on the vertex-facet
incidences, so it is reused by every realization with the same ones.
Curves in the parameter are recovered by exact interpolation on one grid of
sample values shared by volume and moment, with held-out verification
points, so a chamber crossing inside the interval is detected rather than
silently averaged over.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import cached_property
from fractions import Fraction

from .errors import GeometryError, Record, UsageError, ValidationError
from .rationals import (ParamPoly, RationalFunction, interpolate, rat,
                        rat_text, sample_values)

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


def _cross(rows: Sequence[tuple[int, ...]]) -> list[int]:
    """Generalized cross product of n-1 integer vectors in n dimensions.

    Orthogonal to every row, and zero exactly when the rows are dependent.
    """
    n = len(rows) + 1
    return [(-1) ** k * _int_det([[x for c, x in enumerate(row) if c != k]
                                  for row in rows])
            for k in range(n)]


def _rank(rows: list[Sequence[Fraction | int]]) -> int:
    """Rank, by elimination after scaling each row to integers (scaling a
    row leaves the rank unchanged)."""
    m = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])
    n_rows = len(m)
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for r in range(rank + 1, n_rows):
            f = m[r][col]
            if f:
                row = [top[col] * a - f * b for a, b in zip(m[r], top)]
                g = math.gcd(*row)
                m[r] = [a // g for a in row] if g > 1 else row
        rank += 1
        if rank == n_rows:
            break
    return rank


def _affine_rank(points: list[Vector]) -> int:
    """Dimension of the affine hull (0 for a single point)."""
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    return _rank(rows)


# ---------------------------------------------------------------------------
# parametric and realized polytopes


class Facet(Record):
    normal: tuple[int, ...]
    offset: ParamPoly


class ParamPolytope(Record):
    """Intersection of half-spaces <normal_i, y> <= offset_i(parameter).

    The parameter-independent data (boundedness, the inverses of the square
    subsystems), the realizations made so far and their triangulations are
    kept on the instance, each computed on first use.
    """

    param: str
    ambient: int
    facets: tuple[Facet, ...]

    @staticmethod
    def create(param: str, ambient: int,
               facets: list[tuple[tuple[int, ...], ParamPoly]]) -> "ParamPolytope":
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
        return ParamPolytope(param, ambient, tuple(built))

    @cached_property
    def _unbounded(self) -> str | None:
        """Why every realization is unbounded, or None when none is."""
        n = self.ambient
        normals = [f.normal for f in self.facets]
        if _rank(normals) < n:
            return "normals span a proper subspace; the polytope is unbounded"
        # the recession cone { d : <normal, d> <= 0 } is pointed, so it has a
        # ray exactly when one is orthogonal to n-1 independent normals
        for rows in itertools.combinations(normals, n - 1):
            ray = _cross(rows)
            if not any(ray):
                continue
            for direction in (ray, [-x for x in ray]):
                if all(sum(a * d for a, d in zip(row, direction)) <= 0
                       for row in normals):
                    return "unbounded: recession ray %s" % (tuple(direction),)
        return None

    @cached_property
    def _inverses(self) -> tuple[tuple[tuple[int, ...],
                                       tuple[tuple[int, ...], ...], int], ...]:
        """(subset, adjugate, determinant) for every nonsingular n-subset of
        normals, signed so the determinant is positive: the vertex cut out by
        the subset is adjugate . offsets / determinant."""
        n = self.ambient
        out = []
        for subset in itertools.combinations(range(len(self.facets)), n):
            rows = [self.facets[i].normal for i in subset]
            # column j of the adjugate is (-1)^j times the cross product of
            # the other rows
            columns = [[(-1) ** j * x for x in _cross(rows[:j] + rows[j + 1:])]
                       for j in range(n)]
            det = sum(a * b for a, b in zip(rows[0], columns[0]))
            if det == 0:
                continue
            sign = 1 if det > 0 else -1
            adjugate = tuple(tuple(sign * col[i] for col in columns)
                             for i in range(n))
            out.append((subset, adjugate, abs(det)))
        return tuple(out)

    @cached_property
    def _realizations(self) -> dict[Fraction, "RealizedPolytope"]:
        return {}

    @cached_property
    def _stars(self) -> dict[tuple[frozenset[int], ...],
                             tuple[tuple[int, ...], ...]]:
        return {}


class RealizedPolytope(Record, hidden=("stars",)):
    """Vertex description of one realization, with facet incidence.

    stars maps an incidence tuple to a star triangulation in vertex indices;
    realize() hands every realization of one polytope the same dict.
    """

    ambient: int
    value: Fraction
    vertices: tuple[Vector, ...]
    incidence: tuple[frozenset[int], ...]
    supported: tuple[bool, ...]
    stars: dict

    def is_simple(self) -> bool:
        return all(len(inc) == self.ambient for inc in self.incidence)

    def is_full_dimensional(self) -> bool:
        return _affine_rank(list(self.vertices)) == self.ambient

    def signature(self) -> frozenset[frozenset[int]]:
        """Vertex-facet incidence pattern, independent of vertex order."""
        return frozenset(self.incidence)

    @cached_property
    def measures(self) -> tuple[Fraction, Vector]:
        """Volume and moment vector (the integral of y) in one pass.

        The star triangulation about the barycenter is taken in vertex
        indices from stars when a realization with the same incidences was
        triangulated before: the incidences fix the face lattice, and with it
        the triangulation.  The barycenter is this realization's own.
        """
        n = self.ambient
        if not self.is_full_dimensional():
            return Fraction(0), (Fraction(0),) * n
        points = list(self.vertices) + [_barycenter(self)]
        star = self.stars.get(self.incidence)
        if star is None:
            star = _indexed(points, triangulate(self, points[-1]))
            self.stars[self.incidence] = star
        return _measure(n, points, star)


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
    if pp._unbounded is not None:
        raise GeometryError(pp._unbounded)
    n = pp.ambient
    offsets = [f.offset.eval(value) for f in pp.facets]
    scale = math.lcm(*(b.denominator for b in offsets))
    rhs = [b.numerator * (scale // b.denominator) for b in offsets]
    normals = [f.normal for f in pp.facets]
    found: dict[Vector, frozenset[int]] = {}
    for subset, adjugate, det in pp._inverses:
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
        face = [v for v, inc in zip(vertices, incidence) if i in inc]
        supported.append(bool(face) and _affine_rank(face) == n - 1)
    rp = RealizedPolytope(n, value, tuple(vertices), incidence,
                          tuple(supported), pp._stars)
    pp._realizations[value] = rp
    return rp


# ---------------------------------------------------------------------------
# volume and first moments by recursive star triangulation


def _face_simplices(vertices: list[Vector], active: frozenset[int],
                    incidence: dict[Vector, frozenset[int]],
                    facet_count: int, dim: int) -> list[list[Vector]]:
    """Triangulate one face of dimension dim into dim-simplices."""
    if dim == 0:
        return [[vertices[0]]]
    anchor = min(vertices)
    simplices: list[list[Vector]] = []
    seen: set[frozenset[Vector]] = set()
    for g in range(facet_count):
        if g in active:
            continue
        sub = [v for v in vertices if g in incidence[v]]
        if not sub or anchor in sub:
            continue
        key = frozenset(sub)
        if key in seen:
            continue
        seen.add(key)
        if _affine_rank(sub) != dim - 1:
            continue
        for s in _face_simplices(sub, active | {g}, incidence,
                                 facet_count, dim - 1):
            simplices.append([anchor] + s)
    return simplices


def _barycenter(rp: RealizedPolytope) -> Vector:
    k = len(rp.vertices)
    return tuple(sum(v[i] for v in rp.vertices) / k for i in range(rp.ambient))


def triangulate(rp: RealizedPolytope,
                apex: Vector | None = None) -> list[list[Vector]]:
    """Star triangulation into full-dimensional simplices.

    The default apex is the barycenter of the vertex set; any other point,
    in particular any vertex, yields the same volume and moments.
    """
    n = rp.ambient
    if apex is None:
        apex = _barycenter(rp)
    incidence = {v: inc for v, inc in zip(rp.vertices, rp.incidence)}
    facet_count = max((max(inc) for inc in rp.incidence if inc), default=-1) + 1
    simplices: list[list[Vector]] = []
    for f in range(facet_count):
        face = [v for v in rp.vertices if f in incidence[v]]
        if not face or _affine_rank(face) != n - 1:
            continue
        if apex in face:
            continue
        for s in _face_simplices(face, frozenset([f]), incidence,
                                 facet_count, n - 1):
            simplices.append([apex] + s)
    return simplices


def _indexed(points: list[Vector],
             simplices: list[list[Vector]]) -> tuple[tuple[int, ...], ...]:
    index = {v: i for i, v in enumerate(points)}
    return tuple(tuple(index[v] for v in s) for s in simplices)


def _measure(n: int, points: list[Vector],
             simplices: tuple[tuple[int, ...], ...]) -> tuple[Fraction, Vector]:
    """Volume and moment vector of n-simplices with disjoint interiors, each
    given by n+1 indices into points.  Determinants are taken on the points
    scaled to integers."""
    scale = math.lcm(*(x.denominator for p in points for x in p))
    ints = [[x.numerator * (scale // x.denominator) for x in p] for p in points]
    total = 0
    moment = [0] * n
    for s in simplices:
        base = ints[s[0]]
        det = abs(_int_det([[x - b for x, b in zip(ints[i], base)]
                            for i in s[1:]]))
        total += det
        for j in range(n):
            moment[j] += det * sum(ints[i][j] for i in s)
    denom = math.factorial(n) * scale ** n
    return (Fraction(total, denom),
            tuple(Fraction(m, denom * (n + 1) * scale) for m in moment))


def _measures(rp: RealizedPolytope,
              apex: Vector | None) -> tuple[Fraction, Vector]:
    if apex is None or not rp.is_full_dimensional():
        return rp.measures
    points = list(rp.vertices) + [apex]
    return _measure(rp.ambient, points,
                    _indexed(points, triangulate(rp, apex)))


def volume(rp: RealizedPolytope, apex: Vector | None = None) -> Fraction:
    """Exact Euclidean volume."""
    return _measures(rp, apex)[0]


def linear_moment(rp: RealizedPolytope, xi: tuple[int, ...],
                  apex: Vector | None = None) -> Fraction:
    """Integral of the linear functional <y, xi> over the polytope."""
    if len(xi) != rp.ambient:
        raise UsageError("direction has wrong length")
    return sum((m * x for m, x in zip(_measures(rp, apex)[1], xi)),
               Fraction(0))


# ---------------------------------------------------------------------------
# parameter curves by interpolation with held-out verification


def _curve(pp: ParamPolytope, interval: tuple[Fraction, Fraction],
           degree: int, measure) -> ParamPoly:
    # volume and moment curves share this grid, so they share realizations
    data = [(x, measure(realize(pp, x)))
            for x in sample_values(interval, pp.ambient + 4)]
    poly = interpolate(pp.param, data[:degree + 1])
    for x, y in data[degree + 1:]:
        if poly.eval(x) != y:
            raise GeometryError(
                "measurements on the interval do not lie on one polynomial; "
                "the combinatorial type changes inside it")
    return poly


def volume_curve(pp: ParamPolytope,
                 interval: tuple[Fraction, Fraction]) -> ParamPoly:
    """Euclidean volume as a polynomial in the parameter over the interval."""
    return _curve(pp, interval, pp.ambient, volume)


def moment_curve(pp: ParamPolytope, xi: tuple[int, ...],
                 interval: tuple[Fraction, Fraction]) -> ParamPoly:
    """First moment along xi as a polynomial in the parameter."""
    return _curve(pp, interval, pp.ambient + 1,
                  lambda rp: linear_moment(rp, xi))


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
