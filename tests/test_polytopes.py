"""Parameterized polytopes: realization, measures, curves, the toric oracle."""

import ast
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from coupledfut import (
    GeometryError,
    MinkowskiReport,
    ParamPolytope,
    ToricModel,
    UsageError,
    ValidationError,
    fut_localized,
    fut_toric,
    fut_toric_at,
    linear_moment,
    load,
    minkowski_check,
    moment_curve,
    ParamPoly,
    parse_poly,
    realize,
    triangulate,
    volume,
    volume_curve,
)
from coupledfut.catalog import NAMES
from coupledfut.polytopes import _measure
from coupledfut.rationals import MAX_DEGREE, MAX_SIMPLICES

INTERVAL = (F(1, 4), F(3, 4))
SAMPLES = [F(5, 16), F(3, 8), F(1, 2), F(5, 8), F(11, 16)]


def c(text):
    return parse_poly(text, "c")


def box(dim, lo=0, hi=1):
    facets = []
    for i in range(dim):
        e = tuple(1 if j == i else 0 for j in range(dim))
        facets.append((e, c(str(hi))))
        facets.append((tuple(-x for x in e), c(str(-lo))))
    return ParamPolytope.create("c", dim, facets)


def simplex(dim):
    facets = [
        (tuple(-1 if j == i else 0 for j in range(dim)), c("0")) for i in range(dim)
    ]
    facets.append((tuple(1 for _ in range(dim)), c("1")))
    return ParamPolytope.create("c", dim, facets)


@pytest.fixture(scope="module")
def model():
    return load("hultgren-c").toric


def apex_measures(rp, i, xi):
    """Volume and the moment along xi, over the star from vertex i."""
    vol, mom = _measure(rp, triangulate(rp, i))
    return vol, sum((m * x for m, x in zip(mom, xi)), F(0))


class TestCreate:
    def test_rejects_nonpositive_ambient(self):
        with pytest.raises(ValidationError, match="ambient dimension"):
            ParamPolytope.create("c", 0, [])

    def test_rejects_too_few_facets(self):
        with pytest.raises(ValidationError, match="cannot bound"):
            ParamPolytope.create("c", 2, [((1, 0), c("1"))])

    def test_rejects_zero_normal(self):
        with pytest.raises(ValidationError, match="zero facet normal"):
            ParamPolytope.create("c", 1, [((0,), c("1")), ((1,), c("1"))])

    def test_rejects_wrong_normal_length(self):
        with pytest.raises(ValidationError, match="wrong length"):
            ParamPolytope.create(
                "c", 2, [((1,), c("1")), ((0, 1), c("1")), ((-1, -1), c("0"))]
            )


class TestRealize:
    def test_unit_four_cube(self):
        rp = realize(box(4), F(1, 2))
        assert len(rp.vertices) == 16
        assert rp.is_simple()
        assert volume(rp) == 1
        assert linear_moment(rp, (1, 0, 0, 0)) == F(1, 2)

    def test_standard_four_simplex(self):
        rp = realize(simplex(4), F(1, 2))
        assert len(rp.vertices) == 5
        assert volume(rp) == F(1, 24)
        assert linear_moment(rp, (1, 0, 0, 0)) == F(1, 120)

    def test_flagship_fiber_polytope_at_midpoint(self, model):
        rp = realize(model.polytopes[0], F(1, 2))
        assert len(rp.vertices) == 12
        assert rp.is_simple()
        assert rp.is_full_dimensional()
        assert all(rp.supported)
        assert volume(rp) == F(25, 24)
        assert linear_moment(rp, (0, 0, 0, 1)) == F(-1, 40)

    def test_facet_losing_support_off_center(self, model):
        rp = realize(model.polytopes[0], F(1, 5))
        assert len(rp.vertices) == 9
        assert [i for i, s in enumerate(rp.supported) if not s] == [5]

    def test_empty_realization(self):
        seg = ParamPolytope.create("c", 1, [((1,), c("c")), ((-1,), c("1"))])
        with pytest.raises(GeometryError, match="empty realization"):
            realize(seg, F(-2))

    def test_unbounded_realization(self):
        wedge = ParamPolytope.create(
            "c", 2, [((1, 0), c("1")), ((0, 1), c("1")), ((1, 1), c("3"))]
        )
        with pytest.raises(GeometryError, match="unbounded"):
            realize(wedge, F(1, 2))

    def test_normals_in_a_proper_subspace_are_unbounded(self):
        strip = ParamPolytope.create(
            "c", 2, [((1, 0), c("1")), ((-1, 0), c("1")), ((2, 0), c("3"))]
        )
        with pytest.raises(GeometryError, match="proper subspace"):
            realize(strip, F(1, 2))

    def test_boundedness_agrees_with_a_kernel_reference(self):
        rng = random.Random(2718)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(1, 3)
            m = rng.randint(n + 1, n + 3)
            normals = []
            while len(normals) < m:
                normal = tuple(rng.randint(-2, 2) for _ in range(n))
                if any(normal):
                    normals.append(normal)
            pp = ParamPolytope.create("c", n, [(a, c("1")) for a in normals])
            expected = _reference_recession(normals)
            verdict = pp.fan.unbounded
            assert (verdict is None) == (expected is None), (normals, verdict)
            if verdict is not None and "ray" in verdict:
                ray = ast.literal_eval(verdict.partition("ray ")[2])
                assert any(ray)
                assert all(sum(a * d for a, d in zip(normal, ray)) <= 0
                           for normal in normals)
            verdicts.add(expected is None)
        assert verdicts == {True, False}

    def test_triangulation_apex_independence(self, model):
        rp = realize(model.polytopes[0], F(1, 2))
        measures = {apex_measures(rp, i, (0, 0, 0, 1))
                    for i in range(len(rp.vertices))}
        volumes = {vol for vol, _ in measures}
        moments = {mom for _, mom in measures}
        assert volumes == {F(25, 24)}
        assert moments == {F(-1, 40)}

    def test_translation_covariance(self):
        base = realize(box(4), F(1, 2))
        shifted_facets = []
        for i in range(4):
            e = tuple(1 if j == i else 0 for j in range(4))
            shifted_facets.append((e, c("4") if i == 0 else c("1")))
            shifted_facets.append(
                (tuple(-x for x in e), c("-3") if i == 0 else c("0"))
            )
        moved = realize(ParamPolytope.create("c", 4, shifted_facets), F(1, 2))
        assert volume(moved) == volume(base)
        assert linear_moment(moved, (1, 0, 0, 0)) == (
            linear_moment(base, (1, 0, 0, 0)) + 3 * volume(base)
        )


def _fraction_rref(rows, n):
    """Reduced row echelon form over Fractions: the rows and pivot columns."""
    m = [[F(x) for x in row] for row in rows]
    pivots = []
    for col in range(n):
        r = next((r for r in range(len(pivots), len(m)) if m[r][col]), None)
        if r is None:
            continue
        k = len(pivots)
        m[k], m[r] = m[r], m[k]
        m[k] = [x / m[k][col] for x in m[k]]
        for i in range(len(m)):
            if i != k and m[i][col]:
                m[i] = [x - m[i][col] * y for x, y in zip(m[i], m[k])]
        pivots.append(col)
    return m, pivots


def _reference_recession(normals):
    """A nonzero d with <a, d> <= 0 for every normal a, or None when the
    polytope is bounded; by the kernel of each n-1 independent normals."""
    n = len(normals[0])
    if len(_fraction_rref(normals, n)[1]) < n:
        return "proper subspace"
    for rows in itertools.combinations(normals, n - 1):
        m, pivots = _fraction_rref(rows, n)
        if len(pivots) < n - 1:
            continue
        free = next(j for j in range(n) if j not in pivots)
        ray = [F(0)] * n
        ray[free] = F(1)
        for row, col in zip(m, pivots):
            ray[col] = -row[free]
        for d in (ray, [-x for x in ray]):
            if all(sum(a * x for a, x in zip(normal, d)) <= 0
                   for normal in normals):
                return d
    return None


def _affine_dim(points):
    """Dimension of the affine hull of the points, by Fraction elimination."""
    rows = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    return len(_fraction_rref(rows, len(points[0]))[1])


@st.composite
def flattened_polytopes(draw):
    """A box around the origin in dimension 1-4, cut by random facets, which
    may be redundant, and possibly one repeated facet, in random order; the
    box's pinned pairs of opposite offsets are 0, which flattens it to any
    codimension."""
    n = draw(st.integers(1, 4))
    pinned = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    facets = []
    for i in range(n):
        for sign in (1, -1):
            facets.append((tuple(sign * int(j == i) for j in range(n)),
                           0 if i in pinned else draw(st.integers(1, 3))))
    normals = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    facets += draw(st.lists(st.tuples(normals, st.integers(0, 6)), max_size=4))
    facets += draw(st.lists(st.sampled_from(facets), max_size=1))
    return ParamPolytope.create("c", n, [(a, c(str(b))) for a, b in
                                         draw(st.permutations(facets))])


class TestFans:
    def test_one_fans_dict_shares_equal_normals(self):
        fans = {}
        small, large = (ParamPolytope.create(
            "c", 2, [((1, 0), c(hi)), ((0, 1), c(hi)), ((-1, -1), c("0"))],
            fans) for hi in ("1", "2"))
        other = ParamPolytope.create(
            "c", 2, [((0, 1), c("1")), ((1, 0), c("1")), ((-1, -1), c("0"))],
            fans)
        assert small.fan is large.fan
        assert other.fan is not small.fan
        assert box(2).fan is not box(2).fan
        assert volume(realize(small, 0)) == 2
        assert volume(realize(large, 0)) == 8
        assert len(small.fan.stars) == 1

    def test_catalog_polytopes_share_one_fan(self, model):
        assert len({id(pp.fan) for pp in model.polytopes
                    + (model.anticanonical,)}) == 1


class TestCurves:
    def test_fiber_volume_curves(self, model):
        first, second = model.polytopes
        assert volume_curve(first, INTERVAL) == c("7/3c-1/8")
        assert volume_curve(second, INTERVAL) == c("-7/3c+53/24")

    def test_fiber_moment_curves(self, model):
        first = model.polytopes[0]
        assert moment_curve(first, (0, 0, 0, 1), INTERVAL) == c("-1/4c+1/10")
        assert moment_curve(first, (1, 0, 0, 0), INTERVAL) == c("-1/12c+1/30")
        assert moment_curve(first, (0, 1, 0, 0), INTERVAL) == c("-1/12c+1/30")
        assert moment_curve(first, (0, 0, 1, 0), INTERVAL) == c("1/8c-1/20")

    def test_anticanonical_volume_is_constant(self, model):
        curve = volume_curve(model.anticanonical, INTERVAL)
        assert curve == c("50/3")

    def test_type_change_inside_interval_is_refused(self):
        kink = ParamPolytope.create(
            "c", 1, [((1,), c("c")), ((1,), c("1-c")), ((-1,), c("0"))]
        )
        with pytest.raises(GeometryError, match="combinatorial type changes"):
            volume_curve(kink, (F(0), F(1)))

    def test_quadratic_offsets_keep_one_chamber(self):
        # the square [-c^2, 1]^2 never changes type; its volume has degree 4
        square = ParamPolytope.create(
            "c", 2, [((1, 0), c("1")), ((-1, 0), c("c^2")),
                     ((0, 1), c("1")), ((0, -1), c("c^2"))]
        )
        assert volume_curve(square, INTERVAL) == c("(1+c^2)^2")
        assert moment_curve(square, (1, 0), INTERVAL) == c("(1-c^4)(1+c^2)/2")

    def test_wall_past_every_sample_is_refused(self):
        # on (0, 1) the facet y <= 9/10 starts to cut [0, c] at c = 9/10
        clipped = ParamPolytope.create(
            "c", 1, [((-1,), c("0")), ((1,), c("c")), ((1,), c("9/10"))]
        )
        with pytest.raises(GeometryError, match="combinatorial type changes"):
            volume_curve(clipped, (F(0), F(1)))
        assert volume_curve(clipped, (F(0), F(9, 10))) == c("c")

    def test_curves_match_pointwise_measures(self, model):
        rng = random.Random(8118)
        pp = model.polytopes[1]
        vol = volume_curve(pp, INTERVAL)
        mom = moment_curve(pp, (0, 0, 0, 1), INTERVAL)
        for _ in range(30):
            x = F(rng.randint(260, 740), 1000)
            rp = realize(pp, x)
            assert vol.eval(x) == volume(rp)
            assert mom.eval(x) == linear_moment(rp, (0, 0, 0, 1))


def positive_poly(rng, degree):
    """A polynomial with positive coefficients, so positive for c > 0."""
    return ParamPoly.create([F(rng.randint(1, 6), rng.randint(1, 4))]
        + [F(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(degree)]
    )


def assert_curves_match_fresh(facets, xi, rng):
    """The curves of one chamber against 20 realizations of a fresh copy,
    measured by determinants; returns the volume curve."""
    dim = len(xi)
    pp = ParamPolytope.create("c", dim, facets)
    vol = volume_curve(pp, INTERVAL)
    mom = moment_curve(pp, xi, INTERVAL)
    fresh = ParamPolytope.create("c", dim, facets)
    for _ in range(20):
        x = F(rng.randint(2501, 7499), 10000)
        rp = realize(fresh, x)
        assert vol.eval(x) == volume(rp)
        assert mom.eval(x) == linear_moment(rp, xi)
    return vol


# non-simple polytopes: the pyramid's apex and every vertex of the
# octahedron lie on four facets, the square's right corners on three
NON_SIMPLE = [
    # the square pyramid over [-1, 1+2c] x [-3/2-c, 1/2+c] at height c^2,
    # with apex (c, -1/2, 1+c+c^2)
    [((0, 0, -1), c("-c^2")), ((1, 0, 1), c("(1+c)^2")),
     ((-1, 0, 1), c("1+c^2")), ((0, 1, 1), c("1/2+c+c^2")),
     ((0, -1, 1), c("3/2+c+c^2"))],
    # the octahedron |y_1 - c| + |y_2| + |y_3 - 1/2| <= 1+c
    [(e, c("1+c") + c("c").scale(e[0]) + c("1/2").scale(e[2]))
     for e in itertools.product((1, -1), repeat=3)],
    # the square [-c, 1] x [0, 1] with its facet y_1 <= 1 listed twice
    [((1, 0), c("1")), ((1, 0), c("1")), ((-1, 0), c("c")),
     ((0, 1), c("1")), ((0, -1), c("0"))],
]


class TestCertifiedCurves:
    def test_curves_match_fresh_realizations(self):
        rng = random.Random(4477)
        for trial in range(12):
            dim = rng.randint(1, 5)
            degree = 1 + trial % 2
            facets = []
            if trial % 4 < 2:  # a box around the origin
                for i in range(dim):
                    e = tuple(int(j == i) for j in range(dim))
                    facets.append((e, positive_poly(rng, degree)))
                    facets.append((tuple(-x for x in e), positive_poly(rng, degree)))
            else:  # a simplex around the origin
                for i in range(dim):
                    e = tuple(-int(j == i) for j in range(dim))
                    facets.append((e, positive_poly(rng, degree)))
                facets.append(((1,) * dim, positive_poly(rng, degree)))
            xi = tuple(rng.randint(-3, 3) for _ in range(dim))
            vol = assert_curves_match_fresh(facets, xi, rng)
            assert vol.degree() == dim * degree
        for facets in NON_SIMPLE:
            dim = len(facets[0][0])
            pp = ParamPolytope.create("c", dim, facets)
            assert not realize(pp, F(1, 2)).is_simple()
            xi = tuple(rng.randint(-3, 3) for _ in range(dim))
            assert_curves_match_fresh(facets, xi, rng)

    def test_chambers_are_certified_once_and_never_sampled(self, monkeypatch):
        from coupledfut import polytopes, rationals

        # the curves come from slack products on one chamber: nothing is
        # sampled or interpolated, and no simplex is measured by a determinant
        assert "interpolate" not in vars(polytopes)
        assert "sample_values" not in vars(polytopes)

        def refuse(*args):
            raise AssertionError("interpolate called")

        def count(name, log):
            original = getattr(polytopes, name)
            monkeypatch.setattr(polytopes, name,
                                lambda *a: log.append(a) or original(*a))

        monkeypatch.setattr(rationals, "interpolate", refuse)
        dets, certified = [], []
        count("_int_det", dets)
        count("positive_on_interval", certified)
        pp = ParamPolytope.create(
            "c", 3, [(e, c("1")) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
            + [(e, c("c")) for e in ((-1, 0, 0), (0, -1, 0), (0, 0, -1))]
        )
        for _ in range(2):
            assert volume_curve(pp, INTERVAL) == c("(1+c)^3")
            assert moment_curve(pp, (1, 0, 0), INTERVAL) == c("(1-c)(1+c)^3/2")
            assert moment_curve(pp, (0, 1, 1), INTERVAL) == c("(1-c)(1+c)^3")
        # the fan's set-up alone: one determinant per 3-subset of normals
        assert len(dets) == math.comb(6, 3)
        # each of the 8 vertices has 3 slacks, all 1+c: proved positive once
        assert certified == [(c("1+c"), INTERVAL)]
        # another interval is another chamber
        assert volume_curve(pp, (F(1, 3), F(2, 3))) == c("(1+c)^3")
        assert len(certified) == 2
        assert len(dets) == math.comb(6, 3)
        # a realization is still measured by determinants, one per simplex
        volume(realize(pp, F(2, 5)))
        assert len(dets) == math.comb(6, 3) + math.factorial(3)

    def test_degree_is_bounded_before_realizing(self, monkeypatch):
        from coupledfut import polytopes

        monkeypatch.setattr(polytopes, "realize", None)
        for dim, degree in ((9, 99), (101, 1), (2, 51)):
            pp = ParamPolytope.create(
                "c", dim, [(tuple(-int(j == i) for j in range(dim)), c("0"))
                           for i in range(dim)]
                + [((1,) * dim, c("1+c^%d" % degree))])
            assert dim * degree > MAX_DEGREE
            with pytest.raises(UsageError, match="chamber curves of degree "
                                                 "%d " % (dim * degree)):
                volume_curve(pp, INTERVAL)

    def test_duplicated_facet_bounds_the_polytope_once(self):
        square = ParamPolytope.create(
            "c", 2, [((1, 0), c("1")), ((1, 0), c("1")), ((-1, 0), c("c")),
                     ((0, 1), c("1")), ((0, -1), c("0"))]
        )
        rp = realize(square, F(1, 2))
        assert volume(rp) == F(3, 2)
        assert linear_moment(rp, (1, 0)) == F(3, 8)
        assert volume_curve(square, INTERVAL) == c("1+c")


def _reference_vertices(pp, x):
    """The vertices at x, each with its tight facets, by Fraction
    elimination on every n-subset of facets."""
    n = pp.ambient
    offsets = [f.offset.eval(x) for f in pp.facets]
    found = {}
    for subset in itertools.combinations(range(len(pp.facets)), n):
        m, pivots = _fraction_rref([list(pp.facets[i].normal) + [offsets[i]]
                                    for i in subset], n)
        if len(pivots) < n:
            continue
        y = tuple(row[n] for row in m)
        slack = [b - sum(a * v for a, v in zip(f.normal, y))
                 for f, b in zip(pp.facets, offsets)]
        if min(slack) >= 0:
            found[y] = frozenset(i for i, s in enumerate(slack) if s == 0)
    return found


class TestIntegerRealizations:
    @pytest.mark.parametrize("x", [F(1, 2), F(1, 5)])
    def test_points_and_bases_match_a_fraction_reference(self, x):
        polytopes = [box(n) for n in range(1, 5)] + [simplex(n)
                                                     for n in range(1, 5)]
        for name in NAMES:
            model = load(name).toric
            polytopes += model.polytopes + (model.anticanonical,)
        polytopes += [ParamPolytope.create("c", len(facets[0][0]), facets)
                      for facets in NON_SIMPLE]
        for pp in polytopes:
            rp, ref, fan = realize(pp, x), _reference_vertices(pp, x), pp.fan
            # integer numerators over one positive denominator, in lowest
            # terms, so equal realizations have equal fields
            assert rp.denom > 0
            assert math.gcd(rp.denom,
                            *itertools.chain.from_iterable(rp.points)) == 1
            assert rp.vertices == tuple(sorted(ref)) == tuple(
                tuple(F(v, rp.denom) for v in p) for p in rp.points)
            assert rp.incidence == tuple(ref[v] for v in rp.vertices)
            # each vertex keeps the first nonsingular subset of its facets
            assert rp.bases == tuple(
                next(s for s in itertools.combinations(sorted(tight),
                                                       pp.ambient)
                     if laplace_det([list(fan.normals[i]) for i in s]))
                for tight in rp.incidence)
            assert fan.common == math.lcm(*(det for _, det
                                            in fan.inverses.values()))


class TestToricInvariant:
    def test_matches_double_of_localization(self, model):
        f4 = fut_toric(model, INTERVAL)
        loc = fut_localized(load("hultgren-c").localization)
        assert f4 == loc.scale(2)

    def test_pointwise_oracle_agrees_with_curve(self, model):
        f4 = fut_toric(model, INTERVAL)
        for x in SAMPLES:
            assert fut_toric_at(model.polytopes, model.direction, x) == f4.num.eval(
                x
            ) / f4.den.eval(x)

    def test_direction_relations(self, model):
        f4 = fut_toric(model, INTERVAL)
        assert fut_toric(model, INTERVAL, (1, 0, 0, 0)) == f4.scale(F(1, 3))
        assert fut_toric(model, INTERVAL, (0, 1, 0, 0)) == f4.scale(F(1, 3))
        assert fut_toric(model, INTERVAL, (0, 0, 1, 0)) == f4.scale(F(-1, 2))

    def test_coupled_segments_balance_exactly(self):
        scn = load("cp1-coupled")
        assert fut_toric(scn.toric, scn.localization.interval).is_zero()

    @pytest.mark.parametrize("direction", [(1, 2), (1, 0, 0, 0, 0)])
    def test_direction_of_wrong_length_is_refused(self, model, direction):
        with pytest.raises(UsageError, match="direction has wrong length"):
            fut_toric(model, INTERVAL, direction)

    def test_degenerate_realization_is_refused(self):
        point = ParamPolytope.create("c", 1, [((1,), c("0")), ((-1,), c("0"))])
        with pytest.raises(GeometryError, match="degenerate realization"):
            fut_toric_at((point,), (1,), F(1, 2))


class TestMinkowski:
    def test_catalog_decomposition_passes(self, model):
        report = minkowski_check(model, INTERVAL)
        assert report.status == "pass"
        assert report.messages == ()

    def test_offset_defect_is_located(self):
        seg = lambda hi, lo: ParamPolytope.create(
            "c", 1, [((1,), c(hi)), ((-1,), c(lo))]
        )
        bad = ToricModel(1, (1,), (seg("1", "0"), seg("1", "0")), seg("1", "0"))
        report = minkowski_check(bad, (F(0), F(1)))
        assert report.status == "fail"
        assert "offsets along normal (1,) add to 2, expected 1" in report.messages[0]

    @staticmethod
    def segments(ambient_lo):
        # [0, c] + [-c, 1] + [c-1, 2], the second listed from its lower end
        seg = lambda hi, lo: (((1,), c(hi)), ((-1,), c(lo)))
        bundles = [seg("c", "0"), seg("1", "c")[::-1], seg("2", "1-c")]
        return ToricModel(1, (1,), tuple(
            ParamPolytope.create("c", 1, list(facets)) for facets in bundles),
            ParamPolytope.create("c", 1, list(seg("c+3", ambient_lo))))

    def test_three_bundles_sum_facetwise(self):
        report = minkowski_check(self.segments("1"), (F(0), F(1)))
        assert (report.status, report.messages) == ("pass", ())

    @pytest.mark.parametrize("ambient_lo", ["2", "c+1"])
    def test_defect_at_the_second_facet_is_reported(self, ambient_lo):
        report = minkowski_check(self.segments(ambient_lo), (F(0), F(1)))
        assert report == MinkowskiReport("fail", (
            "bundle polytopes do not sum to the ambient polytope: offsets "
            "along normal (-1,) add to 1, expected %s" % ambient_lo,))

    def test_missing_ambient_polytope_is_inconclusive(self):
        seg = ParamPolytope.create("c", 1, [((1,), c("1")), ((-1,), c("0"))])
        report = minkowski_check(ToricModel(1, (1,), (seg,), None), (F(0), F(1)))
        assert report.status == "inconclusive"
        assert any("no ambient polytope" in m for m in report.messages)

    def test_mismatched_normals_are_inconclusive(self):
        seg = ParamPolytope.create("c", 1, [((1,), c("1")), ((-1,), c("0"))])
        skew = ParamPolytope.create("c", 1, [((2,), c("2")), ((-1,), c("0"))])
        report = minkowski_check(ToricModel(1, (1,), (seg,), skew), (F(0), F(1)))
        assert report.status == "inconclusive"
        assert any("do not correspond" in m for m in report.messages)


class TestRandomizedGeometry:
    def test_box_measures_randomized(self):
        rng = random.Random(9229)
        for _ in range(100):
            dim = rng.randint(1, 3)
            lo = rng.randint(-4, 0)
            hi = rng.randint(1, 5)
            rp = realize(box(dim, lo, hi), F(1, 2))
            side = hi - lo
            assert volume(rp) == F(side) ** dim
            axis = tuple(1 if i == 0 else 0 for i in range(dim))
            assert linear_moment(rp, axis) == F(lo + hi, 2) * F(side) ** dim

    @settings(max_examples=150, derandomize=True, deadline=None,
              database=None)
    @given(pp=flattened_polytopes(), x=st.integers(260, 740),
           apexes=st.sets(st.integers(0, 11), min_size=2, max_size=2))
    def test_triangulation_independence_randomized(self, model, pp, x,
                                                   apexes):
        rp = realize(pp, F(1, 2))
        n = rp.ambient
        # the flags against the dimensions of the faces' vertex sets
        assert rp.is_full_dimensional() == (_affine_dim(rp.vertices) == n)
        faces = [[v for v, inc in zip(rp.vertices, rp.incidence) if i in inc]
                 for i in range(len(pp.facets))]
        assert list(rp.supported) == [bool(face) and _affine_dim(face) == n - 1
                                      for face in faces]
        xi = tuple(range(1, n + 1))
        expected = volume(rp), linear_moment(rp, xi)
        for i in range(len(rp.vertices)):
            assert apex_measures(rp, i, xi) == expected
        # the flagship has 12 vertices inside its interval
        rp = realize(model.polytopes[0], F(x, 1000))
        expected = volume(rp), linear_moment(rp, (0, 0, 0, 1))
        for i in apexes:
            assert apex_measures(rp, i, (0, 0, 0, 1)) == expected


def laplace_det(rows):
    if not rows:
        return F(1)
    return sum(
        (-1) ** j * rows[0][j] * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def simplex_sums(simplices, n):
    """Volume and moment vector summed over simplices, by Laplace expansion."""
    vol, mom = F(0), [F(0)] * n
    for s in simplices:
        d = abs(laplace_det([[a - b for a, b in zip(v, s[0])] for v in s[1:]]))
        d /= math.factorial(n)
        vol += d
        mom = [m + d * sum(v[i] for v in s) / (n + 1) for i, m in enumerate(mom)]
    return vol, mom


class TestCachedRealizations:
    def test_warm_copy_agrees_with_fresh_copies(self):
        warm = load("hultgren-c").toric
        fut_toric(warm, INTERVAL)
        directions = [warm.direction] + [
            tuple(int(i == j) for j in range(4)) for i in range(4)
        ]
        rng = random.Random(31415)
        # both chambers of [0, 1] and the walls between them, so a
        # triangulation is reused only for a matching incidence pattern
        xs = [F(1, 4), F(3, 4)] + [F(rng.randint(0, 1000), 1000) for _ in range(28)]
        reused = 0
        for x in xs:
            fresh = load("hultgren-c").toric
            for pw, pf in zip(warm.polytopes, fresh.polytopes):
                rw, rf = realize(pw, x), realize(pf, x)
                assert rw == rf
                reused += rw.incidence in rw.polytope.fan.stars
                assert volume(rw) == volume(rf)
                for xi in directions:
                    assert linear_moment(rw, xi) == linear_moment(rf, xi)
                center = tuple(sum(col) / len(rw.vertices) for col in zip(*rw.vertices))
                points = rw.vertices + (center,)
                vol, mom = simplex_sums(
                    [[points[i] for i in s] for s in triangulate(rw)], 4)
                assert volume(rw) == vol
                for xi in directions:
                    assert linear_moment(rw, xi) == sum(m * a for m, a in zip(mom, xi))
            assert fut_toric_at(warm.polytopes, warm.direction, x) == fut_toric_at(
                fresh.polytopes, fresh.direction, x
            )
        assert reused > 0


def simplex_square(a):
    """Δ^a × Δ^a with sides 1+c and 2-c: C(2a, a) simplices in its star."""
    n = 2 * a
    facets = [(tuple(-int(j == i) for j in range(n)), c("0")) for i in range(n)]
    facets.append((tuple(int(j < a) for j in range(n)), c("1+c")))
    facets.append((tuple(int(j >= a) for j in range(n)), c("2-c")))
    return ParamPolytope.create("c", n, facets)


class TestStarBound:
    def test_largest_admitted_stars(self):
        assert MAX_SIMPLICES == 1000
        assert len(triangulate(realize(box(6), F(1, 2)))) == 720
        rp = realize(simplex_square(6), F(1, 2))
        assert len(triangulate(rp)) == math.comb(12, 6) == 924
        assert volume(rp) == F(3, 2) ** 12 / math.factorial(6) ** 2

    def test_larger_star_is_refused_while_it_is_built(self):
        rp = realize(simplex_square(7), F(1, 2))
        start = time.perf_counter()
        with pytest.raises(UsageError, match="the star triangulation exceeds "
                                             "the limit of 1000 simplices"):
            triangulate(rp)
        assert time.perf_counter() - start < 1
