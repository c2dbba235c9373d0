"""Parameterized polytopes: realization, measures, curves, the toric oracle."""

import ast
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from coupledfut import (
    GeometryError,
    ParamPolytope,
    ToricModel,
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

    def test_rejects_offset_parameter_mismatch(self):
        with pytest.raises(ValidationError, match="offset parameter mismatch"):
            ParamPolytope.create(
                "c", 1, [((1,), parse_poly("t", "t")), ((-1,), c("0"))]
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
        volumes = {volume(rp, apex=v) for v in rp.vertices}
        moments = {linear_moment(rp, (0, 0, 0, 1), apex=v) for v in rp.vertices}
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
    return ParamPoly.create(
        "c", [F(rng.randint(1, 6), rng.randint(1, 4))]
        + [F(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(degree)]
    )


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
            pp = ParamPolytope.create("c", dim, facets)
            xi = tuple(rng.randint(-3, 3) for _ in range(dim))
            vol = volume_curve(pp, INTERVAL)
            mom = moment_curve(pp, xi, INTERVAL)
            assert vol.degree() == dim * degree
            fresh = ParamPolytope.create("c", dim, facets)
            for _ in range(20):
                x = F(rng.randint(2501, 7499), 10000)
                rp = realize(fresh, x)
                assert vol.eval(x) == volume(rp)
                assert mom.eval(x) == linear_moment(rp, xi)

    def test_each_curve_is_interpolated_once(self, monkeypatch):
        from coupledfut import polytopes

        calls = []
        original = polytopes.interpolate
        monkeypatch.setattr(polytopes, "interpolate",
                            lambda *a: calls.append(a) or original(*a))
        pp = ParamPolytope.create(
            "c", 3, [(e, c("1")) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
            + [(e, c("c")) for e in ((-1, 0, 0), (0, -1, 0), (0, 0, -1))]
        )
        for _ in range(2):
            volume_curve(pp, INTERVAL)
            moment_curve(pp, (1, 0, 0), INTERVAL)
            moment_curve(pp, (0, 1, 0), INTERVAL)
        assert len(calls) == 3
        # 4d+1 abscissae fix the moment curve of degree (n+1)d, d = 1
        assert [len(points) for _, points in calls] == [5, 5, 5]

    def test_duplicated_facet_bounds_the_polytope_once(self):
        square = ParamPolytope.create(
            "c", 2, [((1, 0), c("1")), ((1, 0), c("1")), ((-1, 0), c("c")),
                     ((0, 1), c("1")), ((0, -1), c("0"))]
        )
        rp = realize(square, F(1, 2))
        assert volume(rp) == F(3, 2)
        assert linear_moment(rp, (1, 0)) == F(3, 8)
        assert volume_curve(square, INTERVAL) == c("1+c")


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
        bad = ToricModel("c", 1, (1,), (seg("1", "0"), seg("1", "0")), seg("1", "0"))
        report = minkowski_check(bad, (F(0), F(1)))
        assert report.status == "fail"
        assert "offsets along normal (1,) add to 2, expected 1" in report.messages[0]

    def test_missing_ambient_polytope_is_inconclusive(self):
        seg = ParamPolytope.create("c", 1, [((1,), c("1")), ((-1,), c("0"))])
        report = minkowski_check(ToricModel("c", 1, (1,), (seg,), None), (F(0), F(1)))
        assert report.status == "inconclusive"
        assert any("no ambient polytope" in m for m in report.messages)

    def test_mismatched_normals_are_inconclusive(self):
        seg = ParamPolytope.create("c", 1, [((1,), c("1")), ((-1,), c("0"))])
        skew = ParamPolytope.create("c", 1, [((2,), c("2")), ((-1,), c("0"))])
        report = minkowski_check(ToricModel("c", 1, (1,), (seg,), skew), (F(0), F(1)))
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

    def test_triangulation_independence_randomized(self, model):
        rng = random.Random(10330)
        pp = model.polytopes[0]
        checked = 0
        while checked < 100:
            x = F(rng.randint(260, 740), 1000)
            rp = realize(pp, x)
            expected_vol = volume(rp)
            expected_mom = linear_moment(rp, (0, 0, 0, 1))
            for v in rng.sample(list(rp.vertices), 4):
                assert volume(rp, apex=v) == expected_vol
                assert linear_moment(rp, (0, 0, 0, 1), apex=v) == expected_mom
                checked += 1


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
