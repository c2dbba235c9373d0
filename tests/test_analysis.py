"""Root isolation, Sturm counting, sampling, and cross-validation."""

import math
import random
from fractions import Fraction as F

import pytest

from coupledfut import (
    ParamPoly,
    RationalFunction,
    UsageError,
    ValidationError,
    count_roots_open,
    cross_validate,
    fut_roots,
    isolate_roots,
    load,
    parse_poly,
    positive_on_interval,
    ratfun_reduce,
    sample_curve,
    sample_values,
    scenario_from_dict,
    scenario_to_dict,
    sturm_chain,
)
from coupledfut.analysis import (
    RootRecord,
    _decimal_of_fraction,
    _quadratic_surds,
)
from coupledfut.catalog import NAMES
from coupledfut.rationals import (UnitKernel, _factorize, _squarefree_layers,
                                  _squarefree_split)
from test_localization import perfbench_module
from test_rationals import derivative, leading, monic, ref_divmod

INTERVAL = (F(1, 4), F(3, 4))
SAMPLES = [F(5, 16), F(3, 8), F(1, 2), F(5, 8), F(11, 16)]


def c(text):
    return parse_poly(text, "c")


def product(*texts):
    out = c(texts[0])
    for t in texts[1:]:
        out = out * c(t)
    return out


class TestIsolateRoots:
    def test_flagship_numerator_has_two_surd_roots(self):
        roots = isolate_roots(c("112c^2-112c+23"), INTERVAL)
        assert len(roots) == 2
        low, high = roots
        assert low.exact is None and high.exact is None
        assert low.surd == (14, -1, 35, 28)
        assert high.surd == (14, 1, 35, 28)
        assert low.decimal == "0.288711436317870856"
        assert high.decimal == "0.711288563682129144"
        for rec in roots:
            assert rec.hi - rec.lo <= F(1, 10**12)
            assert rec.multiplicity == 1

    def test_cubic_root_decimal_is_correctly_rounded(self):
        (rec,) = isolate_roots(c("c^3-2"), (F(1), F(2)))
        assert rec.hi - rec.lo <= F(1, 10**12)
        assert rec.lo ** 3 < 2 < rec.hi ** 3
        # round(2^(1/3) * 10^18) from the integer cube root, independently
        target = 2 * 10**54
        r = int(round(target ** (1 / 3)))
        while r**3 > target:
            r -= 1
        while (r + 1) ** 3 <= target:
            r += 1
        if (2 * r + 1) ** 3 < 8 * target:
            r += 1
        assert rec.decimal == "1.%018d" % (r - 10**18)
        assert rec.decimal == "1.259921049894873165"

    def test_irrational_bracket_counts_only_its_own_root(self):
        # 141/100 lies inside the first bracket (1, 3/2) that isolates sqrt(2)
        p = c("(100c-141)^2(c^2-2)")
        exact, surd = isolate_roots(p, (F(1), F(2)), F(1, 2))
        assert (exact.exact, exact.multiplicity) == (F(141, 100), 2)
        assert surd.exact is None and surd.surd == (0, 1, 2, 1)
        assert surd.multiplicity == 1
        assert exact.exact < surd.lo < surd.hi and surd.lo**2 < 2 < surd.hi**2
        assert surd.hi - surd.lo <= F(1, 2)

    def test_irrational_multiplicity_beside_an_exact_root(self):
        p = c("(c-3/2)(c^2-2)^3")
        surd, exact = isolate_roots(p, (F(1), F(2)), F(1, 2))
        assert (exact.exact, exact.multiplicity) == (F(3, 2), 1)
        assert surd.multiplicity == 3
        assert surd.hi < F(3, 2) and surd.lo**2 < 2 < surd.hi**2

    def test_width_request_is_honored(self):
        width = F(1, 10**20)
        for rec in isolate_roots(c("112c^2-112c+23"), INTERVAL, width):
            assert rec.hi - rec.lo <= width

    def test_rational_root_is_exact_with_zero_width(self):
        (rec,) = isolate_roots(c("112c-6"), (F(0), F(1)))
        assert rec.exact == F(3, 56)
        assert rec.lo == rec.hi == F(3, 56)
        assert rec.surd is None
        assert rec.decimal == "0.053571428571428571"

    def test_endpoint_roots_are_excluded(self):
        assert isolate_roots(c("112c-6"), (F(3, 56), F(1))) == ()

    def test_no_real_roots(self):
        assert isolate_roots(c("c^2+1"), (F(-10), F(10))) == ()

    def test_mixed_rational_and_quadratic_roots(self):
        p = product("c-1/2", "c-1/4", "c^2-2")
        records = isolate_roots(p, (F(0), F(2)))
        assert [r.exact for r in records] == [F(1, 4), F(1, 2), None]
        assert records[2].surd == (0, 1, 2, 1)

    def test_multiplicity_is_reported(self):
        p = product("2c-1", "2c-1", "4c-1")
        records = isolate_roots(p, (F(0), F(1)))
        assert [(r.exact, r.multiplicity) for r in records] == [
            (F(1, 4), 1),
            (F(1, 2), 2),
        ]


class TestSturm:
    def test_chain_shape(self):
        chain = sturm_chain(c("112c^2-112c+23"))
        assert [p.degree() for p in chain] == [2, 1, 0]

    def test_terms_are_positive_multiples_of_the_classical_chain(self):
        # sparse polynomials make degree gaps, where a pseudo-remainder by a
        # negative leading coefficient would flip a sign
        rng = random.Random(11312)
        polys = [c("c^5-3c^2+1"), c("-c^4+2c+1")] + [
            ParamPoly.create([F(rng.randint(-6, 6), rng.randint(1, 4))
                                   if rng.random() < 0.5 else 0
                                   for _ in range(rng.randint(2, 7))]
                             + [rng.choice([-3, -1, F(1, 2), 2])])
            for _ in range(150)]
        for p in polys:
            chain, ref = sturm_chain(p), _ref_sturm_chain(p)
            assert len(chain) == len(ref), p
            for q, r in zip(chain, ref):
                assert q.degree() == r.degree()
                ratio = leading(q) / leading(r)
                assert ratio > 0 and q == r.scale(ratio), p

    def test_counts_distinct_roots_only(self):
        assert count_roots_open(c("112c^2-112c+23"), (F(0), F(1))) == 2
        assert count_roots_open(product("2c-1", "2c-1"), (F(0), F(1))) == 1

    def test_squarefree_part_has_no_repeated_factors(self):
        rng = random.Random(11311)
        for _ in range(100):
            roots = rng.sample([F(n, 4) for n in range(-8, 9)], rng.randint(1, 3))
            p = ParamPoly.const(1)
            for r in roots:
                for _ in range(rng.randint(1, 3)):
                    p = p * ParamPoly.create([-r, 1])
            sf = ParamPoly.from_ints(_squarefree_split(p.ints)[0])
            from coupledfut import poly_gcd

            assert poly_gcd(sf, derivative(sf)).degree() == 0
            assert sf.degree() == len(roots)

    def test_certified_counts_randomized(self):
        rng = random.Random(12412)
        grid = [F(n, 6) for n in range(-18, 19)]
        for _ in range(110):
            roots = rng.sample(grid, rng.randint(0, 4))
            p = ParamPoly.const(F(rng.choice([-3, -1, 1, 2])))
            for r in roots:
                p = p * ParamPoly.create([-r, 1])
            a = F(rng.randint(-20, 20), rng.randint(1, 5))
            b = a + F(rng.randint(1, 30), rng.randint(1, 5))
            inside = [r for r in roots if a < r < b]
            assert count_roots_open(p, (a, b)) == len(inside)
            records = isolate_roots(p, (a, b))
            assert sorted(r.exact for r in records) == sorted(inside)


class TestPositivity:
    def test_reference_volume_is_positive_on_its_interval(self):
        assert positive_on_interval(c("112c-6"), INTERVAL)

    def test_interior_root_defeats_positivity(self):
        assert not positive_on_interval(c("112c-6"), (F(0), F(1)))
        assert not positive_on_interval(product("c-1/2", "c-1/2"), (F(0), F(1)))

    def test_boundary_root_is_allowed(self):
        assert positive_on_interval(c("112c-6"), (F(3, 56), F(1)))

    def test_lines_and_constants(self):
        assert positive_on_interval(c("3"), INTERVAL)
        assert not positive_on_interval(c("0"), INTERVAL)
        assert not positive_on_interval(c("-3"), INTERVAL)
        assert not positive_on_interval(c("4c-2"), INTERVAL)
        assert positive_on_interval(c("4c-1"), INTERVAL)
        for p in (c("0"), c("3"), c("4c-1"), c("c^2+1")):
            with pytest.raises(UsageError, match="empty interval"):
                positive_on_interval(p, (F(1), F(1)))


class TestFutRoots:
    def test_flagship_report(self):
        f = fut_roots(
            ratfun_reduce(c("112c^2-112c+23"), c("1")), INTERVAL
        )
        assert len(f.roots) == 2
        assert f.poles_inside == ()
        assert f.messages == ()
        assert f.interval == INTERVAL

    def test_scaling_leaves_roots_unchanged(self):
        base = fut_roots(RationalFunction.from_poly(c("112c^2-112c+23")), INTERVAL)
        scaled = fut_roots(
            RationalFunction.from_poly(product("-7", "112c^2-112c+23")), INTERVAL
        )
        assert base.roots == scaled.roots

    def test_pole_inside_interval_is_reported(self):
        report = fut_roots(ratfun_reduce(c("1"), c("2c-1")), (F(0), F(1)))
        assert report.roots == ()
        assert report.poles_inside == (F(1, 2),)
        assert report.messages == ("poles inside the validity interval: 1/2",)

    def test_repeated_pole_is_listed_once_with_its_multiplicity(self):
        report = fut_roots(ratfun_reduce(c("c-1/3"), product("2c-1", "2c-1")),
                           (F(0), F(1)))
        assert [r.exact for r in report.roots] == [F(1, 3)]
        assert report.poles_inside == (F(1, 2),)
        assert report.messages == (
            "poles inside the validity interval: 1/2 (multiplicity 2)",)

    def test_zero_invariant(self):
        report = fut_roots(RationalFunction.const(0), (F(0), F(1)))
        assert report.roots == ()
        assert report.messages == ("the invariant vanishes identically",)

    def test_rational_root_of_a_quotient(self):
        report = fut_roots(ratfun_reduce(c("c"), c("c+1")), (F(-1, 2), F(1, 2)))
        assert [r.exact for r in report.roots] == [F(0)]
        assert report.poles_inside == ()


class TestSampling:
    def test_equispaced_interior_grid(self):
        assert sample_values(INTERVAL, 5) == [
            F(1, 3),
            F(5, 12),
            F(1, 2),
            F(7, 12),
            F(2, 3),
        ]
        assert sample_values(INTERVAL, 3) == [F(3, 8), F(1, 2), F(5, 8)]
        assert sample_values(INTERVAL, 1) == [F(1, 2)]

    def test_nonpositive_count_rejected(self):
        with pytest.raises(UsageError, match="at least one sample"):
            sample_values(INTERVAL, 0)

    def test_curve_rows_and_pole_holes(self):
        f = ratfun_reduce(c("1"), c("2c-1"))
        rows = sample_curve(f, (F(0), F(1)), [F(1, 2), F(1, 4)])
        assert rows == [(F(1, 2), None), (F(1, 4), F(-2))]

    def test_flagship_sample_table(self):
        from coupledfut import fut_localized

        f = fut_localized(load("hultgren-c").localization)
        rows = sample_curve(f, INTERVAL, SAMPLES)
        assert rows == [
            (F(5, 16), F(-51, 8236)),
            (F(3, 8), F(-13, 768)),
            (F(1, 2), F(-3, 125)),
            (F(5, 8), F(-13, 768)),
            (F(11, 16), F(-51, 8236)),
        ]


class TestCrossValidate:
    def test_consistent_twin_dataset(self):
        scn = load("hultgren-c-true")
        record = cross_validate(scn.localization, scn.toric, 5)
        assert record.ok
        assert record.validation.ok
        assert record.volume_match == (True, True)
        assert record.fut_match
        assert all(row.equal for row in record.samples)
        assert record.minkowski.status == "pass"
        assert record.messages == ()

    def test_flagship_data_disagree_by_a_factor_of_two(self):
        scn = load("hultgren-c")
        record = cross_validate(scn.localization, scn.toric, SAMPLES)
        assert not record.ok
        assert record.validation.ok
        assert record.volume_match == (False, False)
        assert not record.fut_match
        for row in record.samples:
            assert not row.equal
            assert row.toric == 2 * row.localized
        assert any("invariant values differ" in m for m in record.messages)

    def test_corrupt_dataset_is_flagged(self):
        scn = load("hultgren-c-corrupt")
        record = cross_validate(scn.localization, scn.toric, 5)
        assert not record.ok
        assert record.validation.ok

    def test_point_scenarios_are_consistent(self):
        for name in ("cp1", "cp1-coupled"):
            scn = load(name)
            record = cross_validate(scn.localization, scn.toric, 5)
            assert record.ok, record.messages
            assert all(row.localized == 0 and row.toric == 0 for row in record.samples)

    def test_redundant_facet_makes_the_record_inconsistent(self):
        # every other check passes: x <= 2 never touches the segment [-1, 1]
        data = scenario_to_dict(load("cp1"))
        data["toric"]["polytopes"][0]["facets"].append(
            {"normal": [1], "offset": "2"})
        scn = scenario_from_dict(data)
        record = cross_validate(scn.localization, scn.toric, 5)
        assert record.validation.ok and record.fut_match
        assert all(record.volume_match)
        assert not record.ok
        assert record.messages == (
            "polytope 0 has redundant facets [2] at the midpoint",)

    def test_the_verdict_is_the_messages(self, monkeypatch):
        # ok is true exactly when no check wrote a message: on the catalog,
        # on the benchmark's polytope-ladder models, and on one input for
        # each kind of message, each of which must write one
        run = perfbench_module(monkeypatch, "run")
        scenarios = [load(name) for name in NAMES]
        for seed in (1, 2, 3):
            cases = run.polytope_ladder(seed)[0]
            scenarios += [scenario_from_dict(case.data) for case in cases]
        offset = scenario_to_dict(load("cp1-coupled"))
        offset["toric"]["anticanonical"]["facets"][0]["offset"] = "2"
        redundant = scenario_to_dict(load("cp1"))
        redundant["toric"]["polytopes"][0]["facets"].append(
            {"normal": [1], "offset": "2"})
        # negated Euler scalars: a volume of -2, which validation refuses
        cp1 = load("cp1")
        negated = cp1.localization.replace(components=tuple(
            comp.replace(euler=comp.euler.replace(scalar=-comp.euler.scalar))
            for comp in cp1.localization.components))
        flagship = load("hultgren-c")
        kinds = [("volume mismatch", flagship),
                 ("invariant mismatch", flagship),
                 ("invariant values differ", flagship),
                 ("do not sum to the ambient polytope",
                  scenario_from_dict(offset)),
                 ("redundant facets", scenario_from_dict(redundant)),
                 ("scenario validation failed", cp1.replace(
                     localization=negated))]
        for kind, scn in [("", scn) for scn in scenarios] + kinds:
            record = cross_validate(scn.localization, scn.toric)
            assert record.ok is (not record.messages), scn.localization.name
            if kind:
                assert any(kind in m for m in record.messages), kind
        # a structural finding is refused before any work
        south, north = cp1.localization.components
        duplicate = cp1.localization.replace(
            components=(south, north.replace(label=south.label)))
        with pytest.raises(ValidationError,
                           match="^duplicate component labels$"):
            cross_validate(duplicate, cp1.toric)

    def test_each_quantity_is_computed_once(self, monkeypatch):
        from coupledfut import analysis, localization, polytopes

        scn = load("hultgren-c-true")

        def counting(module, name, log, key):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                log.append(key(args, result))
                return result

            return wrapper

        cleared, requested, built, triangulated, certified = [], [], [], [], []
        monkeypatch.setattr(
            localization,
            "_component_residues",
            counting(localization, "_component_residues", cleared,
                     lambda a, r: a[0].label),
        )
        realize = counting(
            polytopes, "realize", requested, lambda a, r: (id(a[0]), F(a[1]))
        )
        monkeypatch.setattr(polytopes, "realize", realize)
        monkeypatch.setattr(analysis, "realize", realize)
        monkeypatch.setattr(
            polytopes,
            "RealizedPolytope",
            counting(polytopes, "RealizedPolytope", built, lambda a, r: r),
        )
        monkeypatch.setattr(
            polytopes,
            "triangulate",
            counting(polytopes, "triangulate", triangulated, lambda a, r: a[0]),
        )
        monkeypatch.setattr(
            polytopes,
            "positive_on_interval",
            counting(polytopes, "positive_on_interval", certified,
                     lambda a, r: a[0]),
        )
        record = cross_validate(scn.localization, scn.toric, 5)
        assert record.ok
        assert sorted(cleared) == sorted(
            comp.label for comp in scn.localization.components)
        # vertices are enumerated at the midpoint and at the samples only
        lo, hi = scn.localization.interval
        mid = (lo + hi) / 2
        xs = set(sample_values(scn.localization.interval, 5)) | {mid}
        model = scn.toric
        assert sorted((id(rp.polytope), rp.value) for rp in built) == sorted(
            [(id(pp), x) for pp in model.polytopes for x in xs]
            + [(id(model.anticanonical), mid)])
        assert len(built) == len(set(requested)) < len(requested)
        # one chamber per polytope, never interpolated, and one positivity
        # proof per distinct slack polynomial, not per vertex and facet not
        # tight at it: the two chambers share the constant slacks
        assert "interpolate" not in vars(polytopes)
        pairs = sum(len(pp.facets) - len(tight) for pp in model.polytopes
                    for tight in realize(pp, mid).incidence)
        assert len(certified) == len(set(certified)) == 6 < pairs == 72
        # the bundle and ambient polytopes share their normals, so one fan
        fans = {id(pp.fan) for pp in model.polytopes + (model.anticanonical,)}
        assert len(fans) == 1
        # one star per incidence pattern per fan
        patterns = {(id(rp.polytope.fan), rp.incidence) for rp in triangulated}
        assert 1 <= len(triangulated) == len(patterns)
        assert len(triangulated) < len(built)

    def test_sample_outside_interval_rejected(self):
        scn = load("hultgren-c")
        with pytest.raises(UsageError, match="outside the validity interval"):
            cross_validate(scn.localization, scn.toric, [F(9, 10)])


# ---------------------------------------------------------------------------
# Fraction references for the integer root kernel: Sturm bisection over
# Fractions, with the chain, gcd and squarefree part from Euclid's algorithm
# over Fraction, the rational-root search by divisor enumeration, root
# multiplicities from derivatives, and the surd closed form picked by
# comparing its value with the bracket ends, as the engine computed them
# before the kernel and the factorization replaced them.  Like the engine,
# the bisection goes on halving an irrational root's bracket while it holds
# an exact root.  None of it calls the integer remainder sequence.


def _ref_gcd(a, b):
    while not b.is_zero():
        a, b = b, ref_divmod(a, b)[1]
    return monic(a)


def _ref_squarefree(p):
    return monic(ref_divmod(p, _ref_gcd(p, derivative(p)))[0])


def _ref_sturm_chain(p):
    chain = [p, derivative(p)]
    while chain[-1].degree() >= 1:
        _, r = ref_divmod(chain[-2], chain[-1])
        if r.is_zero():
            break
        chain.append(-r)
    return [q for q in chain if not q.is_zero()]


def _ref_sign_changes(chain, x):
    signs = [1 if v > 0 else -1 for v in (q.eval(x) for q in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_count(p, a, b):
    """Distinct roots in (a, b] of a squarefree p."""
    chain = _ref_sturm_chain(p)
    return _ref_sign_changes(chain, a) - _ref_sign_changes(chain, b)


def _ref_multiplicity_at(p, root):
    mult = 0
    while not p.is_zero() and p.eval(root) == 0:
        mult += 1
        p = derivative(p)
    return mult


def _ref_multiplicity_inside(p, rest, a, b):
    """Multiplicity in p of the one root of the squarefree rest in (a, b):
    the number of derivatives of p, p itself first, whose gcd with rest
    keeps a root there."""
    mult = 0
    while not p.is_zero():
        g = _ref_gcd(p, rest)
        if g.degree() < 1 or _ref_count(g, a, b) == 0:
            break
        mult += 1
        p = derivative(p)
    return mult


def _ref_divisors(n):
    n = abs(n)
    return sorted({d for i in range(1, math.isqrt(n) + 1) if n % i == 0
                   for d in (i, n // i)})


def _ref_primitive(p):
    """p scaled to integer coefficients of content 1, leading one positive."""
    lcm = math.lcm(*(x.denominator for x in p.coeffs))
    ints = [int(x * lcm) for x in p.coeffs]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return ParamPoly.create([x // g for x in ints])


def _ref_rational_root_factors(p):
    factors = []
    rest = _ref_primitive(p)
    while rest.degree() >= 1:
        found = None
        if rest.coeff(0) == 0:
            found = F(0)
        else:
            cands = (F(sgn * da, dl)
                     for da in _ref_divisors(int(rest.coeff(0)))
                     for dl in _ref_divisors(int(leading(rest)))
                     for sgn in (1, -1))
            found = next((x for x in cands if rest.eval(x) == 0), None)
        if found is None:
            break
        lin = ParamPoly.create([-found.numerator, found.denominator])
        factors.append(lin)
        quot, _ = ref_divmod(rest, lin)
        rest = _ref_primitive(quot)
    return factors, rest


def _factored(p):
    """p.factorization in the reference's shape: one primitive linear factor
    per unit of multiplicity, and the product of the rest."""
    fac = p.factorization
    lin = [ParamPoly.create([-r.numerator, r.denominator])
           for r, m in fac.roots for _ in range(m)]
    rest = ParamPoly.const(1)
    for g, m in fac.factors:
        for _ in range(m):
            rest = rest * ParamPoly.create(g)
    return lin, rest


def _ref_surd_value_vs(p, q, d, r, x):
    """Sign of (p + q*sqrt(d))/r - x for r > 0."""
    rhs = r * x - p  # compare q*sqrt(d) with rhs
    lhs_sq = F(q * q * d)
    rhs_sq = rhs * rhs
    if q >= 0 and rhs < 0:
        return 1
    if q <= 0 and rhs > 0:
        return -1
    if q >= 0:  # both sides nonnegative
        return -1 if lhs_sq < rhs_sq else (0 if lhs_sq == rhs_sq else 1)
    # both sides nonpositive
    return -1 if lhs_sq > rhs_sq else (0 if lhs_sq == rhs_sq else 1)


def _ref_decimal_of_simple_root(p, a, b):
    low, high = _decimal_of_fraction(a), _decimal_of_fraction(b)
    a_positive = p.eval(a) > 0
    while low != high:
        mid = (a + b) / 2
        if (p.eval(mid) > 0) == a_positive:
            a, low = mid, _decimal_of_fraction(mid)
        else:
            b, high = mid, _decimal_of_fraction(mid)
    return low


def _ref_isolate_roots(p, interval, width):
    lo, hi = interval
    records = []
    linears, rest = _ref_rational_root_factors(_ref_squarefree(p))
    for lin in linears:
        root = -lin.coeff(0) / lin.coeff(1)
        if lo < root < hi:
            records.append(RootRecord(root, root, root, None,
                                      _decimal_of_fraction(root),
                                      _ref_multiplicity_at(p, root)))
    exact = list(records)
    if rest.degree() >= 1:
        surds = (_quadratic_surds(tuple(map(int, rest.coeffs)))
                 if rest.degree() == 2 else [])
        stack = [(lo, hi)]
        while stack:
            a, b = stack.pop()
            count = _ref_count(rest, a, b)
            if count == 0:
                continue
            if count == 1 and b - a <= width and not any(
                    a <= rec.exact <= b for rec in exact):
                surd = None
                for cand in surds:
                    if (_ref_surd_value_vs(*cand, a) > 0
                            and _ref_surd_value_vs(*cand, b) < 0):
                        surd = cand
                records.append(RootRecord(
                    a, b, None, surd, _ref_decimal_of_simple_root(rest, a, b),
                    _ref_multiplicity_inside(p, rest, a, b)))
                continue
            mid = (a + b) / 2
            stack.append((a, mid))
            stack.append((mid, b))
    records.sort(key=lambda rec: rec.lo)
    return tuple(records)


# factors with rational, surd and degree >= 3 irrational real roots, and one
# without real roots; products of these repeat roots
_KERNEL_FACTORS = ("c-1/2", "3c+2", "4c-3", "c", "7c-5", "c^2-2", "5c^2-3",
                   "112c^2-112c+23", "c^2-c-1", "c^3-2", "c^3-3c+1",
                   "c^3-4c+1", "c^4-10c^2+1", "c^2+1")


def _seeded_polynomials(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = c(str(rng.choice([1, -2, 3, F(-5, 7)])))
        degree = rng.randint(1, 6)
        while p.degree() < degree:
            f = c(rng.choice(_KERNEL_FACTORS))
            for _ in range(rng.choice([1, 1, 2])):
                if p.degree() + f.degree() <= 6:
                    p = p * f
        lo = F(rng.randint(-12, 4), rng.choice([1, 2, 3, 4]))
        out.append((p, (lo, lo + F(rng.randint(1, 24), rng.choice([1, 2, 5])))))
    return out


class TestRootKernelEquivalence:
    @pytest.mark.parametrize("width,seed,count", [
        (F(1, 10**2), 5101, 60),
        (F(1, 10**30), 5102, 30),
        (F(1, 10**300), 5103, 6),
    ], ids=["1e-2", "1e-30", "1e-300"])
    def test_isolate_roots_matches_fraction_bisection(self, width, seed, count):
        kinds = set()
        for p, interval in _seeded_polynomials(seed, count):
            records = isolate_roots(p, interval, width)
            assert records == _ref_isolate_roots(p, interval, width)
            for rec in records:
                kinds.add("rational" if rec.exact is not None
                          else "surd" if rec.surd is not None else "other")
                if rec.multiplicity > 1:
                    kinds.add("repeated")
        assert kinds == {"rational", "surd", "other", "repeated"}

    def test_rational_root_factors_match_divisor_search(self):
        by_root = lambda q: (-q.coeff(0) / q.coeff(1), q.coeffs)
        polys = [p for p, _ in _seeded_polynomials(5104, 120)]
        polys += [c("22265600c^2-22660736c+7565853"), c("6c^2-c-1"),
                  c("c^3"), c("1024c^4-1"),
                  # a root at the kernel's dyadic midpoint 0, and its
                  # neighbour 1/1024 in the bracket that starts there
                  product("c", "1024c-1", "c^2-2")]
        for p in polys:
            lin, rest = _factored(p)
            ref_lin, ref_rest = _ref_rational_root_factors(p)
            assert sorted(lin, key=by_root) == sorted(ref_lin, key=by_root)
            assert rest == ref_rest

    def test_rational_root_search_is_bounded_by_root_separation(
            self, monkeypatch):
        # Sturm counts only separate the roots; the halvings down to the
        # candidate's level, which grows with the leading coefficient, read
        # one sign each
        calls = []
        count = UnitKernel.count

        def counting(kernel, k, j):
            calls.append((k, j))
            return count(kernel, k, j)

        monkeypatch.setattr(UnitKernel, "count", counting)
        counts = []
        for e in (3, 30):
            calls.clear()
            fac = _factorize(product("(10^%d+1)c-1" % e, "c^2-2").ints)
            assert fac.roots == ((F(1, 10**e + 1), 1),)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_rational_roots_of_wide_coefficients(self):
        # the divisor search cannot finish here; the roots are known
        p = product("(10^12+39)c-(10^11+3)", "(10^9+7)c+1", "c^2-3")
        lin, rest = _factored(p)
        assert sorted(-q.coeff(0) / q.coeff(1) for q in lin) == [
            F(-1, 10**9 + 7), F(10**11 + 3, 10**12 + 39)]
        assert rest == c("c^2-3")
        lin, rest = _factored(c("(10^21+3)c^2-(3*10^20+7)"))
        assert lin == [] and rest == c("(10^21+3)c^2-(3*10^20+7)")


def _sympy_factors(p):
    """The irreducible factors of p over Q with their multiplicities."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("c")
    poly = sympy.Poly([sympy.Rational(q.numerator, q.denominator)
                       for q in reversed(p.coeffs)], x, domain="QQ")
    return [(f, m) for f, m in poly.factor_list()[1]]


def _seeded_powers(seed, count):
    """Products of one to three distinct kernel factors, each raised to a
    power from 1 to 3, on seeded intervals, with seeded bracket widths."""
    rng = random.Random(seed)
    out = [(product("100c-141", "100c-141", "c^2-2"), (F(1), F(2)), F(1, 2))]
    while len(out) < count:
        p = c(str(rng.choice([1, -2, F(3, 5)])))
        for f in rng.sample(_KERNEL_FACTORS, rng.randint(1, 3)):
            for _ in range(rng.randint(1, 3)):
                p = p * c(f)
        lo = F(rng.randint(-12, 4), rng.choice([1, 2, 3, 4]))
        out.append((p, (lo, lo + F(rng.randint(1, 24), rng.choice([1, 2, 5]))),
                    rng.choice([F(1, 2), F(1, 100), F(1, 10**6)])))
    return out


class TestRootMultiplicities:
    def test_multiplicities_and_brackets_match_a_factorization(self):
        seen = set()
        for p, (lo, hi), width in _seeded_powers(5105, 80):
            factors = _sympy_factors(p)
            records = isolate_roots(p, (lo, hi), width)
            # every distinct root strictly inside has one record
            inside = sum(f.count_roots(lo, hi)
                         - (f.eval(lo) == 0) - (f.eval(hi) == 0)
                         for f, _ in factors)
            assert len(records) == inside
            for rec in records:
                assert rec.hi - rec.lo <= width
                # the closed bracket holds one root of one factor, no other
                holding = [(f, m) for f, m in factors
                           for _ in range(f.count_roots(rec.lo, rec.hi))]
                assert len(holding) == 1, (p, rec)
                factor, mult = holding[0]
                assert rec.multiplicity == mult, (p, rec)
                if rec.exact is not None:
                    assert factor.degree() == 1 and factor.eval(rec.exact) == 0
                    assert rec.lo == rec.hi == rec.exact
                else:
                    assert factor.degree() >= 2
                seen.add((rec.exact is None, mult))
        assert seen == {(irrational, m) for irrational in (False, True)
                        for m in (1, 2, 3)}


class TestFactorization:
    def test_squarefree_layers_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("c")
        rng = random.Random(5106)
        powers = set()
        for _ in range(150):
            p = c(str(rng.choice([1, -2, F(3, 5)])))
            for f in rng.sample(_KERNEL_FACTORS, rng.randint(1, 3)):
                k = rng.randint(1, 4)
                powers.add(k)
                for _ in range(k):
                    p = p * c(f)
            prim = tuple(int(co) for co in _ref_primitive(p).coeffs)
            layers = _squarefree_layers(prim)
            ref = {}
            for f, k in sympy.Poly(prim[::-1], x, domain="ZZ").sqf_list()[1]:
                _, f = f.primitive()
                co = tuple(int(a) for a in f.all_coeffs()[::-1])
                ref[k] = co if co[-1] > 0 else tuple(-a for a in co)
            assert {i + 1: a for i, a in enumerate(layers)
                    if len(a) > 1} == ref, p
            assert all(a[-1] > 0 for a in layers)
        assert powers == {1, 2, 3, 4}

    def test_factorization_multiplies_back(self):
        for p, _ in _seeded_polynomials(5107, 100):
            fac = p.factorization
            back = ParamPoly.const(p.content)
            for root, m in fac.roots:
                for _ in range(m):
                    back = back * ParamPoly.create([-root.numerator, root.denominator])
            for g, m in fac.factors:
                assert g[-1] > 0 and math.gcd(*g) == 1
                for _ in range(m):
                    back = back * ParamPoly.create(g)
            assert back == p
            roots = [r for r, _ in fac.roots]
            assert roots == sorted(set(roots))
        assert p.factorization is fac  # computed once per polynomial
