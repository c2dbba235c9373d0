"""Fixed-point localization: power sums, equivariant volumes, the invariant."""

import importlib
import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from coupledfut import localization
from coupledfut import (
    BundleRestriction,
    ratfun_reduce,
    ComputationError,
    DegenerateDatumError,
    EquivariantClass,
    FixedComponent,
    Generator,
    LocalizationScenario,
    NilpotentClass,
    ParamPoly,
    RationalFunction,
    UsageError,
    ValidationError,
    fut_localized,
    load,
    make_point_component,
    parse_poly,
    point_ring,
    power_sum,
    ratfun_eval,
    render_factored,
    ring_create,
    scenario_from_dict,
    validate_scenario,
    volume_localized,
)
from reference import (component_integral, fut_isolated, replace,
                       shift_hamiltonians)

RF = RationalFunction
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def c(text):
    return parse_poly(text, "c")


def perfbench_module(monkeypatch, name):
    """A module of the benchmark; its modules import each other by name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def poly_rf(text):
    return RF.from_poly(c(text))


@pytest.fixture(scope="module")
def flagship():
    return load("hultgren-c").localization


@pytest.fixture(scope="module")
def twin():
    return load("hultgren-c-true").localization


def two_point_line(euler_exprs, ham_exprs):
    """One-dimensional scenario with two fixed points given symbolically."""
    pt = point_ring()
    zero = NilpotentClass.zero(pt)
    comps = []
    for i, (eu, hams) in enumerate(zip(euler_exprs, ham_exprs)):
        euler = EquivariantClass(poly_rf(eu), zero)
        bundles = tuple(BundleRestriction(poly_rf(h), zero) for h in hams)
        comps.append(FixedComponent("pt%d" % i, pt, 1, euler, bundles))
    return LocalizationScenario(
        "line", "", "", "c", 1, len(ham_exprs[0]), (F(0), F(1)), tuple(comps)
    )


# polynomial denominators are drawn from a small pool, which keeps the
# reference path (one ring product per step, each reduced by a gcd) quick
SEEDED_DENOMINATORS = ("1", "c+2", "2c-1")


def seeded_rf(rng, fractional):
    """A small random rational function of c.

    With fractional set, the coefficients are rational and the denominator
    is sometimes a polynomial; otherwise the result is an integer polynomial.
    """
    while True:
        num = ParamPoly.create([F(rng.randint(-5, 5), rng.randint(1, 4) if fractional else 1)
                                     for _ in range(rng.randint(1, 2))])
        if not num.is_zero():
            break
    den = rng.choice(SEEDED_DENOMINATORS) if fractional else "1"
    return ratfun_reduce(num, c(den))


def seeded_class(rng, ring, fractional, density, max_degree):
    """A random nilpotent class on surviving monomials up to max_degree."""
    terms = {}
    for exps in itertools.product(*(range(g.order) for g in ring.generators)):
        if (any(exps) and ring.monomial_survives(exps)
                and ring.monomial_degree(exps) <= max_degree
                and rng.random() < density):
            terms[exps] = seeded_rf(rng, fractional)
    return NilpotentClass.create(ring, terms)


SEEDED_RINGS = (
    # a degree-4 generator beside an order-3 truncation
    ring_create("c", [Generator("a", 3, 2), Generator("b", 2, 4)], {"a": 2, "b": 1}, 4),
    # b, a*b and b^2 survive truncation but do not divide the top monomial a^2
    ring_create("c", [Generator("a", 3, 2), Generator("b", 3, 2)], {"a": 2}, 2),
    ring_create("c", [Generator("x", 2, 2)], {"x": 1}, 1),
)
CP1_FACE = ring_create("c", [Generator("h%d" % i, 2, 2) for i in range(5)],
                       {"h%d" % i: 1 for i in range(5)}, 5)


def seeded_component(rng, label, ring, ambient, fractional, max_degree):
    euler = EquivariantClass(seeded_rf(rng, fractional),
                             seeded_class(rng, ring, fractional, 0.5, max_degree))
    bundles = tuple(
        BundleRestriction(seeded_rf(rng, fractional),
                          seeded_class(rng, ring, fractional, 0.5, max_degree))
        for _ in range(2))
    return FixedComponent(label, ring, ambient - ring.dimension, euler, bundles)


def seeded_scenario(seed):
    """Points and ring components mixed, two bundles.

    Seeds below 4 use the small rings in ambient dimension 4 with rational
    and polynomial denominators; seed 4 puts the (CP^1)^5 face in ambient
    dimension 6, with linear classes of integer-polynomial coefficients.
    """
    rng = random.Random(9100 + seed)
    ambient, rings, fractional, max_degree = 4, SEEDED_RINGS, True, 4
    if seed == 4:
        ambient, rings, fractional, max_degree = 6, (CP1_FACE,), False, 1
    comps = [seeded_component(rng, "pt%d" % i, point_ring(), ambient, True, 0)
             for i in range(rng.randint(1, 2))]
    comps += [seeded_component(rng, "z%d" % i, ring, ambient, fractional, max_degree)
              for i, ring in enumerate(rings)]
    rng.shuffle(comps)
    return LocalizationScenario("seeded-%d" % seed, "", "", "c", ambient, 2,
                                (F(0), F(1)), tuple(comps))


SEEDS = range(5)


class TestPowerSums:
    BUNDLE0 = ["0", "-24", "16c-24", "36c-15", "112c-6", "-30c+12"]
    BUNDLE1 = ["0", "-24", "-16c-8", "-36c+21", "-112c+106", "30c-18"]

    @pytest.mark.parametrize("power", range(6))
    def test_first_bundle_sequence(self, flagship, power):
        assert power_sum(flagship, 0, power) == poly_rf(self.BUNDLE0[power])

    @pytest.mark.parametrize("power", range(6))
    def test_second_bundle_sequence(self, flagship, power):
        assert power_sum(flagship, 1, power) == poly_rf(self.BUNDLE1[power])

    def test_second_bundle_mirrors_first(self, flagship):
        for power in range(6):
            mirrored = ratfun_eval(power_sum(flagship, 0, power), F(1, 3))
            direct = ratfun_eval(power_sum(flagship, 1, power), F(2, 3))
            assert mirrored == direct

    def test_component_split_of_fifth_power(self, flagship):
        inf, zero = flagship.components
        assert inf.label == "infinity-section"
        assert zero.label == "zero-section"
        assert component_integral(inf, 0, 5) == poly_rf("-85c+39/4")
        assert component_integral(zero, 0, 5) == poly_rf("55c+9/4")

    def test_twin_has_vanishing_low_sums(self, twin):
        for alpha in (0, 1):
            for power in range(4):
                assert power_sum(twin, alpha, power).is_zero()
        assert power_sum(twin, 0, 4) == poly_rf("56c-3")
        assert power_sum(twin, 1, 4) == poly_rf("-56c+53")
        assert power_sum(twin, 0, 5) == poly_rf("-30c+12")
        assert power_sum(twin, 1, 5) == poly_rf("30c-18")

    def test_sums_below_the_dimension_vanish(self, monkeypatch):
        # on a compact m-manifold a class of degree k < m integrates to 0
        # (Atiyah-Bott), so p_0..p_(m-1) vanish on consistent data; p_m does
        # not, which keeps the sweep from passing on empty tables
        gen = perfbench_module(monkeypatch, "gen")
        scenarios = [load(name).localization
                     for name in ("hultgren-c-true", "cp1", "cp1-coupled")]
        for seed in range(1, 6):
            rng = gen.seeded_rng("power-sums", seed)
            cases = [gen.box_family(rng, "box2", 2, 0, 2, False),
                     gen.box_family(rng, "box3-zero1", 3, 1, 2, False),
                     gen.box_family(rng, "box4-zero2", 4, 2, 1, False),
                     gen.box_family(rng, "box5-zero3", 5, 3, 1, False),
                     gen.simplex_family(rng, "simplex2", 2, 2),
                     gen.simplex_family(rng, "simplex3", 3, 2),
                     gen.simplex_family(rng, "simplex4", 4, 1),
                     gen.sign_changing_box(rng, "sign2", 2, 3),
                     gen.sign_changing_box(rng, "sign3", 3, 4)]
            scenarios += [scenario_from_dict(case.data).localization
                          for case in cases]
        checks = 0
        for scn in scenarios:
            for alpha in range(scn.bundles):
                for power in range(scn.dimension):
                    assert power_sum(scn, alpha, power).is_zero(), (
                        scn.name, alpha, power)
                    checks += 1
                assert not power_sum(scn, alpha, scn.dimension).is_zero()
        assert checks == 201

    @pytest.mark.parametrize("name,first", [
        ("hultgren-c", ("-24", "-24")),
        ("hultgren-c-corrupt", ("-96/5", "-24")),
    ])
    def test_flagship_data_break_the_vanishing_at_the_first_power(
            self, name, first):
        # the factor of 2 against the polytopes shows here already, with no
        # polytope: p_1 should be 0 on a compact 4-manifold
        scn = load(name).localization
        for alpha, value in enumerate(first):
            assert power_sum(scn, alpha, 0).is_zero()
            assert power_sum(scn, alpha, 1) == poly_rf(value)

    def test_table_matches_component_integrals(self):
        scenarios = [load(name).localization
                     for name in ("hultgren-c", "hultgren-c-corrupt", "cp1-coupled")]
        scenarios += [seeded_scenario(seed) for seed in SEEDS]
        for scn in scenarios:
            for alpha in range(scn.bundles):
                for power in range(scn.dimension + 2):
                    direct = RF.const(0)
                    for comp in scn.components:
                        direct = direct + component_integral(comp, alpha, power)
                    assert power_sum(scn, alpha, power) == direct, (
                        scn.name, alpha, power)

    def test_seeded_scenarios_cover_the_table_cases(self):
        comps = [comp for seed in SEEDS for comp in seeded_scenario(seed).components]
        rings = {comp.ring for comp in comps}
        assert {len(r.generators) for r in rings} == {0, 1, 2, 5}
        assert any(g.degree == 4 for r in rings for g in r.generators)
        assert any(g.order == 3 for r in rings for g in r.generators)
        assert any(not comp.euler.nilpotent.is_zero() for comp in comps)
        places = {
            "hamiltonian": [b.hamiltonian for comp in comps for b in comp.bundles],
            "chern": [co for comp in comps for b in comp.bundles for _, co in b.chern.terms],
            "euler": [comp.euler.scalar for comp in comps],
        }
        for place, coeffs in places.items():
            assert any(f.den.degree() > 0 for f in coeffs), place
            assert any(co.denominator > 1 for f in coeffs for co in f.num.coeffs), place
        for seed in SEEDS:
            kinds = {not comp.ring.generators
                     for comp in seeded_scenario(seed).components}
            assert kinds == {True, False}, seed

    def test_indices_outside_the_table_are_rejected(self, flagship):
        with pytest.raises(UsageError, match="outside the residue table"):
            power_sum(flagship, 0, flagship.dimension + 2)
        with pytest.raises(UsageError, match="outside the residue table"):
            power_sum(flagship, 0, -1)
        with pytest.raises(UsageError, match="bundle index 2 out of range"):
            power_sum(flagship, 2, 0)
        with pytest.raises(UsageError) as exc:
            power_sum(load("cp1").localization, 0, 3)
        assert str(exc.value) == "power 3 outside the residue table (0..2)"


class TestVolumes:
    def test_flagship_volumes(self, flagship):
        assert volume_localized(flagship, 0) == poly_rf("112c-6")
        assert volume_localized(flagship, 1) == poly_rf("-112c+106")

    def test_twin_volumes(self, twin):
        assert volume_localized(twin, 0) == poly_rf("56c-3")
        assert volume_localized(twin, 1) == poly_rf("-56c+53")

    def test_corrupt_volume_is_perturbed(self):
        corrupt = load("hultgren-c-corrupt").localization
        assert volume_localized(corrupt, 0) == poly_rf("13272/125c-4467/625")
        assert volume_localized(corrupt, 1) == poly_rf("-112c+106")


class TestInvariant:
    SAMPLES = {
        F(5, 16): F(-51, 8236),
        F(3, 8): F(-13, 768),
        F(1, 2): F(-3, 125),
        F(5, 8): F(-13, 768),
        F(11, 16): F(-51, 8236),
    }

    def test_closed_form(self, flagship):
        f = fut_localized(flagship)
        assert render_factored(f, "c") == "-3(112c^2-112c+23)/((56c-3)(56c-53))"

    def test_sample_values(self, flagship):
        f = fut_localized(flagship)
        for x, expected in self.SAMPLES.items():
            assert ratfun_eval(f, x) == expected
        assert ratfun_eval(f, F(1, 3)) == F(-51, 4841)

    def test_symmetric_under_parameter_reflection(self, flagship):
        f = fut_localized(flagship)
        rng = random.Random(5150)
        for _ in range(40):
            x = F(rng.randint(260, 740), 1000)
            assert ratfun_eval(f, x) == ratfun_eval(f, 1 - x)

    def test_twin_doubles_the_flagship_value(self, flagship, twin):
        assert fut_localized(twin) == fut_localized(flagship).scale(2)


class TestValidation:
    def test_all_catalog_scenarios_validate(self):
        for name in ("hultgren-c", "hultgren-c-true", "hultgren-c-corrupt", "cp1", "cp1-coupled"):
            report = validate_scenario(load(name).localization)
            assert report.ok, (name, report.messages)
            assert report.residues_polynomial
            assert all(report.volume_positive)

    def test_inconsistent_residues_are_caught(self):
        bad = two_point_line(["c", "-1"], [["1"], ["1"]])
        # Raw power sums report the residue total as-is, even off the
        # polynomial locus; the checked volume and invariant paths refuse.
        assert power_sum(bad, 0, 1) == ratfun_reduce(c("-c+1"), c("c"))
        with pytest.raises(ValidationError, match="not a polynomial"):
            volume_localized(bad, 0)
        with pytest.raises(ValidationError, match="not a polynomial"):
            fut_localized(bad)
        report = validate_scenario(bad)
        assert not report.ok
        assert not report.residues_polynomial
        assert any("not a polynomial" in m for m in report.messages)

    def test_degenerate_euler_class(self):
        bad = two_point_line(["0", "-1"], [["0"], ["1"]])
        report = validate_scenario(bad)
        assert not report.ok
        assert any("degenerate Euler class" in m for m in report.messages)
        with pytest.raises(DegenerateDatumError):
            component_integral(bad.components[0], 0, 1)
        with pytest.raises(ValidationError) as exc:
            power_sum(bad, 0, 1)
        assert str(exc.value) == "; ".join(report.messages)

    def test_bundle_count_mismatch(self, flagship):
        wrong = LocalizationScenario(
            "w", "", "", "c", 4, 1, flagship.interval, flagship.components
        )
        report = validate_scenario(wrong)
        assert not report.ok
        assert any("restricts 2 bundles; scenario has 1" in m for m in report.messages)
        with pytest.raises(ValidationError) as exc:
            power_sum(wrong, 0, 0)
        assert str(exc.value) == "; ".join(report.messages)
        with pytest.raises(ValidationError) as exc:  # before "not points"
            fut_isolated(wrong)
        assert str(exc.value) == "; ".join(report.messages)

    def test_empty_interval(self):
        bad = two_point_line(["1", "-1"], [["0"], ["1"]])
        bad = LocalizationScenario(
            bad.name, "", "", "c", 1, 1, (F(1), F(0)), bad.components
        )
        report = validate_scenario(bad)
        assert not report.ok
        assert any("empty validity interval" in m for m in report.messages)


def with_bundle(scn, index, **changes):
    """scn with the first bundle of component index changed."""
    comps = list(scn.components)
    first, *rest = comps[index].bundles
    comps[index] = replace(comps[index],
                           bundles=(replace(first, **changes), *rest))
    return replace(scn, components=tuple(comps))


class TestFindings:
    """Each structural rule is judged once: validate_scenario reports it, and
    the residue table and the isolated-point reference each refuse with one
    ValidationError listing the same messages, before any work."""

    LINE = ring_create("c", [Generator("x", 2, 2)], {"x": 1}, 1)
    MALFORMED = {
        "bundle count": (two_point_line(("1", "-1"), (("1", "2"), ("3",))),
                         "component 'pt1' restricts 1 bundles; scenario "
                         "has 2"),
        "zero euler scalar": (two_point_line(("0", "-1"), (("1",), ("2",))),
                              "component 'pt0' has a degenerate Euler class "
                              "(zero scalar part)"),
        "chern on another ring": (
            with_bundle(two_point_line(("1", "-1"), (("1",), ("2",))), 1,
                        chern=NilpotentClass.zero(LINE)),
            "component 'pt1': class in another ring"),
    }

    @pytest.mark.parametrize("rule", sorted(MALFORMED))
    def test_one_list_of_findings(self, monkeypatch, rule):
        scn, message = self.MALFORMED[rule]
        messages = validate_scenario(scn).messages
        assert messages == (message,)
        assert scn.findings == messages

        def no_work(*args):
            raise AssertionError("the residue table was started")

        monkeypatch.setattr(localization, "_component_residues", no_work)
        for call in (lambda: power_sum(scn, 0, 1), lambda: fut_isolated(scn)):
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == "; ".join(messages)

    def test_every_class_lives_in_its_component_ring(self, flagship):
        cp1 = load("cp1").localization
        other = flagship.components[0].ring
        south, north = cp1.components
        moved = replace(cp1, components=(south, replace(
            north, euler=EquivariantClass(north.euler.scalar,
                                          NilpotentClass.zero(other)))))
        assert moved.findings == ("component 'north': class in another "
                                  "ring",)
        assert cp1.findings == ()


class TestInconsistencies:
    """Residue consistency is judged once: validate_scenario reports the
    inconsistencies, and volume_localized and fut_localized refuse them,
    after the findings, with one ValidationError; positivity is left to
    validation alone."""

    @staticmethod
    def refused():
        cp1 = load("cp1").localization
        south, north = cp1.components
        return {
            "not a polynomial": two_point_line(["c", "-1"], [["1"], ["1"]]),
            "duplicate labels": replace(cp1, components=(
                south, replace(north, label=south.label))),
        }

    @pytest.mark.parametrize("case", ["not a polynomial", "duplicate labels"])
    def test_volume_and_invariant_refuse_the_validation_messages(self, case):
        scn = self.refused()[case]
        messages = validate_scenario(scn).messages
        assert messages
        for call in (lambda: volume_localized(scn, 0),
                     lambda: fut_localized(scn)):
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == "; ".join(messages)

    def test_every_inconsistent_sum_in_order(self):
        bad = two_point_line(["c", "-1"], [["1", "2"], ["1", "3"]])
        report = validate_scenario(bad)
        assert report.messages == bad.inconsistencies
        assert not report.residues_polynomial
        assert report.volume_positive == ()
        assert [m.split(" is not")[0] for m in bad.inconsistencies] == [
            "power-%d sum for bundle %d" % (power, alpha)
            for alpha in (0, 1) for power in (0, 1, 2)]
        assert bad.inconsistencies[0] == (
            "power-0 sum for bundle 0 is not a polynomial (%s)"
            % power_sum(bad, 0, 0).text("c"))

    def test_a_volume_that_is_not_positive_is_still_computed(self):
        cp1 = load("cp1").localization
        negated = replace(cp1, components=tuple(
            replace(comp, euler=replace(comp.euler, scalar=-comp.euler.scalar))
            for comp in cp1.components))
        report = validate_scenario(negated)
        assert report.messages == (
            "bundle 0 volume -2 is not positive on the whole interval",)
        assert report.residues_polynomial
        assert negated.inconsistencies == ()
        assert volume_localized(negated, 0) == RF.const(-2)
        assert fut_localized(negated) == fut_localized(cp1)
        for power in range(3):
            assert power_sum(negated, 0, power) == -power_sum(cp1, 0, power)


class TestShifts:
    def test_wrong_arity_rejected(self, flagship):
        with pytest.raises(UsageError, match="one shift per bundle"):
            shift_hamiltonians(flagship, (F(1),))

    def test_zero_sum_shifts_leave_twin_invariant(self, twin):
        rng = random.Random(6006)
        base = fut_localized(twin)
        for _ in range(25):
            t = F(rng.randint(-50, 50), rng.randint(1, 20))
            shifted = shift_hamiltonians(twin, (t, -t))
            assert fut_localized(shifted) == base

    def test_total_shift_adds_exactly_on_twin(self, twin):
        rng = random.Random(7007)
        base = fut_localized(twin)
        for _ in range(25):
            t1 = F(rng.randint(-40, 40), rng.randint(1, 15))
            t2 = F(rng.randint(-40, 40), rng.randint(1, 15))
            shifted = fut_localized(shift_hamiltonians(twin, (t1, t2)))
            assert shifted == base + RF.const(t1 + t2)

    def test_flagship_drift_under_zero_sum_shift_is_pinned(self, flagship):
        # The shipped reference weights are halved, so the gauge freedom the
        # clean twin enjoys is broken here by a fixed, reproducible amount.
        shifted = shift_hamiltonians(flagship, (F(1, 10), F(-1, 10)))
        drift = ratfun_eval(fut_localized(shifted), F(1, 2)) - F(-3, 125)
        assert drift == F(-56493, 20958625)


class TestIsolatedPoints:
    def test_two_point_average(self):
        data = two_point_line(("1", "-1"), (("3",), ("5",)))
        assert fut_isolated(data) == RF.const(4)

    def test_symbolic_hamiltonian(self):
        data = two_point_line(("1", "-1"), (("c",), ("1",)))
        assert fut_isolated(data) == poly_rf("1/2c+1/2")

    def test_zero_volume_sum_is_an_error(self):
        data = two_point_line(("1", "1"), (("1",), ("-1",)))
        with pytest.raises(ComputationError, match="zero volume sum"):
            fut_isolated(data)

    def test_vanishing_jacobian_is_an_error(self):
        data = two_point_line(("0",), (("1",),))
        with pytest.raises(ValidationError) as exc:
            fut_isolated(data)
        assert str(exc.value) == ("component 'pt0' has a degenerate Euler "
                                  "class (zero scalar part)")

    def test_catalog_point_scenarios_agree_with_general_path(self):
        for name in ("cp1", "cp1-coupled"):
            scn = load(name).localization
            assert fut_isolated(scn) == fut_localized(scn)
            assert fut_localized(scn).is_zero()

    def test_cp1_volume(self):
        scn = load("cp1").localization
        assert volume_localized(scn, 0) == RF.const(2)

    def test_conversion_requires_point_components(self, flagship):
        with pytest.raises(UsageError, match="are not isolated points"):
            fut_isolated(flagship)

    def test_make_point_component_shape(self):
        comp = make_point_component("north", 3, -2, ("1/2", "3"))
        assert comp.ring == point_ring()
        assert comp.codimension == 3
        assert comp.euler.scalar == RF.const(-2)
        assert [b.hamiltonian for b in comp.bundles] == [
            RF.const(F(1, 2)),
            RF.const(3),
        ]
