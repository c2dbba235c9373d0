"""Exact scalar layer: rationals, parameter polynomials, rational functions."""

import random
import time
from fractions import Fraction as F

import pytest

from coupledfut import (
    ComputationError,
    ParamPoly,
    ParseError,
    PoleError,
    RationalFunction,
    UsageError,
    count_roots_open,
    interpolate,
    parse_poly,
    poly_gcd,
    poly_text,
    positive_on_interval,
    rat,
    rat_text,
    ratfun_eval,
    ratfun_reduce,
    render_factored,
)
from coupledfut.rationals import MAX_COEFF_BITS, MAX_DEGREE, MAX_EXPONENT


def c(text):
    return parse_poly(text, "c")


# Fraction-coefficient references the integer kernels are checked against,
# here and in test_analysis


def leading(p):
    return p.coeffs[-1] if p.coeffs else F(0)


def derivative(p):
    return ParamPoly.create([i * x for i, x in enumerate(p.coeffs)][1:])


def monic(p):
    return p.scale(1 / leading(p)) if not p.is_zero() else p


def ref_divmod(a, b):
    """Long division, b nonzero."""
    rem, lead, shift = list(a.coeffs), leading(b), b.degree()
    quot = [F(0)] * max(0, a.degree() - shift + 1)
    for i in range(len(quot) - 1, -1, -1):
        q = quot[i] = rem[i + shift] / lead
        for j, y in enumerate(b.coeffs):
            rem[i + j] -= q * y
    return ParamPoly.create(quot), ParamPoly.create(rem)


def rf(num, den="1"):
    return ratfun_reduce(c(num), c(den))


def random_poly(rng, max_degree=4):
    degree = rng.randint(0, max_degree)
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
    return ParamPoly.create(coeffs)


def random_ratfun(rng, num_degree=3, den_degree=2):
    den = ParamPoly.zero()
    while den.is_zero():
        den = random_poly(rng, den_degree)
    return ratfun_reduce(random_poly(rng, num_degree), den)


class TestRat:
    def test_builds_from_int_fraction_and_string(self):
        assert rat(3) == F(3)
        assert rat(F(-5, 7)) == F(-5, 7)
        assert rat("-1/2") == F(-1, 2)
        assert rat(" 3/4 ") == F(3, 4)

    def test_accepts_unicode_minus(self):
        assert rat("−1/2") == F(-1, 2)

    @pytest.mark.parametrize("bad", ["1//2", "x", "1/0", ""])
    def test_rejects_malformed_strings(self, bad):
        with pytest.raises(ParseError):
            rat(bad)

    def test_bounds_numerator_and_denominator(self):
        assert rat("9e-304") == F(9, 10**304)  # 1010 bits
        assert rat("%de-300" % 2**1023) == F(2**1023, 10**300)
        for text in ("1e-309", "1e309", str(2**1024), "1/%d" % 2**1024):
            with pytest.raises(ParseError, match="exceeds the limit of %d bits"
                                                 % MAX_COEFF_BITS):
                rat(text)

    @pytest.mark.parametrize("text", ["1e-99999999999", "0e99999999999",
                                      "1e" + "9" * 5000])
    def test_rejects_a_huge_exponent_before_building_it(self, text):
        start = time.process_time()
        with pytest.raises(ParseError):
            rat(text)
        assert time.process_time() - start < 0.1

    def test_text_round_trip(self):
        rng = random.Random(101)
        for _ in range(200):
            q = F(rng.randint(-400, 400), rng.randint(1, 60))
            assert rat(rat_text(q)) == q
        assert rat_text(F(-1, 2)) == "-1/2"
        assert rat_text(F(4, 2)) == "2"


class TestParamPoly:
    def test_create_trims_trailing_zeros(self):
        p = ParamPoly.create([F(1), F(0), F(0)])
        assert p.degree() == 0
        assert p == ParamPoly.const(1)
        assert ParamPoly.create([0, 0]).is_zero()

    def test_eval_and_derivative(self):
        p = c("112c^2-112c+23")
        assert p.eval(F(1, 2)) == F(-5)
        assert derivative(p) == c("224c-112")
        assert derivative(ParamPoly.zero()).is_zero()
        assert (leading(c("56c-3")), monic(c("56c-3"))) == (56, c("c-3/56"))

    def test_text_descending_order(self):
        assert poly_text(c("23-112c+112c^2"), "c") == "112c^2-112c+23"
        assert poly_text(ParamPoly.zero(), "c") == "0"
        assert poly_text(ParamPoly.const(F(-1, 4)), "c") == "-1/4"
        assert poly_text(c("-1/4c+1/10"), "c") == "-1/4c+1/10"


class TestParsePoly:
    def test_parses_affine_and_quadratic_forms(self):
        assert c("2c-1/2") == ParamPoly.create([F(-1, 2), F(2)])
        assert c("(3-2c)/2") == ParamPoly.create([F(3, 2), F(-1)])
        assert c("-c") == ParamPoly.create([0, -1])
        assert c("112c^2-112c+23") == ParamPoly.create([23, -112, 112])

    def test_round_trips_through_text(self):
        rng = random.Random(202)
        for _ in range(200):
            p = random_poly(rng)
            assert parse_poly(poly_text(p, "c"), "c") == p

    def test_rejects_unknown_symbols(self):
        with pytest.raises(ParseError, match="unknown symbol 'd'"):
            parse_poly("112d^2", "c")

    @pytest.mark.parametrize("text,message", [
        ("c$", "unexpected character '\\$' in expression 'c\\$'"),
        ("c)", "trailing input in expression 'c\\)'"),
        ("1/c", "division by a non-constant in expression '1/c'"),
        ("1/0", "division by zero in expression '1/0'"),
        ("2*", "unexpected end of expression '2\\*'"),
        ("(c", "unbalanced parentheses in '\\(c'"),
        (" ", "empty polynomial expression"),
    ])
    def test_each_error_keeps_its_message(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_poly(text, "c")

    def test_rejects_dangling_exponent(self):
        with pytest.raises(ParseError, match="exponent"):
            parse_poly("c^", "c")

    def test_exponent_limit(self):
        assert parse_poly("c^%d" % MAX_EXPONENT, "c").degree() == MAX_EXPONENT
        with pytest.raises(ParseError, match="exponent 99999999 exceeds the "
                                             "limit %d" % MAX_EXPONENT):
            parse_poly("2c^99999999+1", "c")

    @pytest.mark.parametrize("text,message", [
        ("((c+1)^100)^100", "degree 10000 exceeds the limit %d" % MAX_DEGREE),
        ("(c^2+1)^51", "degree 102 exceeds the limit %d" % MAX_DEGREE),
        ("c^50*c^51", "degree 101 exceeds the limit %d" % MAX_DEGREE),
        ("2c^60(c+1)^41", "degree 101 exceeds the limit %d" % MAX_DEGREE),
        ("((2^100)^100)^100", "size 10000 bits exceeds the limit %d"
                              % MAX_COEFF_BITS),
        ("(2^100)^11", "size 1100 bits exceeds the limit %d" % MAX_COEFF_BITS),
        ("(2^100)^10*2^25", "size 1025 bits exceeds the limit %d"
                            % MAX_COEFF_BITS),
        # log2(2^16 + 1) * 64 is just over MAX_COEFF_BITS, at a power, at a
        # product and through a denominator
        ("(2^16+1)^64", "size 1025 bits exceeds the limit %d" % MAX_COEFF_BITS),
        ("(2^16+1)^32*(2^16+1)^32", "size 1025 bits exceeds the limit %d"
                                    % MAX_COEFF_BITS),
        ("(c/(2^16+1))^64", "size 1025 bits exceeds the limit %d"
                            % MAX_COEFF_BITS),
        # a quotient is checked as a product is: the second division fails
        ("c" + "/(2^100)^10" * 20, "size 2000 bits exceeds the limit %d in "
                                   "'c/\\(2" % MAX_COEFF_BITS),
        ("1/(2^100)^10/2^25", "size 1025 bits exceeds the limit %d"
                              % MAX_COEFF_BITS),
    ])
    def test_degree_limit(self, text, message):
        assert parse_poly("(c+1)^%d" % MAX_DEGREE, "c").degree() == MAX_DEGREE
        assert parse_poly("(2^100)^10", "c") == ParamPoly.const(2 ** 1000)
        start = time.process_time()  # CPU time: other load does not count
        with pytest.raises(ParseError, match=message):
            parse_poly(text, "c")
        assert time.process_time() - start < 0.1

    @pytest.mark.parametrize("text,value", [
        # log2(2^16 - 1) * 64 is just under MAX_COEFF_BITS
        ("(2^16-1)^64", ParamPoly.const((2 ** 16 - 1) ** 64)),
        ("(2^16-1)^32*(2^16-1)^32", ParamPoly.const((2 ** 16 - 1) ** 64)),
        ("(c/(2^16-1))^64", ParamPoly.create([0] * 64 + [F(1, (2 ** 16 - 1) ** 64)])),
        ("c/(2^100)^10", ParamPoly.create([0, F(1, 2 ** 1000)])),
        ("1/(2^100)^10/2^24", ParamPoly.const(F(1, 2 ** 1024))),
    ])
    def test_coefficient_size_just_under_the_limit(self, text, value):
        assert parse_poly(text, "c") == value

    @pytest.mark.parametrize("text", [".", "c*.", "1+."])
    def test_rejects_a_lone_decimal_point(self, text):
        with pytest.raises(ParseError, match="malformed number '\\.'"):
            parse_poly(text, "c")


class TestPolyArith:
    def test_sum_of_reference_volumes_is_constant(self):
        total = c("112c-6") + c("-112c+106")
        assert total == ParamPoly.const(100)

    def test_cross_multiplied_numerator(self):
        left = c("-30c+12") * c("-56c+53")
        right = c("30c-18") * c("56c-3")
        total = left + right
        assert total == c("3360c^2-3360c+690")
        assert total == c("30") * c("112c^2-112c+23")

    def test_ring_axioms_randomized(self):
        rng = random.Random(303)
        for _ in range(120):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert p + q == q + p
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + ParamPoly.zero() == p
            assert p * ParamPoly.const(1) == p
            assert (p - p).is_zero()


class TestRefDivmod:
    def test_identity_randomized(self):
        rng = random.Random(404)
        for _ in range(120):
            a = random_poly(rng, 6)
            b = random_poly(rng, 3)
            if b.is_zero():
                continue
            q, r = ref_divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree() < b.degree()


class TestPolyGcd:
    def test_coprime_reference_pair(self):
        assert poly_gcd(c("112c^2-112c+23"), c("56c-3")) == ParamPoly.const(1)

    def test_common_factor_is_extracted_monic(self):
        assert poly_gcd(c("c^2-1"), c("c-1")) == c("c-1")
        assert poly_gcd(c("2c-2"), c("4c-4")) == c("c-1")

    def test_gcd_with_zero(self):
        assert poly_gcd(ParamPoly.zero(), c("3c-3")) == c("c-1")
        with pytest.raises(ComputationError, match="undefined"):
            poly_gcd(ParamPoly.zero(), ParamPoly.zero())

    def test_divides_both_randomized(self):
        rng = random.Random(505)
        for _ in range(120):
            a = random_poly(rng, 4)
            b = random_poly(rng, 4)
            if a.is_zero() and b.is_zero():
                continue
            g = poly_gcd(a, b)
            assert leading(g) == 1
            for p in (a, b):
                if not p.is_zero():
                    _, rem = ref_divmod(p, g)
                    assert rem.is_zero()


def euclid_gcd(a, b):
    """Monic gcd by Euclid over Fraction coefficients: the reference."""
    x, y = a, b
    while not y.is_zero():
        _, r = ref_divmod(x, y)
        x, y = y, r
    return monic(x)


def with_common_factor(rng, degree, common=4):
    """Two random rational polynomials of the given degree sharing a random
    factor of degree `common`."""
    def exact(d):
        return ParamPoly.create([F(rng.randint(-9, 9), rng.randint(1, 9))
                                      for _ in range(d)] + [F(rng.randint(1, 9), rng.randint(1, 9))])
    g = exact(common)
    return exact(degree - common) * g, exact(degree - common) * g


class TestPolyGcdReference:
    def test_matches_fraction_euclid_randomized(self):
        rng = random.Random(5150)
        pairs = [(random_poly(rng, 8), random_poly(rng, 8)) for _ in range(150)]
        pairs += [with_common_factor(rng, d) for d in range(4, 41, 6)]
        for a, b in pairs:
            if a.is_zero() and b.is_zero():
                continue
            assert poly_gcd(a, b) == poly_gcd(b, a) == euclid_gcd(a, b)

    def test_degree_44_is_fast(self):
        a, b = with_common_factor(random.Random(44), 44)
        start = time.process_time()  # CPU time: other load does not count
        g = poly_gcd(a, b)
        assert time.process_time() - start < 0.2  # Euclid over Fraction: 0.7 s
        assert g.degree() >= 4
        for p in (a, b):
            assert ref_divmod(p, g)[1].is_zero()


class TestIntegerForm:
    def test_fractions_built_do_not_grow_with_the_degree(self, monkeypatch):
        # the kernels run on the integer part: reducing, counting roots and
        # testing positivity build the same few Fractions at every degree
        interval = (F(-1), F(2))
        calls = [
            lambda a, b: ratfun_reduce(a, b),
            lambda a, b: count_roots_open(a * a, interval),
            lambda a, b: positive_on_interval(a * a, interval),
        ]

        def built(call, degree):
            a, b = with_common_factor(random.Random(degree), degree)
            made = []
            new = F.__new__
            monkeypatch.setattr(F, "__new__", lambda cls, *args, **kwargs: (
                made.append(args), new(cls, *args, **kwargs))[1])
            call(a, b)
            monkeypatch.undo()
            return len(made)

        for call in calls:
            assert built(call, 10) == built(call, 40) <= 8

    def test_normal_form(self):
        p = ParamPoly.create([F(-3, 4), 0, F(3, 2), 0])
        assert (p.ints, p.content) == ((-1, 0, 2), F(3, 4))
        assert (-p).content == F(-3, 4) and (-p).ints == p.ints
        assert p.coeffs == (F(-3, 4), 0, F(3, 2))
        zero = p - p
        assert (zero.ints, zero.content) == ((), 0)
        assert zero == ParamPoly.zero() == p.scale(0)
        with pytest.raises(AttributeError):
            p.coeffs = ()


class TestInterpolate:
    def test_recovers_random_polynomials(self):
        rng = random.Random(606)
        for _ in range(120):
            p = random_poly(rng, 5)
            degree = max(p.degree(), 0)
            xs = []
            while len(xs) < degree + 1:
                x = F(rng.randint(-30, 30), rng.randint(1, 8))
                if x not in xs:
                    xs.append(x)
            assert interpolate([(x, p.eval(x)) for x in xs]) == p

    def test_repeated_abscissa_is_rejected(self):
        with pytest.raises(UsageError, match="repeated abscissa"):
            interpolate([(F(0), F(1)), (F(0), F(2))])

    def test_empty_data_gives_zero(self):
        assert interpolate([]).is_zero()


class TestRationalFunction:
    def test_reduction_is_canonical(self):
        p = c("112c^2-112c+23")
        assert ratfun_reduce(p, p) == RationalFunction.const(1)
        assert rf("c^2-1", "c-1") == RationalFunction.from_poly(c("c+1"))
        assert rf("0", "56c-3").is_zero()

    def test_denominator_is_made_monic(self):
        f = rf("1", "2c-1")
        assert f.den == c("c-1/2")
        assert f.num == ParamPoly.const(F(1, 2))

    def test_zero_denominator_is_rejected(self):
        with pytest.raises(ComputationError, match="zero denominator"):
            ratfun_reduce(c("1"), ParamPoly.zero())

    def test_division_by_zero_is_rejected(self):
        with pytest.raises(ComputationError) as exc:
            RationalFunction.const(1) / RationalFunction.const(0)
        assert str(exc.value) == "division by the zero rational function"

    def test_a_proper_quotient_is_not_a_polynomial(self):
        with pytest.raises(ComputationError) as exc:
            rf("1", "2c^2-1").to_poly()
        assert str(exc.value) == ("not a polynomial: the denominator has "
                                  "degree 2")

    def test_factored_rendering_of_reference_ratio(self):
        num = c("30") * c("112c^2-112c+23")
        den = c("-2") * c("56c-3") * c("56c-53")
        f = ratfun_reduce(num, den)
        assert render_factored(f, "c") == "-15(112c^2-112c+23)/((56c-3)(56c-53))"
        assert ratfun_eval(f, F(1, 2)) == F(-3, 25)

    def test_eval_and_poles(self):
        assert ratfun_eval(RationalFunction.from_poly(c("112c-6")), F(1, 2)) == 50
        with pytest.raises(PoleError, match="pole at 3/56"):
            ratfun_eval(rf("1", "56c-3"), F(3, 56))

    def test_field_axioms_randomized(self):
        rng = random.Random(707)
        count = 0
        while count < 120:
            f = random_ratfun(rng)
            g = random_ratfun(rng)
            h = random_ratfun(rng)
            count += 1
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert f - f == RationalFunction.const(0)
            if not g.is_zero():
                assert (f / g) * g == f

    def test_reduction_idempotent_randomized(self):
        rng = random.Random(808)
        for _ in range(120):
            num = random_poly(rng, 4)
            den = random_poly(rng, 3)
            if den.is_zero():
                continue
            f = ratfun_reduce(num, den)
            assert ratfun_reduce(f.num, f.den) == f
            assert leading(f.den) == 1

    def test_eval_is_a_homomorphism_randomized(self):
        rng = random.Random(909)
        checked = 0
        while checked < 120:
            f = random_ratfun(rng)
            g = random_ratfun(rng)
            x = F(rng.randint(-20, 20), rng.randint(1, 7))
            try:
                fx = ratfun_eval(f, x)
                gx = ratfun_eval(g, x)
            except PoleError:
                continue
            checked += 1
            assert ratfun_eval(f + g, x) == fx + gx
            assert ratfun_eval(f * g, x) == fx * gx
