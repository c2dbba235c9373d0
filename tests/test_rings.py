"""Truncated cohomology rings and equivariant classes."""

import random
from fractions import Fraction as F

import pytest

from coupledfut import (
    DegenerateDatumError,
    EquivariantClass,
    Generator,
    NilpotentClass,
    ParseError,
    RationalFunction,
    UsageError,
    ValidationError,
    equiv_pow,
    integrate,
    invert_unit,
    monomial_text,
    parse_monomial,
    parse_poly,
    point_ring,
    ring_create,
)

RF = RationalFunction


@pytest.fixture(scope="module")
def flag():
    """Rank-two ring of the three-dimensional fiber used by the main catalog."""
    return ring_create(
        "c",
        [Generator("a", 2, 2), Generator("b", 3, 2)],
        {"a": 1, "b": 2},
        3,
    )


def ncl(ring, mapping):
    return NilpotentClass.create(
        ring, {k: RF.const(v) for k, v in mapping.items()}
    )


def eqc(ring, scalar, mapping=None):
    return EquivariantClass(
        RF.const(scalar), ncl(ring, mapping or {})
    )


class TestRingCreate:
    def test_flag_ring_is_valid(self, flag):
        assert flag.top == (1, 2)
        assert flag.dimension == 3
        assert [g.order for g in flag.generators] == [2, 3]

    def test_order_one_generator_is_allowed(self):
        ring = ring_create("c", [Generator("x", 1, 2)], {}, 0)
        assert ring.top == (0,)
        assert ring.dimension == 0

    def test_point_ring_helper(self):
        ring = point_ring()
        assert ring.generators == ()
        assert ring.dimension == 0

    def test_top_exponent_must_stay_below_truncation(self):
        with pytest.raises(ValidationError, match="reaches truncation order"):
            ring_create(
                "c",
                [Generator("a", 2, 2), Generator("b", 3, 2)],
                {"a": 2},
                2,
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError, match="duplicate generator names"):
            ring_create("c", [Generator("a", 2, 2), Generator("a", 3, 2)], {"a": 1}, 1)

    def test_odd_or_small_degree_rejected(self):
        with pytest.raises(ValidationError, match="even degree"):
            ring_create("c", [Generator("a", 2, 3)], {"a": 1}, 1)
        with pytest.raises(ValidationError, match="even degree"):
            ring_create("c", [Generator("a", 2, 0)], {"a": 1}, 1)

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValidationError, match="truncation order"):
            ring_create("c", [Generator("a", 0, 2)], {"a": 1}, 1)

    def test_top_degree_must_equal_dimension(self):
        with pytest.raises(ValidationError, match="degree 3 but the dimension is 4"):
            ring_create(
                "c",
                [Generator("a", 2, 2), Generator("b", 3, 2)],
                {"a": 1, "b": 2},
                4,
            )

    def test_top_with_unknown_generator_rejected(self):
        with pytest.raises(ValidationError, match="unknown generators"):
            ring_create("c", [Generator("a", 2, 2)], {"z": 1}, 1)


class TestNilpotentAlgebra:
    def test_square_of_mixed_class(self, flag):
        n = ncl(flag, {(1, 0): 1, (0, 1): 4})
        assert n * n == ncl(flag, {(1, 1): 8, (0, 2): 16})

    def test_opposite_product(self, flag):
        left = ncl(flag, {(1, 0): -1, (0, 1): 1})
        right = ncl(flag, {(1, 0): 1, (0, 1): -1})
        assert left * right == ncl(flag, {(1, 1): 2, (0, 2): -1})

    def test_truncation_kills_high_powers(self, flag):
        a = ncl(flag, {(1, 0): 1})
        assert (a * a).is_zero()
        b = ncl(flag, {(0, 1): 1})
        b2 = b * b
        assert not b2.is_zero()
        assert (b2 * b).is_zero()

    def test_constant_term_rejected(self, flag):
        with pytest.raises(UsageError, match="constant term"):
            NilpotentClass.create(flag, {(0, 0): RF.const(1)})

    def test_wrong_exponent_arity_rejected(self, flag):
        with pytest.raises(UsageError, match="wrong length"):
            NilpotentClass.create(flag, {(1,): RF.const(1)})

    def test_dead_monomials_are_dropped(self, flag):
        assert NilpotentClass.create(flag, {(1, 7): RF.const(1)}).is_zero()

    def test_mixed_rings_rejected(self, flag):
        with pytest.raises(UsageError, match="different rings"):
            ncl(flag, {(1, 0): 1}) * NilpotentClass.zero(point_ring())

    def test_monomial_parsing_round_trip(self, flag):
        assert parse_monomial(flag, "a*b^2") == (1, 2)
        assert monomial_text(flag, (1, 2)) == "a*b^2"
        assert monomial_text(flag, (0, 0)) == "1"
        with pytest.raises(ParseError, match="unknown generator"):
            parse_monomial(flag, "a b^2")

    def test_ring_axioms_randomized(self, flag):
        rng = random.Random(1111)
        basis = [(1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]

        def rand_class():
            return ncl(flag, {k: F(rng.randint(-6, 6), rng.randint(1, 4)) for k in basis})

        zero = NilpotentClass.zero(flag)
        for _ in range(120):
            x, y, z = rand_class(), rand_class(), rand_class()
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + zero == x
            assert (x * zero).is_zero()


class TestEquivariantClasses:
    def test_cube_of_unit_with_nilpotent_tail(self, flag):
        x = eqc(flag, F(-1, 2), {(1, 0): 1, (0, 1): 4})
        cube = equiv_pow(x, 3)
        assert cube.scalar == RF.const(F(-1, 8))
        assert cube.nilpotent == ncl(
            flag,
            {(1, 0): F(3, 4), (0, 1): 3, (1, 1): -12, (0, 2): -24, (1, 2): 48},
        )
        assert cube == x * x * x

    def test_inverse_of_unit(self, flag):
        y = eqc(flag, F(-1, 2), {(1, 0): -1, (0, 1): 1})
        inv = invert_unit(y)
        assert inv.scalar == RF.const(-2)
        assert inv.nilpotent == ncl(
            flag, {(1, 0): 4, (0, 1): -4, (1, 1): 16, (0, 2): -8, (1, 2): 48}
        )
        assert y * inv == EquivariantClass.one(flag)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 8])
    def test_newton_inverse_is_exact(self, dim):
        # with N = g + 2g^2 + ..., the error 1 - xy = (-N/s)^(2^steps)
        # vanishes only once 2^steps exceeds dim: 3 and 4, 7 and 8 sit on
        # either side of a change in the step count
        ring = ring_create("c", [Generator("g", dim + 1, 2)], {"g": dim}, dim)
        x = eqc(ring, F(-3, 2), {(k,): k for k in range(1, dim + 1)})
        assert x * invert_unit(x) == EquivariantClass.one(ring)

    def test_zero_scalar_is_not_invertible(self, flag):
        with pytest.raises(DegenerateDatumError, match="not invertible"):
            invert_unit(eqc(flag, 0, {(1, 0): 1}))

    def test_negative_power_rejected(self, flag):
        with pytest.raises(UsageError, match="negative power"):
            equiv_pow(eqc(flag, 1), -1)

    def test_pow_zero_and_one(self, flag):
        x = eqc(flag, F(2, 3), {(0, 1): 5})
        assert equiv_pow(x, 0) == EquivariantClass.one(flag)
        assert equiv_pow(x, 1) == x

    def test_symbolic_scalars_flow_through(self, flag):
        scalar = RF.from_poly(parse_poly("2c-1/2", "c"))
        x = EquivariantClass(scalar, ncl(flag, {(0, 1): 1}))
        sq = equiv_pow(x, 2)
        assert sq.scalar == scalar * scalar
        assert sq.nilpotent.coeff((0, 1)) == (scalar.scale(2))

    def test_inverse_product_identity_randomized(self, flag):
        rng = random.Random(2222)
        basis = [(1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        one = EquivariantClass.one(flag)
        for _ in range(120):
            scalar = F(0)
            while scalar == 0:
                scalar = F(rng.randint(-8, 8), rng.randint(1, 5))
            nil = ncl(
                flag,
                {k: F(rng.randint(-5, 5), rng.randint(1, 4)) for k in basis},
            )
            x = EquivariantClass(RF.const(scalar), nil)
            assert x * invert_unit(x) == one

    def test_power_additivity_randomized(self, flag):
        rng = random.Random(3333)
        basis = [(1, 0), (0, 1), (1, 1), (0, 2)]
        for _ in range(120):
            x = EquivariantClass(
                RF.const(F(rng.randint(-6, 6), rng.randint(1, 4))),
                ncl(flag, {k: F(rng.randint(-5, 5), rng.randint(1, 4)) for k in basis}),
            )
            i = rng.randint(0, 4)
            j = rng.randint(0, 4)
            assert equiv_pow(x, i + j) == equiv_pow(x, i) * equiv_pow(x, j)


class TestIntegrate:
    def test_reads_top_coefficient(self, flag):
        n = ncl(flag, {(1, 0): 1, (0, 1): 4})
        n3 = n * n * n
        assert integrate(n3) == RF.const(48)
        assert integrate(n) == RF.const(0)

    def test_equivariant_class_integrates_its_nilpotent_top(self, flag):
        x = eqc(flag, F(-1, 2), {(1, 0): 1, (0, 1): 4})
        assert integrate(equiv_pow(x, 3)) == RF.const(48)

    def test_point_ring_integrates_the_scalar(self):
        pt = point_ring()
        x = EquivariantClass(
            RF.from_poly(parse_poly("2c-1", "c")), NilpotentClass.zero(pt)
        )
        assert integrate(x) == RF.from_poly(parse_poly("2c-1", "c"))

    def test_linearity_randomized(self, flag):
        rng = random.Random(4444)
        basis = [(1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]

        def rand_class():
            return ncl(flag, {k: F(rng.randint(-7, 7), rng.randint(1, 5)) for k in basis})

        for _ in range(120):
            x, y = rand_class(), rand_class()
            s = F(rng.randint(-6, 6), rng.randint(1, 4))
            assert integrate(x + y) == integrate(x) + integrate(y)
            assert integrate(x.scale(RF.const(s))) == integrate(x).scale(s)
