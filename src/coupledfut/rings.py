"""Truncated polynomial rings modelling the even cohomology of a compact
fixed-point component, and equivariant classes over them.

A ring is presented by nilpotent generators (each with a truncation order and
an even real degree), a distinguished top monomial, and the component's
complex dimension.  A monomial counts degree/2 per generator factor, so the
top monomial must reach the dimension exactly.  Integration extracts the
coefficient of the top monomial.  An equivariant class splits as scalar part
plus nilpotent part; units are exactly the classes with nonzero scalar part.
Powers (repeated squaring) and inverses (Newton's iteration) use the ring's
product, sum and difference alone, so this reference shares no expansion
with the residue table of the localization module.

Each ring also keeps, built once, a dense index of the monomials dividing its
top monomial, with their products and complementary pairs; the residue
table of the localization module integrates on it.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import cached_property

from .errors import (DegenerateDatumError, ParseError, Record, UsageError,
                     ValidationError)
from .rationals import RationalFunction

Exponents = tuple[int, ...]


class Generator(Record):
    """Nilpotent ring generator: name, truncation order, even real degree."""

    name: str
    order: int
    degree: int


class Ring(Record):
    """Truncated polynomial ring with a distinguished top monomial."""

    generators: tuple[Generator, ...]
    top: Exponents
    dimension: int

    def monomial_degree(self, exps: Exponents) -> int:
        """Complex degree of a monomial: degree/2 per generator factor."""
        return sum(e * g.degree // 2 for e, g in zip(exps, self.generators))

    def monomial_survives(self, exps: Exponents) -> bool:
        """True when the monomial is not killed by truncation."""
        if any(e >= g.order for e, g in zip(exps, self.generators)):
            return False
        return self.monomial_degree(exps) <= self.dimension

    @cached_property
    def monomial_table(self) -> "MonomialTable":
        """The monomials dividing top, their products and complements."""
        monos = tuple(itertools.product(*(range(e + 1) for e in self.top)))
        index = {m: i for i, m in enumerate(monos)}
        # in mixed-radix order an index is the exponents dotted with the
        # strides, and a product's index is the sum of its factors'
        strides = [1]
        for e in reversed(self.top[1:]):
            strides.insert(0, strides[0] * (e + 1))
        products = []
        for i, a in enumerate(monos[1:], 1):
            # the monomials b with a * b dividing top, ascending
            for j in map(sum, itertools.product(*(
                    range(0, (t - e) * s + 1, s)
                    for t, e, s in zip(self.top, a, strides)))):
                if j:
                    products.append((i, j, i + j))
        pairs = tuple(enumerate(range(len(monos) - 1, -1, -1)))
        return MonomialTable(monos, index, tuple(products), pairs)


class MonomialTable(Record):
    """Dense index of the monomials that divide a ring's top monomial.

    Only these reach the top coefficient, because a product's exponents are
    at least each factor's; all of them survive truncation.  A class stored
    as an array over this index therefore integrates exactly.  Index 0 is the
    unit monomial and the last index the top one.  products lists (i, j, k)
    with m_i * m_j = m_k for non-unit i and j; pairs lists (i, j) with
    m_i * m_j = top.  Each ring has one table, compared by identity.
    """

    monomials: tuple[Exponents, ...]
    index: Mapping[Exponents, int]
    products: tuple[tuple[int, int, int], ...]
    pairs: tuple[tuple[int, int], ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__


def ring_create(param: str,
                generators: list[Generator] | tuple[Generator, ...],
                top: Mapping[str, int],
                dimension: int) -> Ring:
    """Validate and build a ring; a point has no generators and dimension 0."""
    gens = tuple(generators)
    names = [g.name for g in gens]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate generator names: %r" % (names,))
    for g in gens:
        if not (g.name.isascii() and g.name.isidentifier()):
            raise ValidationError("invalid generator name %r" % g.name)
        if g.name == param:
            raise ValidationError(
                "generator %r collides with the parameter name" % g.name)
        if g.order < 1:
            raise ValidationError(
                "generator %r has truncation order %d; need at least 1"
                % (g.name, g.order))
        if g.degree < 2 or g.degree % 2:
            raise ValidationError(
                "generator %r has degree %d; need an even degree of at least 2"
                % (g.name, g.degree))
    if dimension < 0:
        raise ValidationError("negative dimension %d" % dimension)
    unknown = set(top) - set(names)
    if unknown:
        raise ValidationError("top monomial uses unknown generators %r"
                              % sorted(unknown))
    exps = tuple(int(top.get(g.name, 0)) for g in gens)
    if any(e < 0 for e in exps):
        raise ValidationError("negative exponent in top monomial")
    for e, g in zip(exps, gens):
        if e >= g.order:
            raise ValidationError(
                "top monomial exponent %d of %r reaches truncation order %d"
                % (e, g.name, g.order))
    ring = Ring(gens, exps, dimension)
    if ring.monomial_degree(exps) != dimension:
        raise ValidationError(
            "top monomial has degree %d but the dimension is %d"
            % (ring.monomial_degree(exps), dimension))
    return ring


def point_ring() -> Ring:
    """The ring of an isolated fixed point."""
    return Ring((), (), 0)


class NilpotentClass(Record):
    """Sum of monomials with rational-function coefficients; no constant term."""

    ring: Ring
    terms: tuple[tuple[Exponents, RationalFunction], ...]

    @staticmethod
    def create(ring: Ring,
               mapping: Mapping[Exponents, RationalFunction]) -> "NilpotentClass":
        kept = {}
        for exps, coeff in mapping.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(ring.generators):
                raise UsageError("exponent tuple %r has wrong length" % (exps,))
            if any(e < 0 for e in exps):
                raise UsageError("negative exponent in %r" % (exps,))
            if all(e == 0 for e in exps):
                raise UsageError("constant term belongs in the scalar part")
            if coeff.is_zero() or not ring.monomial_survives(exps):
                continue
            kept[exps] = kept[exps] + coeff if exps in kept else coeff
        items = tuple(sorted((e, c) for e, c in kept.items() if not c.is_zero()))
        return NilpotentClass(ring, items)

    @staticmethod
    def zero(ring: Ring) -> "NilpotentClass":
        return NilpotentClass(ring, ())

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps: Exponents) -> RationalFunction:
        for e, c in self.terms:
            if e == exps:
                return c
        return RationalFunction.const(0)

    def __add__(self, other: "NilpotentClass") -> "NilpotentClass":
        _same_ring(self.ring, other.ring)
        merged = dict(self.terms)
        for e, c in other.terms:
            merged[e] = merged.get(e, RationalFunction.const(0)) + c
        return NilpotentClass.create(self.ring, merged)

    def __neg__(self) -> "NilpotentClass":
        return NilpotentClass(self.ring, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "NilpotentClass") -> "NilpotentClass":
        _same_ring(self.ring, other.ring)
        out: dict[Exponents, RationalFunction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                exps = tuple(x + y for x, y in zip(e1, e2))
                if not self.ring.monomial_survives(exps):
                    continue
                prod = c1 * c2
                out[exps] = out.get(exps, RationalFunction.const(0)) + prod
        return NilpotentClass.create(self.ring, out)

    def scale(self, q: RationalFunction) -> "NilpotentClass":
        if q.is_zero():
            return NilpotentClass.zero(self.ring)
        return NilpotentClass.create(
            self.ring, {e: c * q for e, c in self.terms})


def _same_ring(a: Ring, b: Ring) -> None:
    if a != b:
        raise UsageError("classes live in different rings")


def monomial_text(ring: Ring, exps: Exponents) -> str:
    """Render an exponent tuple as 'a*b^2' (or '1' for the empty monomial)."""
    parts = []
    for e, g in zip(exps, ring.generators):
        if e == 1:
            parts.append(g.name)
        elif e > 1:
            parts.append("%s^%d" % (g.name, e))
    return "*".join(parts) if parts else "1"


def parse_monomial(ring: Ring, key: str) -> Exponents:
    """Parse a monomial key like 'a', 'b^2', 'a*b^2' into an exponent tuple."""
    names = [g.name for g in ring.generators]
    exps = [0] * len(names)
    key = key.strip()
    for piece in key.split("*") if key not in ("1", "") else ():
        piece = piece.strip()
        if "^" in piece:
            name, _, power = piece.partition("^")
            name, power = name.strip(), power.strip()
            if not (power.isascii() and power.isdigit()):
                raise ParseError("bad exponent in monomial %r" % key)
            e = int(power)
        else:
            name, e = piece, 1
        if name not in names:
            raise ParseError("unknown generator %r in monomial %r" % (name, key))
        exps[names.index(name)] += e
    if not any(exps):  # also 'a^0'
        raise ParseError("constant monomial %r is not a nilpotent term" % key)
    return tuple(exps)


class EquivariantClass(Record):
    """Scalar part plus nilpotent part over one ring."""

    scalar: RationalFunction
    nilpotent: NilpotentClass

    @property
    def ring(self) -> Ring:
        return self.nilpotent.ring

    @staticmethod
    def one(ring: Ring) -> "EquivariantClass":
        return EquivariantClass(RationalFunction.const(1),
                                NilpotentClass.zero(ring))

    def __add__(self, other: "EquivariantClass") -> "EquivariantClass":
        _same_ring(self.ring, other.ring)
        return EquivariantClass(self.scalar + other.scalar,
                                self.nilpotent + other.nilpotent)

    def __neg__(self) -> "EquivariantClass":
        return EquivariantClass(-self.scalar, -self.nilpotent)

    def __sub__(self, other: "EquivariantClass") -> "EquivariantClass":
        return self + (-other)

    def __mul__(self, other: "EquivariantClass") -> "EquivariantClass":
        _same_ring(self.ring, other.ring)
        nil = (self.nilpotent.scale(other.scalar)
               + other.nilpotent.scale(self.scalar)
               + self.nilpotent * other.nilpotent)
        return EquivariantClass(self.scalar * other.scalar, nil)


def equiv_pow(x: EquivariantClass, k: int) -> EquivariantClass:
    """k-th power by repeated squaring."""
    if k < 0:
        raise UsageError("negative power %d; invert the unit first" % k)
    out = EquivariantClass.one(x.ring)
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


def invert_unit(x: EquivariantClass) -> EquivariantClass:
    """Inverse of a class s + N with nonzero scalar part s.

    Newton's iteration y <- y(2 - xy) from y = 1/s squares the error 1 - xy,
    which starts as -N/s.  After bit_length(d) steps it is a multiple of
    N^(d+1), since 2^bit_length(d) > d, and N^(d+1) vanishes on a ring of
    dimension d.
    """
    if x.scalar.is_zero():
        raise DegenerateDatumError(
            "equivariant Euler class with zero scalar part is not invertible")
    one = EquivariantClass.one(x.ring)
    two = one + one
    y = EquivariantClass(one.scalar / x.scalar, NilpotentClass.zero(x.ring))
    for _ in range(x.ring.dimension.bit_length()):
        y = y * (two - x * y)
    return y


def integrate(x: EquivariantClass | NilpotentClass) -> RationalFunction:
    """Coefficient of the top monomial; for a point, the scalar part.

    A nilpotent class on a point has no terms, so it integrates to zero.
    """
    if isinstance(x, EquivariantClass):
        if not x.ring.generators:
            return x.scalar
        x = x.nilpotent
    return x.coeff(x.ring.top)
