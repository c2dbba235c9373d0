"""Exact scalar arithmetic: rationals, dense univariate polynomials in one
formal parameter, and reduced rational functions.

Rational numbers are fractions.Fraction.  Integer polynomials (IntPoly) are
tuples of coefficients, ascending by degree, with no trailing zeros.  A
ParamPoly is one IntPoly, primitive with a positive leading coefficient,
times one rational content that carries the sign, normalized once, on
creation: structural equality is mathematical equality, sums run in
integers with one gcd, and products need none (Gauss's lemma).  A
RationalFunction is a gcd-reduced quotient of two, with a monic
denominator.  The expression parser works on IntPoly numerators over one
positive denominator in lowest terms, and builds one ParamPoly at the end,
within MAX_EXPONENT, MAX_DEGREE and MAX_COEFF_BITS; the root kernel keeps to
MAX_DEGREE and rat to MAX_COEFF_BITS.

One primitive remainder sequence over the integers serves both the gcd and
the Sturm chain.  UnitKernel reads the sign of a polynomial, and of its
Sturm chain, at dyadic points of a bracket in integer arithmetic, and walks
it: Sturm counts separate the roots, one sign per halving narrows each.
Root counting, root isolation and the rational-root search all run on it,
and so does the positivity test, by one rule at every degree: no root
inside the interval and a positive sign at its midpoint.  Each ParamPoly
is factored once, on first use: Yun's squarefree decomposition of its
integer part, then one rational-root search on the squarefree part.  Every
root multiplicity, pole and factored form is read from that factorization.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, reduce

from .errors import ComputationError, ParseError, PoleError, Record, UsageError

_ZERO, _ONE = Fraction(0), Fraction(1)


def rat(value: int | str | Fraction) -> Fraction:
    """Build an exact rational from an int, a Fraction, or a string like '-1/2'
    whose numerator and denominator have at most MAX_COEFF_BITS bits."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    text = str(value).strip().translate(_NORMALIZE)
    mantissa, e, exponent = text.lower().partition("e")
    try:
        # a nonzero mantissa of m characters times 10^k stays within
        # MAX_COEFF_BITS in lowest terms only if |k| <= m + MAX_COEFF_BITS;
        # a zero one is refused too, so 10^k is never built for a larger k
        q = None if e and abs(int(exponent)) > len(mantissa) + MAX_COEFF_BITS \
            else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad rational %r" % str(value).strip()) from exc
    if q is None or max(q.numerator.bit_length(),
                        q.denominator.bit_length()) > MAX_COEFF_BITS:
        raise ParseError("rational %r exceeds the limit of %d bits"
                         % (str(value).strip(), MAX_COEFF_BITS))
    return q


def rat_text(q: Fraction | int) -> str:
    """Render a rational as 'p' or 'p/q', and an integer as 'p'.

    A numerator or denominator longer than the interpreter's limit of
    printable digits, sys.get_int_max_str_digits() (0 for none), is a
    UsageError that names its digit count and the limit.
    """
    try:
        return str(q)
    except ValueError:  # the limit is set and passed
        n = max(abs(q.numerator), q.denominator)
        digits = int((n.bit_length() - 1) * math.log10(2)) + 1
        digits += n >= 10 ** digits  # n has digits or digits + 1 of them
        limit = sys.get_int_max_str_digits()
        raise UsageError("a number of %d digits exceeds the printing limit "
                         "of %d digits" % (digits, limit)) from None


# integer coefficients, ascending by degree, no trailing zeros; () is zero
IntPoly = tuple[int, ...]


class ParamPoly(Record):
    """content * ints in the parameter: ints is primitive with a positive
    leading coefficient, and the rational content carries the sign.  Zero is
    () with content 0.  The parameter's name is not stored: text takes it."""

    ints: IntPoly
    content: Fraction

    def __init__(self, ints: IntPoly, content: Fraction):
        object.__setattr__(self, "ints", ints)  # hot: no generic init
        object.__setattr__(self, "content", content)

    @staticmethod
    def from_ints(ints: Sequence[int], scale: Fraction = _ONE) -> "ParamPoly":
        """scale times an integer polynomial, in the normal form."""
        ints = list(ints)
        while ints and not ints[-1]:
            ints.pop()
        if not ints or not scale:
            return ParamPoly((), _ZERO)
        g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
        return ParamPoly(tuple(co // g for co in ints), scale * g)

    @staticmethod
    def create(coeffs: Iterable[int | str | Fraction]) -> "ParamPoly":
        qs = [rat(x) for x in coeffs]
        den = math.lcm(*[q.denominator for q in qs])
        return ParamPoly.from_ints([q.numerator * (den // q.denominator)
                                    for q in qs], Fraction(1, den))

    @staticmethod
    def zero() -> "ParamPoly":
        return ParamPoly((), _ZERO)

    @staticmethod
    def const(value: int | str | Fraction) -> "ParamPoly":
        q = rat(value)
        return ParamPoly((1,) if q else (), q)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients, ascending; derived, for reading only."""
        return tuple(self.content * co for co in self.ints)

    def is_zero(self) -> bool:
        return not self.ints

    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.ints) - 1

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        if not self.ints or not other.ints:
            return other if not self.ints else self
        a, b = self.content, other.content
        den = math.lcm(a.denominator, b.denominator)
        return ParamPoly.from_ints(_ipoly_add(
            _ipoly_mul((a.numerator * (den // a.denominator),), self.ints),
            _ipoly_mul((b.numerator * (den // b.denominator),), other.ints)),
            Fraction(1, den))

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(self.ints, -self.content)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        return ParamPoly(_ipoly_mul(self.ints, other.ints),
                         self.content * other.content)

    def scale(self, q: int | str | Fraction) -> "ParamPoly":
        q = rat(q)
        return ParamPoly(self.ints if q else (), self.content * q)

    def coeff(self, i: int) -> Fraction:
        return self.content * self.ints[i] if 0 <= i < len(self.ints) else _ZERO

    def eval(self, x: int | str | Fraction) -> Fraction:
        """Exact evaluation: Horner's rule in integers, then one division."""
        x = rat(x)
        acc, scale = _homogeneous(self.ints, x)
        return self.content * Fraction(acc * x.denominator, scale)

    def text(self, param: str) -> str:
        return poly_text(self, param)

    @cached_property
    def factorization(self) -> "Factorization":
        """This polynomial's factorization, computed on first use."""
        return _factorize(self.ints)


def poly_gcd(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Monic gcd, from the last term of the integer remainder sequence."""
    if a.is_zero() and b.is_zero():
        raise ComputationError("gcd of two zero polynomials is undefined")
    g = _int_gcd(a.ints, b.ints)
    return ParamPoly(g, Fraction(1, g[-1]))


def _remainder_sequence(x: Sequence[int],
                        y: Sequence[int]) -> list[Sequence[int]]:
    """x, y and the negated primitive pseudo-remainders after them, down to
    the last nonzero one; len(x) >= len(y) > 0.

    A pseudo-remainder multiplies by |lead(y)|, never by a negative number,
    and is divided by its content, so each term is a positive multiple of
    the one Euclid's algorithm over Fraction gives, with small coefficients:
    for y = x' the terms form the Sturm sequence of x, and the last term is
    gcd(x, y) up to a nonzero factor.
    """
    seq = [x, y]
    while True:
        r, lead, sign = x, abs(y[-1]), (1 if y[-1] > 0 else -1)
        while len(r) >= len(y):  # r <- |lead| r - sign lead(r) y x^shift
            q, shift = sign * r[-1], len(r) - len(y)
            r = [lead * co for co in r]
            for i, co in enumerate(y):
                r[shift + i] -= q * co
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return seq
        x, y = y, [-co for co in _primitive(r)]
        seq.append(y)


def _primitive(x: Sequence[int]) -> list[int]:
    """x divided by its positive content; x nonzero."""
    content = math.gcd(*x)
    return [co // content for co in x]


def _int_gcd(x: Sequence[int], y: Sequence[int]) -> IntPoly:
    """Primitive gcd, with a positive leading coefficient, of two integer
    polynomials (ascending coefficients), not both zero."""
    if len(x) < len(y):
        x, y = y, x
    g = _primitive(_remainder_sequence(x, y)[-1] if y else x)
    return tuple(g) if g[-1] > 0 else tuple(-co for co in g)


def _int_sturm(x: Sequence[int]) -> list[Sequence[int]]:
    """Sturm sequence of a nonzero integer polynomial, each term a positive
    multiple of the classical one with integer coefficients."""
    dx = _ipoly_derivative(x)
    return _remainder_sequence(_primitive(x), _primitive(dx)) if dx else [x]


def _ipoly_add(a: IntPoly, b: IntPoly) -> IntPoly:
    if not b or not a:
        return a or b
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _ipoly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """The product; a unit factor (1,) returns the other one unchanged."""
    if not a or not b:
        return ()
    if len(a) == 1:
        k = a[0]
        return b if k == 1 else tuple([k * y for y in b])
    if len(b) == 1:
        k = b[0]
        return a if k == 1 else tuple([x * k for x in a])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _ipoly_quo(a: IntPoly, b: IntPoly) -> IntPoly:
    """a / b where b divides a in Z[param]."""
    if len(b) == 1:
        return tuple(x // b[0] for x in a)
    rem = list(a)
    shift = len(b) - 1
    quot = [0] * (len(a) - shift)
    for i in range(len(quot) - 1, -1, -1):
        q = quot[i] = rem[i + shift] // b[-1]
        for j, y in enumerate(b):
            rem[i + j] -= q * y
    return tuple(quot)


def _ipoly_lcm(a: IntPoly, b: IntPoly) -> IntPoly:
    """Least common multiple in Z[param], up to sign."""
    if len(a) == 1 and len(b) == 1:
        return (math.lcm(a[0], b[0]),)
    content = math.gcd(math.gcd(*a), math.gcd(*b))
    return _ipoly_mul(a, _ipoly_quo(b, tuple(content * x
                                             for x in _int_gcd(a, b))))


def _ipoly_derivative(x: Sequence[int]) -> IntPoly:
    return tuple(i * co for i, co in enumerate(x))[1:]


def _ipoly_prod(xs: Iterable[IntPoly]) -> IntPoly:
    return reduce(_ipoly_mul, xs, (1,))


def poly_text(p: ParamPoly, param: str) -> str:
    """Render descending in the named parameter, ASCII only:
    '112c^2-112c+23', '-30c+12', '0'."""
    parts: list[str] = []
    for i in range(p.degree(), -1, -1):
        co = p.coeff(i)
        if co == 0:
            continue
        sign = "-" if co < 0 else ("+" if parts else "")
        mag = abs(co)
        if i == 0:
            body = rat_text(mag)
        else:
            var = param if i == 1 else "%s^%d" % (param, i)
            body = var if mag == 1 else rat_text(mag) + var
        parts.append(sign + body)
    return "".join(parts) or "0"


class RationalFunction(Record):
    """Reduced quotient num/den with monic denominator (canonical form)."""

    num: ParamPoly
    den: ParamPoly

    def __init__(self, num: ParamPoly, den: ParamPoly):
        object.__setattr__(self, "num", num)  # hot: no generic init
        object.__setattr__(self, "den", den)

    @staticmethod
    def const(value: int | str | Fraction) -> "RationalFunction":
        return RationalFunction.from_poly(ParamPoly.const(value))

    @staticmethod
    def from_poly(p: ParamPoly) -> "RationalFunction":
        return RationalFunction(p, ParamPoly((1,), _ONE))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.den == other.den:
            return ratfun_reduce(self.num + other.num, self.den)
        return ratfun_reduce(self.num * other.den + other.num * self.den,
                             self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return ratfun_reduce(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ComputationError("division by the zero rational function")
        return ratfun_reduce(self.num * other.den, self.den * other.num)

    def scale(self, q: int | str | Fraction) -> "RationalFunction":
        return RationalFunction(self.num.scale(q), self.den)

    def to_poly(self) -> ParamPoly:
        """The underlying polynomial; error if the denominator is nontrivial."""
        if not self.is_polynomial():
            raise ComputationError("not a polynomial: the denominator has "
                                   "degree %d" % self.den.degree())
        return self.num.scale(1 / self.den.content)

    def text(self, param: str) -> str:
        if self.is_polynomial():
            return poly_text(self.to_poly(), param)
        return "(%s)/(%s)" % (poly_text(self.num, param),
                              poly_text(self.den, param))


def ratfun_reduce(num: ParamPoly, den: ParamPoly) -> RationalFunction:
    """Canonical form: divide by the gcd, then make the denominator monic."""
    if den.is_zero():
        raise ComputationError("zero denominator")
    if num.is_zero():
        return RationalFunction.from_poly(num)
    n, d = num.ints, den.ints
    if len(d) > 1:  # a constant denominator has nothing to cancel
        g = _int_gcd(n, d)
        if len(g) > 1:  # the quotients are primitive, by Gauss's lemma
            n, d = _ipoly_quo(n, g), _ipoly_quo(d, g)
    return RationalFunction(
        ParamPoly(n, num.content / (den.content * d[-1])),
        ParamPoly(d, Fraction(1, d[-1])))


def ratfun_eval(f: RationalFunction, x: int | str | Fraction) -> Fraction:
    """Exact evaluation; raises PoleError at denominator roots."""
    x = rat(x)
    d = f.den.eval(x)
    if d == 0:
        raise PoleError("pole at %s" % rat_text(x))
    return f.num.eval(x) / d


# ---------------------------------------------------------------------------
# exact real roots in integers


def sturm_chain(p: ParamPoly) -> list[ParamPoly]:
    """The Sturm sequence of p, each term scaled by a positive rational to
    primitive integer coefficients; empty for the zero polynomial."""
    if p.is_zero():
        return []
    sign = _ONE if p.content > 0 else -_ONE
    return [ParamPoly.from_ints(q, sign) for q in _int_sturm(p.ints)]


def count_roots_open(p: ParamPoly,
                     interval: tuple[Fraction, Fraction]) -> int:
    """Number of distinct real roots strictly inside the interval."""
    lo, hi = interval
    if not lo < hi:
        raise UsageError("empty interval")
    if p.degree() < 1:
        return 0
    return UnitKernel(_squarefree_split(p.ints)[0], lo, hi).count(0, 0)


def positive_on_interval(p: ParamPoly,
                         interval: tuple[Fraction, Fraction]) -> bool:
    """True when p > 0 on the whole open interval: p has no root inside it
    and is positive at its midpoint, at every degree.  An empty interval is
    refused by the root count."""
    lo, hi = interval
    return (count_roots_open(p, interval) == 0
            and _sign_at(p.ints, (lo + hi) / 2) * p.content > 0)


class UnitKernel:
    """A nonzero squarefree integer polynomial on a bracket, read at dyadic
    points.

    The bracket [a, b] is mapped to t in [0, 1] once, by x = a + (b-a)*t
    homogenized as _sign_at does, and the substituted polynomial and its
    Sturm chain, from the integer remainder sequence, are positive multiples
    of the classical ones with integer coefficients, which keeps every sign.
    The sign at t = k/2^j is then the sign of the homogeneous form
    sum c_i k^i 2^(j(d-i)), evaluated by Horner's rule in integers with
    power-of-two shifts: no Fraction and no gcd.  Points are named (k, j).
    The chain's cost grows steeply with the degree, which may be at most
    MAX_DEGREE, the bound of a parsed expression.
    """

    def __init__(self, coeffs: Sequence[int], a: Fraction, b: Fraction):
        if len(coeffs) - 1 > MAX_DEGREE:
            raise UsageError("a polynomial of degree %d exceeds the limit %d "
                             "of exact root finding"
                             % (len(coeffs) - 1, MAX_DEGREE))
        self.a = a
        self.span = span = b - a
        # x = (u + w t) / v; the coefficient c_i is weighted by v^(d-i)
        u, w = a.numerator * span.denominator, span.numerator * a.denominator
        v, scale = a.denominator * span.denominator, 1
        q = [0] * len(coeffs)
        for co in reversed(coeffs):  # Horner in t: q <- q*(u + w t) + co*scale
            q = [co * scale + u * q[0]] + [u * q[i] + w * q[i - 1]
                                           for i in range(1, len(q))]
            scale *= v
        self.chain = _int_sturm(q)

    def point(self, k: int, j: int) -> Fraction:
        """The bracket point x at t = k/2^j."""
        return self.a + self.span * Fraction(k, 1 << j)

    def sign(self, k: int, j: int) -> int:
        """Sign of the polynomial at t = k/2^j."""
        return _dyadic_sign(self.chain[0], k, j)

    def count(self, k: int, j: int) -> int:
        """Distinct roots with t strictly inside (k/2^j, (k+1)/2^j).

        V(t) - V(u) counts the roots in (t, u]; a root at the right end is
        taken back off.
        """
        return (self._variations(k, j) - self._variations(k + 1, j)
                - (self.sign(k + 1, j) == 0))

    def brackets(self) -> tuple[list[Fraction], list[tuple[int, int]]]:
        """The roots strictly inside, separated: the dyadic midpoints that
        are roots, exactly, and brackets (k, j) holding one root each, with
        a left end that is not a root.  Sturm counts split each bracket at
        its midpoint, also a one-root bracket whose left end is a root."""
        exact, found = [], []
        stack = [(0, 0, self.sign(0, 0) == 0)]  # (k, j, left end is a root)
        while stack:
            k, j, at_root = stack.pop()
            count = self.count(k, j)
            if count == 1 and not at_root:
                found.append((k, j))
            elif count:
                mid = self.sign(2 * k + 1, j + 1) == 0
                if mid:
                    exact.append(self.point(2 * k + 1, j + 1))
                stack += [(2 * k, j + 1, at_root), (2 * k + 1, j + 1, mid)]
        return exact, found

    def refine(self, k: int, j: int, fine: int) -> tuple[int, int, bool]:
        """Halve a bracket from brackets() down to level fine: (k, j, False),
        or (k, j, True) at the first midpoint that is the root.  The root
        lies in the half whose ends differ in sign; the sign at the left end
        never changes, so one sign per step decides."""
        low_sign = self.sign(k, j)
        while j < fine:
            k, j = 2 * k, j + 1
            mid_sign = self.sign(k + 1, j)
            if mid_sign == 0:
                return k + 1, j, True
            if mid_sign == low_sign:
                k += 1
        return k, j, False

    def _variations(self, k: int, j: int) -> int:
        signs = [s for s in (_dyadic_sign(q, k, j) for q in self.chain) if s]
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def _dyadic_sign(coeffs: Sequence[int], k: int, j: int) -> int:
    """Sign of the integer polynomial at k/2^j, times 2^(j*degree) > 0."""
    acc = 0
    shift = 0
    for co in reversed(coeffs):
        acc = acc * k + (co << shift)
        shift += j
    return (acc > 0) - (acc < 0)


def _sign_at(coeffs: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial at x, homogenized as _dyadic_sign."""
    acc = _homogeneous(coeffs, x)[0]
    return (acc > 0) - (acc < 0)


def _homogeneous(coeffs: Sequence[int], x: Fraction) -> tuple[int, int]:
    """(sum c_i u^i v^(d-i), v^(d+1)) for x = u/v and d the degree, by
    Horner's rule in integers: the value at x is the first times v over the
    second."""
    acc, scale = 0, 1
    for co in reversed(coeffs):
        acc = acc * x.numerator + co * scale
        scale *= x.denominator
    return acc, scale


# ---------------------------------------------------------------------------
# one factorization per polynomial


class Factorization(Record):
    """p = p.content * prod (v c - u)^m * prod f^m, over the rational roots
    u/v of p (ascending, lowest terms, v > 0) and its irrational squarefree
    factors f, each with its multiplicity m.  An f is primitive over Z with
    a positive leading coefficient: the product of the irreducible factors
    of degree >= 2 that share m.  Zero has no factors."""

    roots: tuple[tuple[Fraction, int], ...]
    factors: tuple[tuple[IntPoly, int], ...]


def _factorize(x: IntPoly) -> Factorization:
    """Yun's layers of the integer part x, then one rational-root search on
    their product, the squarefree part; each root is divided out of its
    layer."""
    if not x:
        return Factorization((), ())
    layers = _squarefree_layers(x)
    roots = []
    for root in _rational_roots(_ipoly_prod(layers)):
        i = next(i for i, a in enumerate(layers) if _sign_at(a, root) == 0)
        layers[i] = _ipoly_quo(layers[i], (-root.numerator, root.denominator))
        roots.append((root, i + 1))
    return Factorization(tuple(sorted(roots)),
                         tuple((a, i + 1) for i, a in enumerate(layers)
                               if len(a) > 1))


def _squarefree_layers(x: IntPoly) -> list[IntPoly]:
    """Yun's squarefree decomposition (1976) of x, primitive over Z with a
    positive leading coefficient: x = a_1 a_2^2 ... a_k^k, the a_i coprime,
    squarefree and normalized as x is, a_i = (1,) if no root has
    multiplicity i.  From c = x/gcd(x, x') and d = x'/gcd(x, x'), each step
    takes d <- d - c', a_i = gcd(c, d), c <- c/a_i and d <- d/a_i.  Each
    divisor is a primitive gcd dividing over Q, so by Gauss's lemma every
    quotient is exact over Z.
    """
    c, d = _squarefree_split(x)
    layers = []
    while len(c) > 1:
        d = _ipoly_add(d, tuple(-co for co in _ipoly_derivative(c)))
        a = _int_gcd(c, d)
        c, d = _ipoly_quo(c, a), _ipoly_quo(d, a)
        layers.append(a)
    return layers


def _squarefree_split(x: IntPoly) -> tuple[IntPoly, IntPoly]:
    """x/gcd(x, x') and x'/gcd(x, x'): the squarefree part of a nonzero x,
    normalized as x is, and its cofactor."""
    dx = _ipoly_derivative(x)
    g = _int_gcd(x, dx)
    return _ipoly_quo(x, g), _ipoly_quo(dx, g)


def _rational_roots(s: IntPoly) -> list[Fraction]:
    """Distinct rational roots of a squarefree primitive integer polynomial
    with a positive leading coefficient.

    A rational root u/v in lowest terms has v dividing the leading
    coefficient `lead`, and two such roots lie at least 1/lead^2 apart.
    Each real root inside the Cauchy bound is separated by Sturm counts,
    then narrowed by one sign per halving below 1/(2 lead^2); the fraction
    nearest the bracket's midpoint with denominator at most lead is the
    root whenever the root is rational, and a midpoint that is a root is
    taken directly.
    """
    if len(s) < 2:
        return []
    lead = s[-1]
    bound = 1 + -(-max(map(abs, s[:-1])) // lead)
    kernel = UnitKernel(s, Fraction(-bound), Fraction(bound))
    # brackets at this level are 2*bound/2^level < 1/(2 lead^2) wide
    level = (4 * bound * lead * lead).bit_length()
    roots, found = kernel.brackets()
    for k, j in found:
        k, j, hit = kernel.refine(k, j, level)
        lo, hi = kernel.point(k, j), kernel.point(k + 1, j)
        cand = lo if hit else ((lo + hi) / 2).limit_denominator(lead)
        if hit or (lo < cand < hi and _sign_at(s, cand) == 0):
            roots.append(cand)
    return roots


def interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> ParamPoly:
    """Exact interpolation through distinct abscissae, in Newton form: the
    divided differences, then the nested form expanded from the inside out,
    O(k^2) operations on k points."""
    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise UsageError("repeated abscissa in interpolation data")
    diffs = [Fraction(y) for _, y in points]
    k = len(points)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - j])
    # c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...))
    coeffs: list[Fraction] = []
    for i in range(k - 1, -1, -1):
        shifted = [Fraction(0)] + coeffs
        for t, a in enumerate(coeffs):
            shifted[t] -= xs[i] * a
        shifted[0] += diffs[i]
        coeffs = shifted
    return ParamPoly.create(coeffs)


# ---------------------------------------------------------------------------
# parsing of coefficient expressions like "2c-1/2", "(3-2c)/2", "-c"

# largest exponent after "^"; a power is built by repeated multiplication, so
# this bounds the work one "^" can ask for, also on a constant base
MAX_EXPONENT = 100
# largest degree of any power or product met while parsing; it is checked
# before the polynomial is expanded, so nested powers such as
# "((c+1)^100)^100" fail at once instead of multiplying out
MAX_DEGREE = 100
# largest coefficient size in bits (_value_bits) of any power or product met
# while parsing, checked the same way: "((2^100)^100)^100" fails at once; it
# also bounds the numerator and denominator of every rational read by rat
MAX_COEFF_BITS = 1024

# unicode minus and en dash, middle dot and multiplication sign
_NORMALIZE = str.maketrans("−–·×", "--**")


# a number (digits with at most one dot), a name, an operator, or any other
# character that is not whitespace, which is an error
_TOKEN = re.compile(r"(\d+\.?\d*|\.\d*)|([^\W\d]\w*)|([-+*/^()])|(\S)")


def _tokenize(text: str) -> list[tuple[str, str]]:
    """(kind, text) of each token, kind "num", "name" or the operator, then
    ("", "") to mark the end."""
    text = text.translate(_NORMALIZE)
    tokens: list[tuple[str, str]] = []
    for num, name, op, bad in _TOKEN.findall(text):
        if bad:
            raise ParseError("unexpected character %r in expression %r"
                             % (bad, text))
        tokens.append(("num", num) if num else ("name", name) if name
                      else (op, op))
    tokens.append(("", ""))
    return tokens


# a value while parsing: integer coefficients (an IntPoly) over a positive
# denominator, in lowest terms, so zero is ((), 1)
_Value = tuple[IntPoly, int]


def _lowest(num: IntPoly, den: int) -> _Value:
    g = math.gcd(den, *num) if den != 1 else 1
    return (num, den) if g == 1 else (tuple(x // g for x in num), den // g)


def _value_bits(value: _Value) -> float:
    """log2 of den * |num|_1, 0 for zero.  It bounds log2 of every numerator
    and denominator of the value, and a product's is at most the sum of its
    factors'."""
    num, den = value
    return math.log2(max(1, den * sum(map(abs, num))))


class _ExprParser:
    """Recursive-descent parser over _Value, in one named parameter,
    producing one ParamPoly at the end."""

    def __init__(self, text: str, param: str):
        self.text = text
        self.param = param
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> ParamPoly:
        num, den = self.expr()
        if self.peek():
            raise ParseError("trailing input in expression %r" % self.text)
        return ParamPoly.from_ints(num, Fraction(1, den))

    def expr(self) -> _Value:
        if self.peek() in ("+", "-"):
            kind, _ = self.take()
            acc = self.term()
            if kind == "-":
                acc = _negate(acc)
        else:
            acc = self.term()
        while self.peek() in ("+", "-"):
            kind, _ = self.take()
            rhs = self.term()
            acc = _add(acc, rhs if kind == "+" else _negate(rhs))
        return acc

    def check_size(self, degree: int, bits: float) -> None:
        if degree > MAX_DEGREE:
            raise ParseError("degree %d exceeds the limit %d in %r"
                             % (degree, MAX_DEGREE, self.text))
        if bits > MAX_COEFF_BITS:
            raise ParseError("coefficient size %d bits exceeds the limit %d in %r"
                             % (math.ceil(bits), MAX_COEFF_BITS, self.text))

    def product(self, acc: _Value) -> _Value:
        rhs = self.factor()
        self.check_size(len(acc[0]) + len(rhs[0]) - 2,
                        _value_bits(acc) + _value_bits(rhs))
        return _lowest(_ipoly_mul(acc[0], rhs[0]), acc[1] * rhs[1])

    def term(self) -> _Value:
        acc = self.factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
                acc = self.product(acc)
            elif nxt == "/":
                self.take()
                q, q_den = self.factor()
                if len(q) > 1:
                    raise ParseError(
                        "division by a non-constant in expression %r" % self.text)
                if not q:
                    raise ParseError("division by zero in expression %r" % self.text)
                sign = 1 if q[0] > 0 else -1
                acc = _lowest(_ipoly_mul(acc[0], (sign * q_den,)),
                              acc[1] * abs(q[0]))
                self.check_size(len(acc[0]) - 1, _value_bits(acc))
            elif nxt in ("num", "name", "("):
                acc = self.product(acc)  # implicit multiplication, e.g. "2c"
            else:
                return acc

    def factor(self) -> _Value:
        if self.peek() == "-":
            self.take()
            return _negate(self.factor())
        base = self.atom()
        if self.peek() == "^":
            self.take()
            kind, val = self.take()
            if kind != "num" or "." in val:
                raise ParseError("exponent must be an integer in %r" % self.text)
            if int(val) > MAX_EXPONENT:
                raise ParseError("exponent %s exceeds the limit %d in %r"
                                 % (val, MAX_EXPONENT, self.text))
            k = int(val)
            self.check_size((len(base[0]) - 1) * k, _value_bits(base) * k)
            # a power of a value in lowest terms is in lowest terms
            return _ipoly_prod([base[0]] * k), base[1] ** k
        return base

    def atom(self) -> _Value:
        kind, val = self.take()
        if not kind:
            raise ParseError("unexpected end of expression %r" % self.text)
        if kind == "num":
            if val == ".":  # the only token of digits and one dot rat rejects
                raise ParseError("malformed number %r in expression %r"
                                 % (val, self.text))
            if "." in val or 10 * len(val) > 3 * MAX_COEFF_BITS:
                q = rat(val)  # which bounds its size
                return ((q.numerator,) if q else ()), q.denominator
            n = int(val)  # below 10^(0.3 MAX_COEFF_BITS) < 2^MAX_COEFF_BITS
            return ((n,) if n else ()), 1
        if kind == "name":
            if val != self.param:
                raise ParseError(
                    "unknown symbol %r in expression %r (parameter is %r)"
                    % (val, self.text, self.param))
            return (0, 1), 1
        if kind == "(":
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("unbalanced parentheses in %r" % self.text)
            self.take()
            return inner
        raise ParseError("unexpected token %r in expression %r" % (val, self.text))


def _negate(value: _Value) -> _Value:
    return tuple(-x for x in value[0]), value[1]


def _add(a: _Value, b: _Value) -> _Value:
    (x, dx), (y, dy) = a, b
    den = math.lcm(dx, dy)
    return _lowest(_ipoly_add(_ipoly_mul(x, (den // dx,)),
                              _ipoly_mul(y, (den // dy,))), den)


def parse_poly(text: str, param: str) -> ParamPoly:
    """Parse an exact polynomial expression in one named parameter."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty polynomial expression")
    try:
        return _ExprParser(text, param).parse()
    except RecursionError:  # the parser descends once per "(" and "-"
        raise ParseError("expression nested too deeply") from None


def render_factored(f: RationalFunction, param: str) -> str:
    """Human-readable factored form in the named parameter, e.g.
    '-3(112c^2-112c+23)/((56c-3)(56c-53))'.

    Each side is its linear factors in root order times its irrational
    factors multiplied out; the overall rational scale is printed in front.
    """
    if f.is_zero():
        return "0"
    num, den = f.num.factorization, f.den.factorization
    scale = f.num.content / f.den.content
    fac_n = _factor_texts(num, param)
    fac_d = _factor_texts(den, param)
    if not fac_n:
        num_txt = rat_text(scale)
    elif scale == 1:
        num_txt = _product_text(fac_n, bare=True)
    else:
        num_txt = (("-" if scale == -1 else rat_text(scale))
                   + _product_text(fac_n))
    if not fac_d:
        return num_txt
    return "%s/(%s)" % (num_txt, _product_text(fac_d, bare=True))


def _factor_texts(fac: Factorization, param: str) -> list[tuple[str, int]]:
    """(text, exponent) of each linear factor, then of the irrational rest."""
    as_poly = lambda x: poly_text(ParamPoly(x, _ONE), param)
    out = [(as_poly((-r.numerator, r.denominator)), m) for r, m in fac.roots]
    rest = _ipoly_prod(g for g, m in fac.factors for _ in range(m))
    return out + [(as_poly(rest), 1)] if len(rest) > 1 else out


def _product_text(texts: list[tuple[str, int]], bare: bool = False) -> str:
    """'(a)(b)^2'; a lone factor of exponent 1 without parentheses if bare."""
    if bare and len(texts) == 1 and texts[0][1] == 1:
        return texts[0][0]
    return "".join("(%s)" % s if k == 1 else "(%s)^%d" % (s, k)
                   for s, k in texts)
