"""The expression parser against an independent reference: sympy's parser,
with implicit multiplication, "^" for powers and decimals read exactly."""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.parsing.sympy_parser import (  # noqa: E402
    convert_xor,
    implicit_multiplication,
    parse_expr,
    rationalize,
    standard_transformations,
)

from coupledfut import ParamPoly, parse_poly  # noqa: E402

TRANSFORMATIONS = standard_transformations + (implicit_multiplication,
                                              convert_xor, rationalize)
C = sympy.Symbol("c")

LEAVES = st.one_of(st.integers(0, 12).map(str),
                   st.sampled_from(["c", "c", "0.5", "1.25", "7.", ".75"]))
# a power's base is a leaf or a parenthesized sum of two leaves, so that
# nesting keeps every expression far below the degree and size limits
BASES = st.one_of(LEAVES, st.tuples(LEAVES, st.sampled_from("+-"), LEAVES)
                  .map(lambda t: "(%s)" % "".join(t)))


def expressions(depth):
    """Sums, products, implicit products, quotients by constants, unary
    minus and powers up to 6, nested depth levels deep."""
    if depth == 0:
        return LEAVES
    sub = expressions(depth - 1)
    paren = sub.map("({})".format)
    return st.one_of(
        LEAVES,
        st.tuples(sub, st.sampled_from("+-*"), sub).map("".join),
        st.tuples(st.integers(1, 12).map(str),
                  st.one_of(st.just("c"), paren)).map("".join),  # "2c"
        st.tuples(paren, paren).map("".join),
        st.tuples(BASES, st.integers(0, 6)).map(lambda t: "%s^%d" % t),
        st.tuples(sub, st.sampled_from(["3", "-2", "(1/2)", "0.25", "(2-5)"]))
        .map(lambda t: "%s/%s" % t),
        sub.map("-{}".format),
    )


def reference(text):
    expr = parse_expr(text, local_dict={"c": C},
                      transformations=TRANSFORMATIONS)
    coeffs = sympy.Poly(expr, C, domain="QQ").all_coeffs()[::-1]
    out = [F(int(q.p), int(q.q)) for q in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(expressions(3), expressions(1))
def test_parser_matches_sympy(text, other):
    p = parse_poly(text, "c")
    assert p.coeffs == reference(text)
    # the normal form is canonical: the same polynomial built by the parser,
    # by the constructor and by arithmetic is one record with one hash
    q = parse_poly(other, "c")
    built = [ParamPoly.create(reference(text)), (p + q) - q, (p - q) + q,
             parse_poly("(%s)(%s)" % (text, other), "c") - p * q + p]
    for r in built:
        assert (r, hash(r)) == (p, hash(p))
