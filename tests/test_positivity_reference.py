"""The positivity test against an independent reference: sympy's real roots
of the same polynomial, with roots placed at either end of the interval,
inside it and outside it."""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coupledfut import ParamPoly, UsageError, positive_on_interval  # noqa: E402

C = sympy.Symbol("c")
SMALL = st.integers(1, 6)


@st.composite
def polynomials_on_intervals(draw):
    """(p, lo, hi): p of degree 0-4 is a product of linear factors with roots
    at lo, at hi, inside or outside (lo, hi), times a factor with small
    integer coefficients and a nonzero leading one that fills the degree."""
    lo = F(draw(st.integers(-6, 6)), draw(SMALL))
    hi = lo + F(draw(SMALL), draw(SMALL))
    degree = draw(st.integers(0, 4))
    sites = draw(st.lists(st.sampled_from(["lo", "hi", "inside", "outside"]),
                          max_size=degree))
    p = ParamPoly.create("c", [draw(st.integers(-4, 4))
                               for _ in range(degree - len(sites))]
                         + [draw(st.sampled_from([1, -1, 2, -2, 3, -3]))])
    for site in sites:
        t = F(draw(SMALL), 7)  # in (0, 1)
        root = {"lo": lo, "hi": hi, "inside": lo + (hi - lo) * t,
                "outside": draw(st.sampled_from([lo - t, hi + t]))}[site]
        p = p * ParamPoly.create("c", [-root, 1])
    return p, lo, hi


def q(x):
    return sympy.Rational(x.numerator, x.denominator)


def reference(p, lo, hi):
    """p > 0 on (lo, hi): no real root of p strictly inside, and p positive
    at one point inside."""
    poly = sympy.Poly(sum(q(co) * C**i for i, co in enumerate(p.coeffs)),
                      C, domain="QQ")
    inside = [r for r in sympy.real_roots(poly)
              if bool(q(lo) < r) and bool(r < q(hi))]
    return not inside and bool(poly.eval(q((lo + hi) / 2)) > 0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(polynomials_on_intervals())
def test_positivity_matches_sympy(case):
    p, lo, hi = case
    assert positive_on_interval(p, (lo, hi)) == reference(p, lo, hi)
    for empty in ((lo, lo), (hi, lo)):
        with pytest.raises(UsageError, match="empty interval"):
            positive_on_interval(p, empty)
