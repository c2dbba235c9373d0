"""Tour of the exact scalar layer.

Everything downstream rests on three types: arbitrary-precision rationals,
dense polynomials in one parameter, and gcd-reduced rational functions.
No floats appear anywhere; equality of reduced forms is mathematical equality.
"""

from fractions import Fraction

from coupledfut import (
    parse_poly,
    poly_gcd,
    poly_text,
    rat,
    ratfun_eval,
    ratfun_reduce,
    render_factored,
)


def main():
    print("== rationals ==")
    half = rat("1/2")
    print("rat('1/2')          ->", half)
    print("rat('−1/2') (unicode) ->", rat("−1/2"))

    print()
    print("== parameter polynomials ==")
    param = "c"  # polynomials store no name: parsing and printing take it
    vol0 = parse_poly("112c-6", param)
    vol1 = parse_poly("106-112c", param)
    print("first volume        ->", poly_text(vol0, param))
    print("second volume       ->", poly_text(vol1, param))
    print("their sum           ->", poly_text(vol0 + vol1, param))

    # The numerator of the invariant, assembled the long way round.
    left = parse_poly("-30c+12", param) * parse_poly("53-56c", param)
    right = parse_poly("30c-18", param) * parse_poly("56c-3", param)
    num = left + right
    print("cross-multiplied    ->", poly_text(num, param))
    print("gcd with a factor   ->",
          poly_text(poly_gcd(num, parse_poly("56c-3", param)), param))

    print()
    print("== rational functions ==")
    # Reduction divides out the gcd, makes the denominator monic internally,
    # and the factored renderer recovers integer factors for display.
    den = (parse_poly("-2", param) * parse_poly("56c-3", param)
           * parse_poly("56c-53", param))
    f = ratfun_reduce(num, den)
    print("reduced quotient    ->", render_factored(f, param))
    for x in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        print("value at c = %-5s  -> %s" % (x, ratfun_eval(f, x)))


if __name__ == "__main__":
    main()
