"""The fixed-point computation on the flagship catalog entry.

Two fixed components, two bundles, one parameter c on (1/4, 3/4).  All the
power sums come out polynomial, the equivariant volumes are affine in c, and
the invariant is a ratio of low-degree polynomials with poles safely outside
the validity interval.
"""

from fractions import Fraction

from coupledfut import (
    component_integral,
    fut_localized,
    load,
    power_sum,
    ratfun_eval,
    render_factored,
    validate_scenario,
    volume_localized,
)


def main():
    scn = load("hultgren-c").localization
    print("scenario:", scn.name)
    print("components:", ", ".join(comp.label for comp in scn.components))

    report = validate_scenario(scn)
    print("validation ok:", report.ok)

    print()
    print("power sums, bundle 0 then bundle 1:")
    for alpha in range(scn.bundles):
        row = [power_sum(scn, alpha, p).text(scn.param) for p in range(scn.dimension + 2)]
        print("  alpha=%d: %s" % (alpha, " | ".join(row)))

    print()
    print("equivariant volumes:")
    for alpha in range(scn.bundles):
        print("  bundle %d -> %s" % (alpha, volume_localized(scn, alpha).text(scn.param)))

    print()
    print("per-component split of the top power sum (bundle 0):")
    for comp in scn.components:
        value = component_integral(comp, 0, scn.dimension + 1)
        print("  %-16s -> %s" % (comp.label, value.text(scn.param)))

    print()
    f = fut_localized(scn)
    print("invariant:", render_factored(f, scn.param))
    for x in (Fraction(5, 16), Fraction(3, 8), Fraction(1, 2), Fraction(5, 8), Fraction(11, 16)):
        print("  value at c = %-5s -> %s" % (x, ratfun_eval(f, x)))


if __name__ == "__main__":
    main()
