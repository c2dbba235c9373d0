"""The moment-polytope side of the computation.

Each bundle contributes a four-dimensional polytope whose facet offsets move
affinely with the parameter.  Volumes and first moments are computed exactly
by triangulation from realized vertices.  The curves in c come from a
certified chamber, each simplex a product of vertex-facet slack polynomials.
"""

from fractions import Fraction

from coupledfut import (
    linear_moment,
    load,
    minkowski_check,
    moment_curve,
    poly_text,
    realize,
    volume,
    volume_curve,
)

INTERVAL = (Fraction(1, 4), Fraction(3, 4))


def main():
    scn = load("hultgren-c")
    model, param = scn.toric, scn.localization.param
    print("ambient dimension:", model.ambient)
    print("direction:", model.direction)

    print()
    print("realization at the midpoint c = 1/2:")
    for i, pp in enumerate(model.polytopes):
        rp = realize(pp, Fraction(1, 2))
        print(
            "  polytope %d: %d vertices, simple=%s, volume=%s, moment=%s"
            % (
                i,
                len(rp.vertices),
                rp.is_simple(),
                volume(rp),
                linear_moment(rp, model.direction),
            )
        )

    print()
    print("exact curves on the validity interval:")
    for i, pp in enumerate(model.polytopes):
        v = volume_curve(pp, INTERVAL)
        m = moment_curve(pp, model.direction, INTERVAL)
        print("  polytope %d: volume %s, moment %s" % (i, poly_text(v, param),
                                                    poly_text(m, param)))
    anti = volume_curve(model.anticanonical, INTERVAL)
    print("  ambient polytope volume:", poly_text(anti, param))

    print()
    report = minkowski_check(model, INTERVAL)
    print("facetwise additivity of the two summands:", report.status)

    print()
    print("combinatorial drift away from the center:")
    rp = realize(model.polytopes[0], Fraction(1, 5))
    loose = [i for i, s in enumerate(rp.supported) if not s]
    print(
        "  at c = 1/5 the first polytope has %d vertices; facet(s) %s no longer touch it"
        % (len(rp.vertices), loose)
    )


if __name__ == "__main__":
    main()
