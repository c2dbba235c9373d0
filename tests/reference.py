"""Reference computations the residue engine is compared against.

None of this is part of the package.  component_integral evaluates one
component's integral with the ring arithmetic (product, inverse by Newton's
iteration, power by repeated squaring), which shares neither expansion with
the residue table; fut_isolated reads the invariant of an isolated-point
scenario off its scalars alone; shift_hamiltonians and replace build the
transformed scenarios the gauge and validation tests feed the engine.
"""

from fractions import Fraction

from coupledfut.errors import ComputationError, UsageError
from coupledfut.localization import (BundleRestriction, FixedComponent,
                                     LocalizationScenario, refuse)
from coupledfut.rationals import RationalFunction, rat
from coupledfut.rings import (EquivariantClass, equiv_pow, integrate,
                              invert_unit)


def replace(record, **changes):
    """A copy of the record with the named fields changed."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields},
                           **changes})


def component_integral(comp: FixedComponent, alpha: int, power: int) -> RationalFunction:
    """One component's contribution to the power-p sum of bundle alpha."""
    if not 0 <= alpha < len(comp.bundles):
        raise UsageError("bundle index %d out of range" % alpha)
    b = comp.bundles[alpha]
    integrand = (equiv_pow(EquivariantClass(b.hamiltonian, b.chern), power)
                 * invert_unit(comp.euler))
    return integrate(integrand)


def fut_isolated(scn: LocalizationScenario) -> RationalFunction:
    """The invariant of a scenario whose components are all isolated points,
    by pure scalar arithmetic.

    With each point's moment values u and Euler scalar e, computes
    (1/(m+1)) sum over bundles of [sum u^(m+1)/e] / [sum u^m/e]; neither the
    ring arithmetic nor the residue table is involved, so this is an
    independent check of the general engine on point scenarios.  The
    scenario's findings are refused first, as the residue table refuses them.
    """
    refuse(scn.findings)
    bad = [comp.label for comp in scn.components if comp.ring.generators]
    if bad:
        raise UsageError("components %r are not isolated points" % (bad,))
    m = scn.dimension
    total = RationalFunction.const(0)
    for alpha in range(scn.bundles):
        num = den = RationalFunction.const(0)
        for comp in scn.components:
            u = comp.bundles[alpha].hamiltonian
            u_m = RationalFunction.const(1)
            for _ in range(m):
                u_m = u_m * u
            den = den + u_m / comp.euler.scalar
            num = num + u_m * u / comp.euler.scalar
        if den.is_zero():
            raise ComputationError(
                "zero volume sum for bundle %d; the ratio is undefined" % alpha)
        total = total + num / den
    return total.scale(Fraction(1, m + 1))


def shift_hamiltonians(scn: LocalizationScenario,
                       shifts: tuple[Fraction | int | str, ...]) -> LocalizationScenario:
    """Add a constant to every moment value of each bundle, componentwise."""
    if len(shifts) != scn.bundles:
        raise UsageError("need one shift per bundle (%d given, %d bundles)"
                         % (len(shifts), scn.bundles))
    consts = [RationalFunction.const(rat(t)) for t in shifts]
    new_components = []
    for comp in scn.components:
        new_bundles = tuple(
            BundleRestriction(b.hamiltonian + consts[alpha], b.chern)
            for alpha, b in enumerate(comp.bundles))
        new_components.append(replace(comp, bundles=new_bundles))
    return replace(scn, components=tuple(new_components))
