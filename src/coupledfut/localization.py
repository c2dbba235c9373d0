"""Fixed-point localization engine.

A scenario lists the fixed components of a circle action on an ambient space
of complex dimension m, carrying k line bundles.  Each component contributes
a ring, the restriction of each bundle (moment-map scalar plus equivariant
first Chern class), and the equivariant Euler class of its normal bundle.
Power sums over the fixed locus recover global integrals; the degenerate
invariant is the weighted average of the ratios

    sum_Z int (u + c1)^(m+1) / euler   over   sum_Z int (u + c1)^m / euler,

one ratio per bundle, divided by m + 1.  Every quantity stays an exact
rational function of the deformation parameter.

A scenario computes its residue table once, on first use: the power sums
p = 0..m+1 of every bundle.  Each component's Euler class is inverted once,
and (u + c1)^(p+1) / euler comes from (u + c1)^p / euler by one ring
multiplication.  power_sum, validate_scenario, volume_localized and
fut_localized all read that table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .errors import (ComputationError, DegenerateDatumError,
                     InconsistentResidueError, UsageError)
from .rationals import Rational, RationalFunction, rat, rat_text
from .rings import (EquivariantClass, NilpotentClass, Ring, equiv_pow,
                    integrate, invert_unit, point_ring)


@dataclass(frozen=True)
class BundleRestriction:
    """One bundle on one component: moment scalar and restricted Chern class."""

    hamiltonian: RationalFunction
    chern: NilpotentClass


@dataclass(frozen=True)
class FixedComponent:
    label: str
    ring: Ring
    codimension: int
    euler: EquivariantClass
    bundles: tuple[BundleRestriction, ...]

    def restriction(self, alpha: int) -> EquivariantClass:
        """The equivariant class u + c1 of bundle alpha on this component."""
        b = self.bundles[alpha]
        return EquivariantClass(b.hamiltonian, b.chern)

    def is_point(self) -> bool:
        return not self.ring.generators


@dataclass(frozen=True)
class LocalizationScenario:
    """Complete fixed-point data set plus the parameter's validity interval."""

    name: str
    description: str
    note: str
    param: str
    dimension: int
    bundles: int
    interval: tuple[Fraction, Fraction]
    components: tuple[FixedComponent, ...]

    @cached_property
    def residue_table(self) -> tuple[tuple[RationalFunction, ...], ...]:
        """Power sums indexed [bundle][power] for powers 0..dimension+1."""
        powers = self.dimension + 2
        zero = RationalFunction.const(self.param, 0)
        table = [[zero] * powers for _ in range(self.bundles)]
        for comp in self.components:
            if len(comp.bundles) != self.bundles:
                raise UsageError("component %r restricts %d bundles; "
                                 "scenario has %d" % (comp.label,
                                                      len(comp.bundles),
                                                      self.bundles))
            inverse = invert_unit(comp.euler)
            for alpha, row in enumerate(table):
                base = comp.restriction(alpha)
                term = inverse
                for power in range(powers):
                    if power:
                        term = base * term
                    row[power] = row[power] + integrate(term)
        return tuple(tuple(row) for row in table)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural and analytic checks on a scenario."""

    ok: bool
    messages: tuple[str, ...]
    residues_polynomial: bool
    volume_positive: tuple[bool, ...]
    volumes: tuple[RationalFunction, ...]


def component_integral(comp: FixedComponent, alpha: int, power: int) -> RationalFunction:
    """One component's contribution to the power-p sum of bundle alpha."""
    if not 0 <= alpha < len(comp.bundles):
        raise UsageError("bundle index %d out of range" % alpha)
    if power < 0:
        raise UsageError("negative power %d" % power)
    integrand = (equiv_pow(comp.restriction(alpha), power)
                 * invert_unit(comp.euler))
    return integrate(integrand)


def power_sum(scn: LocalizationScenario, alpha: int, power: int) -> RationalFunction:
    """Sum of component integrals of (u + c1)^power / euler for one bundle.

    Read from the scenario's residue table, which holds powers 0..m+1.
    """
    if not 0 <= alpha < scn.bundles:
        raise UsageError("bundle index %d out of range" % alpha)
    if not 0 <= power <= scn.dimension + 1:
        raise UsageError("power %d outside the residue table (0..%d)"
                         % (power, scn.dimension + 1))
    return scn.residue_table[alpha][power]


def _polynomial_sum(scn: LocalizationScenario, alpha: int, power: int) -> RationalFunction:
    s = power_sum(scn, alpha, power)
    if not s.is_polynomial():
        raise InconsistentResidueError(
            "power-%d sum for bundle %d is not a polynomial (%s); "
            "the residues are mutually inconsistent" % (power, alpha, s.text()))
    return s


def volume_localized(scn: LocalizationScenario, alpha: int) -> RationalFunction:
    """Equivariant volume of bundle alpha: the power-m sum over the fixed locus."""
    return _polynomial_sum(scn, alpha, scn.dimension)


def fut_localized(scn: LocalizationScenario) -> RationalFunction:
    """The degenerate invariant as an exact rational function of the parameter."""
    m = scn.dimension
    total = RationalFunction.const(scn.param, 0)
    for alpha in range(scn.bundles):
        num = _polynomial_sum(scn, alpha, m + 1)
        den = _polynomial_sum(scn, alpha, m)
        if den.is_zero():
            raise ComputationError(
                "bundle %d has identically vanishing volume" % alpha)
        total = total + num / den
    return total.scale(Fraction(1, m + 1))


@dataclass(frozen=True)
class IsolatedPoint:
    """One isolated fixed point: k moment values and the Jacobian determinant
    of the generating vector field at the point."""

    label: str
    hamiltonians: tuple[RationalFunction, ...]
    jacobian: RationalFunction


@dataclass(frozen=True)
class IsolatedPointData:
    """Fixed-point data for an action whose fixed locus is discrete."""

    param: str
    bundles: int
    points: tuple[IsolatedPoint, ...]


def isolated_point(param: str, label: str,
                   hamiltonians: tuple[Rational | int | str | RationalFunction, ...],
                   jacobian: Rational | int | str | RationalFunction) -> IsolatedPoint:
    """Convenience constructor coercing plain rationals to rational functions."""
    def coerce(v: Rational | int | str | RationalFunction) -> RationalFunction:
        if isinstance(v, RationalFunction):
            return v
        return RationalFunction.const(param, rat(v))

    return IsolatedPoint(label, tuple(coerce(u) for u in hamiltonians),
                         coerce(jacobian))


def isolated_data(scn: LocalizationScenario) -> IsolatedPointData:
    """Extract the point data from a scenario whose components are all points."""
    bad = [comp.label for comp in scn.components if not comp.is_point()]
    if bad:
        raise UsageError("components %r are not isolated points" % (bad,))
    points = tuple(
        IsolatedPoint(comp.label,
                      tuple(b.hamiltonian for b in comp.bundles),
                      comp.euler.scalar)
        for comp in scn.components)
    return IsolatedPointData(scn.param, scn.bundles, points)


def fut_isolated(data: IsolatedPointData, m: int) -> RationalFunction:
    """The invariant over a discrete fixed locus, by pure scalar arithmetic.

    Computes (1/(m+1)) sum over bundles of
    [sum_p u^(m+1)/jac] / [sum_p u^m/jac]; no ring arithmetic is involved, so
    this is an independent check of the general engine on point scenarios.
    """
    if m < 1:
        raise UsageError("ambient dimension must be positive")
    if not data.points:
        raise UsageError("no fixed points")
    for p in data.points:
        if len(p.hamiltonians) != data.bundles:
            raise UsageError("point %r restricts %d bundles; data set has %d"
                             % (p.label, len(p.hamiltonians), data.bundles))
        if p.jacobian.is_zero():
            raise DegenerateDatumError(
                "point %r has vanishing Jacobian determinant" % p.label)
    total = RationalFunction.const(data.param, 0)
    one = RationalFunction.const(data.param, 1)
    for alpha in range(data.bundles):
        num = RationalFunction.const(data.param, 0)
        den = RationalFunction.const(data.param, 0)
        for p in data.points:
            u = p.hamiltonians[alpha]
            u_m = one
            for _ in range(m):
                u_m = u_m * u
            den = den + u_m / p.jacobian
            num = num + u_m * u / p.jacobian
        if den.is_zero():
            raise ComputationError(
                "zero volume sum for bundle %d; the ratio is undefined" % alpha)
        total = total + num / den
    return total.scale(Fraction(1, m + 1))


def shift_hamiltonians(scn: LocalizationScenario,
                       shifts: tuple[Rational | int | str, ...]) -> LocalizationScenario:
    """Add a constant to every moment value of each bundle, componentwise."""
    if len(shifts) != scn.bundles:
        raise UsageError("need one shift per bundle (%d given, %d bundles)"
                         % (len(shifts), scn.bundles))
    consts = [RationalFunction.const(scn.param, rat(t)) for t in shifts]
    new_components = []
    for comp in scn.components:
        new_bundles = tuple(
            BundleRestriction(b.hamiltonian + consts[alpha], b.chern)
            for alpha, b in enumerate(comp.bundles))
        new_components.append(replace(comp, bundles=new_bundles))
    return replace(scn, components=tuple(new_components))


def make_point_component(param: str, label: str, ambient_dim: int,
                         euler_scalar: Rational | int | str,
                         hamiltonians: tuple[Rational | int | str, ...]) -> FixedComponent:
    """Convenience constructor for an isolated fixed point."""
    ring = point_ring(param)
    return FixedComponent(
        label=label,
        ring=ring,
        codimension=ambient_dim,
        euler=EquivariantClass(RationalFunction.const(param, rat(euler_scalar)),
                               NilpotentClass.zero(ring)),
        bundles=tuple(
            BundleRestriction(RationalFunction.const(param, rat(u)),
                              NilpotentClass.zero(ring))
            for u in hamiltonians))


def validate_scenario(scn: LocalizationScenario) -> ValidationReport:
    """Run structural checks, the residue-consistency check, and positivity.

    Structural findings and failed analytic checks all land in the message
    list; ok is True only when every check passes.  Positivity of each
    bundle's volume is required on the open validity interval, matching the
    ampleness window the scenario declares.
    """
    from .analysis import positive_on_interval  # deferred: analysis builds on this module

    messages: list[str] = []
    if scn.dimension < 1:
        messages.append("ambient dimension must be positive")
    if scn.bundles < 1:
        messages.append("need at least one bundle")
    lo, hi = scn.interval
    if not lo < hi:
        messages.append("empty validity interval [%s, %s]"
                        % (rat_text(lo), rat_text(hi)))
    if not scn.components:
        messages.append("no fixed components")
    labels = [comp.label for comp in scn.components]
    if len(set(labels)) != len(labels):
        messages.append("duplicate component labels")
    for comp in scn.components:
        if len(comp.bundles) != scn.bundles:
            messages.append("component %r restricts %d bundles; scenario has %d"
                            % (comp.label, len(comp.bundles), scn.bundles))
        if comp.ring.param != scn.param:
            messages.append("component %r uses parameter %r, scenario uses %r"
                            % (comp.label, comp.ring.param, scn.param))
        if comp.ring.dimension + comp.codimension != scn.dimension:
            messages.append(
                "component %r: dimension %d plus codimension %d is not %d"
                % (comp.label, comp.ring.dimension, comp.codimension,
                   scn.dimension))
        if comp.euler.scalar.is_zero():
            messages.append("component %r has a degenerate Euler class "
                            "(zero scalar part)" % comp.label)
    if messages:
        return ValidationReport(False, tuple(messages), False, (), ())

    residues_polynomial = True
    for alpha in range(scn.bundles):
        for power in range(scn.dimension + 2):
            s = power_sum(scn, alpha, power)
            if not s.is_polynomial():
                residues_polynomial = False
                messages.append(
                    "power-%d sum for bundle %d is not a polynomial (%s)"
                    % (power, alpha, s.text()))
    volume_positive: list[bool] = []
    volumes: list[RationalFunction] = []
    if residues_polynomial:
        for alpha in range(scn.bundles):
            vol = volume_localized(scn, alpha)
            volumes.append(vol)
            pos = positive_on_interval(vol.to_poly(), scn.interval)
            volume_positive.append(pos)
            if not pos:
                messages.append(
                    "bundle %d volume %s is not positive on the whole interval"
                    % (alpha, vol.text()))
    ok = not messages
    return ValidationReport(ok, tuple(messages), residues_polynomial,
                            tuple(volume_positive), tuple(volumes))
