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

A scenario computes its findings, residue table, inconsistencies and
validation report once, on first use; the table refuses the findings before
any work.  The table, built fraction-free, holds the power
sums p = 0..m+1 of every bundle.  Each must be a polynomial in the
parameter, else the residues contradict each other; the inconsistencies
list those that are not, and volume_localized and fut_localized refuse them
before any work.  On a component of ring dimension d with Euler class s + N
(N nilpotent) and bundle restriction u + c1, the two finite expansions

    1/(s + N) = sum_{k<=d} (-N)^k / s^(k+1),
    (u + c1)^p = sum_{j<=min(p,d)} C(p,j) u^(p-j) c1^j

give int (u + c1)^p / (s + N) = [sum_j C(p,j) u^(p-j) w_j] / s^(d+1) with
w_j = sum_k s^(d-k) <c1^j, (-N)^k>, where <x, y> is the top coefficient of
xy, read by pairing complementary monomials.  Each distinct class is cleared
of denominators once, to integer polynomials in the parameter stored as a
dense array over the monomials dividing the top one.  The scenario then
sums every entry over one least common multiple of the component
denominators, moved into u and w_j, and reduces it once.  power_sum,
validate_scenario, volume_localized and fut_localized all read that table.
The references the table is tested against live with the tests, and this
module uses none of the ring arithmetic they are built on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import ComputationError, Record, UsageError, ValidationError
from .rationals import (MAX_DEGREE, IntPoly, ParamPoly, RationalFunction,
                        _ipoly_add, _ipoly_lcm, _ipoly_mul, _ipoly_quo,
                        positive_on_interval, rat, rat_text, ratfun_reduce)
from .rings import (EquivariantClass, MonomialTable, NilpotentClass, Ring,
                    point_ring)


class BundleRestriction(Record):
    """One bundle on one component: moment scalar and restricted Chern class."""

    hamiltonian: RationalFunction
    chern: NilpotentClass


class FixedComponent(Record):
    label: str
    ring: Ring
    codimension: int
    euler: EquivariantClass
    bundles: tuple[BundleRestriction, ...]


class LocalizationScenario(Record):
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
    def findings(self) -> tuple[str, ...]:
        """The structural faults of the data, judged once, on first use."""
        messages: list[str] = []
        if self.dimension < 1:
            messages.append("ambient dimension must be positive")
        if self.bundles < 1:
            messages.append("need at least one bundle")
        lo, hi = self.interval
        if not lo < hi:
            messages.append("empty validity interval [%s, %s]"
                            % (rat_text(lo), rat_text(hi)))
        if not self.components:
            messages.append("no fixed components")
        labels = [comp.label for comp in self.components]
        if len(set(labels)) != len(labels):
            messages.append("duplicate component labels")
        for comp in self.components:
            if len(comp.bundles) != self.bundles:
                messages.append(
                    "component %r restricts %d bundles; scenario has %d"
                    % (comp.label, len(comp.bundles), self.bundles))
            if comp.codimension < 0:
                messages.append("component %r has negative codimension %d"
                                % (comp.label, comp.codimension))
            if comp.ring.dimension + comp.codimension != self.dimension:
                messages.append(
                    "component %r: dimension %d plus codimension %d is not %d"
                    % (comp.label, comp.ring.dimension, comp.codimension,
                       self.dimension))
            if comp.euler.scalar.is_zero():
                messages.append("component %r has a degenerate Euler class "
                                "(zero scalar part)" % comp.label)
            if any(x.ring != comp.ring for x in
                   [comp.euler] + [b.chern for b in comp.bundles]):
                messages.append("component %r: class in another ring"
                                % comp.label)
        return tuple(messages)

    @cached_property
    def inconsistencies(self) -> tuple[str, ...]:
        """The power sums that are not polynomials, bundle-major, judged
        once, on first use; the residue table refuses the findings first."""
        return tuple("power-%d sum for bundle %d is not a polynomial (%s)"
                     % (power, alpha, s.text(self.param))
                     for alpha, row in enumerate(self.residue_table)
                     for power, s in enumerate(row) if not s.is_polynomial())

    @cached_property
    def validation(self) -> "ValidationReport":
        """validate_scenario's report, computed on first use."""
        return validate_scenario(self)

    @cached_property
    def residue_table(self) -> tuple[tuple[RationalFunction, ...], ...]:
        """Power sums indexed [bundle][power] for powers 0..dimension+1.

        Each component gives integer polynomials over S^(d+1) and B_alpha
        (_component_residues).  Entry (alpha, p) is summed over
        L_alpha^p * L, with L_alpha and L the least common multiples in
        Z[param] of the components' B_alpha and S^(d+1), and reduced once.
        The Euler lcm may reach degree MAX_DEGREE, checked as it grows.
        """
        refuse(self.findings)
        powers = self.dimension + 2
        cleared: dict = {}  # shared by the components, see _dense
        parts = [_component_residues(comp, cleared)
                 for comp in self.components]
        euler_den: IntPoly = (1,)
        bundle_dens: list[IntPoly] = [(1,)] * self.bundles
        for comp, (den, rows) in zip(self.components, parts):
            euler_den = _ipoly_lcm(euler_den, den)
            if len(euler_den) - 1 > MAX_DEGREE:
                raise UsageError(
                    "component %r: the lcm of the Euler denominators has "
                    "degree %d, past the limit %d"
                    % (comp.label, len(euler_den) - 1, MAX_DEGREE))
            bundle_dens = [_ipoly_lcm(a, row[2])
                           for a, row in zip(bundle_dens, rows)]
        table = []
        for alpha, bundle_den in enumerate(bundle_dens):
            sums: list[IntPoly] = [()] * powers
            for den, rows in parts:
                # scale ratio^p sum_j C(p,j) U^(p-j) W_j, with the scale and
                # the ratio to the common denominators moved into U and W_j
                u, w, b_den = rows[alpha]
                scale = _ipoly_quo(euler_den, den)
                ratio = _ipoly_quo(bundle_den, b_den)
                u_pows = [(1,), _ipoly_mul(ratio, u)]
                while len(u_pows) < powers:
                    u_pows.append(_ipoly_mul(u_pows[-1], u_pows[1]))
                for j, w_j in enumerate(w):
                    w_j = _ipoly_mul(scale, w_j)
                    scale = _ipoly_mul(scale, ratio)
                    for p in range(j, powers):
                        sums[p] = _ipoly_add(sums[p], _ipoly_mul(
                            (math.comb(p, j),), _ipoly_mul(u_pows[p - j], w_j)))
            row = []
            den = euler_den
            for total in sums:
                row.append(ratfun_reduce(ParamPoly.from_ints(total),
                                         ParamPoly.from_ints(den)))
                den = _ipoly_mul(den, bundle_den)
            table.append(tuple(row))
        return tuple(table)


# ---------------------------------------------------------------------------
# the residue table over integer polynomials

def _component_residues(comp: FixedComponent, cleared: dict) -> tuple[
        IntPoly, list[tuple[IntPoly, list[IntPoly], IntPoly]]]:
    """One component's integrals of (u + c1)^p / euler, as integer data.

    Returns (den, rows) with rows[alpha] = (U, W, B), so that
    int (u_alpha + c1_alpha)^p / euler = sum_j C(p,j) U^(p-j) W[j] /
    (B^p * den) for every p.  With the Euler class cleared to (S + N) / E
    and the bundle class to (U + C) / B, den = S^(d+1) and
    W[j] = E * sum_k S^(d-k) <C^j, (-N)^k> for j <= d.
    """
    table = comp.ring.monomial_table
    d = comp.ring.dimension
    euler, e_den = _dense(comp.euler.scalar, comp.euler.nilpotent, table,
                          cleared)
    s = euler[0]
    neg_nil = [()] + [tuple(-x for x in co) for co in euler[1:]]
    neg_pows = _dense_powers(neg_nil, table, d)
    s_pows: list[IntPoly] = [(1,)]
    for _ in range(d + 1):
        s_pows.append(_ipoly_mul(s_pows[-1], s))
    rows = []
    for b in comp.bundles:
        cls, b_den = _dense(b.hamiltonian, b.chern, table, cleared)
        w = []
        for j, c1_j in enumerate(_dense_powers([()] + cls[1:], table, d)):
            acc: IntPoly = ()
            for k in range(d - j + 1):
                acc = _ipoly_add(acc, _ipoly_mul(
                    s_pows[d - k], _pair(c1_j, neg_pows[k], table)))
            w.append(_ipoly_mul(e_den, acc))
        rows.append((cls[0], w, b_den))
    return s_pows[d + 1], rows


def _dense(scalar: RationalFunction, nilpotent: NilpotentClass,
           table: MonomialTable, memo: dict) -> tuple[list[IntPoly], IntPoly]:
    """Integer numerators over the monomials of table, and their denominator.

    Index 0 holds the scalar part.  Terms that do not divide the top
    monomial never reach it and are dropped.
    memo keeps the result, not to be modified, by the identities of the two
    parts, which the scenario keeps alive, so each distinct pair is cleared
    once.
    """
    key = (id(scalar), id(nilpotent))
    if key in memo:
        return memo[key]
    cleared = []
    for i, f in [(0, scalar)] + [(table.index.get(e), f)
                                 for e, f in nilpotent.terms]:
        if i is not None:  # f = (u ints) / (v ints') with u/v in lowest terms
            q = f.num.content / f.den.content
            cleared.append((i, (_ipoly_mul((q.numerator,), f.num.ints),
                                _ipoly_mul((q.denominator,), f.den.ints))))
    den: IntPoly = (1,)
    for _, (_, d) in cleared:
        den = _ipoly_lcm(den, d)
    out: list[IntPoly] = [()] * len(table.monomials)
    for i, (n, d) in cleared:
        out[i] = _ipoly_mul(n, _ipoly_quo(den, d))
    memo[key] = out, den
    return out, den


def _dense_powers(x: list[IntPoly], table: MonomialTable,
                  top: int) -> list[list[IntPoly]]:
    """x^0 .. x^top for a dense nilpotent class x (zero at index 0)."""
    unit: list[IntPoly] = [()] * len(x)
    unit[0] = (1,)
    out = [unit, x] if top else [unit]
    while len(out) <= top:
        prod: list[IntPoly] = [()] * len(x)
        for i, j, k in table.products:
            if out[-1][i] and x[j]:
                prod[k] = _ipoly_add(prod[k], _ipoly_mul(out[-1][i], x[j]))
        out.append(prod)
    return out


def _pair(x: list[IntPoly], y: list[IntPoly], table: MonomialTable) -> IntPoly:
    """Top coefficient of x * y, from complementary monomials only."""
    acc: IntPoly = ()
    for i, j in table.pairs:
        if x[i] and y[j]:
            acc = _ipoly_add(acc, _ipoly_mul(x[i], y[j]))
    return acc


def refuse(messages: tuple[str, ...]) -> None:
    """Raise one ValidationError listing the messages, if there are any."""
    if messages:
        raise ValidationError("; ".join(messages))


class ValidationReport(Record):
    """Outcome of the structural and analytic checks on a scenario."""

    ok: bool
    messages: tuple[str, ...]
    residues_polynomial: bool
    volume_positive: tuple[bool, ...]


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


def volume_localized(scn: LocalizationScenario, alpha: int) -> RationalFunction:
    """Equivariant volume of bundle alpha: the power-m sum over the fixed locus."""
    refuse(scn.inconsistencies)
    return power_sum(scn, alpha, scn.dimension)


def fut_localized(scn: LocalizationScenario) -> RationalFunction:
    """The degenerate invariant as an exact rational function of the parameter."""
    refuse(scn.inconsistencies)
    m = scn.dimension
    total = RationalFunction.const(0)
    for alpha in range(scn.bundles):
        num = power_sum(scn, alpha, m + 1)
        den = power_sum(scn, alpha, m)
        if den.is_zero():
            raise ComputationError(
                "bundle %d has identically vanishing volume" % alpha)
        total = total + num / den
    return total.scale(Fraction(1, m + 1))


def make_point_component(label: str, ambient_dim: int,
                         euler_scalar: Fraction | int | str,
                         hamiltonians: tuple[Fraction | int | str, ...]) -> FixedComponent:
    """Convenience constructor for an isolated fixed point."""
    ring = point_ring()
    return FixedComponent(
        label=label,
        ring=ring,
        codimension=ambient_dim,
        euler=EquivariantClass(RationalFunction.const(rat(euler_scalar)),
                               NilpotentClass.zero(ring)),
        bundles=tuple(
            BundleRestriction(RationalFunction.const(rat(u)),
                              NilpotentClass.zero(ring))
            for u in hamiltonians))


def validate_scenario(scn: LocalizationScenario) -> ValidationReport:
    """Report the scenario's findings, or else its inconsistencies, or else
    check positivity.

    Findings and failed analytic checks all land in the message list; ok is
    True only when every check passes.  Positivity of each bundle's volume
    is required on the open validity interval, matching the ampleness window
    the scenario declares.
    """
    if scn.findings:
        return ValidationReport(False, scn.findings, False, ())
    if scn.inconsistencies:
        return ValidationReport(False, scn.inconsistencies, False, ())
    messages: list[str] = []
    volume_positive: list[bool] = []
    for alpha in range(scn.bundles):
        vol = power_sum(scn, alpha, scn.dimension)
        try:  # the root kernel's degree limit
            pos = positive_on_interval(vol.to_poly(), scn.interval)
        except UsageError as exc:
            raise UsageError("bundle %d volume: %s" % (alpha, exc)) from None
        volume_positive.append(pos)
        if not pos:
            messages.append(
                "bundle %d volume %s is not positive on the whole interval"
                % (alpha, vol.text(scn.param)))
    return ValidationReport(not messages, tuple(messages), True,
                            tuple(volume_positive))
