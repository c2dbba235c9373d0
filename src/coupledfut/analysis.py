"""Root isolation, sampling and cross-validation.

Roots of the invariant's numerator are read from its factorization in the
rationals module: the rational roots are exact, each with its multiplicity,
and the product of the irrational squarefree factors is isolated by the
root walk of the integer root kernel, which maps the interval to [0, 1]
once and reads signs at dyadic points in integers: Sturm counts split the
brackets until each holds one root, and one sign per halving then refines
it to the requested width.  An irrational root's multiplicity is that of
the one factor that changes sign across its bracket.  Degree-two factors
additionally get closed-form surd descriptors (p + q*sqrt(D))/r, with square
factors pulled out of D by bounded trial division only, so a very large D
may be left unreduced.  Poles come from the denominator's factorization the
same way.  Root counting and the positivity test live in the rationals
module, on the same kernel.
Samples, a count or a list of abscissae, follow one rule: 1 to MAX_SAMPLES
of them, strictly inside the interval, each evaluated exactly.
Cross-validation plays the localization engine against the polytope oracle:
per-bundle volumes must agree up to the dimension factorial, the invariants
must agree as rational functions, and the bundle polytopes must sum to the
ambient one.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import Record, UsageError
from .localization import (LocalizationScenario, ValidationReport,
                           fut_localized, volume_localized)
from .polytopes import (MinkowskiReport, ToricModel, fut_toric, fut_toric_at,
                        minkowski_check, realize, volume_curve)
from .rationals import (IntPoly, ParamPoly, RationalFunction, UnitKernel,
                        _ipoly_prod, _sign_at, rat, rat_text, ratfun_eval)
# bound here too: perfbench/layertrace.py looks these up on this module
from .rationals import (count_roots_open, poly_gcd,  # noqa: F401
                        positive_on_interval, sturm_chain)

DEFAULT_WIDTH = Fraction(1, 10 ** 12)
DEFAULT_SAMPLES = 5
# largest sample set, a count or a list; verify realizes every polytope at
# each sample
MAX_SAMPLES = 1000
DECIMAL_DIGITS = 18
# square factors f^2 of a quadratic's discriminant are divided out for f up
# to this bound, so every discriminant below 10^12 is reduced completely
SURD_SQUARE_FACTOR_LIMIT = 10 ** 6


# ---------------------------------------------------------------------------
# root records and isolation


class RootRecord(Record):
    """One isolated root: a bracketing interval plus optional exact forms.

    exact is set for rational roots (then lo == hi == exact).  surd is set
    for roots of quadratic factors, as integers (p, q, d, r) meaning
    (p + q*sqrt(d))/r.  decimal is correctly rounded to 18 places;
    multiplicity counts the root in the original polynomial.
    """

    lo: Fraction
    hi: Fraction
    exact: Fraction | None
    surd: tuple[int, int, int, int] | None
    decimal: str
    multiplicity: int

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _decimal_of_fraction(x: Fraction) -> str:
    """x rounded half up to DECIMAL_DIGITS places."""
    scaled = x * 10 ** DECIMAL_DIGITS
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    whole, frac = divmod(abs(n), 10 ** DECIMAL_DIGITS)
    return "%s%d.%0*d" % ("-" if n < 0 else "", whole, DECIMAL_DIGITS, frac)


def _decimal_of_simple_root(kernel: UnitKernel, k: int, j: int) -> str:
    """Correctly rounded decimal of the one simple root in bracket (k, j).

    Rounding is monotone, so once both ends of the bracket round to the same
    digits the root does too; until then the bracket is halved.  The root is
    irrational, so it is never a rounding boundary and the loop ends.
    """
    while True:
        low = _decimal_of_fraction(kernel.point(k, j))
        if low == _decimal_of_fraction(kernel.point(k + 1, j)):
            return low
        k, j, _ = kernel.refine(k, j, j + 1)


def _quadratic_surds(quad: IntPoly) -> list[tuple[int, int, int, int]]:
    """Closed forms (p, q, d, r), smaller root first, for a quadratic with
    irrational real roots.

    quad is an integer polynomial with a positive leading coefficient, as
    the factorization leaves it, so r = 2a is positive.  Square
    factors f^2 of the discriminant are pulled out of d by trial division
    for f up to SURD_SQUARE_FACTOR_LIMIT only, so a d above the square of
    that limit may keep a square factor; the closed form is exact either way.
    """
    c, b, a = quad
    disc = b * b - 4 * a * c
    if disc <= 0:
        return []
    core, square = disc, 1
    f = 2
    while f <= SURD_SQUARE_FACTOR_LIMIT and f * f <= core:
        while core % (f * f) == 0:
            core //= f * f
            square *= f
        f += 1
    p, q_mag, r = -b, square, 2 * a
    g = math.gcd(math.gcd(abs(p), q_mag), r)
    p, q_mag, r = p // g, q_mag // g, r // g
    return [(p, -q_mag, core, r), (p, q_mag, core, r)]


def _halvings_to_width(span: Fraction, width: Fraction) -> int:
    """The least j >= 0 with span / 2^j <= width."""
    ratio = span / width
    return (-(-ratio.numerator // ratio.denominator) - 1).bit_length()


def isolate_roots(p: ParamPoly, interval: tuple[Fraction, Fraction],
                  width: Fraction = DEFAULT_WIDTH) -> tuple[RootRecord, ...]:
    """Disjoint rational brackets, one distinct root each, inside the interval.

    Rational roots come back exact (zero-width bracket).  Roots of quadratic
    irreducible factors carry a closed-form surd.  Brackets for the remaining
    roots are bisected down to at most the requested width.
    """
    lo, hi = interval
    if not lo < hi:
        raise UsageError("empty interval")
    if width <= 0:
        raise UsageError("width must be positive")
    if p.is_zero():
        raise UsageError("cannot isolate roots of the zero polynomial")
    fac = p.factorization
    records = [RootRecord(root, root, root, None, _decimal_of_fraction(root),
                          mult) for root, mult in fac.roots if lo < root < hi]
    exact = [rec.exact for rec in records]
    rest = _ipoly_prod(g for g, _ in fac.factors)
    if len(rest) > 1:
        # rest has no rational root, so no end or midpoint met is a root
        kernel = UnitKernel(rest, lo, hi)
        surds = _quadratic_surds(rest) if len(rest) == 3 else []
        fine = _halvings_to_width(hi - lo, width)
        for k, j in kernel.brackets()[1]:
            k, j, _ = kernel.refine(k, j, fine)
            # halve on until the bracket holds no exact root, ends included
            while any(kernel.point(k, j) <= x <= kernel.point(k + 1, j)
                      for x in exact):
                k, j, _ = kernel.refine(k, j, j + 1)
            a, b = kernel.point(k, j), kernel.point(k + 1, j)
            # a quadratic rest, leading coefficient positive, falls
            # through its smaller root and rises through the larger
            surd = surds[kernel.sign(k, j) < 0] if surds else None
            # the factors are coprime: one changes sign across (a, b)
            mult = next(m for g, m in fac.factors
                        if _sign_at(g, a) != _sign_at(g, b))
            records.append(RootRecord(
                a, b, None, surd, _decimal_of_simple_root(kernel, k, j),
                mult))
    records.sort(key=lambda rec: rec.lo)
    return tuple(records)


# ---------------------------------------------------------------------------
# the invariant's vanishing locus


class RootReport(Record):
    """Vanishing locus of the invariant inside the validity interval."""

    interval: tuple[Fraction, Fraction]
    width: Fraction
    invariant: RationalFunction
    roots: tuple[RootRecord, ...]
    poles_inside: tuple[Fraction, ...]
    messages: tuple[str, ...]


def fut_roots(f: RationalFunction, interval: tuple[Fraction, Fraction],
              width: Fraction = DEFAULT_WIDTH) -> RootReport:
    """Isolate the values inside the interval where f vanishes.

    Roots come from the numerator (the canonical form has no common
    factors); poles inside the interval are reported as diagnostics.
    """
    messages: list[str] = []
    if f.is_zero():
        return RootReport(interval, width, f, (), (),
                          ("the invariant vanishes identically",))
    roots = isolate_roots(f.num, interval, width)
    poles: list[tuple[Fraction, int]] = []  # ascending, each once
    if f.den.degree() >= 1:
        fac = f.den.factorization
        poles = [(root, mult) for root, mult in fac.roots
                 if interval[0] < root < interval[1]]
        if any(UnitKernel(g, *interval).count(0, 0) for g, _ in fac.factors):
            messages.append("irrational poles inside the interval")
    if poles:
        messages.append("poles inside the validity interval: %s" % ", ".join(
            rat_text(x) + (" (multiplicity %d)" % m if m > 1 else "")
            for x, m in poles))
    return RootReport(interval, width, f, roots,
                      tuple(x for x, _ in poles), tuple(messages))


# ---------------------------------------------------------------------------
# sampling and cross-validation


def sample_values(interval: tuple[Fraction, Fraction],
                  samples: int | list[Fraction],
                  what: str = "sample") -> list[Fraction]:
    """A count's equispaced interior grid, x_j = lo + j (hi-lo)/(count+1),
    or the listed abscissae, which must lie inside the open interval; what
    names one in the error.  Either form holds 1 to MAX_SAMPLES entries,
    counted before any entry is read."""
    count = samples if isinstance(samples, int) else len(samples)
    if count < 1:
        raise UsageError("need at least one sample")
    if count > MAX_SAMPLES:
        raise UsageError("%d samples exceed the limit %d"
                         % (count, MAX_SAMPLES))
    lo, hi = interval
    if isinstance(samples, int):
        return [lo + Fraction(j, count + 1) * (hi - lo)
                for j in range(1, count + 1)]
    xs = [rat(x) for x in samples]
    for x in xs:
        if not lo < x < hi:
            raise UsageError("%s %s is outside the validity interval"
                             % (what, rat_text(x)))
    return xs


def sample_curve(f: RationalFunction, interval: tuple[Fraction, Fraction],
                 samples: int | list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """Evaluate exactly at the samples; a pole raises PoleError."""
    return [(x, ratfun_eval(f, x)) for x in sample_values(interval, samples)]


class SampleComparison(Record):
    """The two computations of the invariant at one parameter value."""

    at: Fraction
    localized: Fraction
    toric: Fraction
    equal: bool


class CrossValidationRecord(Record):
    """Per-check outcome of the localization-versus-polytope comparison."""

    ok: bool
    validation: ValidationReport
    volumes_localized: tuple[RationalFunction, ...]
    volumes_toric: tuple[RationalFunction, ...]
    volume_match: tuple[bool, ...]
    fut_localized: RationalFunction
    fut_toric: RationalFunction
    fut_match: bool
    samples: tuple[SampleComparison, ...]
    minkowski: MinkowskiReport
    messages: tuple[str, ...]


def cross_validate(scn: LocalizationScenario, model: ToricModel,
                   samples: int | list[Fraction] = DEFAULT_SAMPLES) -> CrossValidationRecord:
    """Compare the two computations of volumes and of the invariant.

    Equivariant volumes carry a factor of m! against Euclidean polytope
    volumes; invariants must agree exactly as rational functions, and at
    each requested sample the localization value must equal the value
    measured directly on the polytopes realized at that sample, never
    interpolated.  Any discrepancy is reported, never repaired.
    """
    if len(model.polytopes) != scn.bundles:
        raise UsageError("model has %d polytopes for %d bundles"
                         % (len(model.polytopes), scn.bundles))
    xs = sample_values(scn.interval, samples)
    messages: list[str] = []
    validation = scn.validation
    if not validation.ok:
        messages.append("scenario validation failed")
    fact = math.factorial(scn.dimension)
    vols_loc: list[RationalFunction] = []
    vols_tor: list[RationalFunction] = []
    vol_match: list[bool] = []
    for alpha in range(scn.bundles):
        v_loc = volume_localized(scn, alpha)
        v_tor = RationalFunction.from_poly(
            volume_curve(model.polytopes[alpha], scn.interval).scale(fact))
        vols_loc.append(v_loc)
        vols_tor.append(v_tor)
        same = v_loc == v_tor
        vol_match.append(same)
        if not same:
            messages.append(
                "bundle %d volume mismatch: localization gives %s, "
                "polytope gives %s" % (alpha, v_loc.text(scn.param),
                                       v_tor.text(scn.param)))
    f_loc = fut_localized(scn)
    f_tor = fut_toric(model, scn.interval)
    fut_same = f_loc == f_tor
    if not fut_same:
        messages.append("invariant mismatch: localization gives %s, "
                        "polytope gives %s" % (f_loc.text(scn.param),
                                               f_tor.text(scn.param)))
    rows: list[SampleComparison] = []
    for x in xs:
        v_l = ratfun_eval(f_loc, x)
        v_t = fut_toric_at(model.polytopes, model.direction, x)
        rows.append(SampleComparison(x, v_l, v_t, v_l == v_t))
        if v_l != v_t:
            messages.append("invariant values differ at %s = %s: "
                            "localization %s, polytope %s"
                            % (scn.param, rat_text(x), rat_text(v_l),
                               rat_text(v_t)))
    mink = minkowski_check(model, scn.interval)
    if mink.status == "fail":
        messages.extend(mink.messages)
    mid = (scn.interval[0] + scn.interval[1]) / 2
    for i, pp in enumerate(model.polytopes):
        rp = realize(pp, mid)
        if not all(rp.supported):
            unsupported = [j for j, s in enumerate(rp.supported) if not s]
            messages.append("polytope %d has redundant facets %s at the "
                            "midpoint" % (i, unsupported))
    # every failed check above appends a message, and only a failed one
    return CrossValidationRecord(not messages, validation, tuple(vols_loc),
                                 tuple(vols_tor), tuple(vol_match),
                                 f_loc, f_tor, fut_same, tuple(rows), mink,
                                 tuple(messages))
