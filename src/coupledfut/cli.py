"""Command-line interface.

Subcommands: localize (fixed-point computation), toric (polytope oracle),
roots (vanishing locus), verify (cross-validation), sample (exact values on
a grid).  Scenarios come from the built-in catalog (--catalog) or a JSON
file (--scenario).  Exit codes: 0 success, 2 parse errors, 3 validation
failures, 4 computation errors, 5 cross-validation mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import catalog
from .analysis import cross_validate, fut_roots, sample_curve
from .errors import (CrossValidationError, EngineError, ParseError,
                     UsageError, ValidationError)
from .localization import (LocalizationScenario, ValidationReport,
                           fut_localized, validate_scenario, volume_localized)
from .polytopes import fut_toric, minkowski_check, volume_curve
from .rationals import (MAX_COEFF_BITS, RationalFunction, rat, ratfun_eval,
                        sample_values)
from .report import (FORMATS, ObstructionReport, ToricReport,
                     emit_obstruction, emit_roots, emit_samples, emit_toric,
                     emit_validation, emit_verify)
from .scenario import Scenario, load_scenario

DEFAULT_SAMPLES = 5


def _rational_arg(text: str) -> Fraction:
    # argparse turns ArgumentTypeError into a usage error; ParseError escapes
    try:
        return rat(text)
    except ParseError:
        raise argparse.ArgumentTypeError(
            "not an exact rational of at most %d bits: %r"
            % (MAX_COEFF_BITS, text))


def _direction_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x.strip()) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "direction must be comma-separated integers: %r" % text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledfut",
        description="Exact computation of the coupled degeneracy invariant "
                    "from fixed-point data, cross-validated against a "
                    "moment-polytope oracle.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in (
        ("localize", "compute the invariant from fixed-point data"),
        ("toric", "compute the invariant from the polytopes"),
        ("roots", "isolate the zeros inside the interval"),
        ("verify", "cross-validate the two computations"),
        ("sample", "evaluate the invariant on a grid"))}
    for p in commands.values():
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--catalog", metavar="NAME",
                         help="built-in scenario (%s)" % ", ".join(
                             catalog.catalog_names()))
        src.add_argument("--scenario", metavar="PATH",
                         help="scenario JSON file")
        p.add_argument("--format", choices=FORMATS, default="text",
                       help="output format (default text)")
    for name in ("localize", "toric"):
        commands[name].add_argument(
            "--param-value", type=_rational_arg, metavar="RAT",
            help="also evaluate at this parameter value")
    commands["toric"].add_argument(
        "--direction", type=_direction_arg, metavar="D1,..,Dn",
        help="override the model's direction")
    commands["roots"].add_argument(
        "--root-width", type=_rational_arg, metavar="RAT",
        default=Fraction(1, 10 ** 12),
        help="maximal bracket width (default 1/10^12)")
    for name in ("verify", "sample"):
        commands[name].add_argument(
            "--samples", default=str(DEFAULT_SAMPLES), metavar="N|X1,X2,..",
            help="sample count, or comma-separated exact abscissae "
                 "(default %d)" % DEFAULT_SAMPLES)
    return parser


def _load(args: argparse.Namespace) -> Scenario:
    if args.catalog:
        return catalog.load(args.catalog)
    return load_scenario(args.scenario)


def _validated(loc: LocalizationScenario) -> ValidationReport:
    report = validate_scenario(loc)
    if not report.ok:
        raise ValidationError("; ".join(report.messages))
    return report


def _parse_samples(text: str, interval) -> list[Fraction]:
    """An integer is a sample count; anything else lists exact abscissae."""
    try:
        count = int(text)
    except ValueError:
        try:
            xs = [rat(piece) for piece in text.split(",") if piece.strip()]
        except ParseError as exc:
            raise ParseError("--samples: %s" % exc) from None
        if not xs:
            raise UsageError("no sample abscissae given")
        return xs
    return sample_values(interval, count)


def _cmd_localize(args: argparse.Namespace) -> int:
    loc = _load(args).localization
    _validated(loc)
    vols = tuple(volume_localized(loc, alpha) for alpha in range(loc.bundles))
    fut = fut_localized(loc)
    value_at = None
    if args.param_value is not None:
        value_at = (args.param_value, ratfun_eval(fut, args.param_value))
    note = (loc.note + " " if loc.note else "") + (
        "Normalization: the sum of per-bundle ratios is divided by the "
        "ambient dimension plus one (here %d)." % (loc.dimension + 1))
    rep = ObstructionReport(loc.name, loc.param, loc.interval, loc.dimension,
                            loc.bundles, vols, fut, note, value_at)
    rows = None
    if args.format == "csv" and value_at is None:
        rows = sample_curve(fut, loc.interval, DEFAULT_SAMPLES)
    sys.stdout.write(emit_obstruction(rep, args.format, rows))
    return 0


def _cmd_toric(args: argparse.Namespace) -> int:
    scn = _load(args)
    loc = scn.localization
    _validated(loc)
    if scn.toric is None:
        raise ValidationError("scenario carries no toric model")
    model = scn.toric
    direction = args.direction if args.direction is not None else model.direction
    if len(direction) != model.ambient:
        raise UsageError("direction needs %d entries" % model.ambient)
    fact = math.factorial(model.ambient)
    euclid = tuple(
        RationalFunction.from_poly(volume_curve(pp, loc.interval))
        for pp in model.polytopes)
    scaled = tuple(v.scale(fact) for v in euclid)
    fut = fut_toric(model, loc.interval, direction)
    value_at = None
    if args.param_value is not None:
        value_at = (args.param_value, ratfun_eval(fut, args.param_value))
    mink = minkowski_check(model, loc.interval)
    rep = ToricReport(loc.name, loc.param, loc.interval, model.ambient,
                      tuple(direction), euclid, scaled, fut, mink.status,
                      value_at)
    rows = None
    if args.format == "csv" and value_at is None:
        rows = sample_curve(fut, loc.interval, DEFAULT_SAMPLES)
    sys.stdout.write(emit_toric(rep, args.format, rows))
    return 0


def _cmd_roots(args: argparse.Namespace) -> int:
    loc = _load(args).localization
    _validated(loc)
    if args.root_width <= 0:
        raise UsageError("--root-width must be positive")
    report = fut_roots(fut_localized(loc), loc.interval, args.root_width)
    sys.stdout.write(emit_roots(report, loc.name, args.format))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    scn = _load(args)
    loc = scn.localization
    xs = _parse_samples(args.samples, loc.interval)
    if scn.toric is None:
        sys.stdout.write(emit_validation(loc.name, _validated(loc),
                                         args.format))
        return 0
    record = cross_validate(loc, scn.toric, xs)
    sys.stdout.write(emit_verify(loc.name, record, args.format))
    if not record.validation.ok:
        raise ValidationError("scenario validation failed")
    if not record.ok:
        raise CrossValidationError(
            "localization and the polytope oracle disagree")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    loc = _load(args).localization
    _validated(loc)
    xs = _parse_samples(args.samples, loc.interval)
    fut = fut_localized(loc)
    rows = sample_curve(fut, loc.interval, xs)
    sys.stdout.write(emit_samples(loc.name, loc.param, rows, args.format))
    return 0


_COMMANDS = {
    "localize": _cmd_localize,
    "toric": _cmd_toric,
    "roots": _cmd_roots,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except EngineError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
