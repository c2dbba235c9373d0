"""Command-line interface; each subcommand computes, then calls one emitter.

Subcommands: localize (fixed-point computation), toric (polytope oracle),
roots (vanishing locus), verify (cross-validation), sample (exact values on
a grid).  Scenarios come from the built-in catalog (--catalog) or a JSON
file (--scenario).  A call is refused in one order, the command line, the
scenario file, the option values against it, then its validation, so a
refused call does no engine work (exit codes as in errors, 1 for output
that cannot be written).

One option table, OPTIONS, drives parsing, usage and -h/--help, by
argparse's rules (--opt=value, unique prefixes, the last repeat wins, its
error messages) but without its import cost, and with one change: the token
after an option is always its value, so --param-value -1/2 works.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import catalog
from .analysis import (DEFAULT_SAMPLES, DEFAULT_WIDTH, cross_validate,
                       fut_roots, sample_curve, sample_values)
from .errors import (CrossValidationError, EngineError, ParseError, Record,
                     UsageError, ValidationError)
from .localization import fut_localized, refuse, volume_localized
from .polytopes import fut_toric, minkowski_check, volume_curve
from .rationals import MAX_COEFF_BITS, RationalFunction, rat, ratfun_eval
from .report import (FORMATS, emit_obstruction, emit_roots, emit_samples,
                     emit_toric, emit_validation, emit_verify)
from .scenario import Scenario, load_scenario

PROG = "coupledfut"
DESCRIPTION = ("Exact computation of the coupled degeneracy invariant from "
               "fixed-point data, cross-validated against a moment-polytope "
               "oracle.")


# a converter raises ValueError, whose message follows "argument --flag: "
def _rational_arg(text: str) -> Fraction:
    try:
        return rat(text)
    except ParseError:
        raise ValueError("not an exact rational of at most %d bits: %r"
                         % (MAX_COEFF_BITS, text)) from None


def _direction_arg(text: str) -> tuple[int, ...]:
    try:
        direction = tuple(int(x.strip()) for x in text.split(","))
    except ValueError:
        raise ValueError("direction must be comma-separated integers: %r"
                         % text) from None
    if any(x.bit_length() > MAX_COEFF_BITS for x in direction):
        raise ValueError("a direction entry exceeds %d bits" % MAX_COEFF_BITS)
    if not any(direction):  # generates no circle action
        raise ValueError("zero direction")
    return direction


def _format_arg(text: str) -> str:
    if text not in FORMATS:
        raise ValueError("invalid choice: %r (choose from %s)"
                         % (text, ", ".join(map(repr, FORMATS))))
    return text


def _read_samples(text: str) -> int | list[Fraction]:
    """An integer is a sample count, of at most MAX_COEFF_BITS bits;
    anything else lists exact abscissae."""
    try:
        count = int(text)
    except ValueError:  # digits alone fail only past the conversion limit
        count = (1 << MAX_COEFF_BITS if re.fullmatch(r"\s*[-+]?\d+\s*", text)
                 else None)
    if count is not None:
        if count.bit_length() > MAX_COEFF_BITS:
            raise ParseError("--samples: integer exceeds the limit of %d bits"
                             % MAX_COEFF_BITS)
        return count
    try:
        samples = [rat(piece) for piece in text.split(",") if piece.strip()]
    except ParseError as exc:
        raise ParseError("--samples: %s" % exc) from None
    if not samples:
        raise UsageError("no sample abscissae given")
    return samples


def _admit(args: SimpleNamespace) -> Scenario:
    """The scenario, once every option value fits it and then it validates;
    args keeps the resolved values: the direction and the sample abscissae."""
    if args.command == "verify" and args.format == "csv":
        raise UsageError("csv output is not defined for verify")
    scn = (catalog.load(args.catalog) if args.catalog is not None
           else load_scenario(args.scenario))
    interval, model = scn.localization.interval, scn.toric
    if args.command == "toric":
        if model is None:
            raise ValidationError("scenario carries no toric model")
        args.direction = args.direction or model.direction
        if len(args.direction) != model.ambient:
            raise UsageError("direction needs %d entries" % model.ambient)
    if getattr(args, "param_value", None) is not None:
        sample_values(interval, [args.param_value], "--param-value")
    if getattr(args, "root_width", 1) <= 0:
        raise UsageError("--root-width must be positive")
    if hasattr(args, "samples"):
        args.samples = sample_values(interval, _read_samples(args.samples))
    refuse(scn.localization.validation.messages)
    return scn


def _value_at(args: SimpleNamespace,
              fut: RationalFunction) -> tuple[Fraction, Fraction] | None:
    """The invariant at --param-value, if one was given."""
    x = args.param_value
    return None if x is None else (x, ratfun_eval(fut, x))


def _cmd_localize(args: SimpleNamespace, scn: Scenario) -> int:
    loc = scn.localization
    vols = tuple(volume_localized(loc, alpha) for alpha in range(loc.bundles))
    fut = fut_localized(loc)
    sys.stdout.write(emit_obstruction(loc, vols, fut, _value_at(args, fut),
                                      args.format))
    return 0


def _cmd_toric(args: SimpleNamespace, scn: Scenario) -> int:
    loc, model = scn.localization, scn.toric
    euclid = tuple(
        RationalFunction.from_poly(volume_curve(pp, loc.interval))
        for pp in model.polytopes)
    fut = fut_toric(model, loc.interval, args.direction)
    mink = minkowski_check(model, loc.interval)
    sys.stdout.write(emit_toric(loc, model.ambient, args.direction, euclid,
                                fut, mink.status, _value_at(args, fut),
                                args.format))
    return 0


def _cmd_roots(args: SimpleNamespace, scn: Scenario) -> int:
    loc = scn.localization
    report = fut_roots(fut_localized(loc), loc.interval, args.root_width)
    sys.stdout.write(emit_roots(report, loc.name, loc.param, args.format))
    return 0


def _cmd_verify(args: SimpleNamespace, scn: Scenario) -> int:
    loc = scn.localization
    if scn.toric is None:
        sys.stdout.write(emit_validation(loc.name, loc.validation,
                                         args.format))
        return 0
    record = cross_validate(loc, scn.toric, args.samples)
    sys.stdout.write(emit_verify(loc.name, loc.param, record, args.format))
    if not record.ok:
        raise CrossValidationError(
            "localization and the polytope oracle disagree")
    return 0


def _cmd_sample(args: SimpleNamespace, scn: Scenario) -> int:
    loc = scn.localization
    rows = sample_curve(fut_localized(loc), loc.interval, args.samples)
    sys.stdout.write(emit_samples(loc.name, loc.param, rows, args.format))
    return 0


COMMANDS = {
    "localize": (_cmd_localize, "compute the invariant from fixed-point data"),
    "toric": (_cmd_toric, "compute the invariant from the polytopes"),
    "roots": (_cmd_roots, "isolate the zeros inside the interval"),
    "verify": (_cmd_verify, "cross-validate the two computations"),
    "sample": (_cmd_sample, "evaluate the invariant on a grid"),
}


class Option(Record):
    """A row of OPTIONS; convert is None for the -h/--help flag."""

    name: str
    commands: tuple
    metavar: str
    convert: object
    default: object
    help: str


HELP = Option("--help", tuple(COMMANDS), "", None, None,
              "show this help message and exit")
# HELP first, then the two sources, of which exactly one is required
OPTIONS = (
    HELP,
    Option("--catalog", HELP.commands, "NAME", str, None,
           "built-in scenario (%s)" % ", ".join(catalog.NAMES)),
    Option("--scenario", HELP.commands, "PATH", str, None,
           "scenario JSON file"),
    Option("--format", HELP.commands, "{%s}" % ",".join(FORMATS), _format_arg,
           "text", "output format (default text)"),
    Option("--param-value", ("localize", "toric"), "RAT", _rational_arg, None,
           "also evaluate at this parameter value"),
    Option("--direction", ("toric",), "D1,..,Dn", _direction_arg, None,
           "override the model's direction"),
    Option("--root-width", ("roots",), "RAT", _rational_arg,
           DEFAULT_WIDTH, "maximal bracket width (default 1/10^12)"),
    Option("--samples", ("verify", "sample"), "N|X1,X2,..", str,
           str(DEFAULT_SAMPLES), "sample count, or comma-separated exact "
                                 "abscissae (default %d)" % DEFAULT_SAMPLES),
)


class ArgvExit(Exception):
    """Ends the call before a subcommand runs; args are the exit code and its
    text: 0 and the help for stdout, or 2 and the error for stderr."""


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: %s [-h] {%s} ..." % (PROG, ",".join(COMMANDS))
    shown = ["%s %s" % (o.name, o.metavar) for o in OPTIONS[1:]
             if command in o.commands]
    return "usage: %s %s [-h] (%s) %s" % (PROG, command, " | ".join(
        shown[:2]), " ".join("[%s]" % s for s in shown[2:]))


def _help(command: str | None) -> str:
    """The help of one subcommand, or of the program: the subcommands, then
    every option, with the subcommands that take it unless all do."""
    lines = [_usage(command), "", COMMANDS[command][1] if command else
             DESCRIPTION, ""]
    if command is None:
        lines += ["subcommands:"] + ["  %-10s  %s" % (name, text) for name, (
            _, text) in COMMANDS.items()] + [""]
    lines.append("options:")
    for o in OPTIONS:
        if command in o.commands or command is None:
            left = "-h, --help" if o is HELP else o.name + " " + o.metavar
            where = "" if command or o.commands == HELP.commands else \
                " [%s]" % ", ".join(o.commands)
            lines.append("  %-22s  %s%s" % (left, o.help, where))
    return "\n".join(lines) + "\n"


def _fail(command: str | None, message: str) -> ArgvExit:
    prog = PROG + " " + command if command else PROG
    return ArgvExit(2, "%s\n%s: error: %s\n" % (_usage(command), prog, message))


def _help_exit(command: str | None, explicit: str | None) -> ArgvExit:
    """-h/--help: the help, or an error when it was given a value."""
    if explicit is None:
        return ArgvExit(0, _help(command))
    return _fail(command, "argument -h/--help: ignored explicit argument %r"
                 % explicit)


def _match(token: str, command: str | None, rows) -> tuple | None:
    """(row, explicit value or None) when the token names an option: exactly,
    by a unique prefix, or as -h in argparse's stacked forms (-hh, -hx, -h=x)."""
    if token[:2] == "-h":  # -hh is -h; -hx, -h=x and -h= carry a value
        if token == "-h=":
            return HELP, ""
        rest = token[3:] if token[2:3] == "=" else token[2:]
        return HELP, rest.lstrip("h") or None
    if token[:2] != "--" or token == "--":
        return None
    name, eq, value = token.partition("=")
    hits = [o for o in rows if o.name == name] or \
        [o for o in rows if o.name.startswith(name)]
    if len(hits) > 1:
        raise _fail(command, "ambiguous option: %s could match %s"
                    % (token, ", ".join(o.name for o in hits)))
    return (hits[0], value if eq else None) if hits else None


def parse_argv(argv: list[str]) -> SimpleNamespace:
    """The subcommand and the value of each of its options; raises ArgvExit
    for -h/--help and for an argv that argparse rejects."""
    extras = []  # unknown options, reported once all else is read
    for i, token in enumerate(argv):
        found = _match(token, None, (HELP,))
        if found:
            raise _help_exit(None, found[1])
        # argparse's test for a value, not an option, before the subcommand
        if token[:1] != "-" or token in ("-", "--") or " " in token \
                or re.match(r"^-\d+$|^-\d*\.\d+$", token):
            break
        extras.append(token)
    else:
        raise _fail(None, "the following arguments are required: command")
    command, tokens = argv[i], argv[i + 1:]
    if command not in COMMANDS:
        raise _fail(None, "argument command: invalid choice: %r (choose "
                          "from %s)" % (command, ", ".join(map(repr, COMMANDS))))
    # pair each option with its value first: argparse refuses an ambiguous
    # prefix before it reads any value
    rows = [o for o in OPTIONS if command in o.commands]
    pairs, rest = [], iter(tokens)
    for token in rest:
        found = _match(token, command, rows)
        if found is None:
            extras.append(token)
            if token == "--":  # argparse reads no option after it
                extras.extend(rest)
        elif found[1] is None and found[0] is not HELP:
            pairs.append((found[0], next(rest, None)))  # whatever it looks like
        else:
            pairs.append(found)
    values = {o.name[2:].replace("-", "_"): o.default for o in rows[1:]}
    source = None
    for o, value in pairs:
        if o is HELP:
            raise _help_exit(command, value)
        if value is None:
            raise _fail(command, "argument %s: expected one argument" % o.name)
        try:
            values[o.name[2:].replace("-", "_")] = o.convert(value)
        except ValueError as exc:
            raise _fail(command, "argument %s: %s" % (o.name, exc)) from None
        if o in OPTIONS[1:3]:
            if source not in (None, o):
                raise _fail(command, "argument %s: not allowed with argument "
                                     "%s" % (o.name, source.name))
            source = o
    if source is None:
        raise _fail(command,
                    "one of the arguments --catalog --scenario is required")
    if extras:
        raise _fail(None, "unrecognized arguments: %s" % " ".join(extras))
    return SimpleNamespace(command=command, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
    except ArgvExit as exc:
        code, text = exc.args
        (sys.stderr if code else sys.stdout).write(text)
        return code
    try:
        return COMMANDS[args.command][0](args, _admit(args))
    except EngineError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.exit_code


def run() -> int:
    """The process entry point: main(), then the heap frozen.

    main() leaves the process as it found it, for in-process callers.  Here
    the call is over: freezing moves every object into the permanent
    generation, which the interpreter's collections at exit skip, while
    atexit handlers and the flush of stdout and stderr still run.  An
    output that cannot be written, such as a full disk or a closed pipe,
    ends in one error line and exit 1; fd 1 then points at os.devnull, so
    the flush at exit does not report it again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        sys.stderr.write("error: cannot write output: %s\n"
                         % (exc.strerror or exc))
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
