"""The command line against an independent reference: the argparse parser
that read it before the option table, kept here as build_parser.

Hypothesis draws argv from the subcommands, every option spelled in full,
abbreviated or with "=", repeated options, -h in its forms, and good and
bad values.  Both sides must give the same exit code and the same error
line, and the same values whenever both accept.

One difference is by design: after an option, the table reads the next
token as its value even when it starts with "-", so --param-value -1/2
works where argparse stops with "expected one argument".  For such a pair
the reference is given the joined form --param-value=-1/2, which it reads
as the value; test_a_value_may_start_with_a_dash names the cases.  The
value "--" is left out of the drawn argv: argparse reads --catalog=-- as an
empty list, which test_double_dash_value shows.
"""

import argparse
import contextlib
import io
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coupledfut import catalog  # noqa: E402
from coupledfut.cli import (  # noqa: E402
    DEFAULT_SAMPLES,
    ArgvExit,
    _direction_arg,
    _rational_arg,
    parse_argv,
)
from coupledfut.report import FORMATS  # noqa: E402


def _typed(convert):
    """argparse reports an ArgumentTypeError's message as it is."""
    def typed(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return typed


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
            "--param-value", type=_typed(_rational_arg), metavar="RAT",
            help="also evaluate at this parameter value")
    commands["toric"].add_argument(
        "--direction", type=_typed(_direction_arg), metavar="D1,..,Dn",
        help="override the model's direction")
    commands["roots"].add_argument(
        "--root-width", type=_typed(_rational_arg), metavar="RAT",
        default=F(1, 10 ** 12),
        help="maximal bracket width (default 1/10^12)")
    for name in ("verify", "sample"):
        commands[name].add_argument(
            "--samples", default=str(DEFAULT_SAMPLES), metavar="N|X1,X2,..",
            help="sample count, or comma-separated exact abscissae "
                 "(default %d)" % DEFAULT_SAMPLES)
    return parser


def _error_line(text):
    return text.splitlines()[-1] if text else ""


REFERENCE = build_parser()


def reference(argv):
    """(exit code, values or None, error line) from argparse."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            return 0, vars(REFERENCE.parse_args(argv)), ""
        except SystemExit as exc:
            return exc.code, None, _error_line(err.getvalue())


def table(argv):
    """(exit code, values or None, error line) from the option table."""
    try:
        return 0, vars(parse_argv(argv)), ""
    except ArgvExit as exc:
        code, text = exc.args
        return code, None, _error_line(text) if code else ""


COMMANDS = ("localize", "toric", "roots", "verify", "sample")
# the options of each subcommand that take a value, as build_parser declares
VALUE_OPTIONS = {name: ("--catalog", "--scenario", "--format") + extra
                 for name, extra in (
                     ("localize", ("--param-value",)),
                     ("toric", ("--param-value", "--direction")),
                     ("roots", ("--root-width",)),
                     ("verify", ("--samples",)),
                     ("sample", ("--samples",)))}
# full names, unique and ambiguous prefixes, and names no subcommand knows
SPELLINGS = ("--catalog", "--cat", "--c", "--scenario", "--sc", "--s",
             "--format", "--form", "--f", "--param-value", "--param", "--p",
             "--direction", "--dir", "--root-width", "--root", "--r",
             "--samples", "--sa", "--bogus")
HELPS = ("-h", "--help", "--he", "-hh", "-hx", "-h=x", "--help=", "--help=x")
VALUES = ("cp1", "hultgren-c", "nope", "missing.json", "text", "structured",
          "csv", "TEXT", "1/2", "0.25", "1e-3", "3", "0", "1,0,0,1", "1,x",
          "1/3,1/4", "xyz", "1/0", "", "a b", "x=y",
          # values that start with "-": argparse reads the first three as
          # values, and the others as options
          "-3", "-.5", "-1", "-1/2", "-1,0,0,1", "-5.", "-1e3", "-", "-h",
          "--format", "--s", "-x")
STRAYS = ("extra", "-x", "--bogus", "-1", "--", "-")


def _takes_next_token(token, command):
    """Whether the token names, in full or by a unique prefix and without
    "=", an option of the subcommand that takes a value."""
    names = VALUE_OPTIONS[command] + ("--help",)
    hits = [n for n in names if n == token] or \
        [n for n in names if n.startswith(token) and token[:2] == "--"]
    return "=" not in token and len(hits) == 1 and hits[0] != "--help"


def joined(tokens, command):
    """The tokens after the subcommand with each dash-initial value joined to
    its option by "=", which is how argparse reads it as the value."""
    out, i = [], 0
    while i < len(tokens):
        token = tokens[i]
        if token == "--":  # argparse reads no option after it
            return out + tokens[i:]
        if _takes_next_token(token, command) and i + 1 < len(tokens):
            value = tokens[i + 1]
            out += [token + "=" + value] if value[:1] == "-" else [token, value]
            i += 2
        else:
            out.append(token)
            i += 1
    return out


# values an option accepts, drawn more often than the others
GOOD = {"--catalog": ("cp1", "hultgren-c"), "--scenario": ("x.json",),
        "--format": FORMATS, "--param-value": ("1/2", "-1/2", "0.25"),
        "--direction": ("1,0,0,1", "-1,0,0,1"), "--root-width": ("1e-3", "-1"),
        "--samples": ("3", "1/3,1/4", "-3")}


@st.composite
def argvs(draw):
    """An argv, and the argv the reference is given."""
    head = draw(st.sampled_from([[]] * 40 + [[t] for t in HELPS[:3] + STRAYS]))
    command = draw(st.sampled_from(COMMANDS * 3 + ("bogus",)))
    tokens = []
    if draw(st.integers(0, 3)):  # most argv name a source first
        tokens += ["--catalog", draw(st.sampled_from(GOOD["--catalog"]))]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("pair",) * 8 + ("joined",) * 3 + (
            "help", "stray", "bare")))
        spelling = draw(st.sampled_from(SPELLINGS))
        full = next((n for n in GOOD if n.startswith(spelling)), None)
        value = draw(st.sampled_from(GOOD[full] * 12 + VALUES if full
                                     else VALUES))
        tokens += {"pair": [spelling, value],
                   "joined": [spelling + "=" + value],
                   "bare": [spelling],
                   "help": [draw(st.sampled_from(HELPS))],
                   "stray": [draw(st.sampled_from(STRAYS))]}[kind]
    if command in VALUE_OPTIONS:
        return head + [command] + tokens, head + [command] + joined(tokens,
                                                                    command)
    return head + [command] + tokens, head + [command] + tokens


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(argvs())
def test_same_outcome_as_argparse(case):
    argv, joined = case
    assert table(argv) == reference(joined)


@pytest.mark.parametrize("argv,name,value", [
    (["localize", "--catalog", "cp1", "--param-value", "-1/2"],
     "param_value", F(-1, 2)),
    (["toric", "--catalog", "hultgren-c-true", "--direction", "-1,0,0,1"],
     "direction", (-1, 0, 0, 1)),
    (["roots", "--catalog", "cp1", "--root-width", "-1e3"],
     "root_width", F(-1000)),
    (["sample", "--catalog", "cp1", "--samples", "-1/3,1/3"],
     "samples", "-1/3,1/3"),
    (["localize", "--catalog", "--format"], "catalog", "--format"),
])
def test_a_value_may_start_with_a_dash(argv, name, value):
    option = argv[-2]
    assert reference(argv) == (
        2, None, "coupledfut %s: error: argument %s: expected one argument"
        % (argv[0], option))
    code, values, _ = table(argv)
    assert (code, values[name]) == (0, value)
    assert table(argv) == reference(argv[:-2] + [option + "=" + argv[-1]])


@pytest.mark.parametrize("argv", [
    ["localize", "--catalog", "cp1", "--param-value", "-0.5"],
    ["sample", "--catalog", "cp1", "--samples", "-3"],
    ["roots", "--catalog", "cp1", "--root-width", "-1"],
])
def test_a_negative_number_is_a_value_on_both_sides(argv):
    assert table(argv)[0] == 0
    assert table(argv) == reference(argv)


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["localize"], ["verify", "--s", "3"],
    ["localize", "--catalog", "cp1", "--scenario", "x.json"],
    ["localize", "--catalog", "cp1", "--format", "html"],
    ["localize", "--catalog", "cp1", "--param-value", "xyz"],
    ["toric", "--catalog", "cp1", "--direction", "1,x"],
    ["localize", "--catalog", "cp1", "--format"],
    ["localize", "--catalog", "cp1", "extra"],
    ["localize", "--catalog", "cp1", "--help=x"],
])
def test_each_kind_of_error_keeps_its_wording(argv):
    code, _, line = table(argv)
    assert code == 2
    assert line == reference(argv)[2]


def test_double_dash_value():
    # argparse drops "--" from an option's arguments, even from its "=" form,
    # and the subcommand then fails on the empty list
    assert reference(["localize", "--catalog=--"])[1]["catalog"] == []
    for argv in (["localize", "--catalog=--"], ["localize", "--catalog", "--"]):
        assert table(argv)[1]["catalog"] == "--"
