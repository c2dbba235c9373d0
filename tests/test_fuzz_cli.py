"""Mutated catalog scenarios and option values through every subcommand,
in process.

Hypothesis takes a catalog entry, or the widest admissible scenario, as
plain data and applies a few mutations: it drops a key or a list item,
replaces a value with an atom, or duplicates a list item.  The widest
scenario takes the largest values within every bound: dimension 16, a
1001-bit Hamiltonian and a 16-simplex of that size, written (2^100)^10, so
its volumes and invariants pass the interpreter's 4300 printable digits.  It also draws a value, or none, for each of --samples,
--root-width, --param-value and --direction from atoms fitted to the entry:
inside its interval, on an endpoint, outside it, zero, negative, malformed,
and past the 1024-bit limit.  Each of the five subcommands then reads the
file with the options it takes.  Every run must end in a documented exit
code within a time bound.  A refusal is one error line on stderr, after the
usage line when the command line itself is refused, with nothing on stdout;
only verify's mismatch (exit 5) prints its report first.
"""

import contextlib
import copy
import io
import json
import time
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coupledfut import load, scenario_to_dict  # noqa: E402
from coupledfut.catalog import NAMES  # noqa: E402
from coupledfut.cli import COMMANDS, OPTIONS, main  # noqa: E402
from coupledfut.rationals import MAX_DIMENSION  # noqa: E402
from test_scenario_cli import points_in_dimension, simplex_block  # noqa: E402

WIDE = "(2^100)^10"
ATOMS = (0, -1, 10**400, 1.5, "c", "1/0", "(", None, True, [], {}, "c^101",
         "a^0", MAX_DIMENSION, WIDE)


def widest():
    """Two isolated points at dimension 16 with Hamiltonians 1 and WIDE, and
    the 16-simplex with offset WIDE as its polytope and ambient polytope."""
    data = points_in_dimension(MAX_DIMENSION)
    for comp, hamiltonian in zip(data["components"], ("1", WIDE)):
        comp["bundles"][0]["hamiltonian"] = hamiltonian
    simplex = simplex_block(MAX_DIMENSION, WIDE)
    data["toric"] = {"ambient": MAX_DIMENSION,
                     "direction": [1] * MAX_DIMENSION,
                     "polytopes": [simplex], "anticanonical": simplex}
    return data


CATALOG = {name: scenario_to_dict(load(name)) for name in NAMES}
CATALOG["widest"] = widest()
SECONDS = 5


def option_atoms(data):
    """The values drawn for each option of a catalog entry; None omits it."""
    lo, hi = (Fraction(x) for x in data["parameter"]["interval"])
    rationals = [str((lo + hi) / 2), str(lo), str(hi + 1), "0", "-1", "1/",
                 "1e-5000", None]
    direction, n = data["toric"]["direction"], data["toric"]["ambient"]
    return {
        "--samples": rationals,
        "--root-width": rationals,
        "--param-value": rationals,
        "--direction": [",".join(map(str, direction)), ",".join("1" * (n + 1)),
                        ",".join("0" * n), ",".join(["-1"] * n), "1,x",
                        "1e-5000", None],
    }


OPTION_ATOMS = {name: option_atoms(data) for name, data in CATALOG.items()}
TAKES = {command: [o.name for o in OPTIONS if command in o.commands
                   and o.name in OPTION_ATOMS["cp1"]] for command in COMMANDS}


def _paths(value, path=()):
    """The path of every value below the top object, parents first."""
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_calls(draw):
    """A mutated scenario and a value, or None, for each option."""
    name = draw(st.sampled_from(sorted(CATALOG)))
    data = copy.deepcopy(CATALOG[name])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = data
        for key in head:
            parent = parent[key]
        action = draw(st.sampled_from(("drop", "atom", "duplicate")))
        if action == "drop":
            del parent[last]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
        else:
            parent[last] = copy.deepcopy(draw(st.sampled_from(ATOMS)))
    options = {option: draw(st.sampled_from(values))
               for option, values in OPTION_ATOMS[name].items()}
    return data, options


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.json"


@given(mutated_calls())
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_every_subcommand_ends_in_a_documented_exit(scenario_path, call):
    data, options = call
    scenario_path.write_text(json.dumps(data))
    for command in COMMANDS:
        argv = [command, "--scenario", str(scenario_path)]
        for option in TAKES[command]:
            if options[option] is not None:
                argv += [option, options[option]]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < SECONDS, command
        assert code in (0, 2, 3, 4, 5), command
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == "", command
            continue
        if err.startswith("usage: "):  # the command line itself
            err = err.split("\n", 1)[1]
            assert code == 2 and err.startswith(
                "coupledfut %s: error: " % command), argv
        else:
            assert err.startswith("error: "), (argv, err)
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert out == "" or (command, code) == ("verify", 5), (argv, err)
