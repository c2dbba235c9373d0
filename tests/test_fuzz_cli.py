"""Mutated catalog scenarios through every subcommand, in process.

Hypothesis takes a catalog entry as plain data and applies a few mutations:
it drops a key or a list item, replaces a value with an atom, or duplicates
a list item.  Each of the five subcommands then reads the file.  Every run
must end in a documented exit code within a time bound.  A refusal is one
error line on stderr with nothing on stdout; only verify's mismatch (exit 5)
prints its report first.
"""

import contextlib
import copy
import io
import json
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coupledfut import catalog_names, load, scenario_to_dict  # noqa: E402
from coupledfut.cli import COMMANDS, main  # noqa: E402

ATOMS = (0, -1, 10**400, 1.5, "c", "1/0", "(", None, True, [], {}, "c^101",
         "a^0")
CATALOG = {name: scenario_to_dict(load(name)) for name in catalog_names()}
SECONDS = 5


def _paths(value, path=()):
    """The path of every value below the top object, parents first."""
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_scenarios(draw):
    data = copy.deepcopy(CATALOG[draw(st.sampled_from(sorted(CATALOG)))])
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
    return data


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.json"


@given(mutated_scenarios())
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_every_subcommand_ends_in_a_documented_exit(scenario_path, data):
    scenario_path.write_text(json.dumps(data))
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--scenario", str(scenario_path)])
        assert time.perf_counter() - start < SECONDS, command
        assert code in (0, 2, 3, 4, 5), command
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == "", command
            continue
        assert err.startswith("error: ") and err.count("\n") == 1, (command,
                                                                    err)
        assert out == "" or (command, code) == ("verify", 5), (command, err)
