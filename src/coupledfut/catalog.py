"""Built-in scenario catalog.

Every entry is stored as plain data and built through the same parser that
reads scenario files, so the catalog doubles as a parser exercise.  The
hultgren-c family shares one toric model: two mirror-image polytopes whose
offsets swap under c -> 1-c, inside a common ambient polytope.
"""

from __future__ import annotations

from .errors import UsageError
from .scenario import Scenario, scenario_from_dict

_FLAG_NORMALS = [
    [-1, -1, 0, 1],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, -1, -1],
    [0, 0, 1, 0],
    [0, 0, 0, -1],
    [0, 0, 0, 1],
]


def _flag_polytope(offsets: list[str]) -> dict:
    return {"facets": [{"normal": n, "offset": o}
                       for n, o in zip(_FLAG_NORMALS, offsets)]}


def _flagship(name: str, description: str, euler_lo: str, euler_hi: str,
              first_hamiltonian: str) -> dict:
    return {
        "name": name,
        "description": description,
        "note": ("Two section components over a product base; bundle two "
                 "mirrors bundle one under c -> 1-c."),
        "dimension": 4,
        "bundles": 2,
        "parameter": {"name": "c", "interval": ["1/4", "3/4"]},
        "rings": {"section": {
            "generators": [
                {"name": "a", "order": 2, "degree": 2},
                {"name": "b", "order": 3, "degree": 2},
            ],
            "top": {"a": 1, "b": 2},
            "dimension": 3,
        }},
        "components": [
            {
                "label": "infinity-section",
                "ring": "section",
                "codimension": 1,
                "euler": {"scalar": euler_lo,
                          "classes": {"a": "-1", "b": "1"}},
                "bundles": [
                    {"hamiltonian": first_hamiltonian,
                     "chern": {"a": "2c-1/2", "b": "2"}},
                    {"hamiltonian": "-1/2",
                     "chern": {"a": "3/2-2c", "b": "2"}},
                ],
            },
            {
                "label": "zero-section",
                "ring": "section",
                "codimension": 1,
                "euler": {"scalar": euler_hi,
                          "classes": {"a": "1", "b": "-1"}},
                "bundles": [
                    {"hamiltonian": "1/2",
                     "chern": {"a": "2c+1/2", "b": "1"}},
                    {"hamiltonian": "1/2",
                     "chern": {"a": "5/2-2c", "b": "1"}},
                ],
            },
        ],
        "toric": {
            "ambient": 4,
            "direction": [0, 0, 0, 1],
            "polytopes": [
                _flag_polytope(["1/2", "1/2", "1/2", "c", "c", "1/2", "1/2"]),
                _flag_polytope(["1/2", "1/2", "1/2", "1-c", "1-c", "1/2",
                                "1/2"]),
            ],
            "anticanonical": _flag_polytope(["1"] * 7),
        },
    }


def _segment_toric(half_width: str, bundles: int) -> dict:
    return {
        "ambient": 1,
        "direction": [1],
        "polytopes": [
            {"facets": [{"normal": [1], "offset": half_width},
                        {"normal": [-1], "offset": half_width}]}
        ] * bundles,
        "anticanonical": {"facets": [{"normal": [1], "offset": "1"},
                                     {"normal": [-1], "offset": "1"}]},
    }


def _line_scenario(name: str, description: str, bundles: int,
                   hamiltonian: str, half_width: str) -> dict:
    return {
        "name": name,
        "description": description,
        "note": "Two isolated fixed points on a one-dimensional space.",
        "dimension": 1,
        "bundles": bundles,
        "parameter": {"name": "c", "interval": ["0", "1"]},
        "rings": {"point": {"generators": [], "top": {}, "dimension": 0}},
        "components": [
            {
                "label": "south",
                "ring": "point",
                "codimension": 1,
                "euler": {"scalar": "-1", "classes": {}},
                "bundles": [{"hamiltonian": "-" + hamiltonian, "chern": {}}
                            ] * bundles,
            },
            {
                "label": "north",
                "ring": "point",
                "codimension": 1,
                "euler": {"scalar": "1", "classes": {}},
                "bundles": [{"hamiltonian": hamiltonian, "chern": {}}
                            ] * bundles,
            },
        ],
        "toric": _segment_toric(half_width, bundles),
    }


# name -> a function building that entry's data, so loading one entry builds
# no other
_ENTRIES = {
    "hultgren-c": lambda: _flagship(
        "hultgren-c",
        "Two coupled bundles over a four-dimensional ambient space; "
        "the invariant vanishes at a conjugate pair of quadratic "
        "irrationals.",
        "-1/2", "1/2", "-1/2"),
    "hultgren-c-true": lambda: _flagship(
        "hultgren-c-true",
        "Variant of hultgren-c whose scalar normal weights are doubled; "
        "this data set cross-validates exactly against the polytope "
        "oracle.",
        "-1", "1", "-1/2"),
    "hultgren-c-corrupt": lambda: _flagship(
        "hultgren-c-corrupt",
        "hultgren-c with one moment value deliberately corrupted; "
        "cross-validation must reject it.",
        "-1/2", "1/2", "-2/5"),
    "cp1": lambda: _line_scenario(
        "cp1",
        "Smallest end-to-end example: one bundle, two fixed points, "
        "vanishing invariant.",
        1, "1", "1"),
    "cp1-coupled": lambda: _line_scenario(
        "cp1-coupled",
        "Two identical bundles on the line, each carrying half the "
        "ambient polytope.",
        2, "1/2", "1/2"),
}

# the keys of _ENTRIES in sorted order; listing them builds no entry
NAMES = tuple(sorted(_ENTRIES))


def load(name: str) -> Scenario:
    """Build one catalog scenario; unknown names raise UsageError."""
    if name not in _ENTRIES:
        raise UsageError("unknown catalog scenario %r; available: %s"
                         % (name, ", ".join(NAMES)))
    return scenario_from_dict(_ENTRIES[name]())
