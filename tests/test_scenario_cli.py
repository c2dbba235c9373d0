"""Scenario files and the command line front end."""

import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from coupledfut import (
    EngineError,
    ParseError,
    ValidationError,
    load,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
    scenario_to_json,
    validate_scenario,
)
from coupledfut.catalog import NAMES
from coupledfut.cli import COMMANDS, main
from coupledfut.rationals import (MAX_DIMENSION, MAX_FACET_SUBSETS,
                                  MAX_RING_MONOMIALS, MAX_SIMPLICES)
from coupledfut.report import FORMATS
from test_localization import perfbench_module

ALL_NAMES = ("cp1", "cp1-coupled", "hultgren-c", "hultgren-c-corrupt", "hultgren-c-true")


def points_in_dimension(n):
    """cp1 as two isolated points of an n-dimensional manifold: codimension
    n, Euler scalars -1 and 1, Hamiltonians 0 and 1.  A toric block of
    dimension n with one polytope then describes it."""
    data = scenario_to_dict(load("cp1"))
    data["dimension"] = n
    for comp, hamiltonian in zip(data["components"], ("0", "1")):
        comp["codimension"] = n
        comp["bundles"][0]["hamiltonian"] = hamiltonian
    return data


def simplex_block(n, offset="1"):
    """The n-simplex -y_i <= 0, y_1 + ... + y_n <= offset."""
    return {"facets": [{"normal": [-int(j == i) for j in range(n)],
                        "offset": "0"} for i in range(n)]
            + [{"normal": [1] * n, "offset": offset}]}


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScenarioFiles:
    def test_catalog_listing(self):
        assert NAMES == ALL_NAMES

    def test_catalog_names_are_the_data_keys(self):
        from coupledfut import catalog

        assert catalog.NAMES == tuple(sorted(catalog._ENTRIES))

    def test_load_builds_only_the_requested_entry(self, monkeypatch):
        from coupledfut import catalog

        built = []
        for builder in ("_flagship", "_line_scenario"):
            original = getattr(catalog, builder)

            def counting(name, *args, original=original):
                built.append(name)
                return original(name, *args)

            monkeypatch.setattr(catalog, builder, counting)
        for name in ALL_NAMES:
            assert load(name).localization.name == name
        assert built == list(ALL_NAMES)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_round_trip_preserves_the_scenario(self, name):
        scn = load(name)
        text = scenario_to_json(scn)
        again = parse_scenario(text)
        assert again == scn
        assert scenario_to_json(again) == text

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_catalog_scenarios_validate(self, name):
        report = validate_scenario(load(name).localization)
        assert report.ok, report.messages

    @pytest.mark.parametrize("text", [
        "{nope", '{"dimension": %s}' % ("9" * 5000)])  # too long to convert
    def test_invalid_json_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_scenario(text)

    def test_unknown_ring_reference_is_located(self):
        bad = copy.deepcopy(scenario_to_dict(load("hultgren-c")))
        bad["components"][0]["ring"] = "nope"
        with pytest.raises(ParseError, match=r"components\[0\].ring: unknown ring"):
            scenario_from_dict(bad)

    def test_malformed_offset_is_located(self):
        bad = copy.deepcopy(scenario_to_dict(load("hultgren-c")))
        bad["toric"]["polytopes"][0]["facets"][0]["offset"] = "1//2"
        with pytest.raises(
            ParseError, match=r"toric.polytopes\[0\].facets\[0\].offset"
        ):
            scenario_from_dict(bad)

    def test_missing_field_is_located(self):
        bad = copy.deepcopy(scenario_to_dict(load("hultgren-c")))
        del bad["parameter"]
        with pytest.raises(ParseError, match="missing field 'parameter'"):
            scenario_from_dict(bad)

    def test_wrong_value_type_is_located(self):
        bad = copy.deepcopy(scenario_to_dict(load("hultgren-c")))
        bad["components"][0]["bundles"][0]["hamiltonian"] = {"x": 1}
        with pytest.raises(ParseError, match="expected an expression string"):
            scenario_from_dict(bad)

    def test_lone_dot_offset_is_a_located_parse_error(self, capsys, tmp_path):
        data = scenario_to_dict(load("cp1"))
        data["toric"]["polytopes"][0]["facets"][0]["offset"] = "."
        with pytest.raises(ParseError, match=r"toric\.polytopes\[0\]\.facets\[0\]"):
            scenario_from_dict(data)
        path = tmp_path / "dot.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "toric", "--scenario", str(path))
        assert code == 2
        assert "malformed number" in err

    def test_exponent_limit_is_a_located_parse_error(self, capsys, tmp_path):
        data = scenario_to_dict(load("cp1"))
        data["components"][1]["bundles"][0]["hamiltonian"] = "c^99999999"
        where = r"components\[1\]\.bundles\[0\]\.hamiltonian"
        with pytest.raises(ParseError, match=where + ".*exceeds the limit"):
            scenario_from_dict(data)
        path = tmp_path / "power.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "localize", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert "exponent 99999999 exceeds the limit" in err
        for text, message in (("((c+1)^100)^100", "degree 10000"),
                              ("((2^100)^100)^100", "size 10000 bits"),
                              ("c" + "/(2^100)^10" * 20, "size 2000 bits")):
            data["components"][1]["bundles"][0]["hamiltonian"] = text
            start = time.process_time()  # CPU time: other load does not count
            with pytest.raises(ParseError,
                               match=where + ".*%s exceeds the limit" % message):
                scenario_from_dict(data)
            assert time.process_time() - start < 0.1

    @pytest.mark.parametrize("text,code", [
        ("(2^16-1)^64", 0), ("(2^16+1)^64", 2),
        ("(2^16-1)^32*(2^16-1)^32", 0), ("(2^16+1)^32*(2^16+1)^32", 2),
        ("1/(2^100)^10/2^24", 0), ("1/(2^100)^10/2^25", 2),
    ])
    def test_coefficient_size_limit_at_the_command_line(self, capsys, tmp_path,
                                                        text, code):
        data = scenario_to_dict(load("cp1"))
        data["components"][1]["euler"]["scalar"] = text
        path = tmp_path / "size.json"
        path.write_text(json.dumps(data))
        got, _, err = run(capsys, "localize", "--scenario", str(path))
        message = ("components[1].euler.scalar: coefficient size 1025 bits "
                   "exceeds the limit 1024 in %r" % text)
        assert (got, message in err) == (code, code == 2)

    def test_each_distinct_expression_is_parsed_once_per_load(
            self, monkeypatch):
        from coupledfut import scenario

        # the vertices of the cube [-c, c]^4 as isolated fixed points with
        # xi = (1, 1, 1, 1): 16 components, 5 distinct moment values
        components = []
        for k in range(16):
            signs = [1 - 2 * (k >> i & 1) for i in range(4)]
            euler = 1
            for s in signs:
                euler *= -s
            components.append({
                "label": "v%d" % k, "ring": "point", "codimension": 4,
                "euler": {"scalar": str(euler), "classes": {}},
                "bundles": [{"hamiltonian": "%dc" % sum(signs),
                             "chern": {}}]})
        data = {"name": "cube", "dimension": 4, "bundles": 1,
                "parameter": {"name": "c", "interval": ["0", "1"]},
                "rings": {"point": {"generators": [], "top": {},
                                    "dimension": 0}},
                "components": components}
        texts = {b["hamiltonian"] for comp in components
                 for b in comp["bundles"]}
        texts |= {comp["euler"]["scalar"] for comp in components}
        parsed = []
        original = scenario.parse_poly

        def counting(text, param):
            parsed.append(text)
            return original(text, param)

        monkeypatch.setattr(scenario, "parse_poly", counting)
        loc = scenario_from_dict(data).localization
        assert sorted(parsed) == sorted(texts)
        assert len(texts) == 7
        # the six vertices with two signs of each kind all read "0c"
        zero = [comp.bundles[0].hamiltonian for comp, raw
                in zip(loc.components, components)
                if raw["bundles"][0]["hamiltonian"] == "0c"]
        assert len(zero) == 6 and all(h is zero[0] for h in zero)
        assert validate_scenario(loc).ok

    @pytest.mark.parametrize("site,where", [
        (("parameter", "interval", 1), r"parameter\.interval\[1\]"),
        (("components", 0, "bundles", 0, "hamiltonian"),
         r"components\[0\]\.bundles\[0\]\.hamiltonian"),
        (("toric", "polytopes", 0, "facets", 0, "offset"),
         r"toric\.polytopes\[0\]\.facets\[0\]\.offset"),
        (("toric", "direction", 0), r"toric\.direction"),
        (("toric", "polytopes", 0, "facets", 0, "normal", 0),
         r"toric\.polytopes\[0\]\.facets\[0\]\.normal"),
        (("rings", "ring0", "top", "x"), r"rings\.ring0\.top"),
    ], ids=["interval", "hamiltonian", "offset", "direction", "normal", "top"])
    def test_json_boolean_is_not_a_number(self, capsys, tmp_path, site, where):
        data = scenario_to_dict(load("cp1"))
        data["parameter"]["interval"] = [0, 1]
        data["components"][0]["bundles"][0]["hamiltonian"] = -1
        data["toric"]["polytopes"][0]["facets"][0]["offset"] = 1
        scenario_from_dict(data)  # the integers parse
        node = data
        for key in site[:-1]:
            node = node[key]
        node[site[-1]] = True
        with pytest.raises(ParseError, match=where):
            scenario_from_dict(data)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "localize", "--scenario", str(path))
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("command,site,where", [
        ("localize", ("components", 0, "bundles", 0, "hamiltonian"),
         r"components\[0\]\.bundles\[0\]\.hamiltonian"),
        ("localize", ("components", 0, "euler", "scalar"),
         r"components\[0\]\.euler\.scalar"),
        ("localize", ("parameter", "interval", 1),
         r"parameter\.interval\[1\]"),
        ("toric", ("toric", "polytopes", 0, "facets", 0, "offset"),
         r"toric\.polytopes\[0\]\.facets\[0\]\.offset"),
    ], ids=["hamiltonian", "euler-scalar", "interval", "offset"])
    def test_json_integer_is_bounded_as_text_is(self, capsys, tmp_path,
                                                command, site, where):
        data = scenario_to_dict(load("cp1"))
        node = data
        for key in site[:-1]:
            node = node[key]
        node[site[-1]] = 2 ** 1023 - 1  # 308 digits, 1023 bits
        scenario_from_dict(data)
        node[site[-1]] = 10 ** 999
        message = where + ": rational '10{999}' exceeds the limit of 1024 bits"
        with pytest.raises(ParseError, match=message):
            scenario_from_dict(data)
        node[site[-1]] = 10 ** 5000  # past the interpreter's text limit
        with pytest.raises(ParseError, match=where + ": [Ee]xceeds the limit"):
            scenario_from_dict(data)
        node[site[-1]] = 10 ** 999
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, command, "--scenario", str(path))
        assert (code, out) == (2, "")
        assert re.search(message, err)

    @pytest.mark.parametrize("command", ["localize", "toric", "verify"])
    @pytest.mark.parametrize("field,value", [
        ("note", 5), ("note", {"a": 1}), ("description", 5),
        ("description", [1])], ids=["note-5", "note-object", "description-5",
                                    "description-list"])
    def test_text_fields_must_be_strings(self, capsys, tmp_path, command,
                                         field, value):
        data = scenario_to_dict(load("cp1"))
        del data["note"], data["description"]
        scn = scenario_from_dict(data).localization
        assert (scn.note, scn.description) == ("", "")
        data[field] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, command, "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == "error: scenario.%s: expected a string\n" % field

    @pytest.mark.parametrize("name,code", [
        ("1a", 3), ("", 3), ("a-b", 3), ("\u00e9", 3), ("a\n", 3),
        ("_", 0), ("a1", 0), ("if", 0)])
    def test_generator_names_are_ascii_identifiers(self, capsys, tmp_path,
                                                   name, code):
        # hultgren-c with its generator a renamed in the ring and in every
        # class; an accepted name leaves the output as it was
        data = scenario_to_dict(load("hultgren-c"))
        ring = data["rings"]["a-b-ring"]
        assert ring["generators"][0]["name"] == "a"
        ring["generators"][0]["name"] = name
        ring["top"] = {name: ring["top"].pop("a"), **ring["top"]}
        for comp in data["components"]:
            for terms in ([comp["euler"]["classes"]]
                          + [b["chern"] for b in comp["bundles"]]):
                assert set(terms) <= {"a", "b"}
                if "a" in terms:
                    terms[name] = terms.pop("a")
        path = tmp_path / "named.json"
        path.write_text(json.dumps(data))
        got, out, err = run(capsys, "localize", "--scenario", str(path))
        if code:
            assert (got, out) == (code, "")
            assert err == ("error: rings.a-b-ring: invalid generator name "
                           "%r\n" % name)
        else:
            assert (got, err) == (0, "")
            assert out == run(capsys, "localize", "--catalog", "hultgren-c")[1]

    @pytest.mark.parametrize("name,code", [
        ("", 3), ("2c", 3), ("c d", 3), ("\u00e9", 3), ("c\n", 3),
        ("t", 0), ("_", 0), ("c1", 0)])
    def test_parameter_name_is_an_ascii_identifier(self, capsys, tmp_path,
                                                   name, code):
        # as a generator name, checked before any expression that uses it
        data = scenario_to_dict(load("cp1"))
        data["parameter"]["name"] = name
        data["components"][1]["bundles"][0]["hamiltonian"] = "1+" + name
        path = tmp_path / "param.json"
        path.write_text(json.dumps(data))
        got, out, err = run(capsys, "localize", "--scenario", str(path))
        if code:
            assert (got, out) == (code, "")
            assert err == "error: parameter.name: invalid name %r\n" % name
        else:
            assert (got, err) == (0, "")
            assert "parameter: %s on (0, 1)" % name in out

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_generator_named_like_the_parameter_is_refused(
            self, capsys, tmp_path, command):
        # the one place where ring names and the parameter's name meet
        data = scenario_to_dict(load("hultgren-c"))
        data["rings"] = {"section": data["rings"].pop("a-b-ring")}
        data["rings"]["section"]["generators"][0]["name"] = "c"
        for comp in data["components"]:
            comp["ring"] = "section"
        path = tmp_path / "collision.json"
        path.write_text(json.dumps(data))
        assert run(capsys, command, "--scenario", str(path)) == (
            3, "", "error: rings.section: generator 'c' collides with the "
                   "parameter name\n")

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_negative_codimension_is_refused(self, capsys, tmp_path, command):
        # cp1 with its south pole on a ring of dimension 2 at codimension -1:
        # the sum is still the dimension 1, but no such ring fits inside
        data = scenario_to_dict(load("cp1"))
        data["rings"]["plane"] = {
            "generators": [{"name": "a", "order": 3, "degree": 2}],
            "top": {"a": 2}, "dimension": 2}
        data["components"][0].update(ring="plane", codimension=-1)
        message = "component 'south' has negative codimension -1"
        report = validate_scenario(scenario_from_dict(data).localization)
        assert (report.ok, report.messages) == (False, (message,))
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(data))
        assert run(capsys, command, "--scenario", str(path)) == (
            3, "", "error: %s\n" % message)

    def test_structural_parse_leaves_semantics_to_validation(self):
        # A component's bundle count that differs from the scenario's parses
        # fine; validate_scenario rejects it.  The toric block goes, since
        # its polytope count must match the scenario's at parse time.
        bad = copy.deepcopy(scenario_to_dict(load("hultgren-c")))
        del bad["toric"]
        bad["bundles"] = 1
        scn = scenario_from_dict(bad)
        report = validate_scenario(scn.localization)
        assert not report.ok
        assert any("restricts 2 bundles; scenario has 1" in m for m in report.messages)

    @pytest.mark.parametrize("site,value,message", [
        ("degree", 3, "rings.r: generator 'a' has degree 3; need an even "
                      "degree of at least 2"),
        ("normal", [1], "toric.polytopes[0]: normal (1,) has wrong length"),
        ("normal", [0] * 4, "toric.polytopes[0]: zero facet normal"),
        ("facets", 4, "toric.polytopes[0]: 4 facets cannot bound a "
                      "4-dimensional polytope")],
        ids=["odd-degree", "normal-length", "zero-normal", "few-facets"])
    def test_constructor_errors_carry_the_json_path(self, capsys, tmp_path,
                                                    site, value, message):
        # hultgren-c-true with its ring renamed r; the ring and polytope
        # constructors' own messages follow the location
        data = scenario_to_dict(load("hultgren-c-true"))
        data["rings"] = {"r": data["rings"].pop("a-b-ring")}
        for comp in data["components"]:
            comp["ring"] = "r"
        facets = data["toric"]["polytopes"][0]["facets"]
        if site == "degree":
            data["rings"]["r"]["generators"][0]["degree"] = value
        elif site == "normal":
            facets[0]["normal"] = value
        else:
            del facets[value:]
        path = tmp_path / "constructor.json"
        path.write_text(json.dumps(data))
        for command in ("localize", "verify"):
            assert run(capsys, command, "--scenario", str(path)) == (
                3, "", "error: %s\n" % message)

    @pytest.mark.parametrize("key,message", [
        ("a^0", "constant monomial 'a^0' is not a nilpotent term"),
        ("a^0*b^0", "constant monomial 'a^0*b^0' is not a nilpotent term"),
        ("a^\u00b2", "bad exponent in monomial 'a^\u00b2'")])
    def test_constant_or_non_ascii_monomial_is_located(self, capsys, tmp_path,
                                                       key, message):
        data = scenario_to_dict(load("hultgren-c-true"))
        data["components"][0]["bundles"][0]["chern"][key] = "1"
        path = tmp_path / "monomial.json"
        path.write_text(json.dumps(data))
        assert run(capsys, "localize", "--scenario", str(path)) == (
            2, "", "error: components[0].bundles[0].chern: %s\n" % message)

    @pytest.mark.parametrize("command", ["localize", "toric", "verify"])
    @pytest.mark.parametrize("case,message", [
        ("second-polytope", "toric.polytopes: 2 polytopes for 1 bundles"),
        ("3-simplex", "toric.ambient: 3 differs from the scenario dimension 1"),
        ("80-simplex",
         "toric.ambient: 80 differs from the scenario dimension 1")],
        ids=["second-polytope", "3-simplex", "80-simplex"])
    def test_toric_block_describes_the_manifold(self, capsys, tmp_path,
                                                command, case, message):
        data = scenario_to_dict(load("cp1"))
        if case == "second-polytope":
            data["toric"]["polytopes"] *= 2
        else:
            n = int(case.split("-")[0])
            data["toric"] = {"ambient": n, "direction": [1] * n,
                             "polytopes": [simplex_block(n, "1+c")]}
        path = tmp_path / "block.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--scenario", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: %s\n" % message


# a c that is not part of a longer name; a number may precede it, as in 2c
LONE_C = r"(?<![A-Za-z_])c(?![A-Za-z0-9_])"


def renamed(node, name):
    """Scenario data with every expression's parameter c renamed."""
    if isinstance(node, dict):
        return {key: renamed(value, name) for key, value in node.items()}
    if isinstance(node, list):
        return [renamed(value, name) for value in node]
    if isinstance(node, str):
        return re.sub(LONE_C, name, node)
    return node


class TestParameterName:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_the_scenario_name_reaches_every_output(self, capsys, tmp_path,
                                                    name):
        # every c in every output stands for the parameter, except the two
        # fixed schema keys: the samples' "c" and the csv header c,fut
        data = scenario_to_dict(load(name))
        data.update(name="entry", description="neutral", note="none")
        paths = {}
        for param in ("c", "W"):
            paths[param] = tmp_path / ("%s.json" % param)
            paths[param].write_text(json.dumps(renamed(data, param)))
        renamed_scn = parse_scenario(paths["W"].read_text())
        assert renamed_scn.localization.param == "W"
        assert parse_scenario(scenario_to_json(renamed_scn)) == renamed_scn
        for command in COMMANDS:
            for fmt in FORMATS:
                got = [run(capsys, command, "--scenario", str(paths[param]),
                           "--format", fmt) for param in ("c", "W")]
                code, out, err = got[0]
                expected = [re.sub(LONE_C, "W", text).replace('"W":', '"c":')
                            .replace("W,fut\n", "c,fut\n")
                            for text in (out, err)]
                assert got[1] == (code, *expected), (command, fmt)


class TestCliLocalize:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "localize", "--catalog", "hultgren-c")
        assert code == 0
        assert "scenario: hultgren-c" in out
        assert "parameter: c on (1/4, 3/4)" in out
        assert "bundle 0 equivariant volume: 112c-6" in out
        assert "bundle 1 equivariant volume: -112c+106" in out
        assert "invariant: -3(112c^2-112c+23)/((56c-3)(56c-53))" in out
        assert "divided by the ambient dimension plus one (here 5)" in out

    def test_value_at_parameter(self, capsys):
        code, out, _ = run(
            capsys, "localize", "--catalog", "hultgren-c", "--param-value", "1/2"
        )
        assert code == 0
        assert "value at c = 1/2: -3/125" in out

    @pytest.mark.parametrize("command", ["localize", "toric"])
    @pytest.mark.parametrize("value", ["3/56", "9/10", "2", "1/4"])
    def test_value_outside_the_interval_exits_3(self, capsys, command, value):
        # 3/56 is a pole of the invariant, and the polytopes are empty at 2
        code, out, err = run(
            capsys, command, "--catalog", "hultgren-c", "--param-value", value
        )
        assert (code, out) == (3, "")
        assert err == ("error: --param-value %s is outside the validity "
                       "interval\n" % value)

    def test_structured_output_is_deterministic(self, capsys):
        first = run(capsys, "localize", "--catalog", "hultgren-c", "--format", "structured")
        second = run(capsys, "localize", "--catalog", "hultgren-c", "--format", "structured")
        assert first == second
        payload = json.loads(first[1])
        assert payload["invariant"]["factored"] == (
            "-3(112c^2-112c+23)/((56c-3)(56c-53))"
        )

    def test_csv_output_samples_the_default_grid(self, capsys):
        code, out, _ = run(capsys, "localize", "--catalog", "hultgren-c", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "c,fut",
            '"1/3","-51/4841"',
            '"5/12","-114/5429"',
            '"1/2","-3/125"',
            '"7/12","-114/5429"',
            '"2/3","-51/4841"',
        ]


class TestCliToric:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "toric", "--catalog", "hultgren-c")
        assert code == 0
        assert "polytope 0 volume: 7/3c-1/8 (times dimension!: 56c-3)" in out
        assert "polytope 1 volume: -7/3c+53/24 (times dimension!: -56c+53)" in out
        assert "invariant: -6(112c^2-112c+23)/((56c-3)(56c-53))" in out
        assert "additivity of polytopes: pass" in out

    def test_direction_override(self, capsys):
        code, out, _ = run(
            capsys, "toric", "--catalog", "hultgren-c", "--direction", "0,0,1,0"
        )
        assert code == 0
        assert "invariant: 3(112c^2-112c+23)/((56c-3)(56c-53))" in out

    def test_direction_of_wrong_length_exits_3(self, capsys):
        code, out, err = run(capsys, "toric", "--catalog", "cp1",
                             "--direction", "1,2")
        assert (code, out) == (3, "")
        assert err == "error: direction needs 1 entries\n"

    @pytest.mark.parametrize("direction", ["0,0,0,0", "-0,0,+0,0"])
    def test_zero_direction_is_an_argument_error(self, capsys, direction):
        # a zero direction generates no circle action
        code, out, err = run(capsys, "toric", "--catalog", "hultgren-c-true",
                             "--direction", direction)
        assert (code, out) == (2, "")
        assert err.endswith("coupledfut toric: error: argument --direction: "
                            "zero direction\n")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_zero_direction_in_a_file_is_located(self, capsys, tmp_path,
                                                  command):
        data = scenario_to_dict(load("hultgren-c-true"))
        data["toric"]["direction"] = [0, 0, 0, 0]
        with pytest.raises(ValidationError,
                           match="^toric.direction: zero direction$"):
            scenario_from_dict(data)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        assert run(capsys, command, "--scenario", str(path)) == (
            3, "", "error: toric.direction: zero direction\n")

    def test_chamber_wall_past_the_last_sample_exits_4(self, capsys, tmp_path):
        # on (0, 1) the facet y <= 9/10 starts to cut the segment [0, c] at
        # c = 9/10, beyond every abscissa a curve needs
        data = scenario_to_dict(load("cp1"))
        data["toric"]["polytopes"][0]["facets"] = [
            {"normal": [-1], "offset": "0"},
            {"normal": [1], "offset": "c"},
            {"normal": [1], "offset": "9/10"},
        ]
        path = tmp_path / "wall.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "toric", "--scenario", str(path))
        assert code == 4
        assert out == ""
        assert "the combinatorial type changes inside it" in err


class TestCliRoots:
    def test_flagship_roots(self, capsys):
        code, out, _ = run(capsys, "roots", "--catalog", "hultgren-c")
        assert code == 0
        assert "roots found: 2" in out
        assert "root 0: (14-sqrt(35))/28 (decimal 0.288711436317870856)" in out
        assert "root 1: (14+sqrt(35))/28 (decimal 0.711288563682129144)" in out

    def test_zero_invariant_reports_vanishing(self, capsys):
        code, out, _ = run(capsys, "roots", "--catalog", "cp1")
        assert code == 0
        assert "roots found: 0" in out
        assert "the invariant vanishes identically" in out

    def test_structured_roots_carry_brackets_and_multiplicity(self, capsys):
        code, out, _ = run(
            capsys, "roots", "--catalog", "hultgren-c", "--format", "structured"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["roots"]) == 2
        for entry in payload["roots"]:
            assert entry["multiplicity"] == 1
            width = F(entry["hi"]) - F(entry["lo"])
            assert width <= F(1, 10**12)
        assert payload["roots"][0]["closed_form"] == "(14-sqrt(35))/28"

    @pytest.mark.parametrize("fmt", ["text", "structured", "csv"])
    def test_each_polynomial_is_factored_once(self, capsys, monkeypatch, fmt):
        from coupledfut import rationals

        searched = []
        search = rationals._rational_roots

        def counting(s):
            searched.append(s)
            return search(s)

        monkeypatch.setattr(rationals, "_rational_roots", counting)
        code, _, _ = run(capsys, "roots", "--catalog", "hultgren-c",
                         "--format", fmt)
        assert code == 0
        assert len(searched) == 2  # the numerator and the denominator

    def test_width_flag_is_parsed_exactly(self, capsys):
        code, out, _ = run(
            capsys, "roots", "--catalog", "hultgren-c", "--root-width", "1/100000"
        )
        assert code == 0
        assert "bracket width: at most 1/100000" in out

    def test_bad_width_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "roots", "--catalog", "hultgren-c", "--root-width", "xyz"
        )
        assert code == 2
        assert "not an exact rational" in err

    def test_wide_coefficient_quadratic_finishes(self, tmp_path):
        # cp1 with hamiltonians -K+g and K+g has the invariant g; a search
        # by divisors of these 21-digit coefficients never finished
        a, b = 10**21 + 3, 3 * 10**20 + 7
        g = "(10^21+3)c^2-(3*10^20+7)"
        data = scenario_to_dict(load("cp1"))
        del data["toric"]
        data["components"][0]["bundles"][0]["hamiltonian"] = "-2*10^21+" + g
        data["components"][1]["bundles"][0]["hamiltonian"] = "2*10^21+" + g
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "coupledfut.cli", "roots", "--scenario",
             str(path), "--format", "structured"],
            capture_output=True, text=True, env=checkout_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        (root,) = json.loads(proc.stdout)["roots"]
        lo, hi = F(root["lo"]), F(root["hi"])
        assert 0 < lo < hi and a * lo**2 < b < a * hi**2
        d, r = (int(x) for x in re.fullmatch(
            r"\(0\+sqrt\((\d+)\)\)/(\d+)", root["closed_form"]).groups())
        # sqrt(d)/r is the positive root of a c^2 - b, inside the bracket
        assert a * d == b * r * r
        assert (lo * r) ** 2 < d < (hi * r) ** 2


class TestCliSample:
    def test_csv_three_point_grid(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--catalog", "hultgren-c", "--samples", "3",
            "--format", "csv",
        )
        assert code == 0
        assert out == 'c,fut\n"3/8","-13/768"\n"1/2","-3/125"\n"5/8","-13/768"\n'

    def test_explicit_abscissae(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--catalog", "hultgren-c",
            "--samples", "5/16,11/16", "--format", "csv",
        )
        assert code == 0
        assert out == 'c,fut\n"5/16","-51/8236"\n"11/16","-51/8236"\n'

    @pytest.mark.parametrize("command", ["sample", "verify"])
    @pytest.mark.parametrize("name,samples,outside", [
        pytest.param("hultgren-c", "-1/3,1/3", "-1/3", id="-1/3,1/3--1/3"),
        pytest.param("hultgren-c", "1/2,3/4", "3/4", id="1/2,3/4-3/4"),
        pytest.param("hultgren-c", "1/4", "1/4", id="1/4-1/4"),
        # cp1 without its toric model, on (0, 1)
        pytest.param("no-toric", "5/4", "5/4", id="no-toric-5/4-5/4")])
    def test_abscissa_outside_the_interval_exits_3(self, capsys, tmp_path,
                                                    command, name, samples,
                                                    outside):
        source = ("--catalog", name)
        if name == "no-toric":
            data = scenario_to_dict(load("cp1"))
            del data["toric"]
            path = tmp_path / "no-toric.json"
            path.write_text(json.dumps(data))
            source = ("--scenario", str(path))
        code, out, err = run(capsys, command, *source, "--samples", samples)
        assert (code, out) == (3, "")
        assert err == ("error: sample %s is outside the validity interval\n"
                       % outside)


class TestCliVerify:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("hultgren-c", 5),
            ("hultgren-c-true", 0),
            ("hultgren-c-corrupt", 5),
            ("cp1", 0),
            ("cp1-coupled", 0),
        ],
    )
    def test_exit_codes_over_the_catalog(self, capsys, name, expected):
        code, out, err = run(capsys, "verify", "--catalog", name)
        assert code == expected

    def test_consistent_report_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--catalog", "hultgren-c-true")
        assert code == 0
        assert "residue consistency: polynomial" in out
        assert "invariant, localization vs polytope: match" in out
        assert "overall: consistent" in out
        assert out.count("(equal)") == 5

    def test_mismatch_report_shows_both_values(self, capsys):
        code, out, err = run(
            capsys, "verify", "--catalog", "hultgren-c",
            "--samples", "5/16,3/8,1/2,5/8,11/16",
        )
        assert code == 5
        assert "sample 1/2: localization -3/125, polytope -6/125 (UNEQUAL)" in out
        assert "overall: INCONSISTENT" in out
        assert "localization and the polytope oracle disagree" in err

    def test_additivity_failure_says_where(self, capsys, tmp_path):
        data = scenario_to_dict(load("cp1-coupled"))
        data["toric"]["anticanonical"]["facets"][0]["offset"] = "2"
        path = tmp_path / "offset.json"
        path.write_text(json.dumps(data))
        reason = ("bundle polytopes do not sum to the ambient polytope: "
                  "offsets along normal (1,) add to 1, expected 2")
        code, out, _ = run(capsys, "verify", "--scenario", str(path))
        assert code == 5
        assert "polytope additivity: fail" in out
        assert out.endswith("detail: %s\n" % reason)
        code, out, _ = run(capsys, "verify", "--scenario", str(path),
                           "--format", "structured")
        assert code == 5
        payload = json.loads(out)
        assert (payload["minkowski"], payload["messages"]) == ("fail", [reason])

    def test_csv_format_is_rejected(self, capsys):
        code, _, err = run(
            capsys, "verify", "--catalog", "hultgren-c", "--format", "csv"
        )
        assert code == 3
        assert "csv output is not defined for verify" in err

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("case", ["euler", "interval", "bundles"])
    def test_invalid_scenario_is_refused_before_any_output(
            self, capsys, tmp_path, case, fmt):
        # residues that are not polynomial, an empty interval, no bundles:
        # verify refuses each as localize does, before the cross-check
        data = scenario_to_dict(load("hultgren-c-true"))
        if case == "euler":
            data["components"][0]["euler"]["scalar"] = "c+1"
        elif case == "interval":
            data["parameter"]["interval"] = ["3/4", "1/4"]
        else:
            data["bundles"] = 0
            data["toric"]["polytopes"] = []
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(data))
        argv = ("--scenario", str(path), "--format", fmt)
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err == run(capsys, "localize", *argv)[2]

    def test_csv_is_refused_before_any_work(self, capsys, monkeypatch):
        from coupledfut import analysis, localization, polytopes
        calls = []
        for module, name in ((polytopes, "realize"), (analysis, "realize"),
                             (localization, "validate_scenario")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name:
                                calls.append(_n) or _f(*a))
        code, out, err = run(capsys, "verify", "--catalog", "hultgren-c-true",
                             "--format", "csv")
        assert (code, out, calls) == (3, "", [])
        assert err == "error: csv output is not defined for verify\n"
        # the cross-check reads the validation the gate computed
        assert run(capsys, "verify", "--catalog", "hultgren-c-true")[0] == 0
        assert calls.count("validate_scenario") == 1
        assert calls.count("realize") > 0

    def test_zero_samples_rejected(self, capsys):
        code, _, err = run(
            capsys, "verify", "--catalog", "hultgren-c", "--samples", "0"
        )
        assert code == 3
        assert "at least one sample" in err

    def test_scenario_file_input(self, capsys, tmp_path):
        path = tmp_path / "twin.json"
        path.write_text(scenario_to_json(load("hultgren-c-true")))
        code, out, _ = run(capsys, "verify", "--scenario", str(path))
        assert code == 0
        assert "overall: consistent" in out

    def test_scenario_without_toric_model_honours_format(self, capsys,
                                                         tmp_path):
        data = scenario_to_dict(load("cp1"))
        del data["toric"]
        path = tmp_path / "no-toric.json"
        path.write_text(json.dumps(data))
        argv = ("verify", "--scenario", str(path), "--format")
        assert run(capsys, *argv, "text") == (
            0, "scenario: cp1\nvalidation: ok\n"
               "no toric model; nothing to cross-validate\n", "")
        code, out, _ = run(capsys, *argv, "structured")
        assert code == 0
        _, full, _ = run(capsys, "verify", "--catalog", "cp1",
                         "--format", "structured")
        assert json.loads(out) == {
            "scenario": "cp1",
            "ok": True,
            "validation": json.loads(full)["validation"],
            "messages": ["no toric model; nothing to cross-validate"],
        }
        code, out, err = run(capsys, *argv, "csv")
        assert (code, out) == (3, "")
        assert "csv output is not defined for verify" in err

    @pytest.mark.parametrize("samples,expected", [("abc", 2), ("1/0", 2),
                                                  ("0", 3)])
    def test_samples_are_read_without_a_toric_model(self, capsys, tmp_path,
                                                     samples, expected):
        data = scenario_to_dict(load("cp1"))
        del data["toric"]
        path = tmp_path / "no-toric.json"
        path.write_text(json.dumps(data))
        for source in (("--catalog", "cp1"), ("--scenario", str(path))):
            code, out, err = run(capsys, "verify", *source,
                                 "--samples", samples)
            assert (code, out) == (expected, "")
            assert "--samples" in err or "at least one sample" in err


class TestCliMalformedSamples:
    @pytest.mark.parametrize("command", ["verify", "sample"])
    @pytest.mark.parametrize("samples", ["abc", "abc,1", "1/0", "0.5,x"])
    def test_bad_abscissa_is_a_parse_error(self, capsys, command, samples):
        code, out, err = run(
            capsys, command, "--catalog", "cp1", "--samples", samples
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --samples: bad rational")


class TestOptionAdmission:
    @pytest.mark.parametrize("argv,message", [
        (("toric", "--catalog", "hultgren-c-true", "--param-value", "5"),
         "--param-value 5 is outside the validity interval"),
        (("localize", "--catalog", "hultgren-c", "--param-value", "5"),
         "--param-value 5 is outside the validity interval"),
        (("roots", "--catalog", "hultgren-c", "--root-width", "0"),
         "--root-width must be positive"),
        (("sample", "--catalog", "hultgren-c", "--samples", "0"),
         "need at least one sample"),
        (("verify", "--catalog", "hultgren-c", "--samples", "5,1/2"),
         "sample 5 is outside the validity interval"),
        (("toric", "--catalog", "hultgren-c", "--direction", "1,0"),
         "direction needs 4 entries"),
        (("toric", "--scenario", "no-toric"),
         "scenario carries no toric model"),
    ])
    def test_a_refused_option_does_no_engine_work(self, capsys, monkeypatch,
                                                   tmp_path, argv, message):
        from coupledfut import cli, localization
        if "no-toric" in argv:
            data = scenario_to_dict(load("cp1"))
            del data["toric"]
            path = tmp_path / "no-toric.json"
            path.write_text(json.dumps(data))
            argv = argv[:-1] + (str(path),)
        calls = []
        for module, name in ((localization, "validate_scenario"),
                             (cli, "volume_curve"), (cli, "fut_localized")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name:
                                calls.append(_n) or _f(*a))
        assert run(capsys, *argv) == (3, "", "error: %s\n" % message)
        assert calls == []
        # the wrappers do see the work of admitted calls
        for command in ("toric", "roots"):
            assert run(capsys, command, "--catalog", "cp1")[0] == 0
        assert set(calls) == {"validate_scenario", "volume_curve",
                              "fut_localized"}


# sha256 of stdout and the exit code of every structured call over the
# catalog, recorded before the residue table and the per-abscissa polytope
# caches were introduced; both must leave every byte unchanged
STRUCTURED_GOLDEN = [
    ("localize", "cp1", 0,
     "b0461d1ff2d5ab6fe1ee8cae6ca4895f899fa22869145b88acd02db5180e660d"),
    ("toric", "cp1", 0,
     "6d0a5e9c015091b3cb8b56f4758b0214d0a36c8a66b761198b56fb0796027995"),
    ("roots", "cp1", 0,
     "502684fab473890e8a7d9d136848538eee4815f8d8ba349f2b0615c98eec872d"),
    ("sample", "cp1", 0,
     "3cf5ea80177c39a281ce19654db3828399af6b3c73f723720362b2d53c605757"),
    ("verify", "cp1", 0,
     "f33663c01caded52e7213aca4761a3caea606be2806f6d406588ee0f47b44ce1"),
    ("localize", "cp1-coupled", 0,
     "efbbb8499cf73facbd0edf4154c4fd216b981b352b41f9e38813a56dab00f11b"),
    ("toric", "cp1-coupled", 0,
     "23336d00ce8daf8a174be20b20ec89573404dee988f26332f57482489d1c051c"),
    ("roots", "cp1-coupled", 0,
     "f5a74573944504ed55119930e2ebd5aa6531e7a5817b483f82f8b857e431bc2b"),
    ("sample", "cp1-coupled", 0,
     "c0289ed1480d669a9befa7abda2d0910bd42f11197d3afd30eb18105e644cc81"),
    ("verify", "cp1-coupled", 0,
     "769e9dce51e9c8f58d0dbf4fdf4d94d064c9241bb1b80801d49497b1be89b0ea"),
    ("localize", "hultgren-c", 0,
     "508771f9a97624df2e5c54c856dde9f2ca34772880f3b9083ff5195360b590ea"),
    ("toric", "hultgren-c", 0,
     "5b7da70dfd7bd46bd7de1d789bbc640de290afd43d5e949883c75d77cc9784b9"),
    ("roots", "hultgren-c", 0,
     "4f9c4408e5cb79c41a9e4714ee51113fcb45f1941b9866e532ea25da1aed90b6"),
    ("sample", "hultgren-c", 0,
     "181b7a40e2e33ac9e9c21acfac59b03a25d499202bd7d4fb60224e65f83b1d1e"),
    ("verify", "hultgren-c", 5,
     "9021e84325c7fafc98529e187badfb1f67eb531ea6721cba7abce1d684c783c4"),
    ("localize", "hultgren-c-true", 0,
     "50e767db9ab21a97a0cd2a4bcab66acfe5f1a6a23185064a4c137b4c7b3d6f83"),
    ("toric", "hultgren-c-true", 0,
     "623bcd9435fbf2267c85fa797c4db528e945b91745c804bfb922de606e3e982f"),
    ("roots", "hultgren-c-true", 0,
     "2c2ed89ffbd276767fefbea57a92be3dffd84fce2679067079c098fae97f575f"),
    ("sample", "hultgren-c-true", 0,
     "7bf0b4372f10bcd5cf0637c240f6aec40c9d730ebcf217c1ebd4cb27d599bcd5"),
    ("verify", "hultgren-c-true", 0,
     "fef59b9924cdba0bbb3d766eba688b86253e0d970d049305064bfa4521a6f9bf"),
    ("localize", "hultgren-c-corrupt", 0,
     "0dda4a06be731a137c4edc24701eb1c48a33cb150c69cc8dc70e89ace7ed31aa"),
    ("toric", "hultgren-c-corrupt", 0,
     "ec045fd95c90c2e44edc527adaa0fda3fa4091e1596d67f199fab055fcee22bb"),
    ("roots", "hultgren-c-corrupt", 0,
     "6a204018019cba5e7c0a17552804b0726b201d6bd680e98978a25b1af5ceb981"),
    ("sample", "hultgren-c-corrupt", 0,
     "9cadcee343d032a513c773bbe50f7c5e39bc7b5259aa2fce57d9b8cfa852a080"),
    ("verify", "hultgren-c-corrupt", 5,
     "637eb11ad94367b2c01fafbc4893e899e05d0eb06f17e9c3bf734f5fc819738b"),
]


def at_one_half(fmt):
    return ("--format", fmt, "--param-value", "1/2")


AT_ONE_HALF = at_one_half("structured")
ALONG_Z = ("--direction", "0,0,1,0")
# the same for every text and csv call over the catalog (csv is not defined
# for verify, which exits 3 with nothing on stdout), for the values at
# --param-value 1/2 in every format, and for toric along an overriding
# --direction; each digest was recorded before the code it guards last
# changed, and is checked in process
FORMAT_GOLDEN = [
    ("localize", "cp1", ("--format", "text"), 0,
     "7172b7ed3f81dc102fd9a33990dd2cda937de9a7ecad59c0b744aa7b8ee87a0d"),
    ("toric", "cp1", ("--format", "text"), 0,
     "bb3b20049ae0e63670c28b39995ceedeb03cd38ad7a3d29807453da0b44a973b"),
    ("roots", "cp1", ("--format", "text"), 0,
     "d1d1abb1109a424929a7e0664eca6801fbe66e56a794d3377496e49b6460b909"),
    ("sample", "cp1", ("--format", "text"), 0,
     "c058d18066b38b1b81010f1f5cd547a0af8dff24991eb27f39b714a4e6234e9c"),
    ("verify", "cp1", ("--format", "text"), 0,
     "b0bd5f25f98aea03d66a4158095572136cf6df4e06ec77bc2033d5ddc75e773a"),
    ("localize", "cp1-coupled", ("--format", "text"), 0,
     "11115053e457fe76299655f3a883a7f813c994893d6a3af8b9432f6b6e08a47c"),
    ("toric", "cp1-coupled", ("--format", "text"), 0,
     "2b3f9059073b64b8b1a1b1f4765851ae96144491c4a4ec009105ca8c324ca2a4"),
    ("roots", "cp1-coupled", ("--format", "text"), 0,
     "91c60cda7237878fe0636cfca78e143ea73e0a7f089b41a4de1571aaeee82470"),
    ("sample", "cp1-coupled", ("--format", "text"), 0,
     "4d9b6c37f38e832d46c4864b941a9af79cec3694c60d4a413d8cfac1eb3eb64b"),
    ("verify", "cp1-coupled", ("--format", "text"), 0,
     "78e429c975bedc5c528b104a217b59f4f11625e70e2036d459702cf4c30e7e5a"),
    ("localize", "hultgren-c", ("--format", "text"), 0,
     "37573475702203f67b616d3b4a6fca136266d3ce4a9d03ec95a347601bf5a449"),
    ("toric", "hultgren-c", ("--format", "text"), 0,
     "a1ffd0770c222949ca33e04e75bad6a3d3a9535e7f10ccdc29b891702d9780d2"),
    ("roots", "hultgren-c", ("--format", "text"), 0,
     "743d30917a0864474dc76da2f47c6f6c38bd0fa7ef83d56af4fce28376dd4368"),
    ("sample", "hultgren-c", ("--format", "text"), 0,
     "98bbea219c68623f5d98c8e3e89038bfc3f3d7defbeff0172a370c29e72cb4b5"),
    ("verify", "hultgren-c", ("--format", "text"), 5,
     "3f1c1cf6a5b7e2caf1560cb0b825b019cc4be11251e2b7c2d06b56ed69b0e9d4"),
    ("localize", "hultgren-c-corrupt", ("--format", "text"), 0,
     "6d3788b3525a53aa92bff665614a4e63f9bee293ea4be04cdcd2bdbe8c08fb51"),
    ("toric", "hultgren-c-corrupt", ("--format", "text"), 0,
     "848a763360bfa7cb9db06d27a66bff540d3042922e87cdc5c3af94c8a119afb9"),
    ("roots", "hultgren-c-corrupt", ("--format", "text"), 0,
     "529978145ca82809d197ce3594e43b61abcb682a8681cee94600fb7622cb3fa7"),
    ("sample", "hultgren-c-corrupt", ("--format", "text"), 0,
     "c9d14cc493cfda79c2b18aaf88049cf33ab4ea3f621d155304bc01cda7e25eba"),
    ("verify", "hultgren-c-corrupt", ("--format", "text"), 5,
     "91a425ada801fdc5137e10348773620f8f9400a57509b8e9a0242c160af94874"),
    ("localize", "hultgren-c-true", ("--format", "text"), 0,
     "1b9fd91f781898a1cb9480710d94ec51246d407daa9f411151e432005987f726"),
    ("toric", "hultgren-c-true", ("--format", "text"), 0,
     "d4cd0d33afae503f4daccb23fc5813d9191389a1a40d88a1c2d80d62b76190ff"),
    ("roots", "hultgren-c-true", ("--format", "text"), 0,
     "c000511e8e6dea6e218a18f15bc28ddabb8b4d991fce14e97ffb5163e3828053"),
    ("sample", "hultgren-c-true", ("--format", "text"), 0,
     "2efcc9f07c953d811942ea58b1035ba3ed8f8ef84a16601a67a472076bd54f70"),
    ("verify", "hultgren-c-true", ("--format", "text"), 0,
     "035ebf40d70351fdb43f257ee2d8c7eed00aa02a4646023cdc4ee70757f01de4"),
    ("localize", "cp1", ("--format", "csv"), 0,
     "63c86422b515fbf6db72cd53cf2480284ef5b6549056b54db9ecd39eb7aeacb2"),
    ("toric", "cp1", ("--format", "csv"), 0,
     "63c86422b515fbf6db72cd53cf2480284ef5b6549056b54db9ecd39eb7aeacb2"),
    ("roots", "cp1", ("--format", "csv"), 0,
     "5cf9c95c07258d747b53ab0af21e5f4b50d828a96866896641eea2192367a9cc"),
    ("sample", "cp1", ("--format", "csv"), 0,
     "63c86422b515fbf6db72cd53cf2480284ef5b6549056b54db9ecd39eb7aeacb2"),
    ("verify", "cp1", ("--format", "csv"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("localize", "cp1-coupled", ("--format", "csv"), 0,
     "63c86422b515fbf6db72cd53cf2480284ef5b6549056b54db9ecd39eb7aeacb2"),
    ("toric", "cp1-coupled", ("--format", "csv"), 0,
     "63c86422b515fbf6db72cd53cf2480284ef5b6549056b54db9ecd39eb7aeacb2"),
    ("roots", "cp1-coupled", ("--format", "csv"), 0,
     "5cf9c95c07258d747b53ab0af21e5f4b50d828a96866896641eea2192367a9cc"),
    ("sample", "cp1-coupled", ("--format", "csv"), 0,
     "63c86422b515fbf6db72cd53cf2480284ef5b6549056b54db9ecd39eb7aeacb2"),
    ("verify", "cp1-coupled", ("--format", "csv"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("localize", "hultgren-c", ("--format", "csv"), 0,
     "e5504d5f3c864e132f5c5fdab23cf8af7ff79af295d4edd4f30441ab5614a4ee"),
    ("toric", "hultgren-c", ("--format", "csv"), 0,
     "30c1cb52544d3825d70087e41cdab59f6e3df04c1916390267e1a779f22dbb8b"),
    ("roots", "hultgren-c", ("--format", "csv"), 0,
     "ae803c7fb70e4c41720cb6b29c6cf0d779e780da98a700ebc9b06eaf851ace8f"),
    ("sample", "hultgren-c", ("--format", "csv"), 0,
     "e5504d5f3c864e132f5c5fdab23cf8af7ff79af295d4edd4f30441ab5614a4ee"),
    ("verify", "hultgren-c", ("--format", "csv"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("localize", "hultgren-c-corrupt", ("--format", "csv"), 0,
     "02114edcb11b518998f95697beb998460e7f4e46c48fb9e185558d53fa6bcb77"),
    ("toric", "hultgren-c-corrupt", ("--format", "csv"), 0,
     "30c1cb52544d3825d70087e41cdab59f6e3df04c1916390267e1a779f22dbb8b"),
    ("roots", "hultgren-c-corrupt", ("--format", "csv"), 0,
     "5cf9c95c07258d747b53ab0af21e5f4b50d828a96866896641eea2192367a9cc"),
    ("sample", "hultgren-c-corrupt", ("--format", "csv"), 0,
     "02114edcb11b518998f95697beb998460e7f4e46c48fb9e185558d53fa6bcb77"),
    ("verify", "hultgren-c-corrupt", ("--format", "csv"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("localize", "hultgren-c-true", ("--format", "csv"), 0,
     "30c1cb52544d3825d70087e41cdab59f6e3df04c1916390267e1a779f22dbb8b"),
    ("toric", "hultgren-c-true", ("--format", "csv"), 0,
     "30c1cb52544d3825d70087e41cdab59f6e3df04c1916390267e1a779f22dbb8b"),
    ("roots", "hultgren-c-true", ("--format", "csv"), 0,
     "ae803c7fb70e4c41720cb6b29c6cf0d779e780da98a700ebc9b06eaf851ace8f"),
    ("sample", "hultgren-c-true", ("--format", "csv"), 0,
     "30c1cb52544d3825d70087e41cdab59f6e3df04c1916390267e1a779f22dbb8b"),
    ("verify", "hultgren-c-true", ("--format", "csv"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("localize", "cp1", AT_ONE_HALF, 0,
     "c86e5d1bd31ae3bc1a53323e726a1e0e15affd76e9cd6da763b5a63b2f3bd2ba"),
    ("localize", "cp1-coupled", AT_ONE_HALF, 0,
     "f90fb0bcc6bd55da6ed1b1a1b23fc7f8753d38d09c3cf2b67e2fb7fb4b3749e8"),
    ("localize", "hultgren-c", AT_ONE_HALF, 0,
     "3453fcf4eb50d7ce6ddfff837f0faf82b414501ab98d8e6192b9ae67186a1457"),
    ("localize", "hultgren-c-corrupt", AT_ONE_HALF, 0,
     "7bdf38d5695c92ad4d8222abe8ec93d175341506c6de8bcd043abf2a5963862a"),
    ("localize", "hultgren-c-true", AT_ONE_HALF, 0,
     "2b55d305d3204604b8e584a50ee1236c34b452509b863c4a66d3f05b76205af1"),
    ("toric", "cp1", AT_ONE_HALF, 0,
     "637a3cce83df59ece9f1214431c41b4aed3d875d062c737b7efc64f850dba8da"),
    ("toric", "cp1-coupled", AT_ONE_HALF, 0,
     "0637fcd812748e1d96ffe4a529769577c1fa60f6cc741fb568681cd7775e4793"),
    ("toric", "hultgren-c", AT_ONE_HALF, 0,
     "e90ae06b56355f97ab817e0883c3d3d7d0117a2123f40700c4186fa0da6d1a76"),
    ("toric", "hultgren-c-corrupt", AT_ONE_HALF, 0,
     "f6bbffb2231d20c9d91a4c752c95c375da5544549ec19815415c61348f32dd28"),
    ("toric", "hultgren-c-true", AT_ONE_HALF, 0,
     "19fab7eaec18e893ce5093b7a28443c957c65c5b675296369c4d0b862a6dcc01"),
    ("localize", "cp1", at_one_half("text"), 0,
     "370c585f6f3a1ece8899596b748d5fa9b4c5a2b5a4d6d2817f08c03dab5fa8d1"),
    ("localize", "cp1-coupled", at_one_half("text"), 0,
     "ad57c3ae0b039d99a67fa30ec776876f21aed1b2f81e88f259d3ebf6adb3c0c9"),
    ("localize", "hultgren-c", at_one_half("text"), 0,
     "860525c79150e18f460ab90a350f5bee76016430e70368638cc1ae9c90fe4a45"),
    ("localize", "hultgren-c-corrupt", at_one_half("text"), 0,
     "95230bde50be42230410a6b2e04ff946c66e41e2360982f970df1a95d743fef7"),
    ("localize", "hultgren-c-true", at_one_half("text"), 0,
     "fa080ba35b189af4933bc55d482f422624ab7fc76fce4115f6f5891804e18fde"),
    ("toric", "cp1", at_one_half("text"), 0,
     "4f44cc9387d20d6022aca292b2061f0bcb7cfefdfd02b39f9f957aee878c1d57"),
    ("toric", "cp1-coupled", at_one_half("text"), 0,
     "8afe32ed9f228bde5b51242b21a817818e2bed8e6282d9351c879411f1f819cc"),
    ("toric", "hultgren-c", at_one_half("text"), 0,
     "ab4b93db20efd01aa29a919c0d9eb49bb7c33fd9546725359962bd23057c0a16"),
    ("toric", "hultgren-c-corrupt", at_one_half("text"), 0,
     "366f11a4350e25afa48997310ad47ea41d04b0ec93bd3d780b963fff18896a78"),
    ("toric", "hultgren-c-true", at_one_half("text"), 0,
     "3a807efc2b905acd1de89f6945fc9605b222c0011669e734d3625b3f6493ea01"),
    ("localize", "cp1", at_one_half("csv"), 0,
     "4344e19f0eb9e7125bbbe4ce4b0eb77e927bc24da8041d66590917a4d36778e0"),
    ("localize", "cp1-coupled", at_one_half("csv"), 0,
     "4344e19f0eb9e7125bbbe4ce4b0eb77e927bc24da8041d66590917a4d36778e0"),
    ("localize", "hultgren-c", at_one_half("csv"), 0,
     "41516b94e0ed58a21d83f449f7616f9a67e0612a0d8f9df16ca7560217d0a4fd"),
    ("localize", "hultgren-c-corrupt", at_one_half("csv"), 0,
     "d2a1a9d547ff758bec16ca5662dec64bff3e3dfc27d0e4a3d665e51e246a5d10"),
    ("localize", "hultgren-c-true", at_one_half("csv"), 0,
     "e25320f500f02d79ef4f94cb6d7be390191c1f80d06c36c7f70460d7756f6efc"),
    ("toric", "cp1", at_one_half("csv"), 0,
     "4344e19f0eb9e7125bbbe4ce4b0eb77e927bc24da8041d66590917a4d36778e0"),
    ("toric", "cp1-coupled", at_one_half("csv"), 0,
     "4344e19f0eb9e7125bbbe4ce4b0eb77e927bc24da8041d66590917a4d36778e0"),
    ("toric", "hultgren-c", at_one_half("csv"), 0,
     "e25320f500f02d79ef4f94cb6d7be390191c1f80d06c36c7f70460d7756f6efc"),
    ("toric", "hultgren-c-corrupt", at_one_half("csv"), 0,
     "e25320f500f02d79ef4f94cb6d7be390191c1f80d06c36c7f70460d7756f6efc"),
    ("toric", "hultgren-c-true", at_one_half("csv"), 0,
     "e25320f500f02d79ef4f94cb6d7be390191c1f80d06c36c7f70460d7756f6efc"),
    ("toric", "hultgren-c", ("--format", "text") + ALONG_Z, 0,
     "c7e117089b1a1286595fdda68e85b7126f066169e7d9cf6f7a1a1b6c02573a1e"),
    ("toric", "hultgren-c", ("--format", "structured") + ALONG_Z, 0,
     "56a7de12607d8c55018cea7fa98e111de390fd23d4e7885b4a3446d4e77a3aa4"),
    ("toric", "hultgren-c", ("--format", "csv") + ALONG_Z, 0,
     "168c427be248b04b251f67ef7b40ffb4fac4f120c64aa406d9f73442e54c115c"),
]


class TestCliOversizedInput:
    @pytest.mark.parametrize("argv", [
        ("sample", "--samples=1e-5000"),
        ("verify", "--samples=1e-5000"),
        ("roots", "--root-width", "1e-10000"),
        ("roots", "--root-width", "1e-30000"),
    ])
    def test_oversized_rational_is_a_parse_error(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], "--catalog", "hultgren-c",
                             *argv[1:])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "--samples" in err or "--root-width" in err
        assert "1024 bits" in err

    @pytest.mark.parametrize("site,where", [
        (("dimension",), "scenario.dimension"),
        (("bundles",), "scenario.bundles"),
        (("rings", "a-b-ring", "dimension"), "rings.a-b-ring.dimension"),
        (("rings", "a-b-ring", "generators", 0, "order"),
         "rings.a-b-ring.generators[0].order"),
        (("rings", "a-b-ring", "generators", 0, "degree"),
         "rings.a-b-ring.generators[0].degree"),
        (("rings", "a-b-ring", "top", "a"), "rings.a-b-ring.top"),
        (("components", 0, "codimension"), "components[0].codimension"),
        (("toric", "ambient"), "toric.ambient"),
        (("toric", "direction", 0), "toric.direction"),
        (("toric", "polytopes", 0, "facets", 0, "normal", 0),
         "toric.polytopes[0].facets[0].normal"),
        (("toric", "anticanonical", "facets", 0, "normal", 0),
         "toric.anticanonical.facets[0].normal"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_json_integer_fields_are_bounded(self, capsys, tmp_path, site,
                                             where):
        data = scenario_to_dict(load("hultgren-c"))
        node = data
        for key in site[:-1]:
            node = node[key]
        message = "%s: integer exceeds the limit of 1024 bits" % where
        for value in (2 ** 1024, -2 ** 1024):  # 1025 bits
            node[site[-1]] = value
            with pytest.raises(ParseError) as exc:
                scenario_from_dict(data)
            assert str(exc.value) == message
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        assert run(capsys, "localize", "--scenario", str(path)) == (
            2, "", "error: %s\n" % message)
        node[site[-1]] = 2 ** 1024 - 1  # 1024 bits: other checks may refuse
        try:
            scenario_from_dict(data)
        except EngineError as exc:
            assert "bits" not in str(exc)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_direction_entries_are_bounded(self, capsys, sign):
        wide, widest = sign + str(2 ** 1024 - 1), sign + str(2 ** 1024)
        code, out, err = run(capsys, "toric", "--catalog", "cp1",
                             "--direction", widest)  # 1025 bits
        assert (code, out) == (2, "")
        assert err.endswith("coupledfut toric: error: argument --direction: "
                            "a direction entry exceeds 1024 bits\n")
        code, out, err = run(capsys, "toric", "--catalog", "cp1",
                             "--direction", wide)  # 1024 bits
        assert (code, err) == (0, "")
        assert "direction: %s\n" % wide in out

    def test_narrowest_benchmark_width_is_accepted(self, capsys):
        code, out, _ = run(capsys, "roots", "--catalog", "hultgren-c",
                           "--root-width", "9e-304")
        assert code == 0
        assert "bracket width: at most 9/1" in out

    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_sample_count_is_bounded(self, capsys, command):
        code, out, err = run(capsys, command, "--catalog", "hultgren-c",
                             "--samples", "1001")
        assert (code, out) == (3, "")
        assert "1001 samples exceed the limit 1000" in err

    @pytest.mark.parametrize("command", ["verify", "sample"])
    @pytest.mark.parametrize("count", [
        str(2 ** 1024), str(2 ** 3000), "1" * 5000, "-" + str(2 ** 1024)],
        ids=["2^1024", "2^3000", "5000-digits", "-2^1024"])
    def test_sample_count_integer_is_bounded(self, capsys, command, count):
        # also a count too long for int(), which is not read as a rational
        assert run(capsys, command, "--catalog", "cp1", "--samples",
                   count) == (2, "", "error: --samples: integer exceeds "
                                     "the limit of 1024 bits\n")
        widest = str(2 ** 1024 - 1)  # 1024 bits: the count limit refuses it
        assert run(capsys, command, "--catalog", "cp1", "--samples",
                   widest) == (3, "", "error: %s samples exceed the limit "
                                      "1000\n" % widest)

    @pytest.mark.parametrize("site", ["scenario", "ring", "monomials"])
    def test_dimension_and_ring_size_are_bounded(self, capsys, tmp_path,
                                                 site):
        data = scenario_to_dict(load("hultgren-c"))
        if site == "scenario":
            data["dimension"] = MAX_DIMENSION + 1
            message = "scenario: dimension %d" % (MAX_DIMENSION + 1)
        else:
            # one generator of dimension MAX_DIMENSION + 1, or five whose top
            # exponents 5, 4, 3, 2, 2 reach dimension 16 and give the
            # smallest table above 1024 monomials: 6*5*4*3*3 = 1080
            tops = ([MAX_DIMENSION + 1] if site == "ring" else [5, 4, 3, 2, 2])
            data["rings"]["big"] = {
                "generators": [{"name": "g%d" % i, "order": e + 1,
                                "degree": 2} for i, e in enumerate(tops)],
                "top": {"g%d" % i: e for i, e in enumerate(tops)},
                "dimension": sum(tops)}
            message = ("rings.big: dimension %d" % (MAX_DIMENSION + 1)
                       if site == "ring" else
                       "rings.big: monomial table size 1080")
        assert MAX_DIMENSION == 16 and MAX_RING_MONOMIALS == 1024
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        code, out, err = run(capsys, "localize", "--scenario", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "%s exceeds the limit" % message in err

    @pytest.mark.parametrize("site,depth,message", [
        ("parentheses", 300, "components[0].bundles[0].hamiltonian: "
                             "expression nested too deeply"),
        ("minus signs", 1200, "components[0].bundles[0].hamiltonian: "
                              "expression nested too deeply"),
        ("arrays", 100000, "invalid JSON: maximum recursion depth exceeded"),
        ("objects", 100000, "invalid JSON: maximum recursion depth exceeded"),
    ])
    def test_deep_nesting_is_a_parse_error(self, capsys, tmp_path, site,
                                           depth, message):
        data = scenario_to_dict(load("cp1"))
        if site == "parentheses":
            hamiltonian = "(" * depth + "1" + ")" * depth
        else:
            hamiltonian = "-" * depth + "1"
        data["components"][0]["bundles"][0]["hamiltonian"] = hamiltonian
        text = {"arrays": "[" * depth + "]" * depth,
                "objects": '{"a":' * depth + "1" + "}" * depth}.get(
                    site, json.dumps(data))
        path = tmp_path / "deep.json"
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = run(capsys, "localize", "--scenario", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("site,n,code", [
        ("polytopes", 6, 0), ("polytopes", 9, 2), ("anticanonical", 10, 2)])
    def test_polytope_set_up_is_bounded(self, capsys, tmp_path, site, n, code):
        # the n-cube [-c, 1]^n has C(2n, n) facet n-subsets: 924 for n = 6
        # fits under MAX_FACET_SUBSETS, 48620 and 184756 do not
        data = points_in_dimension(n)
        cube = {"facets": [{"normal": [s * (i == j) for j in range(n)],
                            "offset": offset}
                           for i in range(n)
                           for s, offset in ((1, "1"), (-1, "c"))]}
        data["toric"] = {"ambient": n, "direction": [1] * n,
                         "polytopes": [cube]}
        if site == "anticanonical":
            data["toric"]["polytopes"] = [simplex_block(n)]
            data["toric"]["anticanonical"] = cube
        path = tmp_path / "cube.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        got, _, err = run(capsys, "localize", "--scenario", str(path))
        assert time.perf_counter() - start < 1
        assert got == code
        if code:
            count = math.comb(2 * n, n)
            assert err == ("error: toric.%s: facet subset count C(%d, %d) = "
                           "%d exceeds the limit %d\n" % (
                               site + "[0]" * (site == "polytopes"),
                               2 * n, n, count, MAX_FACET_SUBSETS))

    @pytest.mark.parametrize("command", ["toric", "verify"])
    @pytest.mark.parametrize("a", [7, 8])
    def test_star_triangulation_is_bounded(self, capsys, tmp_path, command,
                                           a):
        # Δ^a × Δ^a has 2a + 2 facets, few subsets for the set-up bound, and
        # C(2a, a) simplices in its star: 3432 and 12870 pass MAX_SIMPLICES
        n = 2 * a
        data = points_in_dimension(n)
        data["parameter"]["interval"] = ["1/4", "3/4"]
        facets = [{"normal": [-int(j == i) for j in range(n)], "offset": "0"}
                  for i in range(n)]
        facets += [{"normal": [int((j < a) == first) for j in range(n)],
                    "offset": offset}
                   for first, offset in ((True, "1+c"), (False, "2-c"))]
        data["toric"] = {"ambient": n, "direction": [1] * n,
                         "polytopes": [{"facets": facets}]}
        path = tmp_path / "square.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--scenario", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == ("error: the star triangulation exceeds the limit of "
                       "%d simplices\n" % MAX_SIMPLICES)

    @staticmethod
    def steep_simplex(tmp_path, n, k):
        """The n-simplex with offset 1+c^k on (1/4, 3/4), whose volume has
        degree n*k."""
        data = points_in_dimension(n)
        data["parameter"]["interval"] = ["1/4", "3/4"]
        data["toric"] = {"ambient": n, "direction": [1] * n,
                         "polytopes": [simplex_block(n, "1+c^%d" % k)]}
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("command", ["toric", "verify"])
    @pytest.mark.parametrize("k", [99, 100])
    def test_chamber_curve_degree_is_bounded(self, capsys, tmp_path, command,
                                             k):
        # the chamber curves would have degree 9k, past root finding's
        # bound
        path = self.steep_simplex(tmp_path, 9, k)
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--scenario", path)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == ("error: chamber curves of degree %d (ambient dimension "
                       "times offset degree) exceed the limit 100\n" % (9 * k))

    def test_largest_chamber_degree_is_computed(self, capsys, tmp_path):
        # the 4-simplex with offset 1+c^25: degree 4 * 25 = 100 exactly
        code, out, _ = run(capsys, "toric", "--scenario",
                           self.steep_simplex(tmp_path, 4, 25))
        assert code == 0
        # (1+c^25)^4/4!, and the barycenter's coordinate sum 4(1+c^25)/5
        assert ("polytope 0 volume: 1/24c^100+1/6c^75+1/4c^50+1/6c^25+1/24 "
                in out)
        assert "invariant: 4/5(c+1)(c^24-c^23+" in out

    @pytest.mark.parametrize("points", [400, 800])
    def test_euler_denominator_degree_is_bounded(self, capsys, tmp_path,
                                                 points):
        # isolated points with Euler scalars c+1, -c+1, c+2, -c+2, ...: each
        # brings a new linear factor, so the lcm of the Euler denominators
        # passes degree 100 at the 101st point
        data = scenario_to_dict(load("cp1"))
        del data["toric"]
        data["components"] = [
            {"label": "p%d" % i, "ring": "ring0", "codimension": 1,
             "euler": {"scalar": "%sc+%d" % ("-" * (i % 2), i // 2 + 1),
                       "classes": {}},
             "bundles": [{"hamiltonian": str(i % 3), "chern": {}}]}
            for i in range(points)]
        path = tmp_path / "points.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        code, out, err = run(capsys, "localize", "--scenario", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == ("error: component 'p100': the lcm of the Euler "
                       "denominators has degree 101, past the limit 100\n")

    @pytest.mark.parametrize("k,code", [(6, 0), (7, 3), (12, 3)])
    def test_root_finding_degree_is_bounded(self, capsys, tmp_path, k, code):
        # two isolated points at dimension 16: a Hamiltonian of degree k
        # gives bundle 1 a volume of degree 16k, which the positivity check
        # hands to the root kernel first
        data = scenario_to_dict(load("cp1-coupled"))
        del data["toric"]
        data["dimension"] = 16
        first, second = data["components"]
        first["euler"]["scalar"], second["euler"]["scalar"] = "1", "-1"
        for comp, hamiltonians in ((first, ("2", "-(2c+1)/3+c^%d-1" % k)),
                                   (second, ("1", "1/2"))):
            comp["codimension"] = 16
            for bundle, h in zip(comp["bundles"], hamiltonians):
                bundle["hamiltonian"] = h
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        got, out, err = run(capsys, "localize", "--scenario", str(path),
                            "--format", "structured")
        assert got == code
        if code == 0:
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "6c4e5df9a0d177c3a6d9d6d151ef55abcd07d1c5455d0cca6699001e850c6926")
        else:
            assert time.perf_counter() - start < 1
            assert err == ("error: bundle 1 volume: a polynomial of degree %d "
                           "exceeds the limit 100 of exact root finding\n"
                           % (16 * k))

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_root_finding_refusal_names_the_volume(self, capsys, tmp_path,
                                                    command):
        # bundle 0's volume, of degree 4 * 50, in the positivity check
        data = scenario_to_dict(load("hultgren-c-true"))
        data["components"][0]["bundles"][0]["hamiltonian"] = "c^50"
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(data))
        assert run(capsys, command, "--scenario", str(path)) == (
            3, "", "error: bundle 0 volume: a polynomial of degree 200 "
                   "exceeds the limit 100 of exact root finding\n")

    @pytest.fixture
    def digit_limit(self):
        """The interpreter's limit of printable digits, restored after."""
        before = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(before)

    @staticmethod
    def widest_values(tmp_path):
        """Two scenarios within every bound whose outputs pass 4300 digits:
        isolated points at dimension 16 with a 1001-bit Hamiltonian, whose
        volume is 2^16000 - 1, and a 16-simplex of that size."""
        wide = "(2^100)^10"
        points = points_in_dimension(MAX_DIMENSION)
        del points["toric"]
        for comp, hamiltonian in zip(points["components"], ("1", wide)):
            comp["bundles"][0]["hamiltonian"] = hamiltonian
        simplex = points_in_dimension(MAX_DIMENSION)
        simplex["toric"] = {"ambient": MAX_DIMENSION,
                            "direction": [1] * MAX_DIMENSION,
                            "polytopes": [simplex_block(MAX_DIMENSION, wide)]}
        paths = []
        for name, data in (("points", points), ("simplex", simplex)):
            paths.append(tmp_path / ("%s.json" % name))
            paths[-1].write_text(json.dumps(data))
        return [str(path) for path in paths]

    def test_values_past_the_printing_limit_are_refused(self, capsys,
                                                         tmp_path,
                                                         digit_limit):
        digit_limit(4300)
        refused = []
        for path in self.widest_values(tmp_path):
            for command in COMMANDS:
                for fmt in FORMATS:
                    code, out, err = run(capsys, command, "--scenario", path,
                                         "--format", fmt)
                    assert code in (0, 3), (path, command, fmt, err)
                    if code:
                        assert out == "" and err.count("\n") == 1, err
                        assert err.startswith("error: "), err
                    if "printing limit" in err:
                        refused.append((Path(path).stem, command, fmt, err))
        message = ("error: a number of %d digits exceeds the printing limit "
                   "of 4300 digits\n")
        assert ("points", "localize", "text", message % 4817) in refused
        assert ("simplex", "toric", "structured", message % 4812) in refused
        assert {(name, command) for name, command, _, _ in refused} == {
            ("points", "localize"), ("points", "roots"), ("points", "sample"),
            ("simplex", "toric"), ("simplex", "verify")}

    def test_no_printing_limit_prints_every_digit(self, capsys, tmp_path,
                                                  digit_limit):
        digit_limit(0)
        points = self.widest_values(tmp_path)[0]
        code, out, err = run(capsys, "localize", "--scenario", points)
        assert (code, err) == (0, "")
        assert "bundle 0 equivariant volume: %d\n" % (2 ** 16000 - 1) in out


class TestStructuredGolden:
    @pytest.mark.parametrize("command,name,code,digest", STRUCTURED_GOLDEN)
    def test_stdout_and_exit_code_are_pinned(self, capsys, command, name,
                                             code, digest):
        got, out, _ = run(
            capsys, command, "--catalog", name, "--format", "structured"
        )
        assert got == code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("command,name,code,digest", STRUCTURED_GOLDEN)
    def test_the_process_entry_prints_the_same(self, command, name, code,
                                               digest):
        proc = subprocess.run(
            [sys.executable, "-m", "coupledfut.cli", command, "--catalog",
             name, "--format", "structured"],
            capture_output=True, env=checkout_env())
        assert proc.returncode == code, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest

    def test_every_subcommand_and_entry_is_pinned(self):
        pairs = {(cmd, name) for cmd, name, _, _ in STRUCTURED_GOLDEN}
        commands = ("localize", "toric", "roots", "sample", "verify")
        assert pairs == {(c, n) for c in commands for n in ALL_NAMES}

    @pytest.mark.parametrize("command,name,options,code,digest",
                             FORMAT_GOLDEN)
    def test_text_csv_and_values_are_pinned(self, capsys, command, name,
                                            options, code, digest):
        got, out, _ = run(capsys, command, "--catalog", name, *options)
        assert got == code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_every_format_is_pinned(self):
        calls = {(cmd, name, options) for cmd, name, options, _, _
                 in FORMAT_GOLDEN}
        commands = ("localize", "toric", "roots", "sample", "verify")
        assert calls == {(c, n, ("--format", f)) for c in commands
                         for n in ALL_NAMES for f in ("text", "csv")} | {
            (c, n, at_one_half(f)) for c in ("localize", "toric")
            for n in ALL_NAMES for f in FORMATS} | {
            ("toric", "hultgren-c", ("--format", f) + ALONG_Z)
            for f in FORMATS}


# one sha256 over every call of the benchmark's four workloads at seed 1,
# and over the paths those calls never take, in text and structured: argv
# (the scenario directory as <DIR>), exit code, stdout and stderr
WORKLOAD_GOLDEN = ("89cb523018a8d28ac2687439e05379c0"
                   "cda32169506950e7b0b1fb6fe3ea7a07")


class TestWorkloadGolden:
    def test_benchmark_calls_are_pinned(self, capsys, monkeypatch, tmp_path):
        bench = perfbench_module(monkeypatch, "run")
        argvs = []
        for make_calls, _ in bench.WORKLOADS.values():
            cases, calls, _ = make_calls(1)
            bench.write_inputs(cases, str(tmp_path))
            argvs += [call.argv(str(tmp_path)) for call in calls]
        assert len(argvs) == 62
        data = scenario_to_dict(load("cp1"))
        del data["toric"]
        (tmp_path / "cp1-no-toric.json").write_text(json.dumps(data))
        for fmt in ("text", "structured"):
            tail = ("--format", fmt)
            argvs += [
                ["toric", "--catalog", "hultgren-c", "--direction",
                 "-1,0,0,1", *tail],
                ["localize", "--catalog", "hultgren-c", "--param-value",
                 "1/3", *tail],
                ["toric", "--catalog", "hultgren-c", "--param-value", "1/3",
                 *tail],
                ["verify", "--scenario", "%s/cp1-no-toric.json" % tmp_path,
                 *tail]]
        digest = hashlib.sha256()
        for argv in argvs:
            shown = [a.replace(str(tmp_path), "<DIR>") for a in argv]
            digest.update(json.dumps([shown, *run(capsys, *argv)])
                          .encode("utf-8"))
        assert digest.hexdigest() == WORKLOAD_GOLDEN


class TestCliArgumentHandling:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "nope", "--catalog", "cp1")
        assert code == 2

    def test_catalog_and_scenario_are_exclusive(self, capsys):
        code, _, err = run(
            capsys, "localize", "--catalog", "hultgren-c", "--scenario", "x.json"
        )
        assert code == 2
        assert "not allowed with" in err

    def test_one_source_is_required(self, capsys):
        code, _, err = run(capsys, "localize")
        assert code == 2

    @pytest.mark.parametrize("name", ["nope", "", "--", "-h"])
    def test_unknown_catalog_name(self, capsys, name):
        code, _, err = run(capsys, "localize", "--catalog", name)
        assert code == 3
        assert "unknown catalog scenario %r" % name in err

    @pytest.mark.parametrize("argv,code,shown", [
        (("toric", "--catalog", "hultgren-c-true", "--direction", "-1,0,0,1"),
         0, "direction: -1,0,0,1"),
        (("localize", "--catalog", "cp1", "--param-value", "-1/2"), 3,
         "error: --param-value -1/2 is outside the validity interval"),
        (("roots", "--catalog", "cp1", "--root-width", "-1/2"), 3,
         "error: --root-width must be positive"),
    ])
    def test_a_dash_value_reaches_the_subcommand(self, capsys, argv, code,
                                                 shown):
        got, out, err = run(capsys, *argv)
        assert got == code
        assert shown in (out if code == 0 else err)

    def test_missing_scenario_file(self, capsys):
        code, _, err = run(capsys, "localize", "--scenario", "/does/not/exist.json")
        assert code == 2
        assert "cannot read scenario file" in err


REPO_ROOT = Path(__file__).resolve().parents[1]


def checkout_env():
    """The inherited environment with this checkout's src first on PYTHONPATH.

    A child process then imports the same coupledfut as these tests, whatever
    its working directory and whatever copy is installed in site-packages.
    """
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def declared_script(name):
    """The ``module:function`` value of ``[project.scripts][name]`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from coupledfut.cli import main; sys.exit(main(sys.argv[1:]))",
             "localize", "--catalog", "cp1"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0
        assert "scenario: cp1" in proc.stdout

    def test_installed_script(self):
        # Runs the declared entry point the way an installed console-script
        # wrapper does: no arguments passed, main() reads sys.argv itself.
        module, sep, function = declared_script("coupledfut").partition(":")
        assert sep and module and function
        wrapper = (
            "import sys\n"
            "from %s import %s\n"
            "sys.argv[0] = 'coupledfut'\n"
            "sys.exit(%s())\n" % (module, function, function)
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "verify", "--catalog", "hultgren-c"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 5, proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"])
class TestUnwritableOutput:
    # buffered, the write fails in the flush after main(); unbuffered, in
    # main() itself; either way the flush at exit must not report it again
    ARGV = [sys.executable, "-m", "coupledfut.cli", "localize", "--catalog",
            "cp1", "--format", "structured"]

    def failing_call(self, stdout, unbuffered):
        return subprocess.run(self.ARGV, stdout=stdout, stderr=subprocess.PIPE,
                              text=True, env=dict(checkout_env(),
                                                  PYTHONUNBUFFERED=unbuffered))

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this system")
    def test_full_device_is_one_error_line(self, unbuffered):
        with open("/dev/full", "w") as full:
            proc = self.failing_call(full, unbuffered)
        assert proc.returncode == 1
        assert proc.stderr == ("error: cannot write output: No space left on "
                               "device\n")

    def test_closed_pipe_is_one_error_line(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.failing_call(write_end, unbuffered)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write output: Broken pipe\n"


DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout, recorded with FORMAT_GOLDEN
DEMO_GOLDEN = {
    "01_exact_arithmetic.py":
        "2180eb90b8e80c8f5e872789cba174ea3d8625dd44c113048c818a92b39e94d0",
    "02_localization_flagship.py":
        "24f3dfdd57af6da0e6319d9e9bff3d9e151da1f2631792c302e88c5d80742774",
    "03_polytope_oracle.py":
        "552a2e83b7a082c01d4ced86647d547acc82981d537dc1ccb82c729775286124",
    "04_cross_validation.py":
        "835d207e58fad2f53e2bae0825ab239305f11263b63f29d7c130215e8f6448f5",
    "05_root_isolation.py":
        "988d574990884d50028765d2a87a19151a9707f2e5957e981556c7158574f364",
}


class TestDemos:
    def test_demos_are_found(self):
        assert len(DEMOS) >= 5
        assert [demo.name for demo in DEMOS] == sorted(DEMO_GOLDEN)

    @pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
    def test_demo_runs(self, demo):
        proc = subprocess.run(
            [sys.executable, str(demo)],
            capture_output=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_GOLDEN[demo.name]
