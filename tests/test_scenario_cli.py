"""Scenario files and the command line front end."""

import copy
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from coupledfut import (
    ParseError,
    catalog_names,
    load,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
    scenario_to_json,
    validate_scenario,
)
from coupledfut.cli import main
from coupledfut.rationals import MAX_DIMENSION, MAX_RING_MONOMIALS

ALL_NAMES = ("cp1", "cp1-coupled", "hultgren-c", "hultgren-c-corrupt", "hultgren-c-true")


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScenarioFiles:
    def test_catalog_listing(self):
        assert catalog_names() == ALL_NAMES

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
        catalog_names()
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

    def test_structural_parse_leaves_semantics_to_validation(self):
        # A bundle-count mismatch parses fine; validate_scenario rejects it.
        bad = copy.deepcopy(scenario_to_dict(load("hultgren-c")))
        bad["bundles"] = 1
        scn = scenario_from_dict(bad)
        report = validate_scenario(scn.localization)
        assert not report.ok
        assert any("restricts 2 bundles; scenario has 1" in m for m in report.messages)


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

    def test_pole_value_exits_with_computation_error(self, capsys):
        code, _, err = run(
            capsys, "localize", "--catalog", "hultgren-c", "--param-value", "3/56"
        )
        assert code == 4
        assert "pole at c = 3/56" in err

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
    @pytest.mark.parametrize("samples,outside", [
        ("-1/3,1/3", "-1/3"), ("1/2,3/4", "3/4"), ("1/4", "1/4")])
    def test_abscissa_outside_the_interval_exits_3(self, capsys, command,
                                                    samples, outside):
        code, out, err = run(capsys, command, "--catalog", "hultgren-c",
                             "--samples", samples)
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

    def test_csv_format_is_rejected(self, capsys):
        code, _, err = run(
            capsys, "verify", "--catalog", "hultgren-c", "--format", "csv"
        )
        assert code == 3
        assert "csv output is not defined for verify" in err

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
        (("localize", "--catalog", "cp1", "--param-value", "-1/2"), 0, "-1/2"),
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


class TestDemos:
    def test_demos_are_found(self):
        assert len(DEMOS) >= 5

    @pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
    def test_demo_runs(self, demo):
        proc = subprocess.run(
            [sys.executable, str(demo)],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
