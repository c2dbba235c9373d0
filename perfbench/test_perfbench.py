"""Self-tests of the benchmark: generator, checker, tracer and spec.

Run from the root of a checkout with `python3 -m pytest perfbench -q`.
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import gen  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from coupledfut import cli  # noqa: E402


def _smallest_members():
    rng = gen.seeded_rng("self-test", 7)
    return [
        gen.box_family(rng, "box3", 3, 0, 2, True),
        gen.box_family(rng, "box3-zero1", 3, 1, 2, True),
        gen.simplex_family(rng, "simplex3", 3, 2),
        gen.sign_changing_box(rng, "sign3", 2, 3),
    ]


def _cli(tmp_path, call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(call.argv(str(tmp_path)))
    return rc, out.getvalue()


def test_smallest_members_verify_exactly_against_closed_forms(tmp_path):
    cases = _smallest_members()
    run.write_inputs(cases, str(tmp_path))
    for case in cases:
        cmd = "verify" if "toric" in case.data else "localize"
        call = run.Call(cmd, case)
        rc, stdout = _cli(tmp_path, call)
        assert rc == 0, case.name
        assert check.check_call(cmd, case, [], rc, stdout) == [], case.name


def test_box_with_zero_direction_entries_has_ring_components():
    comps = _smallest_members()[1].data["components"]
    assert len(comps) == 4
    assert all(comp["ring"] == "cp1x1" for comp in comps)


def test_sympy_localization_agrees_with_the_closed_forms():
    for case in _smallest_members():
        volumes, invariant = check.sympy_localization(case.data)
        assert volumes == case.volumes, case.name
        assert check.rf_equal(invariant, case.invariant), case.name


def test_catalog_reference_matches_the_documented_flagship():
    case = run._catalog_case("hultgren-c")
    check.fill_catalog_reference(case)
    # -3(112c^2-112c+23)/((56c-3)(56c-53)), twice the toric side
    toric = case.toric_invariant
    assert check.rf_equal(case.invariant,
                          (gen.p_scale(toric[0], Fraction(1, 2)), toric[1]))
    assert case.volumes == tuple(gen.p_scale(v, 2) for v in case.toric_volumes)


def test_checker_flags_wrong_roots(tmp_path):
    case = _smallest_members()[3]
    run.write_inputs([case], str(tmp_path))
    extra = ("--root-width", "1e-40")
    call = run.Call("roots", case, extra)
    rc, stdout = _cli(tmp_path, call)
    assert check.check_call("roots", case, list(extra), rc, stdout) == []
    good = json.loads(stdout)
    root = good["roots"][0]

    def broken(**change):
        bad = json.loads(stdout)
        bad["roots"][0].update(change)
        return json.dumps(bad)

    last = root["decimal"][-1]
    wrong_digit = root["decimal"][:-1] + ("1" if last != "1" else "2")
    assert check.check_call("roots", case, list(extra), 0,
                            broken(decimal=wrong_digit))
    assert check.check_call("roots", case, list(extra), 0,
                            broken(hi=str(Fraction(root["lo"]) + 1)))
    assert check.check_call("roots", case, list(extra), 3, stdout)


def test_checker_flags_wrong_values(tmp_path):
    case = _smallest_members()[2]
    run.write_inputs([case], str(tmp_path))
    rc, stdout = _cli(tmp_path, run.Call("verify", case))
    bad = json.loads(stdout)
    bad["samples"][0]["toric"] = "0"
    assert check.check_call("verify", case, [], rc, json.dumps(bad))


def test_tracer_counts_and_restores_bindings(tmp_path):
    from coupledfut import analysis, polytopes, rationals
    before = (analysis.realize, polytopes.realize, rationals.poly_gcd,
              analysis.poly_gcd)
    case = _smallest_members()[0]
    run.write_inputs([case], str(tmp_path))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert analysis.realize is polytopes.realize is not before[0]
        rc, _ = _cli(tmp_path, run.Call("verify", case))
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (analysis.realize, polytopes.realize, rationals.poly_gcd,
            analysis.poly_gcd) == before
    metrics = layertrace.layer_metrics(tracer)
    assert metrics["polytopes.realize_calls"] > 0
    assert metrics["localization.power_sum_calls"] > 0
    assert metrics["scenario.facets"] == sum(
        len(p["facets"]) for p in case.data["toric"]["polytopes"])
    assert 0 < metrics["polytopes.vertex_yield"] < 1
    assert metrics["cli.main_s"] >= metrics["analysis.cross_validate_s"] > 0


def test_tail_is_the_highest_percentile_with_ten_calls_beyond():
    value, pct = run.tail([float(i) for i in range(25)])
    assert (value, pct) == (14.0, 60.0)


def test_benchmark_json_is_the_spec():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == run.spec()
