"""Unscored probes: known-defect inputs, and the baseline reconciliation.

The known-defect probe runs inputs that the scored workloads do not: roots
of degree 3-5 invariants at the default bracket width 1/10^12, where the
printed 18-digit decimal is the bracket midpoint rather than the correctly
rounded value, and a quadratic with 21-digit coefficients, on which the
trial-division search for rational roots does not finish.  Every call goes
through the same checker and time bound as the scored runs, and each failed
call is listed.

The reconciliation traces cross_validate(hultgren-c-true, 5) and fut_roots in
process and prints the per-step times beside the ROADMAP baseline table.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction

import gen
import run

PROBE_TIMEOUT_S = 20

# ROADMAP baseline, hultgren-c-true in process, milliseconds
BASELINE_MS = (
    ("validate_scenario", 314),
    ("fut_localized", 107),
    ("power_sum", 27),
    ("volume_curve", 278),
    ("moment_curve", 336),
    ("fut_toric", 1183),
    ("fut_toric_at", 118),
    ("realize", 20),
    ("volume", 18),
    ("minkowski_check", 69),
    ("fut_roots", 19),
    ("cross_validate", 3000),
)


def defect_calls():
    rng = gen.seeded_rng("probe", 1)
    cases = [gen.sign_changing_box(rng, "sign%d" % d, 2, d) for d in (3, 4, 5)]
    big = gen.p_trim((Fraction(-(3 * 10 ** 20 + 7)), Fraction(0),
                      Fraction(10 ** 21 + 3)))
    cases.append(gen.box_with_invariant(rng, "wide-quadratic", 2, big))
    return cases, [run.Call("roots", case) for case in cases]


def main() -> int:
    cases, calls = defect_calls()
    scenario_dir = os.path.join(run.OUT, "probe")
    run.write_inputs(cases, scenario_dir)
    results = [run.run_subprocess(call, scenario_dir, PROBE_TIMEOUT_S)
               for call in calls]
    failures = run.check_results(cases, results)
    print("known-defect probe: %d calls, %d failed" % (len(results),
                                                        len(failures)))
    for res in results:
        print("  %-28s exit %3d  %.2f s%s" % (res.call.label, res.rc,
                                              res.wall_s,
                                              "  (timed out)" if res.timeout_s
                                              else ""))
    for f in failures:
        print("  FAILED %s: %s" % (f["call"], "; ".join(f["reasons"])))
    path = run._write_side_file("probe.json", {
        "machine": run.machine_record(), "failed_calls": failures,
        "calls": [{"call": r.call.label, "exit": r.rc, "wall_s": r.wall_s,
                   "timed_out": r.timeout_s is not None}
                  for r in results]})
    print("  side file: %s" % path)
    print(json.dumps({"attempted": len(results), "failed": len(failures)}))
    return 0


def reconcile() -> int:
    import layertrace
    from coupledfut import analysis, catalog, localization

    scn = catalog.load("hultgren-c-true")
    loc, model = scn.localization, scn.toric
    f = localization.fut_localized(loc)
    t0 = time.perf_counter()
    analysis.cross_validate(loc, model, 5)
    untraced = time.perf_counter() - t0

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        analysis.cross_validate(loc, model, 5)
        analysis.fut_roots(f, loc.interval)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    by_short = {name.split(".", 1)[1]: row for name, row in summary.items()}
    print("hultgren-c-true, traced in process (mean per call) vs ROADMAP")
    print("  %-18s %6s %10s %10s %7s" % ("step", "calls", "now ms",
                                         "ROADMAP ms", "ratio"))
    rows = []
    for step, base in BASELINE_MS:
        row = by_short[step]
        mean_ms = 1000 * row["inclusive_s"] / max(row["calls"], 1)
        ratio = mean_ms / base
        flag = "  <-- differs by more than 2x" if not 0.5 <= ratio <= 2 else ""
        print("  %-18s %6d %10.1f %10d %7.2f%s" % (step, row["calls"], mean_ms,
                                                   base, ratio, flag))
        rows.append({"step": step, "calls": row["calls"], "now_ms": mean_ms,
                     "roadmap_ms": base, "ratio": ratio})
    print("  untraced cross_validate(5): %.1f ms (ROADMAP 3000 ms)"
          % (1000 * untraced))
    path = run._write_side_file("reconcile.json", {
        "machine": run.machine_record(), "rows": rows,
        "untraced_cross_validate_ms": 1000 * untraced})
    print("  side file: %s" % path)
    return 0
