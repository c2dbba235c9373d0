#!/usr/bin/env python3
"""End-to-end benchmark of the coupledfut command line, with a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog-cli --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, rewrites BENCHMARK.json
    python3 perfbench/run.py --probe                     # known-defect inputs, unscored
    python3 perfbench/run.py --reconcile                 # hultgren-c-true layer times vs ROADMAP

One closed-loop client drives the CLI: one subprocess at a time,
`python -m coupledfut.cli ... --format structured` with PYTHONPATH=src, each
call started only after the previous one ended.  A run makes rounds over the
workload's fixed call mix, each round in a seeded shuffled order: the first
round always completes, and further rounds run until --seconds have passed.
Times are reported at a fixed reference host speed: a short pure-Python
calibration loop is timed right before and after each call (and each set-up),
and the call's wall time is multiplied by CAL_REF_S over the mean of the two.
On a shared host the CPU can run up to 1.8x slower for stretches of seconds
to minutes, which moves every wall time of a run together; the scaling takes
that drift out, and the raw wall times stay in the side file.  Throughput is
calls per second of the summed per-call best times, so a partial last round
does not change the mix; latencies are order statistics over every call
made.  Every output of every round is then checked against an independent
reference.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports per-layer metrics from one in-process pass over the
same calls, each call run once untraced and once with the layer tracer
installed, plus the startup floor.  A side file
with every call, the machine record and (for traces) the span summary goes
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "coupledfut")
OUT = os.path.join(HERE, "out")

sys.path.insert(1, SRC)  # the checker reads catalog data through the engine
import check  # noqa: E402  (perfbench/ is the script directory)
import gen  # noqa: E402

RUN_SECONDS = 24
CALL_TIMEOUT_S = 60
SETUP_REPS = 3
STARTUP_REPS = 7
TAIL_BEYOND = 10
# Time of calibrate() on the reference host (2-vCPU Intel Xeon, Python
# 3.11.7) when undisturbed; times are reported at this host speed.
CAL_REF_S = 0.0104

CATALOG = ("cp1", "cp1-coupled", "hultgren-c", "hultgren-c-true",
           "hultgren-c-corrupt")
SUBCOMMANDS = ("localize", "toric", "roots", "sample", "verify")

END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    ("invocations_per_s", "1/s", "higher", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_tail_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

PER_LAYER = (
    ("coupledfut.interpreter_s", "s", "lower"),
    ("coupledfut.import_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("report.emit_s", "s", "lower"),
    ("report.output_bytes", "bytes", "lower"),
    ("scenario.parse_s", "s", "lower"),
    ("scenario.components", "count", "lower"),
    ("scenario.facets", "count", "lower"),
    ("localization.validate_scenario_s", "s", "lower"),
    ("localization.fut_localized_s", "s", "lower"),
    ("localization.volume_localized_s", "s", "lower"),
    ("localization.power_sum_calls", "count", "lower"),
    ("localization.power_sum_s", "s", "lower"),
    ("localization.power_sum_repeat_ratio", "ratio", "lower"),
    ("rings.equiv_pow_calls", "count", "lower"),
    ("rings.equiv_pow_s", "s", "lower"),
    ("rings.invert_unit_calls", "count", "lower"),
    ("rings.invert_unit_s", "s", "lower"),
    ("rings.integrate_calls", "count", "lower"),
    ("rationals.poly_gcd_calls", "count", "lower"),
    ("rationals.poly_gcd_s", "s", "lower"),
    ("rationals.ratfun_reduce_calls", "count", "lower"),
    ("rationals.interpolate_calls", "count", "lower"),
    ("rationals.interpolate_s", "s", "lower"),
    ("rationals.render_factored_s", "s", "lower"),
    ("rationals.max_coeff_bits", "bits", "lower"),
    ("polytopes.realize_calls", "count", "lower"),
    ("polytopes.realize_s", "s", "lower"),
    ("polytopes.realize_repeat_ratio", "ratio", "lower"),
    ("polytopes.vertex_yield", "ratio", "higher"),
    ("polytopes.triangulate_calls", "count", "lower"),
    ("polytopes.triangulate_s", "s", "lower"),
    ("polytopes.simplices", "count", "lower"),
    ("polytopes.volume_curve_s", "s", "lower"),
    ("polytopes.moment_curve_s", "s", "lower"),
    ("polytopes.fut_toric_at_s", "s", "lower"),
    ("polytopes.minkowski_check_s", "s", "lower"),
    ("analysis.cross_validate_s", "s", "lower"),
    ("analysis.fut_roots_s", "s", "lower"),
    ("analysis.isolate_roots_s", "s", "lower"),
    ("analysis.sturm_chain_calls", "count", "lower"),
    ("analysis.count_roots_open_calls", "count", "lower"),
    ("analysis.positive_on_interval_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Call:
    cmd: str
    case: gen.Case
    extra: tuple[str, ...] = ()

    def argv(self, scenario_dir: str) -> list[str]:
        return [self.cmd, *self.case.source_args(scenario_dir), *self.extra,
                "--format", "structured"]

    @property
    def label(self) -> str:
        return " ".join((self.cmd, self.case.name) + self.extra)


def _catalog_case(name: str) -> gen.Case:
    # the checker fills in the interval and references from the catalog
    return gen.Case(name, (gen.Fraction(0), gen.Fraction(1)), catalog=name)


def catalog_cli(seed: int):
    cases = [_catalog_case(name) for name in CATALOG]
    calls = [Call(cmd, case) for case in cases for cmd in SUBCOMMANDS]
    return cases, calls, calls[0]


def polytope_ladder(seed: int):
    rng = gen.seeded_rng("polytope-ladder", seed)
    # box3 carries two bundles, so the Minkowski check sums two polytopes
    cases = [gen.box_family(rng, "box%d" % n, n, 0, bundles, True)
             for n, bundles in ((3, 2), (4, 1))]
    cases += [gen.simplex_family(rng, "simplex%d" % n, n, 1)
              for n in (3, 4, 5, 6)]
    calls = [Call(cmd, case) for case in cases for cmd in ("toric", "verify")]
    return cases, calls, Call("toric", cases[2])


def residue_ladder(seed: int):
    rng = gen.seeded_rng("residue-ladder", seed)
    cases = [gen.box_family(rng, "cube%d-zero%d" % (n, j), n, j, 1, False)
             for n, j in ((5, 0), (6, 0), (5, 3), (6, 5))]
    calls = [Call(cmd, case) for case in cases
             for cmd in ("localize", "sample", "roots")]
    return cases, calls, calls[0]


def _width(rng, k: int) -> tuple[str, str]:
    """--root-width d/10^k' with d in 1..9 and k' in k..k+4."""
    return ("--root-width",
            "%de-%d" % (rng.randint(1, 9), k + rng.randint(0, 4)))


def roots_fine(seed: int):
    rng = gen.seeded_rng("roots-fine", seed)
    flagship = [_catalog_case(name) for name in ("hultgren-c",
                                                  "hultgren-c-true")]
    boxes = [gen.sign_changing_box(rng, "sign%d" % d, 2, d) for d in (3, 4, 5)]
    calls = [Call("roots", case, _width(rng, k))
             for case in flagship for k in (30, 300)]
    calls += [Call("roots", case, _width(rng, k))
              for case in boxes for k in (30, 100, 300)]
    return flagship + boxes, calls, calls[4]


WORKLOADS = {
    # name: (function making the cases and calls from a seed, why)
    "catalog-cli": (
        catalog_cli,
        "every subcommand on every catalog entry with default flags; "
        "interpreter start, import and the flagship polytope work dominate"),
    "polytope-ladder": (
        polytope_ladder,
        "toric and verify on seeded (CP^1)^n boxes n=3,4 and CP^n simplices "
        "n=3..6; polytope realization and triangulation dominate"),
    "residue-ladder": (
        residue_ladder,
        "localize, sample and roots on seeded (CP^1)^n, n=5,6, no polytopes; "
        "32-64 isolated points against a few (CP^1)^j ring components"),
    "roots-fine": (
        roots_fine,
        "roots at seeded widths 1e-30 to 1e-304 on the flagship and on boxes "
        "with degree 3-5 invariants; Sturm bisection dominates"),
}


def spec() -> dict:
    """The BENCHMARK.json this file implements."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why}
                      for n, (_, why) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# running the CLI


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Result:
    call: Call
    rc: int
    wall_s: float
    stdout: str
    stderr: str
    timeout_s: float | None = None  # set when the call ran past its bound


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (Fractions and integers)."""
    t0 = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 1500):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    s = 0
    for i in range(40000):
        s += i * i
    return time.perf_counter() - t0


def at_reference_speed(timed):
    """Run timed() -> (result, seconds) between two calibrations.

    Returns the result, the raw seconds, and the seconds scaled to the
    reference host speed by CAL_REF_S over the mean calibration time.
    """
    before = calibrate()
    result, seconds = timed()
    factor = CAL_REF_S / ((before + calibrate()) / 2)
    return result, seconds, seconds * factor


def run_subprocess(call: Call, scenario_dir: str,
                   timeout: float = CALL_TIMEOUT_S) -> Result:
    argv = [sys.executable, "-m", "coupledfut.cli"] + call.argv(scenario_dir)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return Result(call, -1, time.perf_counter() - t0,
                      _text(exc.stdout), _text(exc.stderr), timeout)
    return Result(call, proc.returncode, time.perf_counter() - t0,
                  proc.stdout, proc.stderr)


def _with_wall(res: Result) -> tuple[Result, float]:
    return res, res.wall_s


def _text(data) -> str:
    if data is None:
        return ""
    return data.decode("utf-8", "replace") if isinstance(data, bytes) else data


def run_in_process(main, call: Call, scenario_dir: str) -> Result:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(call.argv(scenario_dir))
    return Result(call, rc, time.perf_counter() - t0, out.getvalue(),
                  err.getvalue())


def write_inputs(cases, scenario_dir: str) -> None:
    os.makedirs(scenario_dir, exist_ok=True)
    for case in cases:
        if case.data is not None:
            with open(os.path.join(scenario_dir, case.name + ".json"), "w",
                      encoding="utf-8") as fh:
                json.dump(case.data, fh, indent=1, sort_keys=True)


def setup(workload: str, seed: int, scenario_dir: str):
    """Generate the inputs and finish one warm-up call, bytecode compile included.

    Returns the raw and the reference-speed seconds, the cases and the calls.
    """
    shutil.rmtree(os.path.join(PACKAGE, "__pycache__"), ignore_errors=True)

    def timed():
        t0 = time.perf_counter()
        cases, calls, warmup = WORKLOADS[workload][0](seed)
        write_inputs(cases, scenario_dir)
        res = run_subprocess(warmup, scenario_dir)
        return (cases, calls, warmup, res), time.perf_counter() - t0

    (cases, calls, warmup, res), raw, scaled = at_reference_speed(timed)
    if res.rc != check.expected_exit(warmup.cmd, warmup.case):
        raise SystemExit("warm-up call %r failed (exit %d): %s"
                         % (warmup.label, res.rc, res.stderr.strip()[-500:]))
    return raw, scaled, cases, calls


# ---------------------------------------------------------------------------
# checking


def check_results(cases, results: list[Result]) -> list[dict]:
    """Failed calls, each with its reasons; identical outputs are checked once."""
    for case in cases:
        if case.catalog is not None:
            check.fill_catalog_reference(case)
    failures = []
    seen: dict[tuple, list[str]] = {}
    for res in results:
        if res.timeout_s is not None:
            reasons = ["no result within %g s" % res.timeout_s]
        else:
            key = (res.call.label, res.rc, res.stdout)
            if key not in seen:
                seen[key] = check.check_call(res.call.cmd, res.call.case,
                                             list(res.call.extra), res.rc,
                                             res.stdout)
            reasons = seen[key]
        if reasons:
            failures.append({"call": res.call.label, "exit": res.rc,
                             "wall_s": res.wall_s, "reasons": reasons,
                             "stderr": res.stderr.strip()[-300:]})
    return failures


# ---------------------------------------------------------------------------
# metrics


def tail(walls: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND calls beyond it."""
    xs = sorted(walls)
    n = len(xs)
    idx = max(n - TAIL_BEYOND - 1, 0)
    return xs[idx], 100.0 * (idx + 1) / n


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": commit,
            "source_sha256": digest.hexdigest()}


def startup_floor() -> tuple[float, float]:
    """Medians of `python -c pass` and of the extra time `import coupledfut` adds."""
    def median_wall(code: str) -> float:
        walls = []
        for _ in range(STARTUP_REPS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                           check=True)
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls)

    bare = median_wall("pass")
    return bare, median_wall("import coupledfut") - bare


def _write_side_file(name: str, record: dict, indent: int | None = 1) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=indent)
    return os.path.relpath(path, ROOT)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end run: set up, closed-loop passes, check, report."""
    scenario_dir = os.path.join(OUT, "%s-seed%d" % (workload, seed))
    setups, setups_raw = [], []
    for _ in range(SETUP_REPS):
        raw, scaled, cases, calls = setup(workload, seed, scenario_dir)
        setups_raw.append(raw)
        setups.append(scaled)
    results: list[Result] = []
    walls: list[float] = []  # at reference speed, one per call made
    best = [float("inf")] * len(calls)
    t_start = time.perf_counter()
    deadline = t_start + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        order = list(range(len(calls)))
        random.Random("order:%d:%d" % (seed, rounds)).shuffle(order)
        for i in order:
            if rounds and time.perf_counter() >= deadline:
                break
            res, _, scaled = at_reference_speed(
                lambda: _with_wall(run_subprocess(calls[i], scenario_dir)))
            results.append(res)
            walls.append(scaled)
            best[i] = min(best[i], scaled)
        rounds += 1
    wall = time.perf_counter() - t_start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    failures = check_results(cases, results)
    tail_s, tail_pct = tail(walls)
    metrics = {
        "invocations_per_s": _metric(len(calls) / sum(best), "1/s"),
        "latency_p50_s": _metric(statistics.median(walls), "s"),
        "latency_tail_s": _metric(tail_s, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    record = {
        "workload": workload, "seed": seed, "trace": 0, "rounds": rounds,
        "wall_s": wall, "raw_invocations_per_s": len(results) / wall,
        "reference_calibration_s": CAL_REF_S,
        "setup_runs_s": setups, "setup_runs_raw_s": setups_raw,
        "latency_tail_percentile": tail_pct, "latency_samples": len(walls),
        "best_wall_s": {c.label: b for c, b in zip(calls, best)},
        "failure_ratio": len(failures) / len(results),
        "failed_calls": failures, "machine": machine_record(),
        "calls": [{"call": r.call.label, "exit": r.rc, "raw_wall_s": r.wall_s,
                   "wall_s": w} for r, w in zip(results, walls)],
        "metrics": metrics,
    }
    record["side_file"] = _write_side_file(
        "%s-seed%d-trace0.json" % (workload, seed), record)
    return {"correct": not failures, "attempted": len(results),
            "failed": len(failures), "metrics": metrics, "record": record}


def traced(workload: str, seed: int) -> dict:
    """Per-layer run: startup floor, then untraced and traced in-process passes."""
    import layertrace

    scenario_dir = os.path.join(OUT, "%s-seed%d" % (workload, seed))
    _, _, cases, calls = setup(workload, seed, scenario_dir)
    interpreter_s, import_s = startup_floor()
    from coupledfut import cli

    # each call runs untraced and traced back to back, alternating which
    # goes first, so slow stretches of the host hit both sides alike
    tracer = layertrace.Tracer()
    untraced_s = traced_s = 0.0
    results = []
    for i, call in enumerate(calls):
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_side:
                tracer.install()
                try:
                    res = run_in_process(cli.main, call, scenario_dir)
                finally:
                    tracer.uninstall()
                traced_s += res.wall_s
                results.append(res)
            else:
                untraced_s += run_in_process(cli.main, call,
                                             scenario_dir).wall_s
    failures = check_results(cases, results)
    values = {"coupledfut.interpreter_s": interpreter_s,
              "coupledfut.import_s": import_s}
    values.update(layertrace.layer_metrics(tracer))
    values["trace.overhead_ratio"] = traced_s / untraced_s
    metrics = {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER}
    record = {
        "workload": workload, "seed": seed, "trace": 1,
        "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
        "failed_calls": failures, "machine": machine_record(),
        "spans_recorded": len(tracer.start),
        "layers": tracer.summary(), "metrics": metrics,
    }
    record["spans_file"] = _write_side_file(
        "%s-seed%d-spans.json" % (workload, seed), tracer.spans(), None)
    record["side_file"] = _write_side_file(
        "%s-seed%d-trace1.json" % (workload, seed), record)
    return {"correct": not failures, "attempted": len(results),
            "failed": len(failures), "metrics": metrics, "record": record}


# ---------------------------------------------------------------------------
# reporting


def print_report(workload: str, out: dict) -> None:
    rec = out["record"]
    m = rec["machine"]
    print("workload %s seed %d trace %d: %d calls, %d failed"
          % (workload, rec["seed"], rec["trace"], out["attempted"],
             out["failed"]))
    print("machine: nproc=%s cpu=%s python=%s commit=%s source=%s"
          % (m["nproc"], m["cpu"], m["python"], m["commit"],
             m["source_sha256"][:12]))
    for name, metric in out["metrics"].items():
        line = "  %-40s %.6g %s" % (name, metric["value"], metric["unit"])
        if name == "latency_tail_s":
            line += "  (p%.1f of %d calls)" % (rec["latency_tail_percentile"],
                                               rec["latency_samples"])
        print(line)
    if rec["trace"] == 0:
        print("  %-40s %.6g ratio  (%d of %d calls)"
              % ("failure_ratio", rec["failure_ratio"], out["failed"],
                 out["attempted"]))
        print("  times are at reference host speed; raw wall clock: %.4g "
              "calls/s over %.1f s" % (rec["raw_invocations_per_s"],
                                       rec["wall_s"]))
    for f in rec["failed_calls"]:
        print("  FAILED %s (exit %d): %s" % (f["call"], f["exit"],
                                            "; ".join(f["reasons"])))
    print("  side file: %s" % rec["side_file"])


def final_line(out: dict) -> str:
    return json.dumps({k: out[k] for k in ("correct", "attempted", "failed",
                                           "metrics")})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="run the known-defect inputs (unscored)")
    ap.add_argument("--reconcile", action="store_true",
                    help="time hultgren-c-true layers against ROADMAP")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write("error: no coupledfut sources under %s\n" % SRC)
        return 2
    if args.probe:
        import probes
        return probes.main()
    if args.reconcile:
        import probes
        return probes.reconcile()
    if args.workload is None:
        ap.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outs = {}
    for name in names:
        out = (traced(name, args.seed) if args.trace
               else measure(name, args.seed, args.seconds))
        print_report(name, out)
        outs[name] = out
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        print(json.dumps({name: json.loads(final_line(out))
                          for name, out in outs.items()}))
    else:
        print(final_line(outs[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
