"""Outside-in tracing of the coupledfut layers, from the benchmark's own files.

The tracer wraps public functions of the coupledfut modules in every module
namespace that binds them (analysis, for example, imports realize and
poly_gcd by name, and validate_scenario imports positive_on_interval at call
time from analysis).  Each wrapped call records a span (name, start, end,
parent span, CLI call id) in flat in-memory arrays; a few wrappers also
record counters.  Nothing in src/ is edited, and uninstall() restores every
binding.

Self time is a span's duration minus the time its direct child spans cover.
Inclusive times per name count only outermost spans of that name, so a
function reached twice on one stack is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array
from collections import defaultdict

MODULES = ("cli", "scenario", "catalog", "localization", "rings", "rationals",
           "polytopes", "analysis", "report")

# (module that defines it, function name)
TRACED = (
    ("cli", "main"),
    ("catalog", "load"),
    ("scenario", "load_scenario"),
    ("report", "emit_obstruction"),
    ("report", "emit_toric"),
    ("report", "emit_roots"),
    ("report", "emit_samples"),
    ("report", "emit_verify"),
    ("localization", "validate_scenario"),
    ("localization", "fut_localized"),
    ("localization", "volume_localized"),
    ("localization", "power_sum"),
    ("rings", "equiv_pow"),
    ("rings", "invert_unit"),
    ("rings", "integrate"),
    ("rationals", "poly_gcd"),
    ("rationals", "ratfun_reduce"),
    ("rationals", "interpolate"),
    ("rationals", "render_factored"),
    ("polytopes", "realize"),
    ("polytopes", "triangulate"),
    ("polytopes", "volume"),
    ("polytopes", "volume_curve"),
    ("polytopes", "moment_curve"),
    ("polytopes", "fut_toric"),
    ("polytopes", "fut_toric_at"),
    ("polytopes", "minkowski_check"),
    ("analysis", "cross_validate"),
    ("analysis", "fut_roots"),
    ("analysis", "isolate_roots"),
    ("analysis", "sturm_chain"),
    ("analysis", "count_roots_open"),
    ("analysis", "positive_on_interval"),
)

EMITTERS = tuple("report." + n for m, n in TRACED if n.startswith("emit_"))


class Tracer:
    """Spans and counters for one traced pass over a workload's calls."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.call = array("l")
        self.stack: list[int] = []
        self.call_id = 0
        self.counters: dict[str, int] = defaultdict(int)
        self.max_coeff_bits = 0
        self._keys: dict[str, set] = defaultdict(set)
        self._wrappers: list[tuple[str, object, object]] = []
        self._namespaces: list[object] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers; calling it again after uninstall() rebinds them."""
        if not self._wrappers:
            mods = {m: importlib.import_module("coupledfut." + m)
                    for m in MODULES}
            self._namespaces = list(mods.values()) + [
                importlib.import_module("coupledfut")]
            for mod_name, fn_name in TRACED:
                original = getattr(mods[mod_name], fn_name)
                wrapper = self._wrap("%s.%s" % (mod_name, fn_name), original,
                                     _ON_EXIT.get(fn_name))
                self._wrappers.append((fn_name, original, wrapper))
        for fn_name, original, wrapper in self._wrappers:
            for ns in self._namespaces:
                if getattr(ns, fn_name, None) is original:
                    self._saved.append((ns, fn_name, original))
                    setattr(ns, fn_name, wrapper)

    def uninstall(self) -> None:
        for ns, fn_name, original in reversed(self._saved):
            setattr(ns, fn_name, original)
        self._saved.clear()

    def _wrap(self, qualname: str, fn, on_exit):
        nid = len(self.names)
        self.names.append(qualname)
        clock = time.perf_counter
        start, end, name, parent, call = (self.start, self.end, self.name,
                                          self.parent, self.call)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            call.append(self.call_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(self, args, result)
            return result

        return wrapper

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] += n

    def distinct(self, key: str, item) -> None:
        self._keys[key].add((self.call_id, item))

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive (outermost) time and self time."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {nm: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
               for nm in self.names}
        for i in range(n):
            nm = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            row = out[nm]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if not self._has_ancestor_named(i):
                row["inclusive_s"] += dur
        return out

    def _has_ancestor_named(self, i: int) -> bool:
        target = self.name[i]
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == target:
                return True
            p = self.parent[p]
        return False

    def distinct_count(self, key: str) -> int:
        return len(self._keys[key])

    def spans(self) -> dict:
        """Every span, as columns: name, start, end, parent span, call id."""
        return {"names": self.names,
                "name": self.name.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "parent": self.parent.tolist(),
                "call": self.call.tolist()}


# ---------------------------------------------------------------------------
# counters recorded at the same boundaries as the spans


def _on_power_sum(tr: Tracer, args, result) -> None:
    tr.distinct("power_sum", (args[1], args[2]))


def _on_ratfun_reduce(tr: Tracer, args, result) -> None:
    bits = tr.max_coeff_bits
    for poly in (result.num, result.den):
        for co in poly.coeffs:
            b = max(co.numerator.bit_length(), co.denominator.bit_length())
            if b > bits:
                bits = b
    tr.max_coeff_bits = bits


def _on_realize(tr: Tracer, args, result) -> None:
    pp = args[0]
    tr.distinct("realize", (id(pp), result.value))
    tr.count("polytopes.subsets_tried", math.comb(len(pp.facets), pp.ambient))
    tr.count("polytopes.vertices_found", len(result.vertices))


def _on_triangulate(tr: Tracer, args, result) -> None:
    tr.count("polytopes.simplices", len(result))


def _on_emit(tr: Tracer, args, result) -> None:
    tr.count("report.output_bytes", len(result.encode("utf-8")))


def _on_load(tr: Tracer, args, result) -> None:
    tr.count("scenario.components", len(result.localization.components))
    if result.toric is not None:
        tr.count("scenario.facets",
                 sum(len(pp.facets) for pp in result.toric.polytopes))


def _on_main(tr: Tracer, args, result) -> None:
    tr.call_id += 1


_ON_EXIT = {
    "power_sum": _on_power_sum,
    "ratfun_reduce": _on_ratfun_reduce,
    "realize": _on_realize,
    "triangulate": _on_triangulate,
    "emit_obstruction": _on_emit,
    "emit_toric": _on_emit,
    "emit_roots": _on_emit,
    "emit_samples": _on_emit,
    "emit_verify": _on_emit,
    "load": _on_load,
    "load_scenario": _on_load,
    "main": _on_main,
}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in seconds)."""
    s = tr.summary()

    def inc(name):
        return s[name]["inclusive_s"]

    def calls(name):
        return s[name]["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    c = tr.counters
    return {
        "cli.main_s": inc("cli.main"),
        "cli.self_s": s["cli.main"]["self_s"],
        "report.emit_s": sum(inc(n) for n in EMITTERS),
        "report.output_bytes": c["report.output_bytes"],
        "scenario.parse_s": inc("catalog.load") + inc("scenario.load_scenario"),
        "scenario.components": c["scenario.components"],
        "scenario.facets": c["scenario.facets"],
        "localization.validate_scenario_s": inc("localization.validate_scenario"),
        "localization.fut_localized_s": inc("localization.fut_localized"),
        "localization.volume_localized_s": inc("localization.volume_localized"),
        "localization.power_sum_calls": calls("localization.power_sum"),
        "localization.power_sum_s": inc("localization.power_sum"),
        "localization.power_sum_repeat_ratio": ratio(
            calls("localization.power_sum"), tr.distinct_count("power_sum")),
        "rings.equiv_pow_calls": calls("rings.equiv_pow"),
        "rings.equiv_pow_s": inc("rings.equiv_pow"),
        "rings.invert_unit_calls": calls("rings.invert_unit"),
        "rings.invert_unit_s": inc("rings.invert_unit"),
        "rings.integrate_calls": calls("rings.integrate"),
        "rationals.poly_gcd_calls": calls("rationals.poly_gcd"),
        "rationals.poly_gcd_s": inc("rationals.poly_gcd"),
        "rationals.ratfun_reduce_calls": calls("rationals.ratfun_reduce"),
        "rationals.interpolate_calls": calls("rationals.interpolate"),
        "rationals.interpolate_s": inc("rationals.interpolate"),
        "rationals.render_factored_s": inc("rationals.render_factored"),
        "rationals.max_coeff_bits": tr.max_coeff_bits,
        "polytopes.realize_calls": calls("polytopes.realize"),
        "polytopes.realize_s": inc("polytopes.realize"),
        "polytopes.realize_repeat_ratio": ratio(
            calls("polytopes.realize"), tr.distinct_count("realize")),
        "polytopes.vertex_yield": ratio(c["polytopes.vertices_found"],
                                        c["polytopes.subsets_tried"]),
        "polytopes.triangulate_calls": calls("polytopes.triangulate"),
        "polytopes.triangulate_s": inc("polytopes.triangulate"),
        "polytopes.simplices": c["polytopes.simplices"],
        "polytopes.volume_curve_s": inc("polytopes.volume_curve"),
        "polytopes.moment_curve_s": inc("polytopes.moment_curve"),
        "polytopes.fut_toric_at_s": inc("polytopes.fut_toric_at"),
        "polytopes.minkowski_check_s": inc("polytopes.minkowski_check"),
        "analysis.cross_validate_s": inc("analysis.cross_validate"),
        "analysis.fut_roots_s": inc("analysis.fut_roots"),
        "analysis.isolate_roots_s": inc("analysis.isolate_roots"),
        "analysis.sturm_chain_calls": calls("analysis.sturm_chain"),
        "analysis.count_roots_open_calls": calls("analysis.count_roots_open"),
        "analysis.positive_on_interval_s": inc("analysis.positive_on_interval"),
    }
