"""The three output formats, each emitter rendering the scenario and the
values computed for it; what only the output needs (the normalization note,
the volumes times n!, the default csv rows) is computed here.

text is for humans; structured is canonical JSON (sorted keys, stable byte
for byte across runs); csv uses the header c,fut with exact fraction strings
in quotes; verify has no csv form, and the command line refuses it before
any work.  All numbers are emitted exactly; nothing is rounded except the
explicitly labelled decimal renderings of isolated roots.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .analysis import (DEFAULT_SAMPLES, CrossValidationRecord, RootReport,
                       sample_curve)
from .localization import LocalizationScenario, ValidationReport
from .rationals import RationalFunction, rat_text, render_factored

FORMATS = ("text", "structured", "csv")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _interval_text(interval: tuple[Fraction, Fraction]) -> str:
    return "(%s, %s)" % (rat_text(interval[0]), rat_text(interval[1]))


def csv_table(rows: list[tuple[Fraction, Fraction | None]]) -> str:
    """c,fut rows; exact fractions, quoted; a pole leaves the cell empty."""
    lines = ["c,fut"]
    for x, y in rows:
        cell = '""' if y is None else '"%s"' % rat_text(y)
        lines.append('"%s",%s' % (rat_text(x), cell))
    return "\n".join(lines) + "\n"


def _curve_csv(loc: LocalizationScenario, fut: RationalFunction,
               value_at: tuple[Fraction, Fraction] | None) -> str:
    """The --param-value row if there is one, else the default sample rows."""
    return csv_table([value_at] if value_at is not None
                     else sample_curve(fut, loc.interval, DEFAULT_SAMPLES))


def _curve_json(loc: LocalizationScenario, fut: RationalFunction,
                value_at: tuple[Fraction, Fraction] | None,
                fields: dict) -> str:
    """The fields both invariant outputs share, merged with their own."""
    payload = {
        "scenario": loc.name,
        "parameter": loc.param,
        "interval": [rat_text(loc.interval[0]), rat_text(loc.interval[1])],
        "invariant": {
            "factored": render_factored(fut, loc.param),
            "numerator": fut.num.text(loc.param),
            "denominator": fut.den.text(loc.param),
        },
        **fields,
    }
    if value_at is not None:
        payload["value"] = {"at": rat_text(value_at[0]),
                            "exact": rat_text(value_at[1])}
    return _json_text(payload)


def _value_line(loc: LocalizationScenario,
                value_at: tuple[Fraction, Fraction]) -> str:
    return "value at %s = %s: %s" % (loc.param, rat_text(value_at[0]),
                                     rat_text(value_at[1]))


def emit_obstruction(loc: LocalizationScenario,
                     volumes: tuple[RationalFunction, ...],
                     fut: RationalFunction,
                     value_at: tuple[Fraction, Fraction] | None,
                     fmt: str) -> str:
    if fmt == "csv":
        return _curve_csv(loc, fut, value_at)
    note = (loc.note + " " if loc.note else "") + (
        "Normalization: the sum of per-bundle ratios is divided by the "
        "ambient dimension plus one (here %d)." % (loc.dimension + 1))
    if fmt == "structured":
        return _curve_json(loc, fut, value_at, {
            "dimension": loc.dimension,
            "bundles": loc.bundles,
            "volumes": [v.text(loc.param) for v in volumes],
            "note": note,
        })
    lines = [
        "scenario: %s" % loc.name,
        "parameter: %s on %s" % (loc.param, _interval_text(loc.interval)),
        "dimension: %d    bundles: %d" % (loc.dimension, loc.bundles),
    ]
    for i, v in enumerate(volumes):
        lines.append("bundle %d equivariant volume: %s"
                     % (i, v.text(loc.param)))
    lines.append("invariant: %s" % render_factored(fut, loc.param))
    if value_at is not None:
        lines.append(_value_line(loc, value_at))
    lines.append("note: %s" % note)
    return "\n".join(lines) + "\n"


def emit_toric(loc: LocalizationScenario, ambient: int,
               direction: tuple[int, ...],
               volumes: tuple[RationalFunction, ...], fut: RationalFunction,
               minkowski: str, value_at: tuple[Fraction, Fraction] | None,
               fmt: str) -> str:
    if fmt == "csv":
        return _curve_csv(loc, fut, value_at)
    scaled = [v.scale(math.factorial(ambient)) for v in volumes]
    if fmt == "structured":
        return _curve_json(loc, fut, value_at, {
            "ambient": ambient,
            "direction": list(direction),
            "euclidean_volumes": [v.text(loc.param) for v in volumes],
            "scaled_volumes": [v.text(loc.param) for v in scaled],
            "minkowski": minkowski,
        })
    lines = [
        "scenario: %s" % loc.name,
        "parameter: %s on %s" % (loc.param, _interval_text(loc.interval)),
        "ambient dimension: %d    direction: %s"
        % (ambient, ",".join(str(x) for x in direction)),
    ]
    for i, (ev, sv) in enumerate(zip(volumes, scaled)):
        lines.append("polytope %d volume: %s (times dimension!: %s)"
                     % (i, ev.text(loc.param), sv.text(loc.param)))
    lines.append("invariant: %s" % render_factored(fut, loc.param))
    lines.append("additivity of polytopes: %s" % minkowski)
    if value_at is not None:
        lines.append(_value_line(loc, value_at))
    return "\n".join(lines) + "\n"


def _surd_text(surd: tuple[int, int, int, int]) -> str:
    """(p+q*sqrt(d))/r, the factor q left out when it is 1 or -1."""
    p, q, d, r = surd
    scale = "" if abs(q) == 1 else rat_text(abs(q)) + "*"
    return "(%s%s%ssqrt(%s))/%s" % (rat_text(p), "-" if q < 0 else "+", scale,
                                    rat_text(d), rat_text(r))


def emit_roots(report: RootReport, scenario: str, param: str,
               fmt: str) -> str:
    if fmt == "csv":
        return csv_table([(rec.midpoint(), Fraction(0))
                          for rec in report.roots])
    if fmt == "structured":
        payload = {
            "scenario": scenario,
            "parameter": param,
            "interval": [rat_text(report.interval[0]),
                         rat_text(report.interval[1])],
            "width": rat_text(report.width),
            "invariant": render_factored(report.invariant, param),
            "roots": [
                {
                    "lo": rat_text(rec.lo),
                    "hi": rat_text(rec.hi),
                    "exact": None if rec.exact is None else rat_text(rec.exact),
                    "closed_form": None if rec.surd is None
                    else _surd_text(rec.surd),
                    "decimal": rec.decimal,
                    "multiplicity": rec.multiplicity,
                }
                for rec in report.roots
            ],
            "poles_inside": [rat_text(x) for x in report.poles_inside],
            "messages": list(report.messages),
        }
        return _json_text(payload)
    lines = [
        "scenario: %s" % scenario,
        "invariant: %s" % render_factored(report.invariant, param),
        "interval: %s    bracket width: at most %s"
        % (_interval_text(report.interval), rat_text(report.width)),
        "roots found: %d" % len(report.roots),
    ]
    for i, rec in enumerate(report.roots):
        if rec.exact is not None:
            body = "%s exactly (decimal %s)" % (rat_text(rec.exact),
                                                rec.decimal)
        elif rec.surd is not None:
            body = "%s (decimal %s)" % (_surd_text(rec.surd), rec.decimal)
        else:
            body = "bracketed in (%s, %s) (decimal %s)" % (
                rat_text(rec.lo), rat_text(rec.hi), rec.decimal)
        if rec.multiplicity > 1:
            body += " (multiplicity %d)" % rec.multiplicity
        lines.append("root %d: %s" % (i, body))
    for msg in report.messages:
        lines.append("note: %s" % msg)
    return "\n".join(lines) + "\n"


def emit_samples(scenario: str, param: str,
                 rows: list[tuple[Fraction, Fraction | None]],
                 fmt: str) -> str:
    if fmt == "csv":
        return csv_table(rows)
    if fmt == "structured":
        payload = {
            "scenario": scenario,
            "parameter": param,
            "samples": [
                {"c": rat_text(x),
                 "fut": None if y is None else rat_text(y)}
                for x, y in rows
            ],
        }
        return _json_text(payload)
    lines = ["scenario: %s" % scenario]
    for x, y in rows:
        lines.append("%s = %s: %s" % (param, rat_text(x),
                                      "pole" if y is None else rat_text(y)))
    return "\n".join(lines) + "\n"


def _validation_json(v: ValidationReport) -> dict:
    return {
        "ok": v.ok,
        "residues_polynomial": v.residues_polynomial,
        "volume_positive": list(v.volume_positive),
        "messages": list(v.messages),
    }


_NO_TORIC = "no toric model; nothing to cross-validate"


def emit_validation(scenario: str, validation: ValidationReport,
                    fmt: str) -> str:
    """verify on a scenario without a toric model: the validation alone."""
    if fmt == "structured":
        return _json_text({"scenario": scenario, "ok": validation.ok,
                           "validation": _validation_json(validation),
                           "messages": [_NO_TORIC]})
    return "scenario: %s\nvalidation: %s\n%s\n" % (
        scenario, "ok" if validation.ok else "FAILED", _NO_TORIC)


def emit_verify(scenario: str, param: str, record: CrossValidationRecord,
                fmt: str) -> str:
    if fmt == "structured":
        payload = {
            "scenario": scenario,
            "ok": record.ok,
            "validation": _validation_json(record.validation),
            "volumes_localized": [v.text(param)
                                  for v in record.volumes_localized],
            "volumes_toric": [v.text(param) for v in record.volumes_toric],
            "volume_match": list(record.volume_match),
            "invariant_localized": record.fut_localized.text(param),
            "invariant_toric": record.fut_toric.text(param),
            "invariant_match": record.fut_match,
            "samples": [
                {"at": rat_text(row.at),
                 "localized": rat_text(row.localized),
                 "toric": rat_text(row.toric),
                 "equal": row.equal}
                for row in record.samples
            ],
            "minkowski": record.minkowski.status,
            "messages": list(record.messages),
        }
        return _json_text(payload)
    lines = [
        "scenario: %s" % scenario,
        "validation: %s" % ("ok" if record.validation.ok else "FAILED"),
        "residue consistency: %s"
        % ("polynomial" if record.validation.residues_polynomial
           else "NOT polynomial"),
    ]
    for i, pos in enumerate(record.validation.volume_positive):
        lines.append("bundle %d volume positive on interval: %s"
                     % (i, "yes" if pos else "NO"))
    for i, match in enumerate(record.volume_match):
        lines.append("bundle %d volume, localization vs polytope: %s"
                     % (i, "match" if match else "MISMATCH"))
    lines.append("invariant, localization vs polytope: %s"
                 % ("match" if record.fut_match else "MISMATCH"))
    for row in record.samples:
        lines.append("sample %s: localization %s, polytope %s (%s)"
                     % (rat_text(row.at), rat_text(row.localized),
                        rat_text(row.toric),
                        "equal" if row.equal else "UNEQUAL"))
    lines.append("polytope additivity: %s" % record.minkowski.status)
    lines.append("overall: %s" % ("consistent" if record.ok else "INCONSISTENT"))
    for msg in record.messages:
        lines.append("detail: %s" % msg)
    return "\n".join(lines) + "\n"
