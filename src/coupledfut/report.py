"""Report objects and the three output formats.

text is for humans; structured is canonical JSON (sorted keys, stable byte
for byte across runs); csv uses the header c,fut with exact fraction strings
in quotes.  All numbers are emitted exactly; nothing is rounded except the
explicitly labelled decimal renderings of isolated roots.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .analysis import CrossValidationRecord, RootReport
from .errors import Record, UsageError
from .localization import ValidationReport
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


class ObstructionReport(Record):
    """Result of the localization computation on one scenario."""

    scenario: str
    param: str
    interval: tuple[Fraction, Fraction]
    dimension: int
    bundles: int
    volumes: tuple[RationalFunction, ...]
    invariant: RationalFunction
    note: str
    value_at: tuple[Fraction, Fraction] | None


def _curve_csv(rep: ObstructionReport | ToricReport,
               samples: list[tuple[Fraction, Fraction | None]] | None) -> str:
    """The --param-value row if there is one, else the sample rows."""
    return csv_table([rep.value_at] if rep.value_at is not None
                     else samples or [])


def _curve_json(rep: ObstructionReport | ToricReport, fields: dict) -> str:
    """The fields both invariant reports share, merged with their own."""
    payload = {
        "scenario": rep.scenario,
        "parameter": rep.param,
        "interval": [rat_text(rep.interval[0]), rat_text(rep.interval[1])],
        "invariant": {
            "factored": render_factored(rep.invariant),
            "numerator": rep.invariant.num.text(),
            "denominator": rep.invariant.den.text(),
        },
        **fields,
    }
    if rep.value_at is not None:
        payload["value"] = {"at": rat_text(rep.value_at[0]),
                            "exact": rat_text(rep.value_at[1])}
    return _json_text(payload)


def _value_line(rep: ObstructionReport | ToricReport) -> str:
    return "value at %s = %s: %s" % (rep.param, rat_text(rep.value_at[0]),
                                     rat_text(rep.value_at[1]))


def emit_obstruction(rep: ObstructionReport, fmt: str,
                     samples: list[tuple[Fraction, Fraction | None]] | None = None) -> str:
    if fmt == "csv":
        return _curve_csv(rep, samples)
    if fmt == "structured":
        return _curve_json(rep, {
            "dimension": rep.dimension,
            "bundles": rep.bundles,
            "volumes": [v.text() for v in rep.volumes],
            "note": rep.note,
        })
    if fmt != "text":
        raise UsageError("unknown format %r" % fmt)
    lines = [
        "scenario: %s" % rep.scenario,
        "parameter: %s on %s" % (rep.param, _interval_text(rep.interval)),
        "dimension: %d    bundles: %d" % (rep.dimension, rep.bundles),
    ]
    for i, v in enumerate(rep.volumes):
        lines.append("bundle %d equivariant volume: %s" % (i, v.text()))
    lines.append("invariant: %s" % render_factored(rep.invariant))
    if rep.value_at is not None:
        lines.append(_value_line(rep))
    if rep.note:
        lines.append("note: %s" % rep.note)
    return "\n".join(lines) + "\n"


class ToricReport(Record):
    """Result of the polytope-oracle computation on one scenario."""

    scenario: str
    param: str
    interval: tuple[Fraction, Fraction]
    ambient: int
    direction: tuple[int, ...]
    euclidean_volumes: tuple[RationalFunction, ...]
    scaled_volumes: tuple[RationalFunction, ...]
    invariant: RationalFunction
    minkowski: str
    value_at: tuple[Fraction, Fraction] | None


def emit_toric(rep: ToricReport, fmt: str,
               samples: list[tuple[Fraction, Fraction | None]] | None = None) -> str:
    if fmt == "csv":
        return _curve_csv(rep, samples)
    if fmt == "structured":
        return _curve_json(rep, {
            "ambient": rep.ambient,
            "direction": list(rep.direction),
            "euclidean_volumes": [v.text() for v in rep.euclidean_volumes],
            "scaled_volumes": [v.text() for v in rep.scaled_volumes],
            "minkowski": rep.minkowski,
        })
    if fmt != "text":
        raise UsageError("unknown format %r" % fmt)
    lines = [
        "scenario: %s" % rep.scenario,
        "parameter: %s on %s" % (rep.param, _interval_text(rep.interval)),
        "ambient dimension: %d    direction: %s"
        % (rep.ambient, ",".join(str(x) for x in rep.direction)),
    ]
    for i, (ev, sv) in enumerate(zip(rep.euclidean_volumes,
                                     rep.scaled_volumes)):
        lines.append("polytope %d volume: %s (times dimension!: %s)"
                     % (i, ev.text(), sv.text()))
    lines.append("invariant: %s" % render_factored(rep.invariant))
    lines.append("additivity of polytopes: %s" % rep.minkowski)
    if rep.value_at is not None:
        lines.append(_value_line(rep))
    return "\n".join(lines) + "\n"


def _surd_text(surd: tuple[int, int, int, int]) -> str:
    p, q, d, r = surd
    if q == 1:
        mid = "+sqrt(%d)" % d
    elif q == -1:
        mid = "-sqrt(%d)" % d
    elif q < 0:
        mid = "-%d*sqrt(%d)" % (-q, d)
    else:
        mid = "+%d*sqrt(%d)" % (q, d)
    return "(%d%s)/%d" % (p, mid, r)


def emit_roots(report: RootReport, scenario: str, fmt: str) -> str:
    if fmt == "csv":
        return csv_table([(rec.midpoint(), Fraction(0))
                          for rec in report.roots])
    if fmt == "structured":
        payload = {
            "scenario": scenario,
            "parameter": report.param,
            "interval": [rat_text(report.interval[0]),
                         rat_text(report.interval[1])],
            "width": rat_text(report.width),
            "invariant": render_factored(report.invariant),
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
    if fmt != "text":
        raise UsageError("unknown format %r" % fmt)
    lines = [
        "scenario: %s" % scenario,
        "invariant: %s" % render_factored(report.invariant),
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
    if fmt != "text":
        raise UsageError("unknown format %r" % fmt)
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
    if fmt == "csv":
        raise UsageError("csv output is not defined for verify")
    if fmt == "structured":
        return _json_text({"scenario": scenario, "ok": validation.ok,
                           "validation": _validation_json(validation),
                           "messages": [_NO_TORIC]})
    if fmt != "text":
        raise UsageError("unknown format %r" % fmt)
    return "scenario: %s\nvalidation: %s\n%s\n" % (
        scenario, "ok" if validation.ok else "FAILED", _NO_TORIC)


def emit_verify(scenario: str, record: CrossValidationRecord, fmt: str) -> str:
    if fmt == "csv":
        raise UsageError("csv output is not defined for verify")
    if fmt == "structured":
        payload = {
            "scenario": scenario,
            "ok": record.ok,
            "validation": _validation_json(record.validation),
            "volumes_localized": [v.text() for v in record.volumes_localized],
            "volumes_toric": [v.text() for v in record.volumes_toric],
            "volume_match": list(record.volume_match),
            "invariant_localized": record.fut_localized.text(),
            "invariant_toric": record.fut_toric.text(),
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
    if fmt != "text":
        raise UsageError("unknown format %r" % fmt)
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
