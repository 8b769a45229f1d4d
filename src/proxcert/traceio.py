"""Trace and report file formats (CSV and JSON lines).

Both formats are versioned so the certificate engine refuses incompatible
files instead of misreading columns: CSV files start with `# proxcert-trace v1`
(reports with `# proxcert-report v1`), JSON-lines files with a header object
carrying schema_version.  All floats are serialized with their shortest
round-trip decimal representation, so a re-parsed trace certifies identically.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .certificates import CertificateReport
from .errors import ConfigurationError, DataCorruptionError
from .solvers import IterationRecord

TRACE_MAGIC = "# proxcert-trace v1"
REPORT_MAGIC = "# proxcert-report v1"
SCHEMA_VERSION = 1

_TRACE_COLUMNS = ("k", "f_y", "gap", "grad_map_norm", "accepted", "energy")
_ITERATE_COLUMNS = ("f_z", "x", "y", "grad_map")
_REPORT_COLUMNS = ("k", "name", "lhs", "rhs", "slack", "pass", "status")
# Fields without which a JSON-lines trace row is not a record.
_REQUIRED_FIELDS = ("k", "f_y", "grad_map_norm")


@dataclass
class TraceMeta:
    """Run metadata a trace file carries alongside its rows."""

    variant: str
    alpha: float
    step: float
    problem_hash: Optional[str] = None
    dim: Optional[int] = None
    max_iters: Optional[int] = None
    grad_map_tol: Optional[float] = None
    seed: Optional[int] = None
    iterates: bool = True
    problem: Optional[dict] = None
    schema_version: int = SCHEMA_VERSION


def _fmt(value) -> str:
    """Shortest round-trip text for one CSV cell."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _fmt_vector(v) -> str:
    return ";".join(repr(float(c)) for c in v)


def _parse_vector(cell: str) -> np.ndarray:
    return np.array([float(c) for c in cell.split(";")], dtype=np.float64)


def _opt_float(cell: str) -> Optional[float]:
    return None if cell == "" else float(cell)


def _opt_bool(cell: str) -> Optional[bool]:
    return None if cell == "" else cell == "true"


def write_trace(path, meta: TraceMeta, records, fmt: str = "csv") -> None:
    """Write one row per IterationRecord; iterates included per meta.iterates."""
    if fmt == "csv":
        _write_trace_csv(path, meta, records)
    elif fmt == "jsonl":
        _write_trace_jsonl(path, meta, records)
    else:
        raise ConfigurationError(f"unknown trace format {fmt!r}; valid: csv, jsonl")


def _record_fields(rec: IterationRecord, iterates: bool) -> dict:
    fields = {
        "k": rec.k,
        "f_y": rec.f_y,
        "gap": rec.gap,
        "grad_map_norm": rec.grad_map_norm,
        "accepted": rec.accepted,
        "energy": rec.energy,
    }
    if iterates:
        fields["f_z"] = rec.f_z
        fields["x"] = rec.x
        fields["y"] = rec.y
        fields["grad_map"] = rec.grad_map
    return fields


def _write_trace_csv(path, meta, records) -> None:
    columns = _TRACE_COLUMNS + (_ITERATE_COLUMNS if meta.iterates else ())
    with open(path, "w", newline="") as fh:
        fh.write(TRACE_MAGIC + "\n")
        fh.write("# meta " + json.dumps(asdict(meta)) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            fields = _record_fields(rec, meta.iterates)
            row = []
            for col in columns:
                value = fields[col]
                if col in ("x", "y", "grad_map"):
                    row.append("" if value is None else _fmt_vector(value))
                else:
                    row.append(_fmt(value))
            writer.writerow(row)


def _write_trace_jsonl(path, meta, records) -> None:
    with open(path, "w") as fh:
        header = {"format": "proxcert-trace", **asdict(meta)}
        fh.write(json.dumps(header) + "\n")
        for rec in records:
            fields = _record_fields(rec, meta.iterates)
            for key in ("x", "y", "grad_map"):
                if key in fields and fields[key] is not None:
                    fields[key] = [float(c) for c in fields[key]]
            for key in ("f_y", "gap", "grad_map_norm", "energy", "f_z"):
                if key in fields and fields[key] is not None:
                    fields[key] = float(fields[key])
            if fields.get("accepted") is not None:
                fields["accepted"] = bool(fields["accepted"])
            fh.write(json.dumps(fields) + "\n")


def read_trace(path):
    """Parse a trace file (either format); returns (TraceMeta, records)."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    if first.startswith("#"):
        if first != TRACE_MAGIC:
            raise ConfigurationError(
                f"unsupported trace header {first!r}; expected {TRACE_MAGIC!r}"
            )
        return _read_trace_csv(path)
    header = json.loads(first)
    if header.get("format") != "proxcert-trace":
        raise ConfigurationError("file is not a proxcert trace")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported trace schema_version {header.get('schema_version')}"
        )
    return _read_trace_jsonl(path)


def _meta_from_dict(d: dict) -> TraceMeta:
    try:
        return TraceMeta(**{k: d[k] for k in TraceMeta.__dataclass_fields__ if k in d})
    except TypeError as exc:
        raise ConfigurationError(f"trace metadata is incomplete: {exc}")


def _record_from_fields(fields: dict) -> IterationRecord:
    return IterationRecord(
        k=int(fields["k"]),
        f_y=fields["f_y"],
        grad_map_norm=fields["grad_map_norm"],
        gap=fields.get("gap"),
        accepted=fields.get("accepted"),
        energy=fields.get("energy"),
        x=fields.get("x"),
        y=fields.get("y"),
        grad_map=fields.get("grad_map"),
        f_z=fields.get("f_z"),
    )


def _read_trace_csv(path):
    with open(path, newline="") as fh:
        magic = fh.readline().rstrip("\n")
        meta_line = fh.readline().rstrip("\n")
        if magic != TRACE_MAGIC or not meta_line.startswith("# meta "):
            raise ConfigurationError("malformed trace file header")
        meta = _meta_from_dict(json.loads(meta_line[len("# meta "):]))
        if meta.schema_version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported trace schema_version {meta.schema_version}"
            )
        reader = csv.reader(fh)
        columns = next(reader)
        required = _TRACE_COLUMNS + (_ITERATE_COLUMNS if meta.iterates else ())
        missing = [c for c in required if c not in columns]
        if missing:
            raise ConfigurationError(f"trace has no column(s) {', '.join(missing)}")
        records = []
        for row in reader:
            if len(row) != len(columns):
                # the magic and meta lines precede the reader's lines
                where = f"trace line {reader.line_num + 2} has {len(row)} cells"
                if len(row) < len(columns):
                    raise DataCorruptionError(f"{where}; column {columns[len(row)]!r} "
                                              "is missing")
                raise DataCorruptionError(f"{where} for {len(columns)} columns")
            cells = dict(zip(columns, row))
            fields = {
                "k": int(cells["k"]),
                "f_y": float(cells["f_y"]),
                "gap": _opt_float(cells["gap"]),
                "grad_map_norm": float(cells["grad_map_norm"]),
                "accepted": _opt_bool(cells["accepted"]),
                "energy": _opt_float(cells["energy"]),
            }
            if meta.iterates:
                fields["f_z"] = _opt_float(cells["f_z"])
                for key in ("x", "y", "grad_map"):
                    fields[key] = _parse_vector(cells[key]) if cells[key] else None
            records.append(_record_from_fields(fields))
    return meta, records


def _read_trace_jsonl(path):
    with open(path) as fh:
        meta = _meta_from_dict(json.loads(fh.readline()))
        records = []
        for line_no, line in enumerate(fh, start=2):
            fields = json.loads(line)
            if not isinstance(fields, dict):
                raise DataCorruptionError(f"trace line {line_no} is not a JSON object")
            missing = [key for key in _REQUIRED_FIELDS if fields.get(key) is None]
            if missing:
                raise DataCorruptionError(f"trace line {line_no} has no {missing[0]!r}")
            for key in ("x", "y", "grad_map"):
                if fields.get(key) is not None:
                    fields[key] = np.array(fields[key], dtype=np.float64)
            records.append(_record_from_fields(fields))
    return meta, records


def write_report(path, reports, fmt: str = "csv") -> None:
    """Write one line per (k, name) certificate result."""
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(REPORT_MAGIC + "\n")
            writer = csv.writer(fh)
            writer.writerow(_REPORT_COLUMNS)
            for rep in reports:
                writer.writerow([
                    str(rep.k), rep.name, _fmt(rep.lhs), _fmt(rep.rhs),
                    _fmt(rep.slack), _fmt(rep.passed), rep.status,
                ])
    elif fmt == "jsonl":
        with open(path, "w") as fh:
            fh.write(json.dumps({"format": "proxcert-report",
                                 "schema_version": SCHEMA_VERSION}) + "\n")
            for rep in reports:
                fh.write(json.dumps({
                    "k": rep.k, "name": rep.name,
                    "lhs": _json_float(rep.lhs), "rhs": _json_float(rep.rhs),
                    "slack": _json_float(rep.slack),
                    "pass": bool(rep.passed), "status": rep.status,
                }) + "\n")
    else:
        raise ConfigurationError(f"unknown report format {fmt!r}; valid: csv, jsonl")


def _json_float(x: float):
    # JSON has no NaN/inf literals; not-applicable rows carry null instead.
    x = float(x)
    return x if np.isfinite(x) else None


def read_report(path):
    """Parse a report file back into CertificateReport objects."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        reports = []
        if first == REPORT_MAGIC:
            reader = csv.reader(fh)
            next(reader)  # column header
            for row in reader:
                cells = dict(zip(_REPORT_COLUMNS, row))
                reports.append(CertificateReport(
                    k=int(cells["k"]), name=cells["name"],
                    lhs=_nanfloat(cells["lhs"]), rhs=_nanfloat(cells["rhs"]),
                    slack=_nanfloat(cells["slack"]),
                    passed=cells["pass"] == "true", status=cells["status"],
                ))
            return reports
        header = json.loads(first)
        if header.get("format") != "proxcert-report":
            raise ConfigurationError("file is not a proxcert report")
        for line in fh:
            fields = json.loads(line)
            reports.append(CertificateReport(
                k=int(fields["k"]), name=fields["name"],
                lhs=_nanfloat(fields["lhs"]), rhs=_nanfloat(fields["rhs"]),
                slack=_nanfloat(fields["slack"]),
                passed=bool(fields["pass"]), status=fields["status"],
            ))
    return reports


def _nanfloat(cell) -> float:
    if cell is None or cell == "":
        return float("nan")
    return float(cell)
