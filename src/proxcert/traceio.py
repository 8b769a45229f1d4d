"""Trace and report file formats (CSV and JSON lines).

Both formats are versioned so the certificate engine refuses incompatible
files instead of misreading columns: CSV files start with `# proxcert-trace v1`
(reports with `# proxcert-report v1`), JSON-lines files with a header object
carrying schema_version.  All floats are serialized with their shortest
round-trip decimal representation, so a re-parsed trace certifies identically.

No CSV cell ever needs quoting (numbers, `;`-joined numbers, true/false,
certificate names and statuses), so rows are written as `,`-joined cells ending
in CRLF, the bytes `csv.writer`'s default dialect writes, and read by splitting
on `,`.  Trace rows are read in blocks, each iterate column of a block parsed
in one `np.loadtxt` call.

Trace rows are written in spans of about `_SPAN_COORDS` numbers, each span
turned into bytes by one call of the format's row encoder.  A trace of two or
more spans is encoded by forked worker processes, one per available core, and
written in order; the encoder is the same either way, so the bytes do not
depend on the number of cores.
"""

from __future__ import annotations

import json
import math
import os
import sys
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
_VECTOR_COLUMNS = ("x", "y", "grad_map")
_REPORT_COLUMNS = ("k", "name", "lhs", "rhs", "slack", "pass", "status")
# Fields without which a JSON-lines trace row is not a record.
_REQUIRED_FIELDS = ("k", "f_y", "grad_map_norm")
# Scalar fields of a JSON-lines trace row that must hold JSON numbers.
_NUMBER_FIELDS = ("f_y", "f_z", "grad_map_norm", "gap")
# Characters of CSV trace read per block: about the 128 KB of float64 per
# iterate column that certification stacks (certificates._BLOCK_BYTES), at
# about 20 characters per coordinate in each of the three vector columns.
_BLOCK_TEXT = 1 << 20
# Numbers (scalar cells and vector coordinates) per span of trace rows that
# one encoder call formats; a trace of two or more spans is formatted on every
# available core.
_SPAN_COORDS = 1 << 14


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


def _floats(v) -> list:
    """A vector's coordinates as Python floats."""
    return np.asarray(v, dtype=np.float64).tolist()


def _fmt_vector(v) -> str:
    return "" if v is None else ";".join(map(repr, _floats(v)))


def _parse_vector(cell: str) -> np.ndarray:
    return np.array([float(c) for c in cell.split(";")], dtype=np.float64)


def _write_row(fh, cells) -> None:
    fh.write(",".join(cells) + "\r\n")


def _opt_float(cell: str) -> Optional[float]:
    return None if cell == "" else float(cell)


def _opt_bool(cell: str) -> Optional[bool]:
    return None if cell == "" else cell == "true"


def write_trace(path, meta: TraceMeta, records, fmt: str = "csv") -> None:
    """Write one row per IterationRecord; iterates included per meta.iterates."""
    if fmt == "csv":
        columns = _TRACE_COLUMNS + (_ITERATE_COLUMNS if meta.iterates else ())
        header = (f"{TRACE_MAGIC}\n# meta {json.dumps(asdict(meta))}\n"
                  f"{','.join(columns)}\r\n")
        encode = _csv_rows
    elif fmt == "jsonl":
        header = json.dumps({"format": "proxcert-trace", **asdict(meta)}) + "\n"
        encode = _jsonl_rows
    else:
        raise ConfigurationError(f"unknown trace format {fmt!r}; valid: csv, jsonl")
    with open(path, "wb") as fh:
        fh.write(header.encode())
        _write_rows(fh, encode, list(records), meta.iterates)


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


def _csv_rows(records, iterates: bool) -> bytes:
    """CSV trace rows of records, each ending in CRLF."""
    columns = _TRACE_COLUMNS + (_ITERATE_COLUMNS if iterates else ())
    rows = []
    for rec in records:
        fields = _record_fields(rec, iterates)
        rows.append(",".join([_fmt_vector(fields[col]) if col in _VECTOR_COLUMNS
                              else _fmt(fields[col]) for col in columns]) + "\r\n")
    return "".join(rows).encode()


def _jsonl_rows(records, iterates: bool) -> bytes:
    """JSON-lines trace rows of records, one object per line."""
    rows = []
    for rec in records:
        fields = _record_fields(rec, iterates)
        for key in _VECTOR_COLUMNS:
            if key in fields and fields[key] is not None:
                fields[key] = _floats(fields[key])
        for key in ("f_y", "gap", "grad_map_norm", "energy", "f_z"):
            if key in fields and fields[key] is not None:
                fields[key] = float(fields[key])
        if fields.get("accepted") is not None:
            fields["accepted"] = bool(fields["accepted"])
        rows.append(json.dumps(fields) + "\n")
    return "".join(rows).encode()


def _write_rows(fh, encode, records: list, iterates: bool) -> None:
    """Write encode(span, iterates) for consecutive spans of the records.

    With two or more spans and more than one core, forked workers encode the
    spans and the parent writes each chunk in order as it arrives.  Workers
    read the records they inherit, so only (start, stop) pairs and encoded
    bytes cross between processes.  Both paths call the same encoder, so the
    bytes do not depend on the path.
    """
    span = _span_rows(records, iterates)
    spans = [(start, start + span) for start in range(0, len(records), span)]
    workers = min(_cores(), len(spans))
    if workers < 2:
        for start, stop in spans:
            fh.write(encode(records[start:stop], iterates))
        return
    import multiprocessing  # only here: reading a trace never starts a pool

    pool = multiprocessing.get_context("fork").Pool(
        workers, _adopt_job, (encode, records, iterates))
    try:
        for chunk in pool.imap(_encode_span, spans):
            fh.write(chunk)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()


def _span_rows(records: list, iterates: bool) -> int:
    """Rows per span: about _SPAN_COORDS numbers, counted on the first row."""
    width = len(_TRACE_COLUMNS)
    if iterates and records:
        width += 1 + len(_VECTOR_COLUMNS) * np.size(records[0].x)
    return max(1, _SPAN_COORDS // width)


def _cores() -> int:
    """Cores this process may run on; 1 where fork or the affinity call is
    missing, and in a daemonic process (a pool's worker), which may not start
    processes of its own."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    started_by = sys.modules.get("multiprocessing")  # imported in any worker
    if started_by is not None and started_by.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


_job = None  # (encode, records, iterates) in a trace writer's worker process


def _adopt_job(*job) -> None:
    global _job
    _job = job


def _encode_span(span) -> bytes:
    encode, records, iterates = _job
    start, stop = span
    return encode(records[start:stop], iterates)


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
    if not isinstance(header, dict) or header.get("format") != "proxcert-trace":
        raise ConfigurationError("file is not a proxcert trace")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported trace schema_version {header.get('schema_version')}"
        )
    return _read_trace_jsonl(path)


def _meta_from_dict(d: dict) -> TraceMeta:
    try:
        meta = TraceMeta(**{k: d[k] for k in TraceMeta.__dataclass_fields__ if k in d})
    except TypeError as exc:
        raise ConfigurationError(f"trace metadata is incomplete: {exc}")
    if meta.dim is not None and (type(meta.dim) is not int or meta.dim < 1):
        raise ConfigurationError(
            f"trace metadata dim must be a positive integer, got {meta.dim!r}"
        )
    for key in ("alpha", "step"):
        value = getattr(meta, key)
        if not _is_number(value) or not math.isfinite(value):
            raise ConfigurationError(
                f"trace metadata {key} must be a finite number, got {value!r}"
            )
    return meta


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return type(value) in (int, float)


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


def _check_cell_count(what: str, line_no: int, row: list, columns) -> None:
    if len(row) != len(columns):
        where = f"{what} line {line_no} has {len(row)} cells"
        if len(row) < len(columns):
            raise DataCorruptionError(f"{where}; column {columns[len(row)]!r} is missing")
        raise DataCorruptionError(f"{where} for {len(columns)} columns")


def _check_dim(meta: TraceMeta, line_no: int, k, name: str, v) -> None:
    """A data error unless vector v has the trace's declared dimension, if any."""
    if meta.dim is not None and v is not None and np.shape(v) != (meta.dim,):
        raise DataCorruptionError(
            f"trace line {line_no}: record k={k} has a {name} of shape "
            f"{np.shape(v)}; the trace metadata says dim = {meta.dim}"
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
        columns = fh.readline().rstrip("\r\n").split(",")
        required = _TRACE_COLUMNS + (_ITERATE_COLUMNS if meta.iterates else ())
        missing = [c for c in required if c not in columns]
        if missing:
            raise ConfigurationError(f"trace has no column(s) {', '.join(missing)}")
        records = []
        line_no = 4  # of the block's first row, after the magic, meta and columns
        for lines in iter(lambda: fh.readlines(_BLOCK_TEXT), []):
            records += _csv_block_records(lines, line_no, columns, meta)
            line_no += len(lines)
    return meta, records


def _csv_block_records(lines, first_line: int, columns, meta: TraceMeta) -> list:
    """IterationRecords of one block of CSV trace rows."""
    rows = [line.rstrip("\r\n").split(",") for line in lines]
    for i, row in enumerate(rows):
        _check_cell_count("trace", first_line + i, row, columns)
    cells = dict(zip(columns, zip(*rows)))
    fields = {
        "k": [int(c) for c in cells["k"]],
        "f_y": [float(c) for c in cells["f_y"]],
        "gap": [_opt_float(c) for c in cells["gap"]],
        "grad_map_norm": [float(c) for c in cells["grad_map_norm"]],
        "accepted": [_opt_bool(c) for c in cells["accepted"]],
        "energy": [_opt_float(c) for c in cells["energy"]],
    }
    if meta.iterates:
        fields["f_z"] = [_opt_float(c) for c in cells["f_z"]]
        for name in _VECTOR_COLUMNS:
            fields[name] = _parse_vectors(cells[name])
            for i, (k, v) in enumerate(zip(fields["k"], fields[name])):
                _check_dim(meta, first_line + i, k, name, v)
    return [IterationRecord(**dict(zip(fields, values)))
            for values in zip(*fields.values())]


def _parse_vectors(cells) -> list:
    """One block's cells of a vector column: row views of one parsed array.

    A block with an empty, ragged or non-numeric cell is parsed cell by cell
    instead (None for an empty cell), so that the parse error or a shape
    check names the cell's row.
    """
    if all(cells):  # loadtxt would skip an empty line
        try:
            return list(np.loadtxt(cells, delimiter=";", comments=None,
                                   dtype=np.float64, ndmin=2))
        except ValueError:
            pass
    return [_parse_vector(c) if c else None for c in cells]


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
            _check_json_numbers(line_no, fields)
            for key in _VECTOR_COLUMNS:
                if fields.get(key) is not None:
                    fields[key] = np.array(fields[key], dtype=np.float64)
                    _check_dim(meta, line_no, fields["k"], key, fields[key])
            records.append(_record_from_fields(fields))
    return meta, records


def _check_json_numbers(line_no: int, fields: dict) -> None:
    """A data error unless a JSON-lines row's numeric fields hold JSON numbers
    (not bools, strings or lists), the optional ones null or numbers."""
    if type(fields["k"]) is not int:
        raise DataCorruptionError(
            f"trace line {line_no}: field 'k' must be an integer, got {fields['k']!r}"
        )
    for key in _NUMBER_FIELDS:
        value = fields.get(key)
        if value is not None and not _is_number(value):
            raise DataCorruptionError(
                f"trace line {line_no}: field {key!r} must be a number, got {value!r}"
            )
    for key in _VECTOR_COLUMNS:
        value = fields.get(key)
        if value is not None and not (isinstance(value, list)
                                      and set(map(type, value)) <= {int, float}):
            raise DataCorruptionError(
                f"trace line {line_no}: field {key!r} must be a list of numbers"
            )


def write_report(path, reports, fmt: str = "csv") -> None:
    """Write one line per (k, name) certificate result."""
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(REPORT_MAGIC + "\n")
            _write_row(fh, _REPORT_COLUMNS)
            for rep in reports:
                _write_row(fh, [
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
        rows = []
        if first == REPORT_MAGIC:
            fh.readline()  # column header
            for line_no, line in enumerate(fh, start=3):
                row = line.rstrip("\r\n").split(",")
                _check_cell_count("report", line_no, row, _REPORT_COLUMNS)
                cells = dict(zip(_REPORT_COLUMNS, row))
                cells["pass"] = cells["pass"] == "true"
                rows.append(cells)
        else:
            header = json.loads(first)
            if not isinstance(header, dict) or header.get("format") != "proxcert-report":
                raise ConfigurationError("file is not a proxcert report")
            for line_no, line in enumerate(fh, start=2):
                fields = json.loads(line)
                if not isinstance(fields, dict):
                    raise DataCorruptionError(f"report line {line_no} is not a JSON object")
                missing = [key for key in _REPORT_COLUMNS if key not in fields]
                if missing:
                    raise DataCorruptionError(f"report line {line_no} has no {missing[0]!r}")
                fields["pass"] = bool(fields["pass"])
                rows.append(fields)
    return [CertificateReport(
        k=int(r["k"]), name=r["name"], lhs=_nanfloat(r["lhs"]),
        rhs=_nanfloat(r["rhs"]), slack=_nanfloat(r["slack"]),
        passed=r["pass"], status=r["status"],
    ) for r in rows]


def _nanfloat(cell) -> float:
    if cell is None or cell == "":
        return float("nan")
    return float(cell)
