"""File formats: traces, certificate reports and the compare table.

Each file is a table of columns in CSV or JSON lines.  Traces and reports are
versioned so the certificate engine refuses incompatible files instead of
misreading columns: CSV files start with `# proxcert-trace v5` (reports with
`# proxcert-report v1`), JSON-lines files with a header object carrying
schema_version.  Only these versions are read.  Floats are written as their
shortest round-trip decimals, so a re-parsed trace certifies identically.

A trace (v5) stores what the run chose: `k`, `f_y`, `grad_map_norm` and
`accepted` in every row, and x_0 in the first row's `x`, which is empty in
every other row.  x_k for k >= 1, y_k, G_k and F(z_k) are not stored:
`solvers.Trace.replay` derives them from x_0 and each row's `accepted` bit
for bit and checks the stored cells against them.

Each column has a kind, which writes one value of its type as a CSV cell
(`text`) or a JSON value (`to_json`) and reads one back (`cell`, `read_json`);
an optional kind writes None as an empty cell or a null, which reads back as
the kind's `null`.  `_COLUMN_KINDS` lists the trace columns in file order with
their kinds and `_REPORT_KINDS` the report columns; the compare table (only
written) is `k` and a gap per solver.  `_csv_lines` and `_jsonl_lines` encode
columns of values as rows, for all three files.  `_csv_blocks` and
`_jsonl_blocks` turn each line into its row's raw values, and `_blocks` reads
those one row at a time into blocks of columns, so that the first corrupt line
is the one named in both formats.  A CSV cell must be the writer's text for its
value and a JSON-lines row must have every column as a key; a missing value,
one not of its column's kind or a row that is not a JSON object is a data
error naming the line (and the column), which `certify` reports with exit 3.

No CSV cell ever needs quoting (numbers, `;`-joined numbers, true/false,
certificate names and statuses), so rows are `,`-joined cells ending in CRLF,
the bytes `csv.writer`'s default dialect writes, read by splitting on `,`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from .certificates import CertificateTable
from .errors import (_FLOAT_MAX, SETTING_RULES, ConfigurationError, DataCorruptionError,
                     check_setting)
from .solvers import SolverConfig, Trace

SCHEMA_VERSION = 5  # the trace version written and read
TRACE_MAGIC = f"# proxcert-trace v{SCHEMA_VERSION}"
_REPORT_SCHEMA_VERSION = 1
REPORT_MAGIC = f"# proxcert-report v{_REPORT_SCHEMA_VERSION}"

# Characters of a file read per block, the size of the stream's blocks
# (`solvers._BLOCK_BYTES`).  A block holds its lines and the values read so
# far; only the row being read is split into cells.
_BLOCK_TEXT = 1 << 17


@dataclass
class TraceMeta:
    """Run metadata a trace file carries alongside its rows: the run's settings,
    which `config` checks, and its problem (spec and content hash)."""

    variant: Optional[str] = None
    alpha: Optional[float] = None
    step: Optional[float] = None
    problem_hash: Optional[str] = None
    max_iters: Optional[int] = None
    grad_map_tol: Optional[float] = None
    problem: Optional[dict] = None
    schema_version: int = SCHEMA_VERSION

    def config(self) -> SolverConfig:
        """The run's SolverConfig; a setting that is None (null or missing) or
        breaks its rule is a ConfigurationError `trace metadata <key> must be ...`."""
        try:
            check_setting("step", self.step)  # None would be a run's default step
            return SolverConfig(**{key: getattr(self, key) for key in SETTING_RULES})
        except ConfigurationError as exc:
            raise ConfigurationError(f"trace metadata {exc}") from None


def _fmt_vector(coordinates) -> str:
    """The cell of a vector given as its coordinates, Python floats."""
    return ";".join(map(repr, coordinates))


def _exact_float(cell: str) -> float:
    """The float of a cell that is the writer's text for it: its shortest
    round-trip decimal, so `1_0`, ` 1.5` or `1.50` is a ValueError."""
    value = float(cell)
    if repr(value) != cell:
        raise ValueError(f"{cell!r} is not the shortest text of {value!r}")
    return value


def _parse_vector(cell: str) -> np.ndarray:
    """The vector of a non-empty cell, each coordinate the writer's text."""
    return np.array([_exact_float(c) for c in cell.split(";")], dtype=np.float64)


class _Kind(NamedTuple):
    """How one value of a kind of column is written and read."""

    what: str  # what a value of the kind is, for error messages
    text: Callable  # value other than None -> CSV cell
    cell: Callable  # CSV cell -> value; ValueError or KeyError if not of the kind
    to_json: Callable  # value other than None -> JSON value
    is_json: Callable  # JSON value -> whether it is of the kind
    from_json: Callable = lambda value: value  # JSON value of the kind -> value
    optional: bool = False  # None is written as an empty cell or a null
    null: object = None  # what an empty cell or a null of an optional kind reads as

    def read_json(self, value):
        """The value of a JSON value of the kind; a ValueError if it is not one."""
        if not self.is_json(value):
            raise ValueError(value)
        return self.from_json(value)


def _is_int64(value) -> bool:
    """An int that fits in int64, as certification stores k (not a bool)."""
    return type(value) is int and -2 ** 63 <= value < 2 ** 63


def _parse_int64(cell: str) -> int:
    value = int(cell)
    if str(value) != cell or not _is_int64(value):
        raise ValueError(f"{cell!r} is not the text of a 64-bit integer")
    return value


_INT = _Kind("an integer", str, _parse_int64, int, _is_int64)
# A JSON number is a float, or an int that float() takes (one in the float range).
_FLOAT = _Kind("a number", repr, _exact_float, float,
               lambda value: type(value) is float
               or type(value) is int and abs(value) <= _FLOAT_MAX)
_BOOL = _Kind("true or false", lambda value: "true" if value else "false",
              {"true": True, "false": False}.__getitem__, bool,
              lambda value: type(value) is bool)
_OPT_FLOAT = _FLOAT._replace(optional=True)
_OPT_BOOL = _BOOL._replace(optional=True)
_OPT_VECTOR = _Kind("a list of numbers", _fmt_vector, _parse_vector, lambda value: value,
                    lambda value: (isinstance(value, list)
                                   and all(map(_FLOAT.is_json, value))),
                    optional=True)

# Every trace column, in file order, with the kind of its values; each names
# a Trace column.  Every row has a value for each but `accepted` and `x`; the
# first row, and only it, has an `x` (x_0).
_COLUMN_KINDS = {
    "k": _INT, "f_y": _FLOAT, "grad_map_norm": _FLOAT, "accepted": _OPT_BOOL,
    "x": _OPT_VECTOR,
}
_TRACE_COLUMNS = tuple(_COLUMN_KINDS)


def _json_float(x: float):
    """x, or null if x is not finite: JSON has no NaN or infinity."""
    return x if math.isfinite(x) else None


def _choice(what: str, choices: tuple) -> _Kind:
    """The kind of an index into `choices`, written as the string it picks."""
    return _Kind(what, choices.__getitem__, choices.index, choices.__getitem__,
                 lambda value: value in choices, choices.index)


_REPORT_FLOAT = _FLOAT._replace(optional=True, to_json=_json_float, null=float("nan"))
_NAME = _choice("a certificate name", CertificateTable.NAMES)
_STATUS = _choice("ok or not_applicable", CertificateTable.STATUSES)

# Every report column, in file order, with the kind of its values, which are
# those of the CertificateTable column in the same place: `name` holds an
# index into NAMES and `status` an index into STATUSES (whether the line
# applies).  lhs, rhs and slack hold Python floats; NaN is written as `nan`
# in CSV and, like an infinity, as null in JSON lines, and an empty cell or a
# null reads as NaN.
_REPORT_KINDS = {
    "k": _INT, "name": _NAME, "lhs": _REPORT_FLOAT, "rhs": _REPORT_FLOAT,
    "slack": _REPORT_FLOAT, "pass": _BOOL, "status": _STATUS,
}
_REPORT_COLUMNS = tuple(_REPORT_KINDS)


def _csv_lines(names, kinds, columns) -> str:
    """CSV rows of columns of values, each cell written by its column's kind
    (empty for None) and each row ending in CRLF.  `names` is unused: a CSV
    file names its columns once, in its header."""
    cells = [["" if v is None else kind.text(v) for v in column]
             for kind, column in zip(kinds, columns)]
    return "".join([",".join(row) + "\r\n" for row in zip(*cells)])


def _jsonl_lines(names, kinds, columns) -> str:
    """JSON-lines rows of columns of values, one object per row keyed by
    `names`; None is written as null."""
    values = [[None if v is None else kind.to_json(v) for v in column]
              for kind, column in zip(kinds, columns)]
    return "".join([json.dumps(dict(zip(names, row))) + "\n" for row in zip(*values)])


def _encoder(what: str, fmt: str) -> Callable:
    """The row encoder of format `fmt` for a file of kind `what`."""
    if fmt not in ("csv", "jsonl"):
        raise ConfigurationError(f"unknown {what} format {fmt!r}; valid: csv, jsonl")
    return _csv_lines if fmt == "csv" else _jsonl_lines


def _header(what: str, version: int, fmt: str, names, meta: Optional[dict] = None) -> str:
    """The header of a trace or a report (`what`) of this version.  In CSV it
    is the magic line, a trace's `# meta` line and the column names; in JSON
    lines one object of the file's format, `meta` and schema_version."""
    meta = {**(meta or {}), "schema_version": version}
    if fmt == "jsonl":
        return json.dumps({"format": f"proxcert-{what}", **meta}) + "\n"
    meta_line = f"# meta {json.dumps(meta)}\n" if what == "trace" else ""
    return f"# proxcert-{what} v{version}\n{meta_line}{','.join(names)}\r\n"


def write_trace(path, meta: TraceMeta, trace: Trace, fmt: str = "csv") -> None:
    """Write one row per record of a Trace, with its first x as x_0: `run`'s
    Trace, or `read_trace`'s, whose file it writes again byte for byte.  The
    file is of version SCHEMA_VERSION whatever meta.schema_version says.
    Like read_trace, refuses bad settings (ConfigurationError), and a trace
    without a value a file stores (RejectedInputError naming the column)."""
    encode = _encoder("trace", fmt)
    meta.config()
    trace.require(_TRACE_COLUMNS[:-1], len(trace))
    trace.require(("x",), min(len(trace), 1))  # x_0
    with open(path, "w", newline="") as fh:
        fh.write(_header("trace", SCHEMA_VERSION, fmt, _TRACE_COLUMNS, asdict(meta)))
        for i, chunk in enumerate(trace.chunks()):
            # the scalar columns, then x, the last
            columns = [getattr(chunk, name).tolist() for name in _TRACE_COLUMNS[:-1]]
            x = [None] * len(chunk)
            if i == 0:
                x[0] = chunk.x[0].tolist()
            fh.write(encode(_TRACE_COLUMNS, _COLUMN_KINDS.values(), columns + [x]))


def read_trace(path):
    """Parse a v5 trace file (either format); returns (TraceMeta, Trace).

    The Trace's `x` holds x_0 alone, a (1, d) array (empty for a file
    without rows), and it has no `y`, `grad_map` or `f_z`: `Trace.replay`
    derives every x_k, y_k, G_k and F(z_k).  A file of another version is a
    ConfigurationError naming its version; a first row without x_0, or a
    later row with an `x`, is a data error naming its line."""
    with open(path, newline="") as fh:
        decode, header, first_line = _read_header(fh, "trace", SCHEMA_VERSION)
        meta = _meta_from_dict(header)
        blocks = []
        for line_no, columns in decode("trace", fh, first_line, _COLUMN_KINDS):
            x0 = _x0(columns.pop("x"), line_no, first=not blocks)
            blocks.append(Trace(**columns, x=x0))
    return meta, Trace.concat(blocks or [Trace((), (), (), (), ())])


def _x0(xs: list, line_no: int, first: bool):
    """[x_0] from the first block's `x` values, None from a later block's,
    whose first row is on line `line_no`; a data error names the line of a
    missing x_0 or of an `x` past it."""
    start = 1 if first else 0
    if first and xs[0] is None:
        raise DataCorruptionError(f"trace line {line_no}: field 'x' is empty; the "
                                  f"first row stores x_0, {_OPT_VECTOR.what}")
    stray = next((i for i in range(start, len(xs)) if xs[i] is not None), None)
    if stray is not None:
        raise _bad_field(f"trace line {line_no + stray}", "x",
                         "empty past the first row, which alone stores x_0",
                         np.asarray(xs[stray]).tolist())
    return xs[:1] if first else None


def _read_header(fh, what: str, version: int):
    """(decoder, JSON header, number of the next line) of a trace or a report
    (`what`) of this version, from its header: a CSV file's
    `# proxcert-<what> v<version>` line, then a trace's `# meta` line, whose
    JSON is the header (None for a CSV report), or a JSON-lines file's header
    object.  Another version, or another file, is a ConfigurationError naming
    what it found."""
    first = fh.readline().rstrip("\n")
    if first.startswith("#"):
        magic = f"# proxcert-{what} v{version}"
        if first != magic:
            raise ConfigurationError(f"unsupported {what} header {first!r:.80}; "
                                     f"expected {magic!r}")
        if what != "trace":
            return _csv_blocks, None, 2
        meta_line = fh.readline().rstrip("\n")
        if not meta_line.startswith("# meta "):
            raise ConfigurationError("malformed trace file header")
        return _csv_blocks, _json_header(meta_line[len("# meta "):], what), 3
    header = _json_header(first, what)
    if not isinstance(header, dict) or header.get("format") != f"proxcert-{what}":
        raise ConfigurationError(f"file is not a proxcert {what}")
    found = header.get("schema_version")
    if not (type(found) is int and found == version):
        raise ConfigurationError(
            f"unsupported {what} schema_version {found!r:.80}; expected {version}")
    return _jsonl_blocks, header, 2


def _json_header(text: str, what: str):
    """The JSON value of a header line of a trace or a report (`what`); a
    ConfigurationError saying the file is not one if the line is not JSON."""
    try:
        return json.loads(text)
    except ValueError:
        raise ConfigurationError(f"file is not a proxcert {what}: its header "
                                 f"{text!r:.80} is not JSON") from None


def _meta_from_dict(d: dict) -> TraceMeta:
    """A header's checked TraceMeta; other keys (an older dim, seed) are ignored."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"trace metadata must be a JSON object, got {d!r:.80}")
    meta = TraceMeta(**{k: d[k] for k in TraceMeta.__dataclass_fields__ if k in d})
    if not (type(meta.schema_version) is int and meta.schema_version == SCHEMA_VERSION):
        raise ConfigurationError(f"trace metadata schema_version must be "
                                 f"{SCHEMA_VERSION}, got {meta.schema_version!r}")
    meta.config()
    return meta


def _bad_field(where: str, name: str, what: str, value) -> DataCorruptionError:
    """The data error for a field holding a value that is not `what`; a long
    value is cut to its first 80 characters."""
    return DataCorruptionError(f"{where}: field {name!r} must be {what}, got {value!r:.80}")


def _blocks(what: str, fh, first_line: int, kinds: dict, values: Callable,
            read: Callable, empty):
    """(number of its first line, {name: values}) for each block of the rows of
    a trace or a report (`what`) from line `first_line`, read one row at a time.

    values(line_no, line) is the row's raw values, one per column in `kinds`
    in its order, and read(kind) the kind's reader of one raw value, which
    raises ValueError or KeyError on a value not of the kind.  A raw value
    equal to `empty` of an optional kind reads as the kind's `null`; another
    value not of its kind is a data error naming its line and column.
    """
    fields = [(name, kind, read(kind)) for name, kind in kinds.items()]
    for lines in iter(lambda: fh.readlines(_BLOCK_TEXT), []):
        columns = [[] for _ in fields]
        for line_no, line in enumerate(lines, start=first_line):
            for (name, kind, reader), column, value in zip(fields, columns,
                                                           values(line_no, line)):
                if kind.optional and value == empty:
                    column.append(kind.null)
                    continue
                try:
                    column.append(reader(value))
                except (ValueError, KeyError):
                    raise _bad_field(f"{what} line {line_no}", name, kind.what,
                                     value) from None
        yield first_line, dict(zip(kinds, columns))
        first_line += len(lines)


def _csv_blocks(what: str, fh, first_line: int, kinds: dict):
    """The `_blocks` of the CSV rows of a trace or a report (`what`).

    fh is at the file's column header, line `first_line`, which must name
    every column in `kinds`; other columns are not read.  A row must have a
    cell for each column named, and an empty cell is an optional kind's null.
    """
    names = fh.readline().rstrip("\r\n").split(",")
    position = {name: i for i, name in enumerate(names)}
    missing = [name for name in kinds if name not in position]
    if missing:
        raise ConfigurationError(f"{what} has no column(s) {', '.join(missing)}")
    at = [position[name] for name in kinds]

    def cells(line_no: int, line: str) -> list:
        row = line.rstrip("\r\n").split(",")
        if len(row) != len(names):
            where = f"{what} line {line_no} has {len(row)} cells"
            if len(row) < len(names):
                raise DataCorruptionError(
                    f"{where}; column {names[len(row)]!r} is missing")
            raise DataCorruptionError(f"{where} for {len(names)} columns")
        return [row[i] for i in at]
    return _blocks(what, fh, first_line + 1, kinds, cells, attrgetter("cell"), "")


def _jsonl_blocks(what: str, fh, first_line: int, kinds: dict):
    """The `_blocks` of the JSON-lines rows of a trace or a report (`what`),
    from line `first_line`.

    Each row must be a JSON object with a key for every column in `kinds`;
    other keys are not read.  A null is an optional kind's null.
    """
    def values(line_no: int, line: str) -> list:
        try:
            row = json.loads(line)
        except ValueError as exc:
            raise DataCorruptionError(f"{what} line {line_no} is not JSON: {exc}") from None
        if not isinstance(row, dict):
            raise DataCorruptionError(f"{what} line {line_no} is not a JSON object")
        try:
            return [row[name] for name in kinds]
        except KeyError as exc:
            raise DataCorruptionError(f"{what} line {line_no} has no {exc.args[0]!r}") \
                from None
    return _blocks(what, fh, first_line, kinds, values, attrgetter("read_json"), None)


def write_report(path, table: CertificateTable, fmt: str = "csv") -> None:
    """Write one line per (k, name) certificate result of the table."""
    encode = _encoder("report", fmt)
    kinds = tuple(_REPORT_KINDS.values())
    with open(path, "w", newline="") as fh:
        fh.write(_header("report", _REPORT_SCHEMA_VERSION, fmt, _REPORT_COLUMNS))
        for chunk in table.chunks():
            columns = [column.tolist() for column in vars(chunk).values()]
            fh.write(encode(_REPORT_COLUMNS, kinds, columns))


def read_report(path) -> CertificateTable:
    """Parse a report file back into a CertificateTable; a report of another
    version is a ConfigurationError naming its header."""
    with open(path) as fh:
        decode, _, first_line = _read_header(fh, "report", _REPORT_SCHEMA_VERSION)
        tables = [CertificateTable(*block.values())
                  for _, block in decode("report", fh, first_line, _REPORT_KINDS)]
    return CertificateTable.concat(tables)


def write_comparison(path, comparison, fmt: str = "csv") -> None:
    """Write a SolverComparison's gap table: `k`, then a `gap_<label>` column
    per solver, empty (null) past the iteration where that solver stopped."""
    encode = _encoder("table", fmt)
    names = ["k"] + [f"gap_{label}" for label in comparison.labels]
    kinds = [_INT] + [_OPT_FLOAT] * len(comparison.labels)
    columns = [comparison.ks] + [comparison.gaps[label] for label in comparison.labels]
    with open(path, "w", newline="") as fh:
        if fmt == "csv":
            fh.write(",".join(names) + "\r\n")
        fh.write(encode(names, kinds, columns))
