"""Round-trip tests for the versioned trace and report formats."""

import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxcert import (
    CertificateReport,
    CertificateTable,
    ConfigurationError,
    DataCorruptionError,
    EnergyContext,
    RejectedInputError,
    SolverConfig,
    Trace,
    certify_trace,
    generate_suite,
    random_lasso,
    random_quadratic,
    run,
    traceio,
)
from proxcert.errors import SETTING_RULES, VARIANTS
from proxcert.solvers import IterationRecord
from proxcert.traceio import (
    SCHEMA_VERSION,
    TraceMeta,
    read_report,
    read_trace,
    write_report,
    write_trace,
)


def sample_records():
    p = random_quadratic(3, 4, 100)
    cfg = SolverConfig(variant="mapm", alpha=3.0, max_iters=30)
    return p, run(p, cfg, np.zeros(4))


def sample_meta(problem):
    return TraceMeta(variant="mapm", alpha=3.0,
                     step=0.5 / problem.smooth.lipschitz,
                     problem_hash=problem.content_hash,
                     max_iters=30, grad_map_tol=0.0,
                     problem={"name": "quadratic", "dim": 4, "cond": 100,
                              "seed": 3})


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_trace_round_trip_is_exact(tmp_path, fmt):
    problem, records = sample_records()
    meta = sample_meta(problem)
    path = tmp_path / f"trace.{fmt}"
    write_trace(path, meta, records, fmt)
    meta2, records2 = read_trace(path)
    assert records2.y is None and records2.grad_map is None  # not stored ...
    assert records2.f_z is None
    assert np.array_equal(records2.x, records.x[:1])  # x_0 alone
    assert records2[0].x is not None and records2[1].x is None
    records2 = records2.replayed(problem, meta2.config())  # ... but derived

    assert meta2 == meta
    assert len(records2) == len(records)
    for a, b in zip(records, records2):
        assert a.k == b.k
        assert a.f_y == b.f_y  # bit-exact via shortest round-trip decimals
        assert a.grad_map_norm == b.grad_map_norm
        assert a.accepted == b.accepted
        assert a.f_z == b.f_z
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.grad_map, b.grad_map)


@pytest.fixture(scope="module")
def suite():
    return generate_suite(20260808)


def report_bytes(path, table, fmt):
    write_report(path, table, fmt)
    return path.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_file_trace_certifies_to_the_runs_report_bytes(tmp_path, suite, fmt):
    # a file stores x_0 and accepted; the x, y, G_k and F(z_k) chained from
    # them are run()'s, bit for bit, and so is the report, for every suite
    # problem under every variant
    for problem in suite:
        for variant in VARIANTS:
            if variant == "strongly_convex_apm" and problem.smooth.strong_convexity == 0:
                continue
            config = SolverConfig(variant=variant, step=0.5 / problem.smooth.lipschitz,
                                  max_iters=300)
            trace = run(problem, config, np.zeros(problem.dim))
            meta = TraceMeta(**{key: getattr(config, key) for key in SETTING_RULES},
                             problem_hash=problem.content_hash)
            write_trace(tmp_path / "trace", meta, trace, fmt)
            read = read_trace(tmp_path / "trace")[1].replayed(problem, config)
            for name in ("x", "y", "grad_map", "f_z"):
                got, want = getattr(read, name), getattr(trace, name)
                assert np.array_equal(got, want), (problem.name, variant, name)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            ctx = EnergyContext(alpha=config.alpha, s=config.step,
                                mu=problem.smooth.strong_convexity,
                                lipschitz=problem.smooth.lipschitz,
                                x_star=trace.y[-1], f_star=float(np.min(trace.f_y)))
            tables = [certify_trace(ctx, t, variant=variant) for t in (trace, read)]
            assert (report_bytes(tmp_path / "run", tables[0], fmt)
                    == report_bytes(tmp_path / "file", tables[1], fmt)), (
                problem.name, variant)


def noisy(problem, seed):
    """The problem with 2e-16 relative noise on every gradient coordinate, as
    another BLAS build may round it; `replace` keeps the content hash."""
    rng = np.random.default_rng(seed)
    gradient = problem.smooth.gradient

    def noisy_gradient(x):
        g = gradient(x)
        return g * (1.0 + 2e-16 * rng.uniform(-1.0, 1.0, g.shape))
    return dataclasses.replace(
        problem, smooth=dataclasses.replace(problem.smooth, gradient=noisy_gradient))


@pytest.mark.parametrize("problem", [random_quadratic(101, 200, 100),
                                     random_lasso(101, 200, 400)],
                         ids=["quad-d200", "lasso-200x400"])
def test_replay_through_a_noisy_gradient_passes(tmp_path, problem):
    # the chain from x_0 follows the stored choices, so rounding that differs
    # from the run's drifts x_k, but stays inside every replay check
    config = SolverConfig(variant="mapm", step=0.5 / problem.smooth.lipschitz,
                          max_iters=2000)
    trace = run(problem, config, np.zeros(problem.dim))
    meta = TraceMeta(**{key: getattr(config, key) for key in SETTING_RULES},
                     problem_hash=problem.content_hash)
    write_trace(tmp_path / "trace", meta, trace, "csv")
    read = read_trace(tmp_path / "trace")[1].replayed(noisy(problem, 7), config)
    assert not np.array_equal(read.x, trace.x)  # the noise reached the chain
    assert np.array_equal(read.accepted, trace.accepted)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_record_without_y_writes_the_same_trace(tmp_path, fmt):
    # y is derived, not stored, so the writer does not ask for it
    problem, trace = sample_records()
    meta = sample_meta(problem)
    write_trace(tmp_path / "with", meta, trace, fmt)
    write_trace(tmp_path / "without", meta, dataclasses.replace(trace, y=None), fmt)
    assert (tmp_path / "with").read_bytes() == (tmp_path / "without").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_read_trace_writes_its_file_again(tmp_path, fmt):
    # the writer took IterationRecord rows too, and refused the rows of a read
    # trace, whose x is None past row 0
    problem, trace = sample_records()
    write_trace(tmp_path / "first", sample_meta(problem), trace, fmt)
    write_trace(tmp_path / "again", *read_trace(tmp_path / "first"), fmt)
    assert (tmp_path / "again").read_bytes() == (tmp_path / "first").read_bytes()


def row_values(row):
    """A row's values, vectors as dtype, shape and bytes, floats by their bits."""
    return [(v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
            else float(v).hex() if type(v) is float else v
            for v in dataclasses.astuple(row)]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_rows_are_python_values_however_the_trace_was_made(tmp_path, fmt):
    problem, trace = sample_records()
    accepted = trace.accepted.copy()
    trace.accepted[1] = None  # mixed None rows in the optional column
    meta = sample_meta(problem)
    write_trace(tmp_path / "trace", meta, trace, fmt)
    stored = read_trace(tmp_path / "trace")[1]
    # replay derives y from every mapm row's `accepted`, so it is given row
    # 1's; the read trace's own column, None in row 1, is put back
    read = dataclasses.replace(
        dataclasses.replace(stored, accepted=accepted).replayed(problem, meta.config()),
        accepted=stored.accepted)
    made = [trace, read]
    expected = list(map(row_values, trace))
    for each in made:
        assert isinstance(each, Trace) and len(each) == 31
        assert list(map(row_values, each)) == expected
        assert row_values(each[-1]) == expected[-1]
        assert list(map(row_values, each[5:9])) == expected[5:9]
        for row in each:
            assert type(row.k) is int
            assert {type(v) for v in (row.f_y, row.grad_map_norm, row.f_z)} == {float}
            assert type(row.accepted) is bool or row.k == 1 and row.accepted is None
            for v in (row.x, row.y, row.grad_map):
                assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (4,)
        row = each[3]
        row.f_y = 99.0  # a row is not the trace ...
        with pytest.raises(ValueError, match="read-only"):
            row.x[0] = 99.0  # ... and its vectors do not write to it
        assert row_values(each[3]) == expected[3]


def test_rejects_wrong_version(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text("# proxcert-trace v0\nk,f_y\n0,1.0\n")
    with pytest.raises(ConfigurationError):
        read_trace(path)


def test_rejects_foreign_jsonl(tmp_path):
    path = tmp_path / "foreign.jsonl"
    path.write_text('{"format": "something-else", "schema_version": 1}\n')
    with pytest.raises(ConfigurationError):
        read_trace(path)


@pytest.mark.parametrize("header", ["[1, 2]", "5", '"proxcert-trace"'])
def test_rejects_jsonl_header_that_is_not_an_object(tmp_path, header):
    path = tmp_path / "foreign.jsonl"
    path.write_text(header + "\n")
    with pytest.raises(ConfigurationError):
        read_trace(path)


@pytest.mark.parametrize("meta", ["5", "[1, 2]", '"variant"', "null"])
def test_rejects_csv_meta_that_is_not_an_object(tmp_path, meta):
    path = tmp_path / "trace.csv"
    path.write_text(f"{traceio.TRACE_MAGIC}\n# meta {meta}\nk\n")
    with pytest.raises(ConfigurationError, match="trace metadata must be a JSON object"):
        read_trace(path)


def test_rejects_unknown_format_name(tmp_path):
    problem, records = sample_records()
    with pytest.raises(ConfigurationError):
        write_trace(tmp_path / "x.bin", sample_meta(problem), records, "parquet")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_report_round_trip(tmp_path, fmt):
    reports = [
        CertificateReport(k=0, name="descent_lemma", lhs=-0.25, rhs=-0.125,
                          slack=0.125, passed=True),
        CertificateReport(k=3, name="prop1", lhs=-1.5, rhs=-1.25, slack=0.25,
                          passed=True),
        CertificateReport(k=0, name="prop2", lhs=float("nan"), rhs=float("nan"),
                          slack=float("nan"), passed=True,
                          status="not_applicable"),
        CertificateReport(k=9, name="theorem2_envelope", lhs=2.0, rhs=1.0,
                          slack=-1.0, passed=False),
    ]
    path = tmp_path / f"report.{fmt}"
    write_report(path, report_table(reports), fmt)
    back = read_report(path)
    assert isinstance(back, CertificateTable) and len(back) == len(reports)
    for a, b in zip(reports, back):
        assert (a.k, a.name, a.passed, a.status) == (b.k, b.name, b.passed, b.status)
        if a.status == "ok":
            assert (a.lhs, a.rhs, a.slack) == (b.lhs, b.rhs, b.slack)


def report_table(reports):
    """The CertificateTable of CertificateReport rows, in their order."""
    names, statuses = CertificateTable.NAMES, CertificateTable.STATUSES
    return CertificateTable(*zip(*[
        (r.k, names.index(r.name), r.lhs, r.rhs, r.slack, r.passed,
         statuses.index(r.status)) for r in reports]))


def test_schema_version_constant():
    assert SCHEMA_VERSION == 5
    assert traceio.TRACE_MAGIC == "# proxcert-trace v5"


def old_fmt_vector(v):
    """The vector cell format of the csv-module writer, kept as the oracle."""
    return ";".join(repr(float(c)) for c in v)


# Coordinates where text formatting and parsing could go wrong: signed zero,
# non-finite values, subnormals and repr's switch to exponent notation
# (below 1e-4 and from 1e16 on).
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                  5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                  1e-5, 9.999999999999999e-06, 1e-4, 1e16, 9999999999999998.0,
                  1.7976931348623157e308, 0.1, 1 / 3]
coordinates = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
vectors = st.integers(1, 12).flatmap(
    lambda d: st.lists(st.lists(coordinates, min_size=d, max_size=d),
                       min_size=1, max_size=6))


def bits(v):
    return np.asarray(v, dtype=np.float64).view(np.int64)


class TestCodecExactness:
    @settings(max_examples=150, deadline=None)
    @given(rows=vectors)
    def test_vector_cells_match_the_old_format(self, rows):
        for row in rows:
            v = np.array(row, dtype=np.float64)
            assert traceio._fmt_vector(v.tolist()) == old_fmt_vector(v)

    @settings(max_examples=150, deadline=None)
    @given(rows=vectors)
    def test_vector_parse_is_bit_exact(self, rows):
        for row in rows:
            v = traceio._parse_vector(traceio._fmt_vector(np.array(row).tolist()))
            # the written values' bits, but for nan's sign and payload
            written = np.array(row, dtype=np.float64)
            number = ~np.isnan(written)
            assert np.array_equal(bits(v)[number], bits(written)[number])
            assert np.array_equal(np.isnan(v), ~number)

    @pytest.mark.parametrize("cell, bad", [
        ("1.0;x", "'x'"),
        # float() reads these, but no writer emits them
        ("1_0;2.0", "'1_0'"), ("1.50;2.0", "'1.50'"), ("2.0; 1.5", "' 1.5'"),
        ("+1.5;2.0", "'\\+1.5'"), ("1e0;2.0", "'1e0'"),
        ("", "''"),  # an empty cell is no vector: it reads as None
    ], ids=["not_a_number", "underscore", "trailing_zero", "space", "plus",
            "exponent", "empty"])
    def test_non_number_raises_value_error(self, cell, bad):
        with pytest.raises(ValueError, match=bad):
            traceio._parse_vector(cell)

    @pytest.mark.parametrize("kind, cells, other_spellings", [
        (traceio._FLOAT, ["10.0", "1e-05", "-0.0", "inf", "-inf", "nan"],
         ["1_0", " 1.5", "1.50", "1e1", "+1.0", "10", "NaN", "-nan", "Infinity"]),
        (traceio._INT, ["0", "17", "-3"], ["1_0", "+1", "01", " 1", "-0", "1 "]),
    ], ids=["float", "int"])
    def test_scalar_cells_must_be_the_writers_text(self, kind, cells, other_spellings):
        values = kind.parse(cells)
        assert [kind.text(v) for v in values] == cells
        for cell in other_spellings:
            with pytest.raises(ValueError):
                kind.parse([cell])


def csv_module_trace(meta, records):
    """A CSV trace as the csv module writes it: the byte oracle."""
    buf = io.StringIO(newline="")
    buf.write(traceio.TRACE_MAGIC + "\n")
    buf.write("# meta " + json.dumps(asdict(meta)) + "\n")
    writer = csv.writer(buf)
    columns = traceio._TRACE_COLUMNS
    writer.writerow(columns)
    for rec in records:  # x_0 in the first row only
        writer.writerow(
            ["" if getattr(rec, c) is None or c == "x" and rec.k else
             old_fmt_vector(rec.x) if c == "x" else traceio._fmt(getattr(rec, c))
             for c in columns])
    return buf.getvalue().encode()


def csv_module_report(reports):
    buf = io.StringIO(newline="")
    buf.write(traceio.REPORT_MAGIC + "\n")
    writer = csv.writer(buf)
    writer.writerow(traceio._REPORT_COLUMNS)
    for rep in reports:
        writer.writerow([str(rep.k), rep.name, traceio._fmt(rep.lhs),
                         traceio._fmt(rep.rhs), traceio._fmt(rep.slack),
                         traceio._fmt(rep.passed), rep.status])
    return buf.getvalue().encode()


def test_csv_trace_bytes_equal_the_csv_module(tmp_path):
    problem, records = sample_records()
    records.accepted[1] = None
    records.f_y[2] = float("inf")
    records.x[0] = [-0.0, float("nan"), 5e-324, 1e16]
    meta = sample_meta(problem)
    path = tmp_path / "trace.csv"
    write_trace(path, meta, records, "csv")
    assert path.read_bytes() == csv_module_trace(meta, records)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("column", ["f_y", "grad_map_norm", "accepted", "x", None])
def test_writer_refuses_what_the_reader_refuses(tmp_path, fmt, column):
    # an empty cell was written, and read back as a record that certify called
    # one "with no stored iterates"; x is stored in row 0 only
    problem, trace = sample_records()
    path = tmp_path / f"trace.{fmt}"
    meta = sample_meta(problem)
    if column is None:  # metadata whose settings break their rules
        meta = dataclasses.replace(meta, max_iters=None)
        error, message = ConfigurationError, "trace metadata max_iters must be"
    else:  # a Trace without a column, or without x_0 (the one x stored)
        rows = 1 if column == "x" else 31
        trace = dataclasses.replace(trace, **{column: trace.x[:0] if rows == 1 else None})
        error = RejectedInputError
        message = f"trace has no '{column}' value in each of its first {rows} rows"
    with pytest.raises(error, match=message):
        write_trace(path, meta, trace, fmt)
    assert not path.exists()


def test_csv_report_bytes_equal_the_csv_module(tmp_path):
    problem, records = sample_records()
    ctx = EnergyContext(alpha=3.0, s=0.5 / problem.smooth.lipschitz,
                        mu=problem.smooth.strong_convexity,
                        lipschitz=problem.smooth.lipschitz,
                        x_star=problem.known_minimizer, f_star=problem.known_optimum)
    nan = float("nan")
    reports = list(certify_trace(ctx, records, variant="mapm")) + [
        CertificateReport(k=30, name="prop1", lhs=float("inf"), rhs=-1e-5,
                          slack=float("-inf"), passed=False),
        CertificateReport(k=0, name="prop2", lhs=nan, rhs=nan, slack=nan,
                          passed=True, status="not_applicable"),
    ]
    path = tmp_path / "report.csv"
    write_report(path, report_table(reports), "csv")
    assert path.read_bytes() == csv_module_report(reports)


def json_dumps_report(reports):
    """A JSON-lines report as json.dumps writes it row by row: the byte oracle."""
    def finite(x):
        return x if np.isfinite(x) else None

    lines = [json.dumps({"format": "proxcert-report", "schema_version": 1})]
    for rep in reports:
        lines.append(json.dumps({
            "k": rep.k, "name": rep.name, "lhs": finite(rep.lhs),
            "rhs": finite(rep.rhs), "slack": finite(rep.slack),
            "pass": bool(rep.passed), "status": rep.status}))
    return ("\n".join(lines) + "\n").encode()


REPORT_ORACLES = {"csv": csv_module_report, "jsonl": json_dumps_report}


def table_of(problem, variant, x0=None, edit=None, max_iters=30):
    """The certificate table of a variant's run on a problem; `edit` may return
    other records to certify, or the run's Trace with a column edited."""
    s = 0.5 / problem.smooth.lipschitz
    records = run(problem, SolverConfig(variant=variant, step=s, max_iters=max_iters),
                  np.zeros(problem.dim) if x0 is None else x0)
    if edit is not None:
        records = edit(records)
    ctx = EnergyContext(alpha=3.0, s=s, mu=problem.smooth.strong_convexity,
                        lipschitz=problem.smooth.lipschitz,
                        x_star=problem.known_minimizer, f_star=problem.known_optimum)
    return certify_trace(ctx, records, variant=variant)


def infeasible_box_problem():
    from proxcert import attach_reference, box_quadratic_problem, reference_solution
    rng = np.random.default_rng(3)
    q_mat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    q = (q_mat * np.geomspace(0.1, 1.0, 4)) @ q_mat.T
    q = 0.5 * (q + q.T)
    p = box_quadratic_problem(q, q @ rng.uniform(-1, 1, 4),
                              -0.5 * np.ones(4), 0.5 * np.ones(4))
    return attach_reference(p, reference_solution(p))


def raise_f_z(records):
    records.f_z[5] = float("inf")
    return records


class TestCertificateTable:
    @pytest.fixture(scope="class")
    def tables(self):
        quad = random_quadratic(3, 4, 100)
        box = infeasible_box_problem()
        return {
            "apm": table_of(quad, "apm"),  # not_applicable lines: nan cells
            "ista": table_of(quad, "ista"),
            "infeasible start": table_of(box, "mapm", x0=np.full(4, 3.0)),  # +inf
            "f_z of inf": table_of(quad, "mapm", edit=raise_f_z),  # -inf slack
        }

    def test_cells_cover_nan_and_both_infinities(self, tables):
        rows = [r for table in tables.values() for r in table]
        assert any(r.status == "not_applicable" for r in rows)
        assert any(np.isnan(r.lhs) for r in rows)
        assert any(r.rhs == float("inf") for r in rows)
        assert any(r.slack == float("-inf") for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("case", ["apm", "ista", "infeasible start", "f_z of inf"])
    def test_table_and_rows_write_the_oracle_bytes(self, tmp_path, tables, fmt, case):
        # write_report writes the table; the oracle, the csv or json module,
        # writes its rows
        table = tables[case]
        write_report(tmp_path / "table", table, fmt)
        assert (tmp_path / "table").read_bytes() == REPORT_ORACLES[fmt](list(table))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_any_chunk_size_gives_the_same_rows_and_bytes(self, tmp_path, tables,
                                                          fmt, chunk):
        from proxcert import solvers
        table = tables["apm"]
        rows = list(table)
        with mock.patch.object(solvers, "_CHUNK_ROWS", chunk):
            assert list(map(repr, table)) == list(map(repr, rows))  # nan != nan
            write_report(tmp_path / "r", table, fmt)
        assert (tmp_path / "r").read_bytes() == REPORT_ORACLES[fmt](rows)

    def test_len_is_the_row_count(self, tables):
        for table in tables.values():
            assert len(table) == len(list(table)) == len(table.k) > 0

    def test_rows_are_python_values(self, tables):
        table = tables["f_z of inf"]
        for i, r in enumerate(table):
            assert type(r) is CertificateReport
            assert [type(v) for v in dataclasses.astuple(r)] == [
                int, str, float, float, float, bool, str]
            if i < 20:
                assert repr(table[i]) == repr(r)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_empty_trace_writes_a_header_only_report(self, tmp_path, fmt):
        table = table_of(random_quadratic(3, 4, 100), "mapm", edit=lambda records: records[:0])
        assert isinstance(table, CertificateTable) and len(table) == 0
        assert list(table) == []
        path = tmp_path / f"report.{fmt}"
        write_report(path, table, fmt)
        assert path.read_bytes() == REPORT_ORACLES[fmt]([])
        back = read_report(path)
        assert isinstance(back, CertificateTable) and len(back) == 0

    def test_report_columns_are_the_table_fields_in_order(self):
        fields = [f.name for f in dataclasses.fields(CertificateTable)]
        assert len(traceio._REPORT_KINDS) == len(fields) == len(
            CertificateTable._DTYPES)
        assert [c.replace("pass", "passed").replace("status", "applies")
                for c in traceio._REPORT_COLUMNS] == fields


def test_column_table_names_every_record_field_in_file_order():
    # A record field added without a column would silently drop out of traces;
    # y, grad_map and f_z are not stored, since replay derives them from x and
    # accepted.
    kinds = traceio._COLUMN_KINDS
    fields = [f.name for f in dataclasses.fields(IterationRecord)]
    assert list(kinds) == [name for name in fields if name not in ("y", "grad_map", "f_z")]
    assert [f.name for f in dataclasses.fields(Trace)] == fields
    assert traceio._TRACE_COLUMNS == tuple(kinds)


@pytest.mark.parametrize("block_text", [1, 1 << 20])
def test_malformed_csv_cell_names_its_line_in_any_block(tmp_path, block_text):
    problem, records = sample_records()
    path = tmp_path / "trace.csv"
    write_trace(path, sample_meta(problem), records, "csv")
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[20].split(",")
    cells[traceio._TRACE_COLUMNS.index("f_y")] = "abc"
    lines[20] = ",".join(cells)
    path.write_text("".join(lines))
    with mock.patch.object(traceio, "_BLOCK_TEXT", block_text), \
            pytest.raises(DataCorruptionError,
                          match="trace line 21: field 'f_y' must be a number, got 'abc'"):
        read_trace(path)


class TestCorruptReport:
    def report_file(self, tmp_path, fmt):
        path = tmp_path / f"report.{fmt}"
        write_report(path, report_table([
            CertificateReport(k=k, name="descent_lemma", lhs=-1.0, rhs=0.0,
                              slack=1.0, passed=True) for k in range(4)]), fmt)
        return path

    @pytest.mark.parametrize("cut, message", [
        (3, "report line 4 has 3 cells; column 'rhs' is missing"),
        (8, "report line 4 has 8 cells for 7 columns"),
    ])
    def test_csv_row_of_wrong_width(self, tmp_path, cut, message):
        path = self.report_file(tmp_path, "csv")
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        lines[3] = ",".join(cells[:cut] if cut < len(cells) else cells + ["x"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError, match=message):
            read_report(path)

    @pytest.mark.parametrize("key", ["k", "name", "lhs", "rhs", "slack", "pass",
                                     "status"])
    def test_jsonl_row_without_field(self, tmp_path, key):
        path = self.report_file(tmp_path, "jsonl")
        lines = path.read_text().splitlines()
        row = json.loads(lines[2])
        del row[key]
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError, match=f"report line 3 has no '{key}'"):
            read_report(path)

    @pytest.mark.parametrize("cell", ["yes", "True", "1", ""])
    def test_csv_pass_not_true_or_false(self, tmp_path, cell):
        path = self.report_file(tmp_path, "csv")
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[traceio._REPORT_COLUMNS.index("pass")] = cell
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError, match="report line 4: field 'pass' "
                                                      "must be true or false"):
            read_report(path)

    @pytest.mark.parametrize("value", ["false", "true", 1, 0, None])
    def test_jsonl_pass_not_a_bool(self, tmp_path, value):
        path = self.report_file(tmp_path, "jsonl")
        lines = path.read_text().splitlines()
        row = json.loads(lines[2])
        row["pass"] = value
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError, match="report line 3: field 'pass' "
                                                      "must be true or false"):
            read_report(path)

    def test_jsonl_row_not_an_object(self, tmp_path):
        path = self.report_file(tmp_path, "jsonl")
        with open(path, "a") as fh:
            fh.write("[1, 2]\n")
        with pytest.raises(DataCorruptionError, match="report line 6 is not a JSON"):
            read_report(path)

    def test_jsonl_row_not_json(self, tmp_path):
        path = self.report_file(tmp_path, "jsonl")
        text = path.read_text()
        path.write_text(text[:-20])
        with pytest.raises(DataCorruptionError, match="report line 5 is not JSON: "):
            read_report(path)

    @pytest.mark.parametrize("column, cell, what", [
        ("k", "1.5", "an integer"),
        ("k", "", "an integer"),
        ("k", str(2 ** 63), "an integer"),
        ("lhs", "abc", "a number"),
        ("rhs", "true", "a number"),
        ("slack", "1.0.0", "a number"),
        ("name", "prop3", "a certificate name"),
        ("status", "skipped", "ok or not_applicable"),
    ])
    def test_csv_cell_not_of_its_kind(self, tmp_path, column, cell, what):
        path = self.report_file(tmp_path, "csv")
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[traceio._REPORT_COLUMNS.index(column)] = cell
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError, match=re.escape(
                f"report line 4: field {column!r} must be {what}, got {cell!r}")):
            read_report(path)

    @pytest.mark.parametrize("column, value, what", [
        ("k", 1.5, "an integer"),
        ("k", True, "an integer"),
        ("k", -2 ** 63 - 1, "an integer"),
        ("k", None, "an integer"),
        ("lhs", True, "a number"),
        ("rhs", "1.0", "a number"),
        ("slack", [1.0], "a number"),
        ("name", "prop3", "a certificate name"),
        ("name", 1, "a certificate name"),
        ("status", None, "ok or not_applicable"),
        # an int that a JSON file can hold and a float cannot
        ("lhs", 10 ** 400, "a number"),
        ("rhs", 10 ** 400, "a number"),
        ("slack", 10 ** 400, "a number"),
    ], ids=lambda value: "1e400-int" if value == 10 ** 400 else None)
    def test_jsonl_value_not_of_its_kind(self, tmp_path, column, value, what):
        path = self.report_file(tmp_path, "jsonl")
        lines = path.read_text().splitlines()
        row = json.loads(lines[2])
        row[column] = value
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        # the message cuts a value's text at 80 characters
        with pytest.raises(DataCorruptionError, match=re.escape(
                f"report line 3: field {column!r} must be {what}, got {value!r:.80}")):
            read_report(path)

    def test_csv_header_without_a_column(self, tmp_path):
        path = self.report_file(tmp_path, "csv")
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace(",slack", "")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match=re.escape(
                "report has no column(s) slack")):
            read_report(path)

    @pytest.mark.parametrize("fmt, header, message", [
        ("csv", "# proxcert-report v2",
         "unsupported report header '# proxcert-report v2'; expected "
         "'# proxcert-report v1'"),
        ("jsonl", json.dumps({"format": "proxcert-report", "schema_version": 99}),
         "unsupported report schema_version 99; expected 1"),
    ], ids=["csv", "jsonl"])
    def test_report_of_another_version(self, tmp_path, fmt, header, message):
        # the JSON-lines report read as v1, and the CSV one raised a bare
        # JSONDecodeError
        path = self.report_file(tmp_path, fmt)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            read_report(path)

    @pytest.mark.parametrize("fmt, empty", [("csv", ""), ("jsonl", None)])
    def test_empty_number_reads_as_nan(self, tmp_path, fmt, empty):
        path = self.report_file(tmp_path, fmt)
        lines = path.read_text().splitlines()
        if fmt == "csv":
            cells = lines[3].split(",")
            cells[2:5] = [empty] * 3
            lines[3] = ",".join(cells)
        else:
            row = json.loads(lines[2])
            row.update(lhs=empty, rhs=empty, slack=empty)
            lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        rep = read_report(path)[1]
        assert all(type(v) is float and np.isnan(v) for v in (rep.lhs, rep.rhs, rep.slack))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_report_read_in_many_blocks_is_the_one_block_read(tmp_path, fmt):
    table = table_of(random_quadratic(3, 4, 100), "mapm")
    path = tmp_path / f"report.{fmt}"
    write_report(path, table, fmt)
    assert len(path.read_text()) > 20 * 200
    whole = read_report(path)
    with mock.patch.object(traceio, "_BLOCK_TEXT", 200):
        blocks = read_report(path)
    assert list(map(repr, blocks)) == list(map(repr, whole)) == list(map(repr, table))


@pytest.mark.parametrize("block_text", [1, 300, 1 << 20])
def test_jsonl_trace_read_in_blocks(tmp_path, block_text):
    problem, records = sample_records()
    path = tmp_path / "trace.jsonl"
    write_trace(path, sample_meta(problem), records, "jsonl")
    _, whole = read_trace(path)
    with mock.patch.object(traceio, "_BLOCK_TEXT", block_text):
        _, blocks = read_trace(path)
        assert list(map(repr, blocks)) == list(map(repr, whole))
        lines = path.read_text().splitlines()
        row = json.loads(lines[20])
        row["f_y"] = "abc"
        lines[20] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataCorruptionError,
                           match="trace line 21: field 'f_y' must be a number"):
            read_trace(path)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_trace_read_holds_one_block_of_cells(tmp_path, fmt):
    # Splitting a block of text into cells holds about ten times the text.  A
    # block of 1M characters held the whole 1-MB CSV (2-MB JSON lines) file
    # of these 20,000 rows at once: 12.8 MB (4.0 MB) beyond the columns read.
    n = 20_000
    rng = np.random.default_rng(0)
    trace = Trace(np.arange(n), rng.random(n), rng.random(n), rng.random(n) < 0.9,
                  np.zeros((1, 5)))
    meta = TraceMeta(variant="mapm", alpha=3.0, step=0.1, max_iters=n - 1,
                     grad_map_tol=0.0)
    path = tmp_path / f"trace.{fmt}"
    write_trace(path, meta, trace, fmt)
    read_trace(path)  # imports and caches of the first read would count
    tracemalloc.start()
    try:
        _, back = read_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(back, name).nbytes
                  for name in ("k", "f_y", "grad_map_norm", "accepted"))
    assert peak - columns < 3 << 20


@pytest.mark.parametrize("key, value", [
    ("gap", "not a number"), ("f_z", True), ("y", "not a vector"),
])
def test_jsonl_trace_ignores_keys_it_does_not_read(tmp_path, key, value):
    # keys that older layouts wrote, here with values they never held
    problem, records = sample_records()
    path = tmp_path / "trace.jsonl"
    write_trace(path, sample_meta(problem), records, "jsonl")
    lines = path.read_text().splitlines()
    row = json.loads(lines[5])
    row[key] = value
    lines[5] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    _, back = read_trace(path)
    assert back.f_z is None and back.y is None and not hasattr(back, "gap")
    assert back[4].f_y == records[4].f_y
    assert np.array_equal(back.x, records.x[:1]) and back[4].x is None


def json_dumps_trace(meta, records):
    """A JSON-lines trace as json.dumps writes it row by row: the byte oracle."""
    def opt(value, convert):
        return None if value is None else convert(value)

    def floats(v):
        return [float(c) for c in v]

    lines = [json.dumps({"format": "proxcert-trace", **asdict(meta)})]
    for rec in records:  # x_0 in the first row only
        row = {"k": rec.k, "f_y": float(rec.f_y),
               "grad_map_norm": float(rec.grad_map_norm),
               "accepted": opt(rec.accepted, bool),
               "x": None if rec.k else floats(rec.x)}
        lines.append(json.dumps(row))
    return "".join(line + "\n" for line in lines).encode()


ORACLES = {"csv": csv_module_trace, "jsonl": json_dumps_trace}


def many_chunks():
    """Traces written one row per chunk."""
    from proxcert import solvers
    return mock.patch.object(solvers, "_CHUNK_ROWS", 1)


@st.composite
def traces(draw):
    """Traces of 1-12 rows with 1-6 coordinates per vector."""
    d, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))
    vector = st.lists(coordinates, min_size=d, max_size=d)
    return Trace(k=range(n), f_y=column(coordinates), grad_map_norm=column(coordinates),
                 accepted=column(st.none() | st.booleans()), x=column(vector),
                 y=column(vector), grad_map=column(vector), f_z=column(coordinates))


class TestWriterBytes:
    """Trace rows written chunk by chunk, against the byte oracles."""

    @settings(max_examples=40, deadline=None)
    @given(records=traces())
    def test_bytes_equal_the_references(self, tmp_path_factory, records):
        problem = random_quadratic(3, 4, 100)
        meta = sample_meta(problem)
        path = tmp_path_factory.mktemp("trace")
        for fmt, oracle in ORACLES.items():
            with many_chunks():
                write_trace(path / f"trace.{fmt}", meta, records, fmt)
            assert (path / f"trace.{fmt}").read_bytes() == oracle(meta, records)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("dim", [5, 20])
    @pytest.mark.parametrize("variant", ["mapm", "apm"])  # apm's accepted is empty
    def test_solver_traces_in_many_chunks(self, tmp_path, fmt, dim, variant):
        problem = random_quadratic(3, dim, 100)
        records = run(problem, SolverConfig(variant=variant, max_iters=60),
                      np.zeros(dim))
        meta = sample_meta(problem)
        with many_chunks():
            write_trace(tmp_path / "many", meta, records, fmt)
        write_trace(tmp_path / "one", meta, records, fmt)
        assert (tmp_path / "many").read_bytes() == (tmp_path / "one").read_bytes()
        assert (tmp_path / "many").read_bytes() == ORACLES[fmt](meta, records)


def test_run_and_certify_import_no_multiprocessing(tmp_path):
    # the trace writer once formatted x on a forked pool of workers
    trace, report = str(tmp_path / "trace.csv"), str(tmp_path / "report.csv")
    code = ("import sys; from proxcert.cli import main; "
            f"assert main(['run', '--problem', 'quadratic', '--dim', '20', '--solver', "
            f"'mapm', '--max-iters', '300', '--out', {trace!r}]) == 0; "
            f"assert main(['certify', '--trace', {trace!r}, '--report', {report!r}]) == 0; "
            "assert 'multiprocessing' not in sys.modules")
    src = os.path.dirname(os.path.dirname(traceio.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_csv_meta_that_is_not_json(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(f"{traceio.TRACE_MAGIC}\n# meta {{\"variant\": \nk\n")
    with pytest.raises(ConfigurationError, match="file is not a proxcert trace: its "
                                                 "header .* is not JSON"):
        read_trace(path)


@pytest.mark.parametrize("read, what", [(read_trace, "trace"), (read_report, "report")])
@pytest.mark.parametrize("text", ["", "hello world\n", "{\"format\": \n"],
                         ids=["empty", "hello", "cut_json"])
def test_file_without_a_json_or_magic_header(tmp_path, read, what, text):
    # raised a bare JSONDecodeError
    path = tmp_path / "file"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=f"file is not a proxcert {what}: "
                                                 "its header .* is not JSON"):
        read(path)
