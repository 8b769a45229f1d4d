"""Black-box CLI tests: exit-code contract and file outputs."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxcert import SolverConfig, cli, random_lasso, random_quadratic, run, traceio
from proxcert.cli import main
from proxcert.errors import SETTING_RULES
from proxcert.traceio import read_report, read_trace


def run_cli(*argv):
    return main(list(argv))


def quadratic_run_args(out, extra=()):
    return ["run", "--problem", "quadratic", "--cond", "10", "--dim", "5",
            "--seed", "1", "--solver", "mapm", "--alpha", "3",
            "--step-mode", "half-inverse-L", "--max-iters", "200",
            "--out", str(out), *extra]


class TestRunCommand:
    def test_example_invocation_row_count(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli("run", "--problem", "quadratic", "--cond", "100",
                       "--dim", "20", "--seed", "1", "--solver", "mapm",
                       "--alpha", "3", "--step-mode", "half-inverse-L",
                       "--max-iters", "1000", "--out", str(out))
        assert code == 0
        _, records = read_trace(out)
        assert len(records) == 1001
        assert [r.k for r in records] == list(range(1001))

    def test_zero_iterations_single_row(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli("run", "--problem", "quadratic", "--dim", "4",
                       "--solver", "apm", "--max-iters", "0", "--out", str(out))
        assert code == 0
        _, records = read_trace(out)
        assert len(records) == 1

    def test_explicit_step_above_inverse_l_exits_2(self, tmp_path):
        code = run_cli("run", "--problem", "quadratic", "--cond", "1",
                       "--dim", "2", "--solver", "mapm",
                       "--step-mode", "explicit:2.0", "--max-iters", "10",
                       "--out", str(tmp_path / "t.csv"))
        assert code == 2

    def test_unknown_solver_exits_2(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "quadratic", "--dim", "2",
                       "--solver", "bfgs", "--out", str(tmp_path / "t.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "mapm" in err  # message names the valid options

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "svm", "--solver", "mapm",
                       "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert "quadratic" in capsys.readouterr().err

    @pytest.mark.parametrize("solver, flag, value", [
        ("mapm", "--grad-map-tol", "nan"), ("mapm", "--alpha", "inf"),
        # alpha >= 3 holds for every variant; 1e400 parses as inf
        ("ista", "--alpha", "2"), ("ista", "--alpha", "1e400"),
    ])
    def test_nan_tolerance_or_infinite_alpha_exits_2(self, tmp_path, capsys,
                                                     solver, flag, value):
        out = tmp_path / "t.csv"
        # the last --alpha and --solver win over quadratic_run_args' own
        assert run_cli(*quadratic_run_args(out, (flag, value, "--solver", solver))) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_tolerance_stops_at_k0_and_certifies(self, tmp_path):
        trace = tmp_path / "t.csv"
        assert run_cli(*quadratic_run_args(trace, ("--grad-map-tol", "inf"))) == 0
        _, records = read_trace(trace)
        assert [r.k for r in records] == [0]
        assert run_cli("certify", "--trace", str(trace),
                       "--report", str(tmp_path / "r.csv")) == 0

    def test_determinism_same_seed_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*quadratic_run_args(out1)) == 0
        assert run_cli(*quadratic_run_args(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert run_cli(*quadratic_run_args(out1)) == 0
        monkeypatch.setenv("PROXCERT_SEED", "99")
        assert run_cli(*quadratic_run_args(out2)) == 0
        monkeypatch.delenv("PROXCERT_SEED")
        assert run_cli(*quadratic_run_args(out3)) == 0
        assert out1.read_bytes() != out2.read_bytes()
        assert out1.read_bytes() == out3.read_bytes()

    @pytest.mark.parametrize("flags, stored", [
        ([], {"name": "quadratic", "seed": 0, "dim": 20, "cond": 10}),
        (["--dim", "7"], {"name": "quadratic", "seed": 0, "dim": 7, "cond": 10}),
        (["--problem", "lasso"], {"name": "lasso", "seed": 0, "rows": 20, "cols": 20}),
        (["--problem", "lasso", "--dim", "7"],
         {"name": "lasso", "seed": 0, "rows": 7, "cols": 7}),
        (["--problem", "box-quadratic", "--seed", "3"],
         {"name": "box-quadratic", "seed": 3, "dim": 20}),
    ])
    def test_flags_store_every_key_of_their_family(self, monkeypatch, flags, stored):
        # the spec a trace stores, in its key order, as when every flag had a default
        monkeypatch.delenv("PROXCERT_SEED", raising=False)
        args = cli.build_parser().parse_args(
            ["run", "--problem", "quadratic", *flags, "--solver", "mapm", "--out", "t"])
        assert list(cli._problem_spec_from_args(args).items()) == list(stored.items())


class TestCertifyCommand:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_pipeline_exit_0(self, tmp_path, fmt):
        trace = tmp_path / f"trace.{fmt}"
        report = tmp_path / f"report.{fmt}"
        assert run_cli(*quadratic_run_args(trace, ("--format", fmt))) == 0
        code = run_cli("certify", "--trace", str(trace),
                       "--report", str(report), "--format", fmt)
        assert code == 0
        reports = read_report(report)
        ok = [r for r in reports if r.status == "ok"]
        assert ok and all(r.passed for r in ok)
        names = {r.name for r in ok}
        assert {"energy_nonincreasing", "prop1", "prop2", "descent_lemma",
                "inertial_identity", "theorem1_envelope",
                "theorem2_envelope"} <= names

    def test_f_star_too_low_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert run_cli(*quadratic_run_args(trace)) == 0
        code = run_cli("certify", "--trace", str(trace),
                       "--report", str(tmp_path / "r.csv"), "--f-star", "-100.0")
        assert code == 1
        assert "FIRST VIOLATION" in capsys.readouterr().out

    @staticmethod
    def assert_first_violation_is_the_reports(out, report):
        first = next(r for r in read_report(report)
                     if r.status == "ok" and not r.passed)
        assert (f"FIRST VIOLATION at k={first.k} name={first.name} "
                f"lhs={first.lhs!r} rhs={first.rhs!r}\n") in out

    def test_first_violation_of_a_low_f_star_is_the_reports(self, tmp_path, capsys):
        trace, report = tmp_path / "trace.csv", tmp_path / "r.csv"
        assert run_cli(*quadratic_run_args(trace)) == 0
        assert run_cli("certify", "--trace", str(trace), "--report", str(report),
                       "--f-star", "-100.0") == 1
        self.assert_first_violation_is_the_reports(capsys.readouterr().out, report)

    def test_first_violation_of_a_shifted_x_star_is_the_reports(self, tmp_path, capsys):
        # (a raised f_y gave this violation until replay checked f_y)
        trace, report = short_trace(tmp_path), tmp_path / "r.csv"
        assert run_cli("certify", "--trace", str(trace), "--report", str(report),
                       "--x-star=0.1,0,0,0,0") == 1
        out = capsys.readouterr().out
        assert "name=energy_nonincreasing" in out
        self.assert_first_violation_is_the_reports(out, report)

    def test_f_star_too_high_exits_3(self, tmp_path):
        trace = tmp_path / "trace.csv"
        assert run_cli(*quadratic_run_args(trace)) == 0
        code = run_cli("certify", "--trace", str(trace),
                       "--report", str(tmp_path / "r.csv"), "--f-star", "100.0")
        assert code == 3

    @pytest.mark.parametrize("f_star", ["nan", "inf", "-inf"])
    def test_f_star_not_finite_exits_2(self, tmp_path, capsys, f_star):
        # a verdict needs a number: these printed FIRST VIOLATION and exited 1
        trace, report = tmp_path / "trace.csv", tmp_path / "r.csv"
        assert run_cli(*quadratic_run_args(trace)) == 0
        code = run_cli("certify", "--trace", str(trace), "--report", str(report),
                       f"--f-star={f_star}")
        assert code == 2
        out, err = capsys.readouterr()
        assert f"f_star must be a finite number, got {float(f_star)!r}" in err
        assert "FIRST VIOLATION" not in out and not report.exists()

    def test_apm_trace_reports_not_applicable(self, tmp_path):
        trace = tmp_path / "apm.csv"
        code = run_cli("run", "--problem", "quadratic", "--cond", "10",
                       "--dim", "5", "--seed", "1", "--solver", "apm",
                       "--max-iters", "100", "--out", str(trace))
        assert code == 0
        report = tmp_path / "apm-report.csv"
        assert run_cli("certify", "--trace", str(trace),
                       "--report", str(report)) == 0
        reports = read_report(report)
        ok_names = {r.name for r in reports if r.status == "ok"}
        na_names = {r.name for r in reports if r.status == "not_applicable"}
        assert ok_names == {"descent_lemma", "inertial_identity"}
        assert "theorem1_envelope" in na_names and "prop1" in na_names

    def test_env_seed_leaves_trace_seed_alone(self, tmp_path, monkeypatch):
        trace = tmp_path / "trace.csv"
        assert run_cli(*quadratic_run_args(trace)) == 0
        monkeypatch.setenv("PROXCERT_SEED", "7")
        assert run_cli("certify", "--trace", str(trace),
                       "--report", str(tmp_path / "r.csv")) == 0

    def test_unknown_variant_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert run_cli(*quadratic_run_args(trace)) == 0
        trace.write_text(trace.read_text().replace('"variant": "mapm"',
                                                   '"variant": "bogus"', 1))
        code = run_cli("certify", "--trace", str(trace),
                       "--report", str(tmp_path / "r.csv"))
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_renamed_column_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert run_cli(*quadratic_run_args(trace)) == 0
        trace.write_text(trace.read_text().replace("grad_map_norm", "gmn", 1))
        code = run_cli("certify", "--trace", str(trace),
                       "--report", str(tmp_path / "r.csv"))
        assert code == 2
        assert "grad_map_norm" in capsys.readouterr().err

    def test_x_star_of_wrong_length_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert run_cli(*quadratic_run_args(trace)) == 0
        code = run_cli("certify", "--trace", str(trace),
                       "--report", str(tmp_path / "r.csv"), "--x-star", "0,0")
        assert code == 2
        assert "expected a vector of dim 5, got 2" in capsys.readouterr().err

    def test_mismatched_problem_exits_2(self, tmp_path):
        trace = tmp_path / "trace.csv"
        assert run_cli(*quadratic_run_args(trace)) == 0
        code = run_cli("certify", "--trace", str(trace),
                       "--report", str(tmp_path / "r.csv"),
                       "--problem", "quadratic", "--cond", "10", "--dim", "5",
                       "--seed", "2")
        assert code == 2

    def test_early_stop_by_grad_map_tol_certifies(self, tmp_path):
        trace = tmp_path / "trace.csv"
        assert run_cli(*quadratic_run_args(trace, ("--grad-map-tol", "1e-6"))) == 0
        _, records = read_trace(trace)
        assert len(records) < 201 and records[-1].grad_map_norm <= 1e-6
        assert run_cli("certify", "--trace", str(trace),
                       "--report", str(tmp_path / "r.csv")) == 0

    def test_missing_trace_file_exits_2(self, tmp_path):
        code = run_cli("certify", "--trace", str(tmp_path / "nope.csv"),
                       "--report", str(tmp_path / "r.csv"))
        assert code == 2

    @pytest.mark.parametrize("text", ["hello world\n", ""], ids=["hello", "empty"])
    def test_garbage_trace_file_exits_2(self, tmp_path, capsys, text):
        trace = tmp_path / "garbage.csv"
        trace.write_text(text)
        code = run_cli("certify", "--trace", str(trace),
                       "--report", str(tmp_path / "r.csv"))
        assert code == 2
        assert ("configuration error: file is not a proxcert trace: its header "
                f"{text.strip()!r} is not JSON") in capsys.readouterr().err


# An int that a JSON file can hold and a float cannot.
BIG_INT = 10 ** 400


def setting_id(value):
    """A short test id for 10 ** 400; pytest's own for the other values."""
    return "1e400-int" if value == BIG_INT else None


def short_trace(tmp_path, fmt="csv", solver="mapm"):
    """A 20-iteration d5 trace."""
    trace = tmp_path / f"trace.{fmt}"
    assert run_cli(*quadratic_run_args(trace, ("--max-iters", "20", "--format", fmt,
                                               "--solver", solver))) == 0
    return trace


def edit_csv_rows(trace, edit):
    """Rewrite a CSV trace's data rows (dicts by column) through `edit`."""
    lines = trace.read_text().splitlines(keepends=True)
    header, rows = lines[:2], list(csv.reader(lines[2:]))
    columns, body = rows[0], [dict(zip(rows[0], row)) for row in rows[1:]]
    with open(trace, "w", newline="") as fh:
        fh.writelines(header)
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in edit(body):
            writer.writerow([row[c] for c in columns if c in row])


def edit_meta(trace, fmt, edit):
    """Rewrite a trace's metadata (a dict) through `edit`."""
    lines = trace.read_text().splitlines(keepends=True)
    i, prefix = (1, "# meta ") if fmt == "csv" else (0, "")
    lines[i] = prefix + json.dumps(edit(json.loads(lines[i][len(prefix):]))) + "\n"
    trace.write_text("".join(lines))


def certify_cli(trace, tmp_path):
    return run_cli("certify", "--trace", str(trace),
                   "--report", str(tmp_path / "r.csv"))


class TestCorruptTraceExits3:
    """Corrupt trace input exits 3 with a message, never 1 ("violation")."""

    def test_deleted_row(self, tmp_path, capsys):
        trace = short_trace(tmp_path)
        edit_csv_rows(trace, lambda rows: rows[:7] + rows[8:])
        assert certify_cli(trace, tmp_path) == 3
        assert "has k = 8" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["f_y", "grad_map_norm"])
    def test_nan_scalar(self, tmp_path, capsys, column):
        trace = short_trace(tmp_path)

        def poison(rows):
            rows[12][column] = "nan"
            return rows
        edit_csv_rows(trace, poison)
        assert certify_cli(trace, tmp_path) == 3
        assert f"k=12 has {column} = nan" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_vector_of_wrong_length(self, tmp_path, capsys, fmt):
        trace = short_trace(tmp_path, fmt)
        edit_cell(trace, fmt, 0, "x", lambda v: v[:-1])
        assert certify_cli(trace, tmp_path) == 3
        assert "k=0 has a x of shape (4,)" in capsys.readouterr().err

    def test_short_csv_row(self, tmp_path, capsys):
        trace = short_trace(tmp_path)

        def cut(rows):
            rows[5] = {c: rows[5][c] for c in ("k", "f_y")}
            return rows
        edit_csv_rows(trace, cut)
        assert certify_cli(trace, tmp_path) == 3
        err = capsys.readouterr().err
        assert "trace line 9 has 2 cells" in err and "'grad_map_norm'" in err

    @pytest.mark.parametrize("key", [
        "k", "f_y", "grad_map_norm", None,
        # the writer gives every row each key, null where the value is empty
        "accepted", "x",
    ])
    def test_jsonl_row_without_field(self, tmp_path, capsys, key):
        trace = short_trace(tmp_path, "jsonl")
        lines = trace.read_text().splitlines()
        row = json.loads(lines[6])
        if key is None:
            row = list(row.values())
        else:
            del row[key]
        lines[6] = json.dumps(row)
        trace.write_text("\n".join(lines) + "\n")
        assert certify_cli(trace, tmp_path) == 3
        expected = "is not a JSON object" if key is None else f"has no {key!r}"
        assert f"trace line 7 {expected}" in capsys.readouterr().err

    def test_jsonl_trace_cut_inside_its_last_row(self, tmp_path, capsys):
        trace = short_trace(tmp_path, "jsonl")
        trace.write_bytes(trace.read_bytes()[:-40])
        assert certify_cli(trace, tmp_path) == 3
        assert "trace line 22 is not JSON: " in capsys.readouterr().err

    def test_jsonl_middle_row_not_json(self, tmp_path, capsys):
        trace = short_trace(tmp_path, "jsonl")
        lines = trace.read_text().splitlines()
        lines[6] = lines[6].replace('"k": 5', '"k" 5')
        trace.write_text("\n".join(lines) + "\n")
        assert certify_cli(trace, tmp_path) == 3
        assert "trace line 7 is not JSON: " in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, line", [("csv", 4), ("jsonl", 2)])
    def test_k_beyond_64_bits(self, tmp_path, capsys, fmt, line):
        trace = short_trace(tmp_path, fmt)
        if fmt == "csv":
            edit_csv_rows(trace, lambda rows: [{**rows[0], "k": str(2 ** 64)}]
                          + rows[1:])
        else:
            lines = trace.read_text().splitlines()
            lines[1] = lines[1].replace('"k": 0', f'"k": {2 ** 64}', 1)
            trace.write_text("\n".join(lines) + "\n")
        assert certify_cli(trace, tmp_path) == 3
        assert (f"trace line {line}: field 'k' must be an integer, got "
                in capsys.readouterr().err)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_nan_coordinate(self, tmp_path, capsys, fmt):
        # json.dumps writes a nan as NaN, which json.loads reads back
        trace = short_trace(tmp_path, fmt)
        edit_cell(trace, fmt, 0, "x", lambda v: v[:2] + [math.nan] + v[3:])
        assert certify_cli(trace, tmp_path) == 3
        assert "k=0 has a nan coordinate in x" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("meta_dim", [None, 4, 5])
    def test_vectors_agree_but_not_with_the_problem_dim(self, tmp_path, capsys, fmt,
                                                         meta_dim):
        # x_0 of a d5 trace cut to 4 coordinates, with the `dim` that older
        # traces carry in their metadata, or none: numpy's broadcast error
        # ended certify with exit 2
        trace = short_trace(tmp_path, fmt)
        edit_cell(trace, fmt, 0, "x", lambda v: v[:-1])
        if meta_dim is not None:
            edit_meta(trace, fmt, lambda meta: {**meta, "dim": meta_dim})
        assert certify_cli(trace, tmp_path) == 3
        assert ("record k=0 has a x of shape (4,); the problem's vectors have shape "
                "(5,)") in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("dim, seed", [(5, 1), ("5", -5), (0, True)])
    def test_older_meta_dim_and_seed_are_not_read(self, tmp_path, fmt, dim, seed):
        # older writers put `dim` and `seed` in the metadata, beside the problem
        # spec that states both; a seed of -5 was never checked, and a dim of "5"
        # exited 2
        trace = short_trace(tmp_path, fmt)
        reports = [tmp_path / f"new.{fmt}", tmp_path / f"older.{fmt}"]
        argv = ["certify", "--trace", str(trace), "--format", fmt, "--report"]
        codes = [run_cli(*argv, str(reports[0]))]

        def older(meta):
            keys = list(meta)
            keys.insert(keys.index("problem_hash") + 1, "dim")
            keys.insert(keys.index("grad_map_tol") + 1, "seed")
            return {key: {**meta, "dim": dim, "seed": seed}[key] for key in keys}
        edit_meta(trace, fmt, older)
        codes.append(run_cli(*argv, str(reports[1])))
        assert codes == [0, 0]
        assert reports[0].read_bytes() == reports[1].read_bytes()

    @pytest.mark.parametrize("dropped, message", [
        (3, "trace ends at k=17 with grad_map_norm"),
        (21, "trace has no records"),
    ])
    def test_dropped_last_rows(self, tmp_path, capsys, dropped, message):
        trace = short_trace(tmp_path)
        edit_csv_rows(trace, lambda rows: rows[:-dropped])
        assert certify_cli(trace, tmp_path) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, k", [("grad_map_norm", 10), ("max_iters", 15)])
    def test_earlier_record_meets_stop_rule(self, tmp_path, capsys, edit, k):
        # a record before the last meets grad_map_tol, or rows go on past max_iters
        trace = short_trace(tmp_path)
        max_iters = 20
        if edit == "max_iters":
            max_iters = k
            trace.write_text(trace.read_text().replace('"max_iters": 20',
                                                       f'"max_iters": {k}', 1))
        else:
            def stop_early(rows):
                rows[k]["grad_map_norm"] = "0.0"
                return rows
            edit_csv_rows(trace, stop_early)
        gnorm = read_trace(trace)[1][k].grad_map_norm
        assert certify_cli(trace, tmp_path) == 3
        err = capsys.readouterr().err
        assert (f"a run with max_iters = {max_iters}, grad_map_tol = 0.0 stops at "
                f"record k={k} (grad_map_norm {gnorm!r}), but the trace goes on past it"
                in err)
        assert "rows are missing" not in err

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("key", ["variant", "alpha", "step", "max_iters",
                                     "grad_map_tol"])
    @pytest.mark.parametrize("null", [False, True], ids=["missing", "null"])
    def test_meta_without_a_setting_exits_2(self, tmp_path, capsys, fmt, key, null):
        # a missing key reads as a null; a null step is not a run's default step
        trace = short_trace(tmp_path, fmt)

        def drop(meta):
            del meta[key]
            return {**meta, key: None} if null else meta
        edit_meta(trace, fmt, drop)
        assert certify_cli(trace, tmp_path) == 2
        assert (f"trace metadata {key} must be {SETTING_RULES[key][0]}, got None"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("key, value", [
        ("step", "abc"), ("step", None), ("alpha", None), ("alpha", "x"),
        ("alpha", True), ("step", float("inf")),
    ])
    def test_meta_alpha_or_step_not_a_number_exits_2(self, tmp_path, capsys, fmt,
                                                      key, value):
        trace = short_trace(tmp_path, fmt)
        edit_meta(trace, fmt, lambda meta: {**meta, key: value})
        assert certify_cli(trace, tmp_path) == 2
        bound = {"alpha": ">= 3", "step": "> 0"}[key]
        assert (f"trace metadata {key} must be a finite number {bound}, got {value!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key, value, expected", [
        ("f_y", True, "must be a number, got True"),
        ("grad_map_norm", "1", "must be a number, got '1'"),
        ("k", True, "must be an integer, got True"),
        ("x", "1.0", "must be a list of numbers"),
        ("x", [[0.0]] * 5, "must be a list of numbers"),
        # an int too large for a float: it ended in an OverflowError traceback
        *[(key, BIG_INT, "must be a number, got 1000000000")
          for key in ("f_y", "grad_map_norm")],
    ], ids=setting_id)
    def test_jsonl_field_not_a_number(self, tmp_path, capsys, key, value, expected):
        trace = short_trace(tmp_path, "jsonl")
        lines = trace.read_text().splitlines()
        row = json.loads(lines[6])
        row[key] = value
        lines[6] = json.dumps(row)
        trace.write_text("\n".join(lines) + "\n")
        assert certify_cli(trace, tmp_path) == 3
        assert f"trace line 7: field {key!r} {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [True, "0.5", None, BIG_INT], ids=setting_id)
    def test_jsonl_vector_entry_not_a_number(self, tmp_path, capsys, entry):
        trace = short_trace(tmp_path, "jsonl")
        edit_cell(trace, "jsonl", 0, "x", lambda v: v[:2] + [entry] + v[3:])
        assert certify_cli(trace, tmp_path) == 3
        assert ("trace line 2: field 'x' must be a list of numbers"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("column, cell, what", [
        ("k", "1.5", "an integer"),
        ("f_y", "abc", "a number"),
        ("grad_map_norm", "", "a number"),
        ("accepted", "maybe", "true or false"),
        ("x", "abc", "a list of numbers"),
        ("x", "", "a list of numbers"),
        # float() and int() read these cells, but no writer emits them
        ("f_y", "1_0", "a number"),
        ("k", "1_0", "an integer"),
        ("grad_map_norm", " 1.5", "a number"),
        ("x", "1_0", "a list of numbers"),
        ("x", "1.50", "a list of numbers"),
        ("x", " 1.5", "a list of numbers"),
        ("x", "+1.5", "a list of numbers"),
        ("x", "1e0", "a list of numbers"),
    ])
    def test_malformed_csv_cell(self, tmp_path, capsys, column, cell, what):
        # a scalar cell of row 12 (line 16), or a coordinate of x_0 (line 4)
        trace = short_trace(tmp_path)

        def corrupt(rows):
            if column == "x":
                coords = rows[0][column].split(";")
                coords[2] = cell
                rows[0][column] = ";".join(coords)
            else:
                rows[12][column] = cell
            return rows
        edit_csv_rows(trace, corrupt)
        assert certify_cli(trace, tmp_path) == 3
        line = 4 if column == "x" else 16
        assert (f"trace line {line}: field {column!r} must be {what}, got"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["maybe", "true", 1, 0.0, [True]])
    def test_jsonl_accepted_not_a_bool(self, tmp_path, capsys, value):
        trace = short_trace(tmp_path, "jsonl")
        lines = trace.read_text().splitlines()
        row = json.loads(lines[6])
        row["accepted"] = value
        lines[6] = json.dumps(row)
        trace.write_text("\n".join(lines) + "\n")
        assert certify_cli(trace, tmp_path) == 3
        assert (f"trace line 7: field 'accepted' must be true or false, got {value!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("key, value, what", [
        ("max_iters", "20", "an integer >= 0"),
        ("max_iters", -1, "an integer >= 0"),
        ("max_iters", 2.5, "an integer >= 0"),
        ("max_iters", True, "an integer >= 0"),
        ("grad_map_tol", "x", "a number >= 0"),
        ("grad_map_tol", -1.0, "a number >= 0"),
    ])
    def test_meta_value_of_wrong_type_exits_2(self, tmp_path, capsys, fmt, key,
                                              value, what):
        trace = short_trace(tmp_path, fmt)
        edit_meta(trace, fmt, lambda meta: {**meta, key: value})
        assert certify_cli(trace, tmp_path) == 2
        assert (f"trace metadata {key} must be {what}, got {value!r}"
                in capsys.readouterr().err)

    def test_infinite_start_objective_stays_legal(self, tmp_path):
        # F(y_0) = +inf where a box problem's run starts outside its box
        spec = {"name": "box-quadratic", "seed": 2, "dim": 4}
        problem = cli.build_problem_from_spec(spec)
        config = SolverConfig(variant="mapm", step=0.5 / problem.smooth.lipschitz,
                              max_iters=20)
        trace = run(problem, config, np.full(4, 3.0))
        assert trace.f_y[0] == math.inf
        meta = traceio.TraceMeta(**{key: getattr(config, key) for key in SETTING_RULES},
                                 problem_hash=problem.content_hash, problem=spec)
        traceio.write_trace(tmp_path / "trace.csv", meta, trace)
        assert certify_cli(tmp_path / "trace.csv", tmp_path) == 0

    def test_infinite_f_y_where_the_start_is_feasible(self, tmp_path, capsys):
        # an f_y that F(x_0) does not give: replay now derives F(y_0)
        trace = short_trace(tmp_path)

        def infeasible_start(rows):
            rows[0]["f_y"] = "inf"
            return rows
        edit_csv_rows(trace, infeasible_start)
        assert certify_cli(trace, tmp_path) == 3
        assert ("record k=0 has f_y inf, but the replay gives F(y_k) = "
                in capsys.readouterr().err)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("column, k, edit, message", [
        ("grad_map_norm", 10, lambda v: 2.0 * v, "record k=10 has grad_map_norm"),
        ("accepted", 10, lambda v: not v, "record k=10 has accepted"),
        ("accepted", 10, lambda v: None,
         "record k=10 has accepted None; mapm records true or false in every row"),
        ("f_y", 10, lambda v: v - 1e-6, "record k=10 has f_y"),
        ("f_y", 10, lambda v: v + 1e-3, "record k=10 has f_y"),
        ("x", 0, lambda v: [v[0] + 0.5] + v[1:], "record k=0 has grad_map_norm "),
    ], ids=["grad_map_norm_doubled", "accepted_flipped", "accepted_empty",
            "f_y_lowered", "f_y_raised", "x0_moved"])
    def test_cell_that_disagrees_with_the_replay(self, tmp_path, capsys, fmt, column,
                                                 k, edit, message):
        # certify chains x_k, y_k, G_k, F(z_k) and F(y_k) from x_0 and
        # `accepted`: the first three edits exited 0 before G_k was replayed,
        # the f_y edits exited 0 and 1
        trace = short_trace(tmp_path, fmt)
        edit_cell(trace, fmt, k, column, edit)
        assert certify_cli(trace, tmp_path) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("solver", ["mapm", "apm"])
    def test_alpha_other_than_the_runs(self, tmp_path, capsys, fmt, solver):
        # the header's alpha changed from 3 to 3.5 exited 1 (inertial_identity
        # at k=1): the x_2 that alpha gives is not the run's
        trace = short_trace(tmp_path, fmt, solver=solver)
        edit_meta(trace, fmt, lambda meta: {**meta, "alpha": 3.5})
        assert certify_cli(trace, tmp_path) == 3
        assert ("record k=2 has grad_map_norm " in capsys.readouterr().err)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("value", [True, False])
    def test_accepted_of_a_variant_without_the_test(self, tmp_path, capsys, fmt, value):
        # an apm row's accepted set to true exited 0
        trace = short_trace(tmp_path, fmt, solver="apm")
        edit_cell(trace, fmt, 10, "accepted", lambda v: value)
        assert certify_cli(trace, tmp_path) == 3
        assert (f"record k=10 has accepted {value!r}; apm has no acceptance test, so "
                "its accepted is empty" in capsys.readouterr().err)

    @pytest.mark.parametrize("fmt, line", [("csv", 4), ("jsonl", 2)])
    @pytest.mark.parametrize("k", [1, 10, 20])
    def test_x_past_the_first_row(self, tmp_path, capsys, fmt, line, k):
        # a trace stores x_0 alone; every later x_k is chained from it
        trace = short_trace(tmp_path, fmt)
        x0 = read_trace(trace)[1].x[0].tolist()
        edit_cell(trace, fmt, k, "x", lambda v: x0)
        assert certify_cli(trace, tmp_path) == 3
        assert (f"trace line {line + k}: field 'x' must be empty past the first row, "
                "which alone stores x_0, got [" in capsys.readouterr().err)

    @pytest.mark.parametrize("fmt, line", [("csv", 4), ("jsonl", 2)])
    def test_empty_x0(self, tmp_path, capsys, fmt, line):
        trace = short_trace(tmp_path, fmt)
        edit_cell(trace, fmt, 0, "x", lambda v: None)
        assert certify_cli(trace, tmp_path) == 3
        assert (f"trace line {line}: field 'x' is empty; the first row stores x_0, "
                "a list of numbers" in capsys.readouterr().err)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("j", range(5))
    def test_x0_coordinate_scaled_by_1e_7(self, tmp_path, capsys, fmt, j):
        # the CLI starts at 0, so the trace is written from a run that does not
        spec = {"name": "quadratic", "seed": 1, "dim": 5, "cond": 10}
        problem = cli.build_problem_from_spec(spec)
        config = SolverConfig(variant="mapm", step=0.5 / problem.smooth.lipschitz,
                              max_iters=20)
        trace = tmp_path / f"trace.{fmt}"
        meta = traceio.TraceMeta(**{key: getattr(config, key) for key in SETTING_RULES},
                                 problem_hash=problem.content_hash, problem=spec)
        traceio.write_trace(trace, meta, run(problem, config, np.linspace(-1.0, 2.0, 5)),
                            fmt)
        assert certify_cli(trace, tmp_path) == 0
        edit_cell(trace, fmt, 0, "x", lambda v: v[:j] + [v[j] * (1.0 + 1e-7)] + v[j + 1:])
        assert certify_cli(trace, tmp_path) == 3
        assert "record k=0 has grad_map_norm " in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("value, refusal", [
        # a CSV cell holds inf and 1e+300, a JSON-lines row Infinity and 1e+300
        (math.inf, "vector has non-finite coordinates"),
        (1e300, "iteration k=0: F(z_k) = "),  # an infinity whose sign BLAS sets
    ], ids=["inf", "1e300"])
    def test_x0_that_iterate_refuses(self, tmp_path, capsys, fmt, value, refusal):
        # iterate's checks of x_0 and F(z_k) raise RejectedInputError, exit 2;
        # an infinite x_0 coordinate chained nan rows and exited 3 on a
        # grad_map_norm mismatch, printing four RuntimeWarnings
        trace = short_trace(tmp_path, fmt)
        edit_cell(trace, fmt, 0, "x", lambda v: v[:2] + [value] + v[3:])
        assert certify_cli(trace, tmp_path) == 3
        err = capsys.readouterr().err
        assert f"the replay from the trace's x_0 fails at record k=0: {refusal}" in err
        assert "Traceback" not in err


def edit_cell(trace, fmt, k, column, edit):
    """Rewrite the `column` cell of row k through edit(value), the value as a
    JSON-lines row holds it."""
    if fmt == "jsonl":
        lines = trace.read_text().splitlines()
        row = json.loads(lines[k + 1])
        row[column] = edit(row[column])
        lines[k + 1] = json.dumps(row)
        trace.write_text("\n".join(lines) + "\n")
        return

    def change(rows):
        cell = rows[k][column]
        if column == "x":
            rows[k][column] = traceio._fmt_vector(
                edit([float(c) for c in cell.split(";")] if cell else None))
        else:
            rows[k][column] = traceio._fmt(edit(json.loads(cell) if cell else None))
        return rows
    edit_csv_rows(trace, change)


class TestTraceVersions:
    """Traces are written and read as v5 only: `k, f_y, grad_map_norm,
    accepted, x` in every row, x_0 in the first row's `x` and no other."""

    def test_trace_is_written_as_v5(self, tmp_path):
        trace = short_trace(tmp_path)
        lines = trace.read_text().splitlines()
        assert lines[0] == "# proxcert-trace v5"
        assert json.loads(lines[1][len("# meta "):])["schema_version"] == 5
        assert lines[2] == "k,f_y,grad_map_norm,accepted,x"
        assert lines[3].endswith(",true," + ";".join(["0.0"] * 5))
        assert all(line.endswith(",") for line in lines[4:]) and len(lines) == 24
        jsonl = short_trace(tmp_path, "jsonl").read_text().splitlines()
        assert json.loads(jsonl[0])["schema_version"] == 5
        rows = [json.loads(line) for line in jsonl[1:]]
        assert list(rows[0]) == ["k", "f_y", "grad_map_norm", "accepted", "x"]
        assert rows[0]["x"] == [0.0] * 5
        assert [row["x"] for row in rows[1:]] == [None] * 20

    @pytest.mark.parametrize("fmt, message", [
        ("csv", "unsupported trace header '# proxcert-trace v{}'; expected "
                "'# proxcert-trace v5'"),
        ("jsonl", "unsupported trace schema_version {}; expected 5"),
    ], ids=["csv", "jsonl"])
    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_version_exits_2_naming_it(self, tmp_path, capsys, fmt, message,
                                             version):
        # v1-v3 traces were read until v4 became the one layout, and v4
        # traces until v5 stored x_0 alone
        trace = short_trace(tmp_path, fmt)
        edit_meta(trace, fmt, lambda meta: {**meta, "schema_version": version})
        if fmt == "csv":
            lines = trace.read_text().splitlines(keepends=True)
            trace.write_text(f"# proxcert-trace v{version}\n" + "".join(lines[1:]))
        assert certify_cli(trace, tmp_path) == 2
        assert message.format(version) in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, version, message", [
        ("jsonl", 6, "unsupported trace schema_version 6; expected 5"),
        ("jsonl", True, "unsupported trace schema_version True; expected 5"),
        ("csv", 1, "trace metadata schema_version must be 5, got 1"),
        ("csv", 2, "trace metadata schema_version must be 5, got 2"),
        ("csv", 3, "trace metadata schema_version must be 5, got 3"),
        ("csv", 4, "trace metadata schema_version must be 5, got 4"),
        ("csv", 6, "trace metadata schema_version must be 5, got 6"),
    ])
    def test_unknown_or_mismatched_version_exits_2(self, tmp_path, capsys, fmt, version,
                                                   message):
        trace = short_trace(tmp_path, fmt)
        edit_meta(trace, fmt, lambda meta: {**meta, "schema_version": version})
        assert certify_cli(trace, tmp_path) == 2
        assert message in capsys.readouterr().err

    def test_csv_trace_without_x_exits_2(self, tmp_path, capsys):
        # (a JSON-lines row without `x` exits 3: test_jsonl_row_without_field)
        trace = short_trace(tmp_path)
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(lines[:3]).replace(",x", "") + "".join(
            line.rsplit(",", 1)[0] + "\r\n" for line in lines[3:]), newline="")
        assert certify_cli(trace, tmp_path) == 2
        assert "trace has no column(s) x" in capsys.readouterr().err


class TestCompareCommand:
    def test_three_solvers_table_and_summary(self, tmp_path):
        table = tmp_path / "cmp.csv"
        summary = tmp_path / "cmp.json"
        code = run_cli("compare", "--problem", "quadratic", "--cond", "100",
                       "--dim", "10", "--seed", "1",
                       "--solvers", "ista,apm,mapm", "--max-iters", "300",
                       "--table", str(table), "--summary", str(summary))
        assert code == 0
        header = table.read_text().splitlines()[0]
        assert header == "k,gap_ista,gap_apm,gap_mapm"
        data = json.loads(summary.read_text())
        assert set(data["rho_hat"]) == {"ista", "apm", "mapm"}
        assert "rho_lower_bound" in data and "sqrt_mu_over_L" in data

    def test_repeated_variant_gets_numbered_columns(self, tmp_path):
        table = tmp_path / "cmp.csv"
        summary = tmp_path / "cmp.json"
        code = run_cli("compare", "--problem", "quadratic", "--dim", "5",
                       "--seed", "1", "--solvers", "mapm,apm,mapm,mapm",
                       "--max-iters", "5", "--table", str(table),
                       "--summary", str(summary))
        assert code == 0
        header = table.read_text().splitlines()[0]
        assert header == "k,gap_mapm,gap_apm,gap_mapm#2,gap_mapm#3"
        assert set(json.loads(summary.read_text())["rho_hat"]) == {
            "mapm", "apm", "mapm#2", "mapm#3"}

    def test_single_spec_exits_2(self, tmp_path):
        code = run_cli("compare", "--problem", "quadratic", "--dim", "4",
                       "--solvers", "mapm",
                       "--table", str(tmp_path / "t.csv"),
                       "--summary", str(tmp_path / "s.json"))
        assert code == 2

    def test_solvers_without_problem_exits_2(self, tmp_path, capsys):
        # the flags' problem spec looked up FAMILIES[None]: a KeyError traceback
        code = run_cli("compare", "--solvers", "ista,mapm",
                       "--table", str(tmp_path / "t.csv"),
                       "--summary", str(tmp_path / "s.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "--solvers with --problem" in err and "Traceback" not in err

    def test_mismatched_problems_exit_2(self, tmp_path):
        spec1 = json.dumps({"problem": {"name": "quadratic", "dim": 4,
                                        "cond": 10, "seed": 1},
                            "solver": "apm"})
        spec2 = json.dumps({"problem": {"name": "quadratic", "dim": 4,
                                        "cond": 10, "seed": 2},
                            "solver": "mapm"})
        code = run_cli("compare", "--spec", spec1, "--spec", spec2,
                       "--table", str(tmp_path / "t.csv"),
                       "--summary", str(tmp_path / "s.json"))
        assert code == 2

    @pytest.mark.parametrize("spec, missing", [
        ({"solver": "ista"}, "'problem'"),
        ({"problem": {"name": "quadratic", "dim": 4}}, "'solver'"),
        # a null reads as missing: int(None) and float(None) raised TypeError
        ({"problem": {"name": "quadratic", "dim": 4}, "solver": "ista",
          "alpha": None}, "has no 'alpha'"),
        # a key the spec may not have, and max_iters values that are not ints
        ({"problem": {"name": "quadratic", "dim": 4}, "solver": "ista",
          "max_iter": 3}, "unknown key(s) 'max_iter'"),
        ({"problem": {"name": "quadratic", "dim": 4}, "solver": "ista",
          "max_iters": 2.5}, "max_iters must be an integer >= 0, got 2.5"),
        ({"problem": {"name": "quadratic", "dim": 4}, "solver": "ista",
          "max_iters": "3"}, "max_iters must be an integer >= 0, got '3'"),
    ])
    def test_spec_missing_key_exits_2(self, tmp_path, capsys, spec, missing):
        other = {"problem": {"name": "quadratic", "dim": 4}, "solver": "mapm"}
        code = run_cli("compare", "--spec", json.dumps(spec),
                       "--spec", json.dumps(other),
                       "--table", str(tmp_path / "t.csv"),
                       "--summary", str(tmp_path / "s.json"))
        assert code == 2
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("[1]", "--spec #1 must be a JSON object"),
        ('{"problem": [4], "solver": "ista"}', "problem spec must be a JSON object"),
    ])
    def test_spec_not_an_object_exits_2(self, tmp_path, capsys, spec, message):
        other = {"problem": {"name": "quadratic", "dim": 4}, "solver": "mapm"}
        code = run_cli("compare", "--spec", spec, "--spec", json.dumps(other),
                       "--table", str(tmp_path / "t.csv"),
                       "--summary", str(tmp_path / "s.json"))
        assert code == 2
        assert message in capsys.readouterr().err

    def test_jsonl_rows_are_self_describing(self, tmp_path):
        table = tmp_path / "cmp.jsonl"
        summary = tmp_path / "s.json"
        code = run_cli("compare", "--problem", "quadratic", "--cond", "10",
                       "--dim", "4", "--solvers", "apm,mapm",
                       "--max-iters", "50", "--format", "jsonl",
                       "--table", str(table), "--summary", str(summary))
        assert code == 0
        first = json.loads(table.read_text().splitlines()[0])
        assert first["k"] == 0
        assert "gap_apm" in first and "gap_mapm" in first

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("source, rows", [("flags", 207), ("spec", 66)])
    def test_table_bytes_equal_the_csv_and_json_oracles(self, tmp_path,
                                                         monkeypatch, fmt,
                                                         source, rows):
        comparisons, original = [], cli.compare_solvers

        def compare_solvers(*args, **kwargs):
            comparisons.append(original(*args, **kwargs))
            return comparisons[-1]
        monkeypatch.setattr(cli, "compare_solvers", compare_solvers)
        table = tmp_path / f"cmp.{fmt}"
        # the tolerance stops the solvers at different k: blank cells
        if source == "flags":
            runs = ("--problem", "quadratic", "--cond", "100", "--dim", "10",
                    "--seed", "1", "--solvers", "ista,apm,mapm",
                    "--max-iters", "300", "--grad-map-tol", "1e-3")
        else:  # without its tolerance, ista's 400 iterations give 401 rows
            runs = [arg for solver in ("ista", "mapm") for arg in (
                "--spec", json.dumps({"problem": {"name": "quadratic", "dim": 5},
                                      "solver": solver, "max_iters": 400,
                                      "grad_map_tol": 1e-3}))]
        code = run_cli("compare", *runs, "--format", fmt, "--table", str(table),
                       "--summary", str(tmp_path / "s.json"))
        assert code == 0
        comparison = comparisons[0]
        assert len(comparison.ks) == rows
        assert any(None in gaps for gaps in comparison.gaps.values())
        assert table.read_bytes() == TABLE_ORACLES[fmt](comparison)


# Run settings that break the run contract, each with the setting it breaks.
BAD_SETTINGS = [("alpha", 2.0), ("alpha", float("inf")), ("alpha", float("nan")),
                ("alpha", BIG_INT), ("max_iters", -1), ("max_iters", 2.5),
                ("grad_map_tol", -1.0), ("grad_map_tol", float("nan")),
                ("grad_map_tol", BIG_INT), ("step", 0.0), ("step", BIG_INT)]


class TestBadRunSettingsExit2:
    """A bad run setting exits 2 naming it, whether it comes from `run`'s
    flags, a `compare --spec` or a trace's metadata."""

    # argparse refuses 2.5 for an int flag, and reads a 10 ** 400 tolerance as
    # inf, which is legal
    @pytest.mark.parametrize("field, value", [
        case for case in BAD_SETTINGS
        if case not in (("max_iters", 2.5), ("grad_map_tol", BIG_INT))], ids=setting_id)
    def test_run_flags(self, tmp_path, capsys, field, value):
        if field == "step":
            flag, text = "--step-mode", f"explicit:{value!r}"
        else:
            flag, text = "--" + field.replace("_", "-"), repr(value)
        out = tmp_path / "t.csv"
        assert run_cli(*quadratic_run_args(out, (f"{flag}={text}",))) == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", BAD_SETTINGS, ids=setting_id)
    def test_compare_spec(self, tmp_path, capsys, field, value):
        good = {"problem": {"name": "quadratic", "dim": 4}, "solver": "mapm"}
        bad = {**good, field: value}
        if field == "step":
            bad = {**good, "step_mode": f"explicit:{value!r}"}
        code = run_cli("compare", "--spec", json.dumps(good), "--spec", json.dumps(bad),
                       "--table", str(tmp_path / "t.csv"),
                       "--summary", str(tmp_path / "s.json"))
        assert code == 2
        assert f"{field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("field, value", BAD_SETTINGS, ids=setting_id)
    def test_trace_metadata(self, tmp_path, capsys, fmt, field, value):
        trace = short_trace(tmp_path, fmt)
        edit_meta(trace, fmt, lambda meta: {**meta, field: value})
        assert certify_cli(trace, tmp_path) == 2
        assert f"trace metadata {field} must be" in capsys.readouterr().err


# Problem specs that break a generator parameter's rule, or name a key that is
# none of their family's, each with the start of the error that names the key.
BAD_PROBLEM_PARAMS = [
    ({"name": "quadratic", "dim": 3, "cond": 0}, "cond must be a positive integer, got 0"),
    ({"name": "quadratic", "dim": 0}, "dim must be a positive integer, got 0"),
    ({"name": "quadratic", "dim": 4.9}, "dim must be a positive integer, got 4.9"),
    ({"name": "quadratic", "dim": True}, "dim must be a positive integer, got True"),
    ({"name": "quadratic", "dim": 3, "seed": -1}, "seed must be an integer in [0, 2**64)"),
    ({"name": "quadratic", "dim": 3, "seed": True},
     "seed must be an integer in [0, 2**64)"),
    ({"name": "quadratic", "dim": 3, "seed": 2 ** 64},
     "seed must be an integer in [0, 2**64)"),
    ({"name": "lasso", "rows": 5, "cols": 3}, "cols must be >= rows = 5, got 3"),
    ({"name": "lasso", "rows": 3, "lam": float("nan")},
     "lam must be a finite number > 0, got nan"),
    ({"name": "lasso", "rows": 3, "lam": float("inf")},
     "lam must be a finite number > 0, got inf"),
    ({"name": "lasso", "rows": 3, "lam": 0}, "lam must be a finite number > 0, got 0"),
    ({"name": "lasso", "rows": 3, "lam": "0.5"},
     "lam must be a finite number > 0, got '0.5'"),
    ({"name": "quadratic", "dim": 3, "dimm": 7}, "problem spec has unknown key(s) 'dimm'"),
    # another family's keys: as run flags, they were ignored
    ({"name": "quadratic", "dim": 3, "rows": 7, "lam": 0.5},
     "problem spec has unknown key(s) 'rows', 'lam'"),
    ({"name": "box-quadratic", "dim": 3, "cond": 5},
     "problem spec has unknown key(s) 'cond'"),
    ({"name": "lasso", "rows": 3, "cond": 5}, "problem spec has unknown key(s) 'cond'"),
    ({"name": "lasso", "rows": 3, "dim": 4},  # rows given twice: it read as 3
     "problem spec has unknown key(s) 'dim'; valid: name, seed, rows, cols, lam"),
]
PROBLEM_FLAG_TYPES = {"dim": int, "cond": int, "rows": int, "cols": int, "seed": int,
                      "lam": float}


def problem_spec_ids(cases):
    """Test ids naming each case's spec keys, other than `name`, and values."""
    return ["-".join(f"{key}={value!r}" for key, value in spec.items() if key != "name")
            for spec, _ in cases]


def problem_flags(spec):
    """The problem flags that carry `spec`, or None where argparse cannot: an
    unknown key, or a value that is not of its flag's type."""
    flags = ["--problem", spec["name"]]
    for key, value in spec.items():
        if key != "name":
            kind = PROBLEM_FLAG_TYPES.get(key)
            if kind is None or type(value) not in (kind, int):
                return None
            flags += [f"--{key}", repr(value)]
    return flags


class TestBadProblemParamsExit2:
    """A problem spec that breaks a generator parameter's rule exits 2 naming
    the key, with no traceback, whether it comes from `run`'s flags, a
    `compare --spec` or the problem spec a trace carries."""

    FLAG_CASES = [case for case in BAD_PROBLEM_PARAMS if problem_flags(case[0])]

    @pytest.mark.parametrize("spec, message", FLAG_CASES, ids=problem_spec_ids(FLAG_CASES))
    def test_run_flags(self, tmp_path, capsys, spec, message):
        out = tmp_path / "t.csv"
        code = run_cli("run", *problem_flags(spec), "--solver", "mapm",
                       "--max-iters", "5", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", BAD_PROBLEM_PARAMS,
                             ids=problem_spec_ids(BAD_PROBLEM_PARAMS))
    def test_compare_spec(self, tmp_path, capsys, spec, message):
        specs = [arg for solver in ("ista", "mapm") for arg in (
            "--spec", json.dumps({"problem": spec, "solver": solver}))]
        code = run_cli("compare", *specs, "--table", str(tmp_path / "t.csv"),
                       "--summary", str(tmp_path / "s.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("spec, message", BAD_PROBLEM_PARAMS,
                             ids=problem_spec_ids(BAD_PROBLEM_PARAMS))
    def test_trace_problem_spec(self, tmp_path, capsys, spec, message):
        trace = short_trace(tmp_path)
        edit_meta(trace, "csv", lambda meta: {**meta, "problem": spec})
        assert certify_cli(trace, tmp_path) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command, flags, named", [
        ("certify", ["--dim", "7", "--lam", "3"], "--dim, --lam given without --problem"),
        ("certify", ["--seed", "4"], "--seed given without --problem"),
        ("compare", ["--dim", "9", "--rows", "3"], "--dim, --rows given with --spec"),
        ("compare", ["--problem", "lasso", "--cond", "5"],
         "--problem, --cond given with --spec"),
    ])
    def test_problem_flags_the_command_would_not_read(self, tmp_path, capsys, command,
                                                      flags, named):
        # certify read the trace's problem, and compare its specs' problems,
        # and exited 0 without a word about these flags
        if command == "certify":
            argv = ["--trace", str(short_trace(tmp_path)), "--report",
                    str(tmp_path / "r.csv")]
        else:
            specs = [json.dumps({"problem": {"name": "quadratic", "dim": 4},
                                 "solver": solver}) for solver in ("ista", "mapm")]
            argv = ["--spec", specs[0], "--spec", specs[1], "--table",
                    str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")]
        capsys.readouterr()
        assert run_cli(command, *argv, *flags) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "r.csv").exists() and not (tmp_path / "t.csv").exists()

    def test_null_is_an_absent_key(self, tmp_path):
        # a null cond ended in a TypeError traceback; it takes cond's default,
        # as an absent or null dim takes dim's
        build = cli.build_problem_from_spec
        assert (build({"name": "quadratic", "dim": 4, "cond": None}).content_hash
                == build({"name": "quadratic", "dim": 4}).content_hash
                == random_quadratic(0, 4, 10).content_hash)
        assert (build({"name": "quadratic", "dim": None}).content_hash
                == build({"name": "quadratic"}).content_hash
                == random_quadratic(0, 20, 10).content_hash)
        specs = [json.dumps({"problem": problem, "solver": "mapm", "max_iters": 20})
                 for problem in ({"name": "quadratic", "dim": 4, "cond": None},
                                 {"name": "quadratic", "dim": 4})]
        assert run_cli("compare", "--spec", specs[0], "--spec", specs[1],
                       "--table", str(tmp_path / "t.csv"),
                       "--summary", str(tmp_path / "s.json")) == 0


class TestBenchmarkProblemSpecs:
    """The problem specs and flags the benchmark builds its problems from
    (`bench/run.py`) build the generator's own problem, and the benchmark's
    checks read the traces and reports the CLI writes."""

    def test_benchmark_library_round_passes_its_checks(self, tmp_path):
        # bench/pipeline.py reads the rows `run()` returns (len, [0].x,
        # [-1].grad_map_norm, k as JSON); its round's details must pass the
        # checks bench/run.py applies to them
        root = Path(__file__).resolve().parents[1]
        out = tmp_path / "round.json"
        env = {key: value for key, value in os.environ.items() if key != "PROXCERT_SEED"}
        done = subprocess.run([sys.executable, "bench/pipeline.py", "--workload",
                               "lib-suite", "--seed", "0", "--out", str(out)],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(out.read_text())
        assert (result["attempted"], result["failed"]) == (21, 0)
        check = ("import json, sys; sys.path.insert(0, 'bench'); import run; "
                 "v = run.Verdicts(); run.check_lib_outputs(v, run.import_proxcert(), "
                 "'lib-suite', 0, json.load(open(sys.argv[1]))['details']); "
                 "print(json.dumps([v.checked, v.problems]))")
        done = subprocess.run([sys.executable, "-c", check, str(out)], cwd=root,
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        assert json.loads(done.stdout) == [True, []]

    def test_certify_exit_code_does_not_follow_the_blas_thread_count(self, tmp_path):
        # the closed-form F* of a d200 quadratic moves by a few ulps with the
        # BLAS thread count; the benchmark's cli-quad-d200 trace, whose `gap`
        # column followed it, and the verdict on it must not
        src = str(Path(cli.__file__).resolve().parents[1])
        codes, traces = [], []
        for threads in ("1", "2"):
            env = {key: value for key, value in os.environ.items()
                   if key != "PROXCERT_SEED"}
            env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            traces.append(tmp_path / f"trace{threads}.csv")
            for argv in (["run", "--problem", "quadratic", "--dim", "200", "--cond",
                          "100", "--seed", "101", "--solver", "mapm", "--max-iters",
                          "2000", "--out", str(traces[-1])],
                         ["certify", "--trace", str(traces[-1]), "--report",
                          str(tmp_path / f"report{threads}.csv")]):
                done = subprocess.run([sys.executable, "-m", "proxcert", *argv],
                                      env=env, capture_output=True, text=True,
                                      timeout=300)
            codes.append(done.returncode)
        assert codes[0] == codes[1], codes
        assert traces[0].read_bytes() == traces[1].read_bytes()

    def test_benchmark_selftest_passes(self):
        # bench/selftest.py runs the CLI, checks its outputs with bench/checks.py
        # and shows that each check catches the corruption it guards against
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=root,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

    @pytest.mark.parametrize("spec, direct", [
        ({"name": "quadratic", "dim": 6, "cond": 100, "seed": 101},
         lambda: random_quadratic(101, 6, 100)),
        ({"name": "lasso", "rows": 4, "cols": 8, "seed": 101},
         lambda: random_lasso(101, 4, 8)),
    ], ids=["quadratic", "lasso"])
    def test_spec_and_flags_build_the_generators_problem(self, spec, direct):
        flags = ["run", *problem_flags(spec), "--solver", "mapm", "--out", "t.csv"]
        from_flags = cli._problem_spec_from_args(cli.build_parser().parse_args(flags))
        assert from_flags == spec
        expected = direct().content_hash
        assert cli.build_problem_from_spec(spec).content_hash == expected
        assert cli.build_problem_from_spec(from_flags).content_hash == expected


def csv_module_table(comparison):
    """A compare table as csv.writer writes it: the byte oracle."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["k"] + [f"gap_{label}" for label in comparison.labels])
    for i, k in enumerate(comparison.ks):
        gaps = [comparison.gaps[label][i] for label in comparison.labels]
        writer.writerow([k] + ["" if g is None else repr(float(g)) for g in gaps])
    return buf.getvalue().encode()


def json_dumps_table(comparison):
    """A compare table as json.dumps writes it row by row: the byte oracle."""
    lines = []
    for i, k in enumerate(comparison.ks):
        row = {"k": k}
        for label in comparison.labels:
            gap = comparison.gaps[label][i]
            row[f"gap_{label}"] = None if gap is None else float(gap)
        lines.append(json.dumps(row) + "\n")
    return "".join(lines).encode()


TABLE_ORACLES = {"csv": csv_module_table, "jsonl": json_dumps_table}


# What a mutation writes in each format: an empty cell, a nan coordinate, and
# coordinates that are not numbers.
EMPTY = {"csv": "", "jsonl": None}
NAN = {"csv": "nan", "jsonl": float("nan")}
NON_NUMBERS = {"csv": ["abc", "", "1.0.0", "0x1p3", "1e", "--1"],
               "jsonl": ["abc", None, True, "1.0", [1.0]]}
# The columns that have a value in every row of a trace, and x (in row 0).
REQUIRED_COLUMNS = ["k", "f_y", "grad_map_norm", "x"]


@st.composite
def mutated_trace(draw, texts, fmt):
    """(kind, text): a trace's text with one fault of that kind: a row
    dropped, duplicated or swapped, the last 1 to n - 1 rows dropped (a run
    stops only at max_iters or at the grad_map_tol test, so a shorter trace is
    not valid), cells cut from a row, x_0 made ragged, a coordinate of x_0
    that is not a number or is nan, a renamed column, a required cell left
    empty (a JSON null; x's in row 0), x_0 one coordinate short, an x given
    to a later row, or a cell that replay checks: a grad_map_norm doubled, an
    accepted flipped or left empty, an f_y lowered by 1e-6, an apm row given
    an accepted, or a coordinate of x_0 moved by 1e-3 (1 + its size).
    `texts` holds the valid texts: a mapm and an apm trace."""
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "truncate", "cut",
                                 "ragged", "non_number", "nan", "rename", "blank",
                                 "shrink", "stray_x", "double_gnorm",
                                 "flip_accepted", "empty_accepted", "lower_f_y",
                                 "apm_accepted", "move_x"]))
    text = texts["apm" if kind == "apm_accepted" else "mapm"]
    lines = text.splitlines()
    if fmt == "csv":
        header, columns = lines[:2], lines[2].split(",")
        rows = [line.split(",") for line in lines[3:]]
    else:
        header, columns = lines[:1], list(json.loads(lines[1]))
        rows = [list(json.loads(line).values()) for line in lines[1:]]

    def coords(cell):
        return cell.split(";") if fmt == "csv" else list(cell)

    def vector(values):
        return ";".join(values) if fmt == "csv" else values

    def scalar(value):
        return traceio._fmt(value) if fmt == "csv" else value
    n = len(rows)
    i = draw(st.integers(0, n - 1))
    if kind == "drop":
        del rows[draw(st.integers(0, n - 2))]
    elif kind == "truncate":
        del rows[n - draw(st.integers(1, n - 1)):]
    elif kind == "duplicate":
        rows.insert(i, list(rows[i]))
    elif kind == "swap":
        j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "cut":
        rows[i] = rows[i][:draw(st.integers(1, len(columns) - 1))]
    elif kind == "rename":
        c = draw(st.integers(0, len(columns) - 1))
        columns = columns[:c] + ["renamed_" + columns[c]] + columns[c + 1:]
    elif kind == "blank":
        column = draw(st.sampled_from(REQUIRED_COLUMNS))
        rows[0 if column == "x" else i][columns.index(column)] = EMPTY[fmt]
    elif kind == "shrink":
        col = columns.index("x")
        j = draw(st.integers(0, len(coords(rows[0][col])) - 1))
        rows[0][col] = vector(coords(rows[0][col])[:j] + coords(rows[0][col])[j + 1:])
    elif kind == "stray_x":
        col = columns.index("x")
        rows[draw(st.integers(1, n - 1))][col] = rows[0][col]
    elif kind == "double_gnorm":
        col = columns.index("grad_map_norm")
        rows[i][col] = scalar(2.0 * float(rows[i][col]))
    elif kind == "lower_f_y":
        col = columns.index("f_y")
        rows[i][col] = scalar(float(rows[i][col]) - 1e-6)
    elif kind == "flip_accepted":
        col = columns.index("accepted")
        rows[i][col] = {"true": "false", "false": "true", True: False,
                        False: True}[rows[i][col]]
    elif kind == "empty_accepted":
        rows[i][columns.index("accepted")] = EMPTY[fmt]
    elif kind == "apm_accepted":
        rows[i][columns.index("accepted")] = scalar(draw(st.booleans()))
    elif kind == "move_x":
        col = columns.index("x")
        cell = coords(rows[0][col])
        j = draw(st.integers(0, len(cell) - 1))
        c = float(cell[j])
        cell[j] = scalar(c + 1e-3 * (1.0 + abs(c)))
        rows[0][col] = vector(cell)
    else:
        i = 0  # the one x cell, x_0
        col = columns.index("x")
        cell = coords(rows[i][col])
        j = draw(st.integers(0, len(cell) - 1))
        if kind == "nan":
            cell[j] = NAN[fmt]
        elif kind == "non_number":
            cell[j] = draw(st.sampled_from(NON_NUMBERS[fmt]))
        elif draw(st.booleans()):
            del cell[j]
        else:
            cell.insert(j, cell[j])
        rows[i][col] = vector(cell)
    if fmt == "csv":
        body = [",".join(columns)] + [",".join(row) for row in rows]
    else:
        body = [json.dumps(dict(zip(columns, row))) for row in rows]
    return kind, "\n".join(header + body) + "\n"


@pytest.fixture(scope="module")
def valid_trace_texts(tmp_path_factory):
    def text(fmt, **how):
        return short_trace(tmp_path_factory.mktemp("valid"), fmt, **how).read_text()
    return {fmt: {"mapm": text(fmt), "apm": text(fmt, solver="apm")}
            for fmt in ("csv", "jsonl")}


def certify_mutated(kind, text, fmt):
    """certify a mutated trace: exit 3 (corrupt data), or exit 2 for a CSV
    trace without one of its columns, and no traceback."""
    with tempfile.TemporaryDirectory() as work:
        trace = Path(work) / f"trace.{fmt}"
        trace.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run_cli("certify", "--trace", str(trace),
                           "--report", str(Path(work) / "r.csv"))
    assert code == (2 if kind == "rename" and fmt == "csv" else 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestTraceMutationsExit2Or3:
    """Structurally broken traces exit 2 or 3, never 0 or 1, and never crash."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_csv_trace(self, valid_trace_texts, data):
        certify_mutated(*data.draw(mutated_trace(valid_trace_texts["csv"], "csv")), "csv")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_jsonl_trace(self, valid_trace_texts, data):
        certify_mutated(*data.draw(mutated_trace(valid_trace_texts["jsonl"], "jsonl")),
                        "jsonl")
