"""Show that no benchmark check passes vacuously.

    python3 bench/selftest.py

Produces genuine outputs with the proxcert CLI (a quadratic trace in CSV and
a fat-lasso trace in JSON lines, both mapm, 2000 iterations), shows that
every check in checks.py passes on them, then corrupts one thing at a time
(a certify exit code, a pass cell, a trace row, a report line, one f_y, F*,
the declared L, one byte) and shows that the check guarding it fails.  Exits
0 only if every genuine output passes and every corruption is caught.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path


sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run as bench  # noqa: E402

CASES = (
    ("quadratic d20, CSV", {"name": "quadratic", "dim": 20, "cond": 100, "seed": 3}, "csv"),
    ("fat lasso 20x40, JSON lines", {"name": "lasso", "rows": 20, "cols": 40, "seed": 3},
     "jsonl"),
)


def edit_trace(src: Path, dst: Path, fmt: str, edit) -> None:
    """Copy a trace, passing its data rows (as dicts) through edit(rows)."""
    lines = src.read_text().splitlines(keepends=True)
    if fmt == "csv":
        head, body = lines[:2], lines[2:]
        rows = list(csv.DictReader(body))
        columns = list(rows[0])
        rows = edit(rows)
        with open(dst, "w", newline="") as fh:
            fh.writelines(head)
            writer = csv.DictWriter(fh, columns)
            writer.writeheader()
            writer.writerows(rows)
    else:
        rows = edit([json.loads(line) for line in lines[1:]])
        dst.write_text(lines[0] + "".join(json.dumps(r) + "\n" for r in rows))


def edit_report(src: Path, dst: Path, edit) -> None:
    """Copy a report, passing its data lines (text) through edit(lines)."""
    lines = src.read_text().splitlines(keepends=True)
    skip = 2 if lines[0].startswith("#") else 1
    dst.write_text("".join(lines[:skip] + edit(lines[skip:])))


def set_f_y(rows, index, delta):
    row = rows[index]
    row["f_y"] = (repr(float(row["f_y"]) + delta) if isinstance(row["f_y"], str)
                  else row["f_y"] + delta)
    return rows


def flip_first_pass(lines):
    for i, line in enumerate(lines):
        if "true" in line and "not_applicable" not in line:
            lines[i] = line.replace("true", "false", 1)
            return lines
    raise AssertionError("no passing line to flip")


def main() -> int:
    pc = bench.import_proxcert()
    bench.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT))
    results = []

    def expect(label, fn, should_fail):
        try:
            fn()
            ok, detail = not should_fail, "passed"
        except checks.CheckFailed as exc:
            ok, detail = should_fail, f"failed: {exc}"
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail[:160]}")

    try:
        for title, spec, fmt in CASES:
            print(f"-- {title}")
            run_argv, certify_argv, trace, report = bench.cli_argvs(spec, fmt, work)
            for argv in (run_argv, certify_argv):
                code = bench.spawn([sys.executable, "-m", "proxcert", *argv],
                                   work / "child.log")[2]
                if code != 0:
                    print(f"FAIL  proxcert {argv[0]} exited {code}")
                    return 1
            problem = pc.cli.build_problem_from_spec(spec)
            ref = checks.reference_from_oracles(problem, checks.family_of(spec["name"]))
            declared = (problem.smooth.lipschitz, problem.smooth.strong_convexity)
            out = checks.read_cli_outputs(trace, report, 0)
            bad_trace, bad_report = work / f"bad.{fmt}", work / f"badreport.{fmt}"
            middle = out.ks.size // 2

            expect("genuine outputs pass every check",
                   lambda: checks.check_all(out, ref, *declared), False)
            expect("certify exit 1 fails check_verdict",
                   lambda: checks.check_verdict(dataclasses.replace(out, exit_code=1)),
                   True)

            def flipped_pass():
                edit_report(report, bad_report, flip_first_pass)
                checks.check_verdict(checks.read_cli_outputs(trace, bad_report, 0))
            expect("one pass cell set to false fails check_verdict", flipped_pass, True)

            def dropped_row():
                edit_trace(trace, bad_trace, fmt, lambda rows: rows[:middle] + rows[middle + 1:])
                checks.check_record_count(checks.read_cli_outputs(bad_trace, report, 0))
            expect("one trace row dropped fails check_record_count", dropped_row, True)

            def dropped_line():
                edit_report(report, bad_report, lambda lines: lines[:-1])
                checks.check_certificate_lines(
                    checks.read_cli_outputs(trace, bad_report, 0), ref)
            expect("one report line dropped fails check_certificate_lines",
                   dropped_line, True)

            def raised_f_y():
                edit_trace(trace, bad_trace, fmt, lambda rows: set_f_y(rows, middle, 1e-6))
                checks.check_monotone(checks.read_cli_outputs(bad_trace, report, 0))
            expect(f"f_y at k={middle} raised by 1e-6 fails check_monotone",
                   raised_f_y, True)

            def raised_last_f_y():
                edit_trace(trace, bad_trace, fmt, lambda rows: set_f_y(rows, -1, 1e-6))
                checks.check_envelope(checks.read_cli_outputs(bad_trace, report, 0), ref)
            expect("last f_y raised by 1e-6 fails check_envelope", raised_last_f_y, True)

            for shift in (1e-6, -1e-6):
                shifted = dataclasses.replace(ref, f_star=ref.f_star + shift)
                expect(f"F* shifted by {shift:+g} fails check_reference",
                       lambda: checks.check_reference(out, shifted), True)
            lowered = dataclasses.replace(ref, f_star=ref.f_star - 1.0)
            expect("F* lowered by 1 fails check_envelope",
                   lambda: checks.check_envelope(out, lowered), True)
            expect("declared L raised by 1% fails check_constants",
                   lambda: checks.check_constants(out, declared[0] * 1.01, declared[1], ref),
                   True)
            gap0 = out.f_y[0] - ref.f_star
            sublinear = dataclasses.replace(
                out, f_y=ref.f_star + gap0 / (out.ks + 1.0))
            expect("f_y decaying as 1/k fails check_envelope",
                   lambda: checks.check_envelope(sublinear, ref), True)
            if ref.family == "quadratic":
                half = 0.5 * checks.rho_bound(ref.mu, ref.lipschitz, out.step)
                slow = dataclasses.replace(
                    out, f_y=ref.f_star + gap0 * (1.0 + half) ** -out.ks.astype(float))
                expect("f_y decaying linearly at half mu/(4L+5mu) fails check_rate",
                       lambda: checks.check_rate(slow, ref), True)

            def changed_byte():
                data = bytearray(trace.read_bytes())
                data[-10] = ord("7") if data[-10] != ord("7") else ord("8")
                bad_trace.write_bytes(bytes(data))
                checks.check_repeat(checks.file_digest(bad_trace, report),
                                    checks.file_digest(trace, report), "trace bytes")
            expect("one trace byte changed fails check_repeat", changed_byte, True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{sum(results)}/{len(results)} self-test cases behaved as required")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
