"""Spans around calls into proxcert's public functions, recorded from outside.

The tracer replaces module-level names that the CLI, the harness and the
certificate engine look up at call time, and wraps a problem's oracles with
`dataclasses.replace` (which keeps `content_hash`).  No program code changes.

Coarse spans (problem build, solve, reference, certify, trace and report I/O)
are kept one by one and written out at the end; the per-call spans of oracles
and certificate formulas, which run hundreds of thousands of times, are folded
into per-round totals (calls, time, time of child spans) as they close.  A
span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from time import perf_counter

# (module, attribute, span name); every binding a caller can reach is listed,
# since `from .solvers import run` gives the CLI its own name for `run`.
PATCHES = (
    ("cli", "build_problem_from_spec", "problems.build"),
    ("harness", "generate_suite", "problems.build"),
    ("harness", "random_quadratic", "problems.build"),
    ("cli", "run", "solvers.run"),
    ("solvers", "run", "solvers.run"),
    ("cli", "reference_solution", "harness.reference"),
    ("harness", "reference_solution", "harness.reference"),
    ("cli", "certify_trace", "certificates.certify"),
    ("certificates", "certify_trace", "certificates.certify"),
    ("certificates", "energy", "certificates.energy"),
    ("certificates", "prop1_rhs", "certificates.prop1"),
    ("certificates", "prop2_rhs", "certificates.prop2"),
    ("certificates", "descent_lemma_sides", "certificates.descent"),
    ("certificates", "inertial_residual", "certificates.inertial"),
    ("certificates", "theorem1_envelope", "certificates.envelope"),
    ("certificates", "theorem2_envelope", "certificates.envelope"),
    ("cli", "write_trace", "traceio.write"),
    ("cli", "read_trace", "traceio.read"),
    ("cli", "write_report", "traceio.report_write"),
)

COARSE = {"problems.build", "solvers.run", "harness.reference",
          "certificates.certify", "traceio.write", "traceio.read",
          "traceio.report_write"}


class Tracer:
    """Span recorder; one `rounds` entry of totals per measured round."""

    def __init__(self):
        self.spans = []  # (round, name, start, end, parent name)
        self.rounds = []
        self._stack = []  # open spans: [time covered by their children]
        self._coarse = []  # names of the open coarse spans
        self._paused = False

    def begin_round(self) -> None:
        self.rounds.append({"totals": {}, "counts": {}})

    def count(self, key, n=1) -> None:
        counts = self.rounds[-1]["counts"]
        counts[key] = counts.get(key, 0) + n

    def wrap(self, name, fn, after=None):
        """fn timed as span `name`; `after(args, result)` may count or rewrap."""
        coarse = name in COARSE
        stack, coarse_stack = self._stack, self._coarse

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            outer = coarse_stack[-1] if coarse_stack else None
            frame = [0.0]
            stack.append(frame)
            if coarse:
                coarse_stack.append(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if coarse:
                    coarse_stack.pop()
                self._close(name, outer, start, end, frame[0], coarse)
            return after(args, result) if after is not None else result

        return traced

    def _close(self, name, outer, start, end, child, coarse):
        duration = end - start
        round_ = self.rounds[-1]
        entry = round_["totals"].get(name)
        if entry is None:
            entry = round_["totals"][name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += child
        counts = round_["counts"]
        counts[name, outer] = counts.get((name, outer), 0) + 1
        if self._stack:
            self._stack[-1][0] += duration
        if coarse:
            self.spans.append((len(self.rounds) - 1, name, start, end, outer))

    def wrap_problem(self, problem):
        """The same problem with every oracle call traced."""
        smooth = dataclasses.replace(
            problem.smooth,
            value=self.wrap("problems.value", problem.smooth.value),
            gradient=self.wrap("problems.gradient", problem.smooth.gradient),
        )
        nonsmooth = dataclasses.replace(
            problem.nonsmooth,
            value=self.wrap("problems.value_g", problem.nonsmooth.value),
            prox=self.wrap("problems.prox", problem.nonsmooth.prox),
        )
        # replace() re-runs the minimizer check, which calls the oracles.
        self._paused = True
        try:
            return dataclasses.replace(problem, smooth=smooth, nonsmooth=nonsmooth)
        finally:
            self._paused = False

    def _after(self, name):
        if name == "problems.build":
            def rewrap(args, result):
                if isinstance(result, list):
                    return [self.wrap_problem(p) for p in result]
                return self.wrap_problem(result)
            return rewrap
        if name == "solvers.run":
            def count_records(args, records):
                self.count("records", len(records))
                self.count("accepts", sum(1 for r in records if r.accepted is True))
                self.count("rejects", sum(1 for r in records if r.accepted is False))
                return records
            return count_records
        if name == "certificates.certify":
            def count_lines(args, reports):
                self.count("lines", len(reports))
                return reports
            return count_lines
        if name in ("traceio.write", "traceio.report_write"):
            def count_bytes(args, result):
                self.count(name + ".bytes", os.path.getsize(args[0]))
                return result
            return count_bytes
        return None

    @contextlib.contextmanager
    def installed(self, pc):
        """Patch the names in PATCHES on the imported package; undo on exit."""
        saved = []
        try:
            for module_name, attr, span in PATCHES:
                module = getattr(pc, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original, self._after(span)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, index: int) -> dict:
        """Per-layer numbers of one round, named after the package modules."""
        totals, counts = self.rounds[index]["totals"], self.rounds[index]["counts"]

        def calls(name):
            return totals.get(name, [0, 0.0, 0.0])[0]

        def busy(*names):
            return sum(totals.get(n, [0, 0.0, 0.0])[1] for n in names)

        run_child = totals.get("solvers.run", [0, 0.0, 0.0])[2]
        return {
            "problems.build_s": busy("problems.build"),
            "problems.gradient_calls": calls("problems.gradient"),
            "problems.value_calls": calls("problems.value"),
            "problems.prox_calls": calls("problems.prox"),
            "problems.gradient_s": busy("problems.gradient"),
            "problems.value_s": busy("problems.value", "problems.value_g"),
            "problems.prox_s": busy("problems.prox"),
            "solvers.run_s": busy("solvers.run"),
            "solvers.run_self_s": busy("solvers.run") - run_child,
            "solvers.records": counts.get("records", 0),
            "solvers.accepts": counts.get("accepts", 0),
            "solvers.rejects": counts.get("rejects", 0),
            "harness.reference_s": busy("harness.reference"),
            "harness.reference_gradient_calls":
                counts.get(("problems.gradient", "harness.reference"), 0),
            "certificates.certify_s": busy("certificates.certify"),
            "certificates.lines": counts.get("lines", 0),
            "certificates.energy_s": busy("certificates.energy"),
            "certificates.prop1_s": busy("certificates.prop1"),
            "certificates.prop2_s": busy("certificates.prop2"),
            "certificates.descent_s": busy("certificates.descent"),
            "certificates.inertial_s": busy("certificates.inertial"),
            "certificates.envelope_s": busy("certificates.envelope"),
            "traceio.write_s": busy("traceio.write"),
            "traceio.trace_bytes": counts.get("traceio.write.bytes", 0),
            "traceio.read_s": busy("traceio.read"),
            "traceio.report_write_s": busy("traceio.report_write"),
            "traceio.report_bytes": counts.get("traceio.report_write.bytes", 0),
        }
