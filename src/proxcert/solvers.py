"""The shared stepping rule and the one driver loop.

From the prox point z_k = prox_{sg}(x_k - s grad f(x_k)), every variant steps

  y_{k+1} = y_k if mapm and F(z_k) > F(y_k), else z_k
  x_{k+1} = y_{k+1} [+ beta_k (y_{k+1} - y_k)] [+ gamma_k (z_k - y_{k+1})]

with beta_k = k/(k+a) for apm and mapm, (1-sqrt(mu/L))/(1+sqrt(mu/L)) for
strongly_convex_apm and none for ista, and gamma_k = (k+a-1)/(k+a) for mapm
only.  A missing term is left out, not multiplied by 0.0: adding +0.0 would
turn the prox's -0.0 coordinates into 0.0.  F(y_k) is computed once per
iteration and cached in the state; the mapm test compares cached values only.

`iterate` is the one loop that applies the rule, and it makes each decision
of a step once: mapm's test, and the finiteness of F(z_k) and ||G_k||.  It
yields each step as a trace row.  Its consumers bring their own stop rules:
`run`, `Trace.replay` and both phases of `harness.reference_solution`.

`_blocks` collects iterate's rows into a stream of `Trace` blocks with every
column, each of `_block_rows(d)` rows, about _BLOCK_BYTES per (rows, d)
column, plus the first row of the next block: blocks overlap by one row, so
that a consumer finds row k+1 in the block of row k.  It is the one stream:
`run` takes it whole as one block (or keeps each block's stored columns), and
`Trace.replay` checks it and hands it to the certificate engine block by
block.  `Columns.concat` is the one join of tables, of blocks' rows or of
certificate lines.  A trace file stores x_0 and mapm's choice `accepted`,
but not x_k for k >= 1, y_k, G_k or F(z_k): `Trace.replay` runs `iterate`
again from x_0 with the stored choices, so they equal `run`'s bit for bit.

The run contract is written once: `errors.SETTING_RULES` (each setting's rule),
`bind_step` (s <= 1/L) and `SolverConfig.stops` (the stop rule of `run`, `certify`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import starmap
from typing import Optional

import numpy as np

from .errors import (SETTING_RULES, ConfigurationError, DataCorruptionError,
                     RejectedInputError, check_setting)
from .problems import CompositeProblem, Vector, as_vector, norm, prox_gradient

# Allows s = 1/L computed in floats to pass the s <= 1/L bound.
_STEP_SLACK = 1e-12

# Rows that iterating a Trace or a CertificateTable, or writing a report,
# turns into Python values at a time.  A chunk's values and cell strings,
# about 0.5 KB per report line, are what writing a report holds beyond the table.
_CHUNK_ROWS = 1 << 10
# Each (rows, d) column of a block of the stream from `iterate` holds about
# this many bytes, so what a step of the stream holds does not grow with the
# run's length.
_BLOCK_BYTES = 1 << 17


@dataclass
class SolverConfig:
    """Run configuration, each field checked by its SETTING_RULES rule.

    step=None selects the canonical default s = 1/(2L) at run start.  alpha
    must be finite and >= 3 for every variant, though only apm and mapm use
    it.  Numbers are stored as floats, max_iters as an int.
    """

    variant: str
    alpha: float = 3.0
    step: Optional[float] = None
    max_iters: int = 1000
    grad_map_tol: float = 0.0

    def __post_init__(self):
        for name in SETTING_RULES:
            if not (name == "step" and self.step is None):
                check_setting(name, getattr(self, name))
        self.alpha, self.grad_map_tol = float(self.alpha), float(self.grad_map_tol)
        self.max_iters = int(self.max_iters)
        self.step = None if self.step is None else float(self.step)

    def stops(self, k, grad_map_norm):
        """Whether a run stops at record k; `|` serves scalars and arrays alike."""
        return (k >= self.max_iters) | (grad_map_norm <= self.grad_map_tol)


@dataclass
class SolverState:
    """Iterates after k steps; x = y at k = 0 by construction."""

    k: int
    x: Vector
    y: Vector
    f_y: float


@dataclass
class IterationRecord:
    """One trace row: scalars for output plus iterates for certification."""

    k: int
    f_y: float
    grad_map_norm: float
    accepted: Optional[bool] = None
    x: Optional[Vector] = None
    y: Optional[Vector] = None
    grad_map: Optional[Vector] = None
    f_z: Optional[float] = None


# Relative tolerance of a value that holds exactly in real arithmetic: the
# inertial identity's residual (certificates) and a stored cell that replay
# recomputes, each against 1 + its scale.
IDENTITY_TOL = 1e-10


class Columns:
    """Rows held as columns: a frozen dataclass whose fields are arrays with one
    entry per row (or None), of the dtypes `_DTYPES` lists in field order (a
    column given as values is made an array of its dtype), and whose `_row`
    makes a row of one value per column.  An int index and iteration give rows
    of Python values, built a chunk at a time; a slice gives the table of its
    rows, as views."""

    _DTYPES: tuple

    def __post_init__(self):
        for field, dtype in zip(fields(self), self._DTYPES):
            column = getattr(self, field.name)
            if column is not None:
                object.__setattr__(self, field.name, np.asarray(column, dtype))

    @classmethod
    def concat(cls, tables: list):
        """The table of the rows of `tables` in order, emptying the list.  A
        column is joined from the tables that have it (None if none has), and
        its pieces are freed once it is joined; one table is returned as it
        is, and no tables give a table of no rows."""
        if len(tables) == 1:
            return tables.pop()
        if not tables:
            return cls(*[()] * len(cls._DTYPES))
        pieces = [[c for c in column if c is not None]
                  for column in zip(*(vars(table).values() for table in tables))]
        tables.clear()
        columns = []
        while pieces:
            parts = pieces.pop(0)
            columns.append(np.concatenate(parts) if parts else None)
        return cls(*columns)

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return type(self)(*(None if c is None else c[i] for c in vars(self).values()))
        i = range(len(self))[i]
        return next(iter(self[i:i + 1]))

    def __iter__(self):
        for chunk in self.chunks():
            columns = [_row_values(column, len(chunk)) for column in vars(chunk).values()]
            yield from starmap(self._row, zip(*columns))

    def chunks(self):
        """The table in slices of _CHUNK_ROWS rows."""
        for start in range(0, len(self), _CHUNK_ROWS):
            yield self[start:start + _CHUNK_ROWS]


def _row_values(column, rows: int) -> list:
    """A column's value in each of `rows` rows: Python values, read-only views
    of vectors, or None for each row of an absent column and past the end of
    a shorter one (a trace file's `x`, x_0 alone)."""
    if column is None:
        return [None] * rows
    if column.ndim == 1:
        values = column.tolist()
    else:
        vectors = column.view()
        vectors.flags.writeable = False
        values = list(vectors)
    return values + [None] * (rows - len(values))


@dataclass(frozen=True, eq=False)
class Trace(Columns):
    """One run's records as columns, one array per IterationRecord field.

    `k` is int64, `f_y`, `grad_map_norm` and `f_z` float64, `accepted` an
    object array, `x`, `y` and `grad_map` (n, d) float64.  In a trace read
    from a file, `x` holds x_0 alone (1, d), so its later rows have no x, and
    `y`, `grad_map` and `f_z` are None, until `replay` derives them.
    Indexing with an int and iterating yield IterationRecord rows of Python
    values and read-only 1-D views of the vectors; a slice is a Trace of views.
    """

    k: np.ndarray
    f_y: np.ndarray
    grad_map_norm: np.ndarray
    accepted: np.ndarray
    x: np.ndarray
    y: Optional[np.ndarray] = None
    grad_map: Optional[np.ndarray] = None
    f_z: Optional[np.ndarray] = None

    _row = IterationRecord
    # `accepted` holds Python values, None where a row has none.
    _DTYPES = (np.int64, np.float64, np.float64, object, np.float64, np.float64,
               np.float64, np.float64)

    def stored(self) -> "Trace":
        """The columns of these rows that a trace file stores: the scalars,
        and x_0 alone (a copy) if row 0 is among them, else no x."""
        x0 = self.x[:1].copy() if len(self) and self.k[0] == 0 else None
        return Trace(self.k, self.f_y, self.grad_map_norm, self.accepted, x0)

    def check(self, shape: tuple, start: int = 0) -> None:
        """DataCorruptionError, naming the row, for a k out of sequence (the
        rows are rows start, start+1, ... of their trace), a NaN scalar, a
        vector whose shape is not `shape`, or a NaN coordinate; a column the
        trace lacks is not checked, and a trace file's `x`, x_0 alone, only in
        its one row."""
        k = self.k
        skipped = k != np.arange(start, start + len(k))
        if np.any(skipped):
            raise DataCorruptionError(
                f"trace row {start + int(np.argmax(skipped))} has k = {_first(skipped, k)}; "
                "k must run 0, 1, 2, ... (a row is missing, repeated or out of order)"
            )
        for name in ("f_y", "f_z", "grad_map_norm", "x", "y", "grad_map"):
            column = getattr(self, name)
            if column is None or not len(k):  # an empty trace's vectors may be 1-D
                continue
            if column.ndim == 2 and column.shape[1:] != shape:
                raise DataCorruptionError(
                    f"record k={k[0]} has a {name} of shape {column.shape[1:]}; "
                    f"the problem's vectors have shape {shape}"
                )
            nan = np.isnan(column).reshape(len(column), -1).any(axis=1)
            if np.any(nan):
                what = f"a nan coordinate in {name}" if column.ndim == 2 else f"{name} = nan"
                raise DataCorruptionError(f"record k={_first(nan, k)} has {what}")

    def require(self, names: tuple, rows: int) -> None:
        """RejectedInputError naming the first of the columns `names` that has
        no value in each of the trace's first `rows` rows (None, or shorter)."""
        for name in names:
            column = getattr(self, name)
            if column is None or len(column) < rows:
                raise RejectedInputError(
                    f"trace has no {name!r} value in each of its first {rows} rows")

    def replayed(self, problem: CompositeProblem, config: SolverConfig) -> "Trace":
        """The trace with `x`, `y`, `grad_map` and `f_z` of its replay: the
        blocks of `replay` joined, each without the row the next block starts
        with; an empty trace gives empty columns."""
        if not len(self):  # no x_0: nothing to replay
            vectors = np.empty((0, problem.dim))
            return replace(self, x=vectors, y=vectors, grad_map=vectors, f_z=np.empty(0))
        last = len(self) - 1
        return Trace.concat([block if block.k[-1] == last else block[:len(block) - 1]
                             for block in self.replay(problem, config)])

    def replay(self, problem: CompositeProblem, config: SolverConfig):
        """Yield the trace's rows in blocks that overlap by one row (`_blocks`):
        the stored scalar columns, and the `x`, `y`, `grad_map` and `f_z` of
        the run that `iterate` makes from x_0 (row 0's x) with each row's
        choice as its `choices` (y_{k+1} = z_k, or y_k where a mapm row's
        `accepted` is false), so they are `run`'s bit for bit.
        Certification thus follows the choices the trace stores; the replay's
        own `accepted`, iterate's test, is only compared with them.  `x` past
        row 0 is not read.

        The stored columns are checked first (`check`), and each block is
        checked against the stored cells before it is yielded.  An x_0 that
        `iterate` refuses (record k=0), or a replay whose F(z_k) or ||G_k|| is
        not finite or whose prox refuses its point, is a DataCorruptionError
        naming the record k where the replay stopped.  Each stored cell must
        agree with the replay, within IDENTITY_TOL relative to 1 + its scale,
        else a DataCorruptionError names the first row where one does not,
        and the field:
        - `accepted` must be true or false in every mapm row and empty in
          every other variant's;
        - `grad_map_norm` must agree with ||G_k||;
        - `accepted` must be the replay's `accepted`, which is not judged
          where F(z_k) and F(y_k) differ by no more than the tolerance
          (another BLAS build may decide otherwise there);
        - `f_y` must agree with F(y_k) (an infinite F(y_k), an infeasible
          start's, only with itself).
        The replay runs with numpy's overflow and invalid-value warnings off:
        the checks above catch every non-finite value they would warn of.
        """
        self.check((problem.dim,))
        if not len(self):  # no x_0: nothing to replay
            return
        last, reached = len(self) - 1, 0

        def stops(k, _):
            nonlocal reached
            reached = k + 1  # the record that iterate steps to next
            return k == last

        steps = iterate(problem, config, self.x[0], self._steps_to_z(config.variant))
        blocks = _blocks(steps, stops, _block_rows(problem.dim))
        start = 0
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    block = next(blocks, None)
                except RejectedInputError as exc:
                    raise DataCorruptionError(f"the replay from the trace's x_0 fails at "
                                              f"record k={reached}: {exc}") from None
                if block is None:
                    return
                stored = self[start:start + len(block)]
                stored._check_against(block)
                block = replace(stored, x=block.x, y=block.y, grad_map=block.grad_map,
                                f_z=block.f_z)
                block.check((problem.dim,), start)
            start += len(block) - 1  # the next block starts with this one's last row
            yield block
            del block  # not held while the next block is made

    def _check_against(self, replay: "Trace") -> None:
        """DataCorruptionError (`_require_agreement`) unless the stored cells
        of these rows agree with their replay (see `replay`, which ignores
        the invalid value of inf - inf for an infinite F(y_k))."""
        f_y, gnorm, accepted = replay.f_y, replay.grad_map_norm, replay.accepted
        tie = _within(np.abs(replay.f_z - f_y), np.abs(f_y))
        checks = [("grad_map_norm", self.grad_map_norm, "its x gives ||G_k||", gnorm,
                   _within(np.abs(self.grad_map_norm - gnorm), gnorm)),
                  ("accepted", self.accepted, "its x gives F(z_k) <= F(y_k)", accepted,
                   (self.accepted == accepted) | tie),
                  ("f_y", self.f_y, "the replay gives F(y_k)", f_y,
                   (self.f_y == f_y) | _within(np.abs(self.f_y - f_y), np.abs(f_y)))]
        _require_agreement(self.k, checks)

    def _steps_to_z(self, variant: str) -> np.ndarray:
        """Whether y_{k+1} is z_k, per row: a mapm row's `accepted`, and true
        for every other variant.  DataCorruptionError naming k for a mapm row
        without true or false, or another variant's row with one."""
        empty = np.equal(self.accepted, None)
        mapm = variant == "mapm"
        wrong = empty if mapm else ~empty
        if np.any(wrong):
            i = int(np.argmax(wrong))
            rule = ("mapm records true or false in every row" if mapm else
                    f"{variant} has no acceptance test, so its accepted is empty")
            raise DataCorruptionError(
                f"record k={self.k[i]} has accepted {self.accepted[i]!r}; {rule}")
        return self.accepted.astype(bool) if mapm else np.ones(len(self), bool)


def _first(mask, values):
    """The entry of `values` at the first true entry of `mask`, as a Python scalar."""
    return np.ravel(values)[np.flatnonzero(mask)[0]].item()


def _require_agreement(k, checks: list) -> None:
    """DataCorruptionError naming the first row where a stored value does not
    agree with its value in the replay, and the first such field in `checks`,
    a list of (name, stored, what gives the replayed value, replayed, agrees).
    A row's disagreement sends the replay of every later row elsewhere, so the
    first row's is the one to name."""
    rows = [int(np.argmin(agrees)) if not np.all(agrees) else len(k)
            for *_, agrees in checks]
    i = min(rows, default=len(k))
    if i < len(k):
        name, stored, what, replayed, _ = checks[rows.index(i)]
        raise DataCorruptionError(
            f"record k={k[i]} has {name} {stored[i:i + 1].tolist()[0]!r}, but {what} "
            f"= {replayed[i:i + 1].tolist()[0]!r}")


def _within(distance, scale):
    """Whether each distance from a replayed value is within IDENTITY_TOL
    relative to 1 + scale, the value's size; never where the size is not finite."""
    return np.isfinite(scale) & (distance <= IDENTITY_TOL * (1.0 + scale))


def bind_step(lipschitz: float, step: Optional[float], error=ConfigurationError):
    """Resolve the step size against L; `error` unless 0 < s <= 1/L."""
    if step is None:
        if lipschitz <= 0.0:
            raise error("cannot default the step size when L = 0")
        return 0.5 / lipschitz
    check_setting("step", step, error)
    s = float(step)
    if lipschitz > 0.0 and s * lipschitz > 1.0 + _STEP_SLACK:
        raise error(
            f"step {s} exceeds 1/L = {1.0 / lipschitz} (certificates assume s <= 1/L)"
        )
    return s


def require_finite(k: int, name: str, value: float) -> float:
    """value, or RejectedInputError naming k if it is NaN or infinite.

    Oracles do not check what they return, so one scalar test per iteration
    stops a run whose oracle produced a NaN or an overflow, or a replay whose
    stored x_0 leads there.
    """
    if not math.isfinite(value):
        raise RejectedInputError(f"iteration k={k}: {name} = {value!r} is not finite")
    return value


def constant_momentum(mu: float, lipschitz: float) -> float:
    """(1 - sqrt(mu/L)) / (1 + sqrt(mu/L)), the known-mu extrapolation factor."""
    if mu <= 0.0:
        raise ConfigurationError(
            "strongly_convex_apm needs mu > 0 (the mu = 0 limit coefficient 1 "
            "is not covered by the known-mu rate)"
        )
    r = math.sqrt(mu / lipschitz)
    return (1.0 - r) / (1.0 + r)


def momentum(problem: CompositeProblem, config: SolverConfig):
    """beta_k as a function of k, resolved once per run; None for ista."""
    if config.variant == "ista":
        return None
    if config.variant == "strongly_convex_apm":
        beta = constant_momentum(problem.smooth.strong_convexity,
                                 problem.smooth.lipschitz)
        return lambda k: beta
    a = config.alpha
    return lambda k: k / (k + a)


def step(config: SolverConfig, beta, state: SolverState, z: Vector,
         f_z: float, takes_z) -> SolverState:
    """One iteration of the shared rule from z = z_k and f_z = F(z_k).

    beta is momentum(problem, config).  takes_z is the choice of y_{k+1}
    that `iterate` makes: z_k if true, else y_k.  mapm ties accept, so its
    cached F(y_k) never increases; while every step accepts, the gamma term
    is exactly zero and the (x, y) sequences coincide with apm's.
    """
    k = state.k
    y, f_y = (z, f_z) if takes_z else (state.y, state.f_y)
    x = y
    if beta is not None:
        x = x + beta(k) * (y - state.y)
    if config.variant == "mapm":
        a = config.alpha
        x = x + ((k + a - 1.0) / (k + a)) * (z - y)
    return SolverState(k=k + 1, x=x, y=y, f_y=f_y)


def iterate(problem: CompositeProblem, config: SolverConfig, x0, choices=None):
    """Yield the trace row of each k = 0, 1, ... from x_0 = y_0: a tuple in
    the order of Trace's columns, (k, F(y_k), ||G_k||, accepted, x_k, y_k,
    G_k, F(z_k)).

    Steps to state k+1 when resumed; never stops.  Each decision of a step is
    made here once.  `accepted` is mapm's test F(z_k) <= F(y_k), and None
    for the other variants.  y_{k+1} is z_k where choices[k] is true and y_k
    where it is false; without `choices`, z_k unless `accepted` is false.  A
    run's own choices (a trace's `accepted`) thus give its iterates again bit
    for bit.  x_0 and the step are checked once; a non-finite F(z_k) or
    ||G_k|| raises RejectedInputError naming k.
    """
    x0 = as_vector(x0, problem.dim)
    s = bind_step(problem.smooth.lipschitz, config.step)
    beta = momentum(problem, config)
    monotone = config.variant == "mapm"
    state = SolverState(k=0, x=x0, y=x0, f_y=problem.value(x0))
    while True:
        k = state.k
        z, G = prox_gradient(problem, s, state.x)
        f_z = require_finite(k, "F(z_k)", problem.value(z))
        gnorm = require_finite(k, "||G_k||", norm(G))
        accepted = f_z <= state.f_y if monotone else None
        yield k, state.f_y, gnorm, accepted, state.x, state.y, G, f_z
        takes_z = choices[k] if choices is not None else accepted is not False
        state = step(config, beta, state, z, f_z, takes_z)


def run(problem: CompositeProblem, config: SolverConfig, x0,
        iterates: bool = True) -> Trace:
    """Drive a solver from x_0 = y_0 and return its Trace, one row per k.

    Stops where config.stops says: after max_iters steps or as soon as
    ||G_s(x_k)|| <= grad_map_tol.
    A record is emitted for every visited k including k = 0, so a full run of
    max_iters steps yields max_iters + 1 records; `iterate` raises
    RejectedInputError on a non-finite value.  The run is one block, so each
    vector is stacked once.  With iterates=False the Trace keeps only what a
    trace file stores (`stored`): its scalar columns and x_0, joined from
    blocks of `_block_rows(d)` rows, so the run holds no (n, d) column.
    """
    steps = iterate(problem, config, x0)
    if iterates:
        return next(_blocks(steps, config.stops, math.inf))

    def own(block):  # each block but the last ends with the next block's first row
        last = config.stops(block.k[-1], block.grad_map_norm[-1])
        return block[:len(block) if last else len(block) - 1].stored()

    blocks = _blocks(steps, config.stops, _block_rows(problem.dim))
    return Trace.concat(list(map(own, blocks)))


def _block_rows(dim: int) -> int:
    """Rows per block of the stream for vectors of `dim` coordinates."""
    return max(1, _BLOCK_BYTES // (8 * dim))


def _blocks(steps, stops, rows):
    """Yield `iterate`'s rows as Trace blocks, each of `rows` rows plus the
    first row of the next block, up to and including the first record k where
    stops(k, ||G_k||), the last row of the last block (so rows=math.inf
    yields the whole run as one block).

    Blocks overlap by one row because the certificate lines of row k read row
    k+1.  With disjoint blocks the certificate engine would join the previous
    block's last row onto each block, a copy of every block: that made
    certifying the acceptance suite in process 12% slower."""
    block = []
    for row in steps:
        block.append(row)
        if stops(row[0], row[2]):
            yield _stacked(block)
            return
        if len(block) > rows:
            yield _stacked(block)
            block.append(row)  # the first row of the next block


def _stacked(rows: list) -> Trace:
    """The Trace of rows given in the order of its columns, emptying the list;
    each column's row values are freed once it is stacked, so that no row is
    held while the Trace is used."""
    columns = list(zip(*rows))
    rows.clear()
    return Trace(*(np.asarray(columns.pop(0), dtype) for dtype in Trace._DTYPES))
