"""Dense two-phase simplex with Dantzig pricing and a Bland fallback, a
dense dual simplex for LPs whose crash basis is dual feasible, and an
enumeration oracle.

Standard form with free columns: minimize c.x subject to A.x = b, where
x_j >= 0 except on the columns that `LPStandardForm.free` marks.  Both
phases run one simplex loop.  It enters the column with the most
negative reduced cost, which takes far fewer pivots than Bland's
lowest-index rule on these LPs, and falls back to Bland's rule only
while it is stalled: after `_STALL` degenerate pivots in a row, until a
pivot moves the objective again.  A free column is priced at -|d_j| and
enters downwards when its reduced cost d_j is positive; once basic, it
never leaves, because the ratio test skips its row.
A pivot updates only the tableau entries it changes, in the rows with a
nonzero pivot-column entry and the columns with a nonzero pivot-row
entry; the kinematic LP's rows each touch one element or facet, so that
is often a small block.  It picks the update by these counts, and keeps
the dense rank-1 update on tableaux under `_DENSE_BELOW` entries; above
that, a dense update runs in blocks of rows, so that no temporary is as
large as the tableau.
Inequalities are handled by LPBuilder, which gives each a slack column.
Phase 1 crash-starts: a row starts on a column whose only nonzero entry
is positive and in that row, such as an inequality's slack, and only the
rows without one get an artificial.  When all of those rows have b = 0
the start is feasible, and phase 1 is only the degenerate pivots that
drive the artificials out.  Phase 1 depends on A, b and the free columns
only, so LPs that differ only in their costs
(`LPStandardForm.with_objective`) share one phase 1, memoized, and each
runs only phase 2, on a copy of it.  A standalone LP, whose phase 1 is
shared with nothing, runs phase 2 in phase 1's own array, so that its
solve holds A and one tableau at its peak.  `solve_each` goes further for
the costs w @ U of the rows w of a weight matrix: it walks the rows in
order on one phase-2 tableau, each phase 2 starting from the basis where
the previous one stopped, which stays feasible because A and b are the
same.  At each optimal basis it prices the next rows in one matrix
product and settles every row that the basis proves optimal too, without
a phase 2 of its own.  It gives each status and objective, with the
walk's rounding, and no solution.
An LP with c >= 0 whose free columns and crash columns cost nothing,
such as the static stress LP, skips phase 1: its rows without a crash
column take free columns by Gaussian pivots (if a row finds none, the LP
takes two phases), and that basis is dual feasible for any b, so `solve`
runs the dual simplex from it.
`solve_each_rhs` walks a sequence of right-hand sides the same way as
`solve_each` walks costs: each step sets x_B = B^-1 b at the previous
optimal basis, which stays dual feasible because A and c are the same,
and runs the dual simplex from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
DUAL = "dual"

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8
# pivots each phase may take before the solve fails
_MAX_ITER = 50000
# degenerate pivots in a row after which the simplex prices by Bland's rule
_STALL = 50
# `_pivot` updates tableaux with fewer entries than this densely: there the
# counting and indexing cost more than the entries a restricted update skips
_DENSE_BELOW = 10000
# entries of a block of rows in `_pivot`'s dense update above `_DENSE_BELOW`
# (timed from 2^15 to 2^17 and against 32 and 64 rows on 101x201 to
# 2562x5154 tableaux: within noise of the fastest at every size)
_BLOCK_ENTRIES = 1 << 16
# cost of an entry updated through an index array, in entries of the dense
# update: rows and columns both indexed, or all rows and indexed columns
# (fitted to pivot timings of kinematic and static LPs of 10^4-10^6 entries)
_BLOCK_COST = 8
_COLS_COST = 4
# rows not yet settled that `solve_each` prices at each optimal basis: a
# window, because a row it cannot settle is priced again at every later
# basis (timed from 32 to 1024 on exact K at 12 to 16 sign components)
_LOOKAHEAD = 256


class LPError(ValueError):
    """Malformed problem data."""


class LPIterationError(RuntimeError):
    """Iteration limit exceeded; never reported as a wrong answer.  phase
    is 1 or 2 for the two-phase simplex and `DUAL` for the dual simplex."""

    def __init__(self, phase, shape: tuple, iterations: int):
        self.phase, self.shape, self.iterations = phase, shape, iterations
        name = "dual simplex" if phase == DUAL else f"simplex phase {phase}"
        super().__init__(
            f"{name} did not terminate in {iterations} "
            f"iterations on a {shape[0]} x {shape[1]} LP (rows x cols)")


class _Phase1(NamedTuple):
    """Phase 1's outcome: the phase 2 start (the constraint rows of the
    tableau over the structural columns and the right-hand side, then a
    cost row that phase 2 writes), its basis and the rows kept from A;
    `tableau` is None if the LP is infeasible.  `pivots` is the number of
    simplex pivots phase 1 took, not counting those that drive the
    artificials out."""

    tableau: np.ndarray | None
    basis: np.ndarray
    keep_rows: list
    pivots: int


class _Memo:
    """Phase 1 of one (A, b), shared by every LP made from it with
    `with_objective` and by `solve_each`'s walks.  Once `shared` is set,
    the first solve memoizes phase 1 (read-only; A and b are not changed
    in place after that) and each solve runs phase 2 on a copy.  Until
    then the LP is standalone: each solve runs phase 1 and then phase 2 in
    the same array, and nothing is memoized."""

    __slots__ = ("phase1", "shared")

    def __init__(self):
        self.phase1 = None
        self.shared = False


@dataclass(frozen=True)
class LPStandardForm:
    c: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    # a boolean mask of the columns whose variable may take either sign;
    # None makes every variable nonnegative
    free: np.ndarray | None = field(default=None, repr=False)
    # not an init field, so that `dataclasses.replace` starts a new one
    _memo: _Memo = field(default_factory=_Memo, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise LPError("A must be a matrix, b and c vectors")
        if A.shape != (b.size, c.size):
            raise LPError(
                f"shape mismatch: A is {A.shape}, b has {b.size}, c has {c.size}")
        for name, arr in (("c", c), ("A", A), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise LPError(f"{name} contains non-finite entries")
        free = np.zeros(c.size, dtype=bool) if self.free is None else \
            np.asarray(self.free, dtype=bool)
        if free.shape != c.shape:
            raise LPError(f"free mask has shape {free.shape}, expected {c.shape}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "free", free)

    def with_objective(self, c) -> LPStandardForm:
        """The same A, b and free columns with costs c; it shares this LP's
        phase 1, which from now on is memoized, so that phase 1 runs once
        for both and each phase 2 runs on a copy of it."""
        p = LPStandardForm(c=c, A=self.A, b=self.b, free=self.free)
        self._memo.shared = True
        object.__setattr__(p, "_memo", self._memo)
        return p


class LPSolution(NamedTuple):
    status: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None  # equality-row multipliers
    objective: float | None = None


def _pivot(T: np.ndarray, row: int, col: int):
    """Pivot T on (row, col): divide the row by the pivot and subtract its
    multiples from the other rows.  Only the rows with a nonzero factor (the
    pivot column's entry) and the columns with a nonzero entry in the
    divided row change; elsewhere the rank-1 update subtracts 0 * x.  So on
    tableaux of at least `_DENSE_BELOW` entries it updates the cheapest of
    the sub-block of those rows and columns, those columns in every row,
    or the whole tableau, costed by the entry counts at `_BLOCK_COST`,
    `_COLS_COST` and 1; the whole tableau in blocks of about
    `_BLOCK_ENTRIES` entries.  The result equals the dense update up to the
    sign of a zero, so no pivot choice depends on which update ran."""
    T[row] /= T[row, col]
    pivot_row = T[row]
    factors = T[:, col].copy()
    factors[row] = 0.0
    if T.size >= _DENSE_BELOW:
        m, n = T.shape
        c = np.count_nonzero(pivot_row)
        by_block = _BLOCK_COST * np.count_nonzero(factors) * c
        by_cols = _COLS_COST * m * c
        if by_block <= by_cols and by_block < m * n:
            rows, cols = factors.nonzero()[0], pivot_row.nonzero()[0]
            T[np.ix_(rows, cols)] -= np.outer(factors[rows], pivot_row[cols])
            return
        if by_cols < m * n:
            cols = pivot_row.nonzero()[0]
            T[:, cols] -= np.outer(factors, pivot_row[cols])
            return
        # a copy: its own block subtracts 0 * x from it, turning -0.0 to 0.0
        pivot_row = pivot_row.copy()
        step = max(1, _BLOCK_ENTRIES // n)
        for r in range(0, m, step):
            T[r:r + step] -= np.outer(factors[r:r + step], pivot_row)
        return
    T -= np.outer(factors, pivot_row)


def _simplex(T: np.ndarray, basis: np.ndarray, free: np.ndarray,
             phase: int, shape: tuple) -> tuple:
    """Run the simplex on a tableau whose last row holds reduced costs and
    last column the right-hand side, over the columns that the boolean mask
    free covers.  A nonbasic free column is priced at -|d_j|, and enters
    downwards when its reduced cost d_j is positive: the ratio test runs on
    its negated column.  The entering column has the lowest price
    (Dantzig), except after `_STALL` degenerate pivots in a row, when it is
    the lowest-index improving column (Bland) until a pivot moves the
    objective again; the leaving row is the ratio-test tie with the lowest
    basic index.  The ratio test skips the rows whose basic variable is
    free, so a free variable enters the basis at most once and never
    leaves.  After the last one has entered, the loop is Bland's rule on
    the nonnegative columns, which cannot cycle at one vertex, and every
    other pivot lowers the objective, so it terminates, or fails after
    `_MAX_ITER` pivots.  Mutates T and the int array basis; returns
    (status, pivots)."""
    n = len(free)
    locked = free[basis]  # rows whose basic variable is free
    stalled = 0
    for pivots in range(_MAX_ITER):
        costs = T[-1, :n]
        prices = np.where(free, -np.abs(costs), costs)
        if stalled < _STALL:
            j = int(np.argmin(prices))
            if prices[j] >= -_PIVOT_TOL:
                return OPTIMAL, pivots
        else:
            candidates = np.flatnonzero(prices < -_PIVOT_TOL)
            if candidates.size == 0:
                return OPTIMAL, pivots
            j = int(candidates[0])
        col = T[:-1, j] if costs[j] < 0.0 else -T[:-1, j]
        rows = np.flatnonzero((col > _PIVOT_TOL) & ~locked)
        if rows.size == 0:
            return UNBOUNDED, pivots
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        leave = int(ties[np.argmin(basis[ties])])
        stalled = stalled + 1 if best <= 1e-12 else 0
        _pivot(T, leave, j)
        basis[leave] = j
        locked[leave] = free[j]
    raise LPIterationError(phase, shape, _MAX_ITER)


def _crash_basis(A: np.ndarray) -> np.ndarray:
    """For each row, the lowest-index column whose only nonzero entry is
    positive and lies in that row, or -1 if there is none.  Such a column
    can start basic in its row: dividing the row by that entry makes it a
    unit column, and keeps a nonnegative right-hand side nonnegative."""
    nonzero = A != 0.0
    single = np.flatnonzero(nonzero.sum(axis=0) == 1)
    _, row = np.nonzero(nonzero[:, single].T)  # the row of each such column
    positive = A[row, single] > 0.0
    rows, first = np.unique(row[positive], return_index=True)
    basic = np.full(A.shape[0], -1)
    basic[rows] = single[positive][first]
    return basic


def _phase1(A: np.ndarray, b: np.ndarray, free: np.ndarray) -> _Phase1:
    """Crash-start phase 1.  After the rows with b < 0 are flipped, every
    row with a `_crash_basis` column starts on it, and only the other rows
    get an artificial, which is nonnegative.  Minimize the sum of the
    artificials (at once optimal if all of their rows have b = 0), then
    drive the artificials left in the basis out of it, dropping the
    redundant rows.  The tableau's last row is for phase 2's reduced
    costs, which phase 2 writes."""
    m, n = A.shape
    T = np.empty((m + 1, n + 1))  # [A | b] over the cost row
    T[:m, :n] = A
    T[:m, -1] = b
    T[:m][b < 0] *= -1.0
    basis = _crash_basis(T[:m, :n])
    crashed = np.flatnonzero(basis >= 0)
    T[crashed] /= T[crashed, basis[crashed]][:, None]
    artificial = np.flatnonzero(basis < 0)
    k = len(artificial)
    basis[artificial] = n + np.arange(k)
    pivots = 0
    if T[artificial, -1].any():
        P = np.zeros((m + 1, n + k + 1))
        P[:m, :n] = T[:m, :n]
        P[artificial, n + np.arange(k)] = 1.0
        P[:m, -1] = T[:m, -1]
        P[-1, n:n + k] = 1.0
        P[-1] -= P[artificial].sum(axis=0)
        tol = _FEAS_TOL * (1.0 + np.abs(T[:m, -1]).max(initial=0.0))
        del T
        status, pivots = _simplex(P, basis, np.append(free, np.zeros(k, bool)),
                                  1, (m, n))
        if status != OPTIMAL or P[-1, -1] < -tol:
            return _Phase1(None, basis[:0], [], pivots)
        # the artificial columns are not needed any more, and phase 2
        # overwrites the phase 1 costs
        T = np.delete(P, np.s_[n:n + k], axis=1)
        del P

    keep_rows = list(range(m))
    drop = []
    for r in range(m):
        if basis[r] < n:
            continue
        piv = np.nonzero(np.abs(T[r, :n]) > _PIVOT_TOL)[0]
        if piv.size:
            _pivot(T[:m], r, int(piv[0]))
            basis[r] = int(piv[0])
        else:
            drop.append(r)
    if drop:
        keep_rows = [r for r in range(m) if r not in drop]
        T = T[keep_rows + [m]]
        basis = basis[keep_rows]
    return _Phase1(T, basis, keep_rows, pivots)


def _start(p: LPStandardForm) -> _Phase1:
    """Phase 1 of p, with a tableau and basis that the caller may run phase
    2 in.  A standalone LP gets phase 1's own arrays; an LP whose memo is
    shared gets copies of its memoized phase 1, run now if it is not yet
    there."""
    memo = p._memo
    if memo.phase1 is None:
        start = _phase1(p.A, p.b, p.free)
        if not memo.shared:
            return start
        memo.phase1 = start
        if start.tableau is not None:  # only copies of it are handed out
            start.tableau.flags.writeable = start.basis.flags.writeable = False
    start = memo.phase1
    if start.tableau is None:
        return start
    return start._replace(tableau=start.tableau.copy(), basis=start.basis.copy())


def _phase2(T: np.ndarray, basis: np.ndarray, c: np.ndarray,
            free: np.ndarray, shape: tuple) -> str:
    """Write the reduced costs of c at the basis into T's last row, then
    run phase 2 from that basis.  The constraint rows of T are the tableau
    of a feasible basis, so any c may follow any other."""
    n = len(c)
    T[-1, :n] = c
    T[-1, n] = 0.0
    T[-1] -= c[basis] @ T[:-1]
    return _simplex(T, basis, free, 2, shape)[0]


def _dual_start(p: LPStandardForm):
    """The dual simplex's cold start for p, as (tableau, basis), or None
    if p is not eligible.  p is eligible when c >= 0, c = 0 on the free
    columns and on every `_crash_basis` column, and every row without a
    crash column can take a free column (so there must be at least as many
    free columns as such rows).  Those rows take one, by one
    Gaussian pivot each on the largest entry among the free columns.  All
    basic costs are then 0, so the reduced costs are c itself: >= 0, and
    0 on the free columns, which is dual feasible for any b."""
    c, free = p.c, p.free
    if (c < 0.0).any() or c[free].any():
        return None
    m, n = p.A.shape
    basis = _crash_basis(p.A)
    crashed = np.flatnonzero(basis >= 0)
    if c[basis[crashed]].any() or np.count_nonzero(free) < m - len(crashed):
        return None
    T = np.empty((m + 1, n + 1))  # [A | b] over [c | 0]
    T[:m, :n] = p.A
    T[:m, -1] = p.b
    T[-1, :n] = c
    T[-1, -1] = 0.0
    T[crashed] /= T[crashed, basis[crashed]][:, None]
    for r in np.flatnonzero(basis < 0):
        entries = np.where(free, np.abs(T[r, :n]), 0.0)
        j = int(np.argmax(entries))
        if entries[j] <= _PIVOT_TOL:
            return None
        _pivot(T, r, j)
        basis[r] = j
    return T, basis


def _dual_simplex(T: np.ndarray, basis: np.ndarray, free: np.ndarray,
                  shape: tuple) -> tuple:
    """Run the dual simplex on a tableau laid out as in `_simplex`, whose
    basis is dual feasible: reduced costs >= 0, and 0 on the nonbasic free
    columns.  The leaving row has the most negative basic value among the
    rows whose basic variable is not free; a free basic variable never
    leaves.  The entering column has the least ratio d_j / |T_rj| over the
    nonbasic columns with T_rj < 0, or T_rj != 0 for a free one, whose
    d_j = 0; among ties, the largest |T_rj|.  A free column enters at most
    once, so its pivots cannot be part of a cycle; after `_STALL` other
    dual-degenerate pivots (ratio 0) in a row, the loop follows dual
    Bland's rule (the negative row with the lowest basic index leaves, the
    lowest-index tie enters) until a pivot moves the dual objective again.
    A leaving row without an entering column proves the LP infeasible.
    Fails after `_MAX_ITER` pivots.  Mutates T and the int array basis;
    returns (status, pivots)."""
    n = len(free)
    locked = free[basis]
    stalled = 0
    for pivots in range(_MAX_ITER):
        values = np.where(locked, 0.0, T[:-1, -1])
        if stalled < _STALL:
            r = int(np.argmin(values))
            if values[r] >= -_PIVOT_TOL:
                return OPTIMAL, pivots
        else:
            rows = np.flatnonzero(values < -_PIVOT_TOL)
            if rows.size == 0:
                return OPTIMAL, pivots
            r = int(rows[np.argmin(basis[rows])])
        row = T[r, :n]
        cols = np.flatnonzero(np.where(free, np.abs(row) > _PIVOT_TOL,
                                       row < -_PIVOT_TOL))
        if cols.size == 0:
            return INFEASIBLE, pivots
        size = np.abs(row[cols])
        ratios = np.maximum(T[-1, cols], 0.0) / size
        best = ratios.min()
        ties = ratios <= best + 1e-12
        j = int(cols[np.argmax(np.where(ties, size, -1.0) if stalled < _STALL
                               else ties)])
        if best > 1e-12:
            stalled = 0
        elif not free[j]:
            stalled += 1
        _pivot(T, r, j)
        basis[r] = j
        locked[r] = free[j]
    raise LPIterationError(DUAL, shape, _MAX_ITER)


class _Final(NamedTuple):
    """Where a cold solve stopped: its status, and unless it is
    infeasible at phase 1, the final tableau with its reduced-cost row,
    the basis and the rows of A kept."""

    status: str
    tableau: np.ndarray | None = None
    basis: np.ndarray | None = None
    keep_rows: np.ndarray | None = None


def _solve_cold(p: LPStandardForm) -> _Final:
    """The dual simplex from `_dual_start` if p is eligible; otherwise
    phase 2 from `_start`: in phase 1's array if p is standalone, else on
    a copy of its shared phase 1."""
    m, n = p.A.shape
    start = _dual_start(p)
    if start is not None:
        T, basis = start
        status = _dual_simplex(T, basis, p.free, (m, n))[0]
        return _Final(status, T, basis, np.arange(m))
    T, basis, keep_rows, _ = _start(p)
    if T is None:
        return _Final(INFEASIBLE)
    status = _phase2(T, basis, p.c, p.free, (m, n))
    return _Final(status, T, basis, np.asarray(keep_rows))


def solve(p: LPStandardForm) -> LPSolution:
    """Dense simplex: the dual simplex from a crash basis when that basis
    is dual feasible (`_dual_start`), else two phases.  Deterministic for
    identical input, and the same whether phase 1 is run here or shared
    with an LP of the same A and b."""
    m, n = p.A.shape
    status, T, basis, keep_rows = _solve_cold(p)
    if status != OPTIMAL:
        return LPSolution(status)

    x = np.zeros(n)
    x[basis] = T[:-1, -1]
    del T  # freed before B is gathered and factored for y
    obj = float(p.c @ x)

    # equality multipliers from the final basis w.r.t. the original rows
    # (dropped redundant rows get zero)
    y = np.zeros(m)
    Bt = p.A[np.ix_(keep_rows, basis)].T
    try:
        y_keep = np.linalg.solve(Bt, p.c[basis])
    except np.linalg.LinAlgError:
        y_keep, *_ = np.linalg.lstsq(Bt, p.c[basis], rcond=None)
    y[keep_rows] = y_keep
    return LPSolution(OPTIMAL, x=x, y=y, objective=obj)


def solve_each(p: LPStandardForm, unit_costs, weights) -> tuple:
    """For each row w of weights, the status and objective that `solve`
    gives p with costs w @ unit_costs, up to rounding: an array of
    statuses and one of objectives, nan unless optimal.  One walk over the
    rows in order, after p's phase 1 (shared through its memo).  The first
    row not yet settled runs phase 2 from the basis where the previous
    phase 2 stopped; A and b never change, so that basis stays feasible.
    At the optimal basis B it reaches, the reduced costs of the unit costs
    U, R = U - U_B B^-1 A, price the next `_LOOKAHEAD` rows not yet
    settled in one product, w @ R, with a free column at -|d_j| as in
    `_simplex`.  Each row with no price below -`_PIVOT_TOL`, the test
    `_simplex` stops on, is optimal at B too, and settles with the value
    w . (U_B x_B).  Rows that share optimal bases, such as the sign
    patterns of a traction, so need far fewer phase 2s than there are
    rows.  The rounding of the pivots before B carries into the values,
    so values that must be exact, or a solution, come from `solve`.  p's
    own costs are not used."""
    m, n = p.A.shape
    U = np.asarray(unit_costs, dtype=float)
    W = np.asarray(weights)
    if U.ndim != 2 or U.shape[1] != n:
        raise LPError(f"unit costs have shape {U.shape}, expected (k, {n})")
    if W.ndim != 2 or W.shape[1] != len(U) or W.dtype.kind not in "biuf":
        raise LPError(f"weights are {W.dtype} of shape {W.shape}, expected "
                      f"numbers of shape (rows, {len(U)})")
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(W))):
        raise LPError("unit costs or weights contain non-finite entries")
    status = np.empty(len(W), dtype=object)
    status[:] = INFEASIBLE  # one str object; np.full would copy it per row
    objective = np.full(len(W), np.nan)
    p._memo.shared = True  # the LPs made from p share the walk's phase 1
    T, basis, _, _ = _start(p)
    if T is None:
        return status, objective
    todo = np.arange(len(W))  # todo[head:] are the rows not settled, in order
    head = 0
    while head < len(todo):
        row = todo[head]
        if _phase2(T, basis, W[row] @ U, p.free, (m, n)) == UNBOUNDED:
            status[row] = UNBOUNDED
            head += 1
            continue
        U_B = U[:, basis]
        R = U - U_B @ T[:-1, :n]
        # -|d_j| >= -tol on a free column is d_j >= -tol and -d_j >= -tol
        R = np.hstack([R, -R[:, p.free]])
        ahead = todo[head + 1:head + 1 + _LOOKAHEAD]
        optimal = (W[ahead] @ R >= -_PIVOT_TOL).all(axis=1)
        done = np.append(row, ahead[optimal])
        status[done] = OPTIMAL
        objective[done] = W[done] @ (U_B @ T[:-1, -1])
        # the rows left in the window move up to just before the rest
        rest = ahead[~optimal]
        head += len(done)
        todo[head:head + len(rest)] = rest
    return status, objective


def solve_each_rhs(p: LPStandardForm, rhss):
    """For each right-hand side b in turn, the (status, objective) that
    `solve` gives p with b (objective None unless optimal), up to
    rounding.  The first b, and each one after a step that was not optimal
    or that dropped redundant rows, is solved cold as `solve` does.  Every
    other b continues from the previous optimal basis: x_B = B^-1 b from
    the original data, then the dual simplex.  A and c never change, so
    that basis stays dual feasible, and right-hand sides that differ
    little need few pivots.  As in `solve_each`, the reduced costs carry
    the rounding of the pivots before a step, and p's own b is not
    used."""
    m, n = p.A.shape
    T, basis = None, None  # the last optimal tableau and basis, all rows kept
    for b in rhss:
        b = np.asarray(b, dtype=float)
        if b.shape != (m,):
            raise LPError(f"right-hand side has shape {b.shape}, expected ({m},)")
        if not np.all(np.isfinite(b)):
            raise LPError("right-hand side contains non-finite entries")
        if T is None:
            status, T, basis, _ = _solve_cold(
                LPStandardForm(c=p.c, A=p.A, b=b, free=p.free))
        else:
            T[:-1, -1] = np.linalg.solve(p.A[:, basis], b)
            T[-1, -1] = -(p.c[basis] @ T[:-1, -1])
            status = _dual_simplex(T, basis, p.free, (m, n))[0]
        objective = float(p.c[basis] @ T[:-1, -1]) if status == OPTIMAL else None
        if status != OPTIMAL or len(basis) < m:  # not optimal, or rows dropped
            T = None
        yield status, objective


_BRUTE_CAP = 14


def _independent_rows(A: np.ndarray, b: np.ndarray):
    """Gaussian elimination on [A|b]: returns (row indices, infeasible)."""
    M = np.hstack([A, b.reshape(-1, 1)]).astype(float)
    m, n1 = M.shape
    rows = []
    used = np.zeros(m, dtype=bool)
    scale = max(1.0, np.abs(M).max(initial=0.0))
    for col in range(n1 - 1):
        cand = [r for r in range(m) if not used[r]]
        if not cand:
            break
        r = max(cand, key=lambda rr: abs(M[rr, col]))
        if abs(M[r, col]) <= 1e-9 * scale:
            continue
        used[r] = True
        rows.append(r)
        for rr in range(m):
            if rr != r and abs(M[rr, col]) > 0:
                M[rr] -= (M[rr, col] / M[r, col]) * M[r]
    infeasible = any(not used[r] and abs(M[r, -1]) > 1e-7 * scale
                     for r in range(m))
    return sorted(rows), infeasible


def _enumerate_best(A, b, c):
    """Best objective over basic feasible solutions, or None if none exist.
    The bases are the column combinations in `combinations` order, solved
    in one batch; the first one whose objective beats all before it by
    more than 1e-12 is the best."""
    rows, infeasible = _independent_rows(A, b)
    if infeasible:
        return None, None
    Ar, br = A[rows], b[rows]
    r = len(rows)
    n = A.shape[1]
    if r == 0:
        return 0.0, np.zeros(n)
    cols = np.array(list(combinations(range(n), r)))
    B = Ar[:, cols].transpose(1, 0, 2)  # B[k] = Ar[:, cols[k]]
    regular = np.abs(np.linalg.det(B)) >= 1e-9
    cols, B = cols[regular], B[regular]
    xb = np.linalg.solve(B, np.broadcast_to(br[:, None], (len(B), r, 1)))[..., 0]
    X = np.zeros((len(cols), n))
    np.put_along_axis(X, cols, xb, axis=1)
    residual = np.abs(X @ A.T - b).max(axis=1, initial=0.0)
    feasible = np.all(xb >= -1e-9, axis=1) & \
        (residual <= 1e-7 * (1.0 + np.abs(b).max(initial=0.0)))
    best_obj, best_x = None, None
    for x in X[feasible]:
        obj = float(c @ x)
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj, best_x = obj, x
    return best_obj, best_x


def solve_brute(p: LPStandardForm) -> LPSolution:
    """Exhaustive basic-solution enumeration; testing oracle for solve().
    It enumerates nonnegative basic solutions only, so an LP with a free
    column is an `LPError`."""
    m, n = p.A.shape
    if p.free.any():
        raise LPError("brute-force oracle takes no free columns")
    if m > _BRUTE_CAP or n > _BRUTE_CAP:
        raise LPError(f"brute-force oracle limited to {_BRUTE_CAP} rows/cols")
    best_obj, best_x = _enumerate_best(p.A, p.b, p.c)
    if best_obj is None:
        return LPSolution(INFEASIBLE)
    # unboundedness: a recession direction d >= 0, Ad = 0, sum d = 1, c.d < 0
    A_ray = np.vstack([p.A, np.ones(n)])
    b_ray = np.concatenate([np.zeros(m), [1.0]])
    ray_obj, _ = _enumerate_best(A_ray, b_ray, p.c)
    if ray_obj is not None and ray_obj < -1e-9:
        return LPSolution(UNBOUNDED)
    return LPSolution(OPTIMAL, x=best_x, objective=best_obj)


class LPBuilder:
    """Translate inequalities into standard form.

    Variables are declared in order by `add_vars`, and each is one column
    of the standard form, marked free unless it is nonnegative.  Rows come
    in dense blocks over all the variables declared by the time `build`
    runs, and keep the order they were added in, which is their order in
    the standard form and in `LPSolution.y`.  Each inequality row gets a
    slack column after the variable columns.
    """

    def __init__(self):
        self._nonneg = []     # one flag array per add_vars call
        self._rows = []       # (block, rhs) per add_eq or add_le call
        self._is_le = []      # per row
        self.n_vars = 0

    def add_vars(self, count: int, nonneg=True):
        """Declare `count` variables; `nonneg` is one flag or one per variable."""
        self._nonneg.append(np.full(count, nonneg, dtype=bool))
        self.n_vars += count

    def add_eq(self, rows, rhs):
        self._add(rows, rhs, False)

    def add_le(self, rows, rhs):
        self._add(rows, rhs, True)

    def _add(self, rows, rhs, is_le: bool):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        self._rows.append((rows, np.full(len(rows), rhs, dtype=float)))
        self._is_le += [is_le] * len(rows)

    def build(self, objective) -> LPStandardForm:
        """The LP of minimizing objective . x: the variables are x[:n_vars]
        and the slacks come after them.  Adding 0.0 turns every -0.0 of the
        rows, right-hand sides and objective into 0.0."""
        n, slack = self.n_vars, np.flatnonzero(self._is_le)
        A = np.zeros((len(self._is_le), n + len(slack)))
        start = 0
        for blk, _ in self._rows:
            np.add(blk, 0.0, out=A[start:start + len(blk), :n])
            start += len(blk)
        A[slack, n + np.arange(len(slack))] = 1.0
        c = np.zeros(A.shape[1])
        c[:n] = 0.0 + np.asarray(objective, dtype=float)
        free = np.zeros(A.shape[1], dtype=bool)
        free[:n] = ~np.concatenate(self._nonneg)
        b = 0.0 + np.concatenate([rhs for _, rhs in self._rows])
        return LPStandardForm(c=c, A=A, b=b, free=free)
