"""Dense two-phase simplex with Dantzig pricing and a Bland fallback, plus
an enumeration oracle.

Standard form throughout: minimize c.x subject to A.x = b, x >= 0.
Both phases run one simplex loop.  It enters the column with the most
negative reduced cost, which takes far fewer pivots than Bland's
lowest-index rule on these LPs, and falls back to Bland's rule only
while it is stalled: after `_STALL` degenerate pivots in a row, until a
pivot moves the objective again.
A pivot updates only the tableau entries it changes, in the rows with a
nonzero pivot-column entry and the columns with a nonzero pivot-row
entry; the kinematic LP's rows each touch one element or facet, so that
is often a small block.  It picks the update by these counts, and keeps
the dense rank-1 update on tableaux under `_DENSE_BELOW` entries.
Free variables and inequalities are handled by LPBuilder, which keeps the
kernel itself in pure standard form.  Phase 1 crash-starts: a row starts
on a column whose only nonzero entry is positive and in that row, such as
an inequality's slack, and only the rows without one get an artificial.
When all of those rows have b = 0 the start is feasible, and phase 1 is
only the degenerate pivots that drive the artificials out.  Phase 1
depends on A and b only, so LPs that differ only in their costs
(`LPStandardForm.with_objective`) share one phase 1 and each runs only
phase 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8
# pivots each phase may take before the solve fails
_MAX_ITER = 50000
# degenerate pivots in a row after which the simplex prices by Bland's rule
_STALL = 50
# `_pivot` updates tableaux with fewer entries than this densely: there the
# counting and indexing cost more than the entries a restricted update skips
_DENSE_BELOW = 10000
# cost of an entry updated through an index array, in entries of the dense
# update: rows and columns both indexed, or all rows and indexed columns
# (fitted to pivot timings of kinematic and static LPs of 10^4-10^6 entries)
_BLOCK_COST = 8
_COLS_COST = 4


class LPError(ValueError):
    """Malformed problem data."""


class LPIterationError(RuntimeError):
    """Iteration limit exceeded; never reported as a wrong answer."""

    def __init__(self, phase: int, shape: tuple, iterations: int):
        self.phase, self.shape, self.iterations = phase, shape, iterations
        super().__init__(
            f"simplex phase {phase} did not terminate in {iterations} "
            f"iterations on a {shape[0]} x {shape[1]} LP (rows x cols)")


class _Phase1(NamedTuple):
    """Phase 1's outcome: the phase 2 start (the constraint rows of the
    tableau over the structural columns and the right-hand side), its
    basis and the rows kept from A; `tableau` is None if the LP is
    infeasible.  `pivots` is the number of simplex pivots phase 1 took,
    not counting those that drive the artificials out."""

    tableau: np.ndarray | None
    basis: np.ndarray
    keep_rows: list
    pivots: int


class _Memo:
    """Phase 1 of one (A, b), computed on the first solve and shared by
    every LP made from it with `with_objective`; A and b are not changed
    in place after that."""

    __slots__ = ("phase1",)

    def __init__(self):
        self.phase1 = None


@dataclass(frozen=True)
class LPStandardForm:
    c: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
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
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def with_objective(self, c) -> LPStandardForm:
        """The same A and b with costs c; it shares this LP's phase 1."""
        p = LPStandardForm(c=c, A=self.A, b=self.b)
        object.__setattr__(p, "_memo", self._memo)
        return p


@dataclass(frozen=True)
class LPSolution:
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
    `_COLS_COST` and 1.  The result equals the dense update up to the sign
    of a zero, so no pivot choice depends on which update ran."""
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
    T -= np.outer(factors, pivot_row)


def _simplex(T: np.ndarray, basis: np.ndarray, n_struct: int,
             phase: int, shape: tuple) -> tuple:
    """Run the simplex on a tableau whose last row holds reduced costs and
    last column the right-hand side.  The entering column has the most
    negative reduced cost (Dantzig), except after `_STALL` degenerate
    pivots in a row, when it is the lowest-index improving column (Bland)
    until a pivot moves the objective again; the leaving row is the
    ratio-test tie with the lowest basic index.  Bland's rule cannot cycle
    at one vertex, and every other pivot lowers the objective, so the loop
    terminates, or fails after `_MAX_ITER` pivots.  Mutates T and the int
    array basis; returns (status, pivots)."""
    stalled = 0
    for pivots in range(_MAX_ITER):
        costs = T[-1, :n_struct]
        if stalled < _STALL:
            j = int(np.argmin(costs))
            if costs[j] >= -_PIVOT_TOL:
                return OPTIMAL, pivots
        else:
            candidates = np.flatnonzero(costs < -_PIVOT_TOL)
            if candidates.size == 0:
                return OPTIMAL, pivots
            j = int(candidates[0])
        col = T[:-1, j]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            return UNBOUNDED, pivots
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        leave = int(ties[np.argmin(basis[ties])])
        stalled = stalled + 1 if best <= 1e-12 else 0
        _pivot(T, leave, j)
        basis[leave] = j
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


def _phase1(A: np.ndarray, b: np.ndarray) -> _Phase1:
    """Crash-start phase 1.  After the rows with b < 0 are flipped, every
    row with a `_crash_basis` column starts on it, and only the other rows
    get an artificial.  Minimize the sum of the artificials (at once
    optimal if all of their rows have b = 0), then drive the artificials
    left in the basis out of it, dropping the redundant rows."""
    m, n = A.shape
    T = np.empty((m, n + 1))  # [A | b]
    T[:, :n] = A
    T[:, -1] = b
    T[b < 0] *= -1.0
    basis = _crash_basis(T[:, :n])
    crashed = np.flatnonzero(basis >= 0)
    T[crashed] /= T[crashed, basis[crashed]][:, None]
    artificial = np.flatnonzero(basis < 0)
    k = len(artificial)
    basis[artificial] = n + np.arange(k)
    pivots = 0
    if T[artificial, -1].any():
        P = np.zeros((m + 1, n + k + 1))
        P[:m, :n] = T[:, :n]
        P[artificial, n + np.arange(k)] = 1.0
        P[:m, -1] = T[:, -1]
        P[-1, n:n + k] = 1.0
        P[-1] -= P[artificial].sum(axis=0)
        status, pivots = _simplex(P, basis, n + k, 1, (m, n))
        if status != OPTIMAL or \
                P[-1, -1] < -_FEAS_TOL * (1.0 + np.abs(T[:, -1]).max(initial=0.0)):
            return _Phase1(None, basis[:0], [], pivots)
        # the artificial columns and the phase 1 costs are not needed any more
        T = np.delete(P[:m], np.s_[n:n + k], axis=1)

    keep_rows = list(range(m))
    drop = []
    for r in range(m):
        if basis[r] < n:
            continue
        piv = np.nonzero(np.abs(T[r, :n]) > _PIVOT_TOL)[0]
        if piv.size:
            _pivot(T, r, int(piv[0]))
            basis[r] = int(piv[0])
        else:
            drop.append(r)
    if drop:
        keep_rows = [r for r in range(m) if r not in drop]
        T = T[keep_rows]
        basis = basis[keep_rows]
    basis.flags.writeable = False
    return _Phase1(T, basis, keep_rows, pivots)


def solve(p: LPStandardForm) -> LPSolution:
    """Two-phase dense simplex.  Deterministic for identical input, and
    the same whether phase 1 is run here or shared with an LP of the same
    A and b."""
    m, n = p.A.shape
    start = p._memo.phase1
    if start is None:
        start = p._memo.phase1 = _phase1(p.A, p.b)
    if start.tableau is None:
        return LPSolution(INFEASIBLE)

    # phase 2 on a copy of the shared start, with the original costs
    mm = len(start.basis)
    basis = start.basis.copy()
    T2 = np.zeros((mm + 1, n + 1))
    T2[:mm] = start.tableau
    T2[-1, :n] = p.c
    T2[-1] -= p.c[basis] @ T2[:mm]
    status, _ = _simplex(T2, basis, n, 2, (m, n))
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED)

    x = np.zeros(n)
    x[basis] = T2[:mm, -1]
    obj = float(p.c @ x)

    # equality multipliers from the final basis w.r.t. the original rows
    # (dropped redundant rows get zero)
    y = np.zeros(m)
    Bt = p.A[start.keep_rows][:, basis].T.copy()
    try:
        y_keep = np.linalg.solve(Bt, p.c[basis])
    except np.linalg.LinAlgError:
        y_keep, *_ = np.linalg.lstsq(Bt, p.c[basis], rcond=None)
    y[start.keep_rows] = y_keep
    return LPSolution(OPTIMAL, x=x, y=y, objective=obj)


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
    """Best objective over basic feasible solutions, or None if none exist."""
    rows, infeasible = _independent_rows(A, b)
    if infeasible:
        return None, None
    Ar, br = A[rows], b[rows]
    r = len(rows)
    n = A.shape[1]
    best_obj, best_x = None, None
    if r == 0:
        return 0.0, np.zeros(n)
    for cols in combinations(range(n), r):
        B = Ar[:, cols]
        if abs(np.linalg.det(B)) < 1e-9:
            continue
        xb = np.linalg.solve(B, br)
        if np.any(xb < -1e-9):
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        if np.abs(A @ x - b).max(initial=0.0) > 1e-7 * (1.0 + np.abs(b).max(initial=0.0)):
            continue
        obj = float(c @ x)
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj, best_x = obj, x
    return best_obj, best_x


def solve_brute(p: LPStandardForm) -> LPSolution:
    """Exhaustive basic-solution enumeration; testing oracle for solve()."""
    m, n = p.A.shape
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


class ColumnMap:
    """Where `LPBuilder`'s variables sit in the standard form: variable i
    in column `col[i]` and, if free, its negative part in the next one;
    the slack columns come after them."""

    def __init__(self, nonneg: np.ndarray, n_slack: int):
        self.free = ~nonneg
        width = 1 + self.free
        self.col = np.cumsum(width) - width
        self.minus = self.col[self.free] + 1
        self.n_vars = len(nonneg)
        self.n_std = self.n_vars + len(self.minus) + n_slack

    def place(self, out: np.ndarray, rows: np.ndarray):
        """Write rows over the variables into their standard-form columns
        of out; x = x+ - x-, and 0.0 + and 0.0 - never give -0.0."""
        out[:, self.col] = 0.0 + rows
        out[:, self.minus] = 0.0 - rows[:, self.free]

    def costs(self, objective) -> np.ndarray:
        """Standard-form costs of minimizing objective . x."""
        c = np.zeros((1, self.n_std))
        self.place(c, np.atleast_2d(np.asarray(objective, dtype=float)))
        return c[0]

    def recover(self, x_std: np.ndarray) -> np.ndarray:
        """The variables of a standard-form solution vector."""
        x = x_std[self.col]
        x[self.free] -= x_std[self.minus]
        return x


class LPBuilder:
    """Translate free variables and inequalities into standard form.

    Variables are declared in order by `add_vars`.  Rows come in dense
    blocks over all the variables declared by the time `build` runs, and
    keep the order they were added in, which is their order in the
    standard form and in `LPSolution.y`.  A free variable becomes an
    adjacent (+, -) column pair; each inequality row gets a slack column
    after the variable columns.
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

    def build(self, objective):
        """Return (LPStandardForm, ColumnMap) for minimizing objective . x;
        the map's `recover` maps a standard-form solution vector back to the
        variables, and its `costs` gives the costs of another objective
        over the same rows."""
        cols = ColumnMap(np.concatenate(self._nonneg), sum(self._is_le))
        A = np.zeros((len(self._is_le), cols.n_std))
        start = 0
        for blk, _ in self._rows:
            cols.place(A[start:start + len(blk)], blk)
            start += len(blk)
        slack = np.flatnonzero(self._is_le)
        A[slack, cols.n_std - len(slack) + np.arange(len(slack))] = 1.0
        b = np.concatenate([rhs for _, rhs in self._rows])
        return LPStandardForm(c=cols.costs(objective), A=A, b=b), cols
