"""Dense two-phase bounded-variable simplex with Dantzig pricing and a
Bland fallback, and an enumeration oracle.

Standard form with bounds: minimize c.x subject to A.x = b and
lower <= x <= upper, where a bound may be infinite; by default a column
is nonnegative, and a free column has neither bound (`LPStandardForm`).
The bounds stay out of the rows (Dantzig's bounded variables): a
nonbasic column sits at one of its bounds, or at 0 if it is free or 0
lies inside its bounds, and the tableau's last column holds x_B.  Both
phases run one simplex loop (`_simplex`): the most negative price
enters, which takes far fewer pivots than Bland's lowest-index rule on
these LPs, with Bland's rule only while the loop is stalled; a column
that reaches its other bound first flips there without a pivot, and a
count of pivots counts these flips too.  Every LP runs this one loop:
on an LP whose columns are all free or nonnegative, such as the
kinematic LP, the nonbasic columns all sit at 0, no column can flip,
and the loop pivots as a simplex without bounds would.  On tableaux
this small an iteration costs more in numpy calls than in arithmetic,
so the loop keeps what changes only when a column moves, such as each
column's price signs, and makes about a dozen calls per iteration
besides the pivot.  A pivot updates only the
entries it changes, in the rows with a nonzero pivot-column entry and
the columns with a nonzero pivot-row entry, or the whole tableau, as
the counts make cheapest (`_pivot`).  At the end of a solve, x_B and the
multipliers are solved from A, b and c at the optimal basis; a singular
basis, or an x_B outside its bounds, fails with `LPBasisError`.
Inequalities are handled by LPBuilder, which gives each a slack column.
Phase 1 crash-starts (`_phase1`), so that only the rows without a crash
column get an artificial.  It depends on A, b and the bounds only, so
LPs that differ only in their costs (`LPStandardForm.with_objective`),
or only in one column that is zero in the LP they are made from
(`LPStandardForm.with_column`), share one phase 1, memoized, and each
runs phase 2 on a copy of it.  A standalone LP runs phase 2 in phase 1's
own array, so that its solve holds A and one tableau at its peak.
`solve`'s phase 2 runs only on the rows that can leave the basis: a
free variable, such as a plastic pressure, never leaves once basic, so
its row is left out (`_live_phase2`).  `solve_each` walks the costs
w @ U of the rows w of a weight matrix on one phase-2 tableau of an LP
of free and nonnegative columns, each phase 2 from the basis where the
last one stopped, and settles every row that an optimal basis it reaches
proves optimal without a phase 2 of its own.  A row whose phase 2 ends
unbounded runs it again from a fresh copy of phase 1, and is unbounded
only if that one agrees.  If a row of the LP
normalizes it (b = e_r), it also settles as `DOMINATED`, with a
weak-duality lower bound and no phase 2, every row whose bound at that
basis lies above the best optimum found so far by more than `_NEAR_TIE`.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import NamedTuple

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
# a row of `solve_each` whose optimum is far above the best (its objective
# is a lower bound on that optimum)
DOMINATED = "dominated"

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
# objectives of a walk this close to its best, relative to 1 + |best|, are
# near ties: the walk's rounding measured 3.6e-14 at 12 and 6.7e-13 at 16
# sign components (absolute, exact K on the 2x2 and 3x2 plates), so its
# values cannot order them and `solve_each` never prunes one
_NEAR_TIE = 1e-9
# the crash pivots on a row's largest free entry if it is at least this
# fraction of the row's largest entry among the columns with 0 inside their
# bounds (`_phase1`).  With no such floor, pivot growth fails the plastic
# box LP of the 2x2x1 Kuhn box with z scaled by 1e-7 or 1e-8 (a singular
# optimal basis); 1/2, 1/10, 1/100 and 1/1000 all certify it.  On the
# plastic Kuhn cube of side 4 under a seeded random load, phase 2 took
# 1,339 steps at 1/2 and 1,036 at each of the others, and 1,151 with no
# floor
_FREE_CRASH = 0.01


class LPError(ValueError):
    """Malformed problem data."""


class LPIterationError(RuntimeError):
    """Iteration limit exceeded; never reported as a wrong answer.  phase
    is the simplex phase that hit the limit, 1 or 2."""

    def __init__(self, phase: int, shape: tuple, iterations: int):
        self.phase, self.shape, self.iterations = phase, shape, iterations
        super().__init__(
            f"simplex phase {phase} did not terminate in {iterations} "
            f"iterations on a {shape[0]} x {shape[1]} LP (rows x cols)")


class LPBasisError(RuntimeError):
    """The optimal basis B that phase 2 stopped at gives no solution from
    the data: B is singular, or x_B leaves its bounds by more than
    `_FEAS_TOL` relative to the bound, as the rounding of a long run of
    pivots can make it; never reported as a wrong answer.  violation is
    the largest distance of x_B past a bound, inf if B is singular."""

    def __init__(self, shape: tuple, pivots: int, violation: float):
        self.shape, self.pivots, self.violation = shape, pivots, violation
        problem = ("that is singular" if violation == np.inf else
                   f"whose x_B leaves its bounds by {violation:.3e}")
        super().__init__(
            f"simplex phase 2 stopped after {pivots} pivots at a basis "
            f"{problem} on a {shape[0]} x {shape[1]} LP (rows x cols)")


class _Phase1(NamedTuple):
    """Phase 1's outcome: the phase 2 start (the constraint rows of the
    tableau over the structural columns and x_B, then a cost row that
    phase 2 writes), its basis, the rows kept from A and where each
    nonbasic column sits (`value`; a basic column's entry is unused);
    `tableau` is None if the LP is infeasible.  `pivots` is the number of
    simplex pivots and bound flips phase 1 took, not counting the crash's
    Gaussian pivots nor those that drive the artificials out."""

    tableau: np.ndarray | None
    basis: np.ndarray
    keep_rows: list
    pivots: int
    value: np.ndarray | None = None


class _Memo:
    """Phase 1 of one (A, b), shared by every LP made from it with
    `with_objective` or `with_column` and by `solve_each`'s walks.  Once
    `shared` is set, the first solve memoizes phase 1 (read-only) and each
    solve runs phase 2 on a copy.  Until then the LP is standalone: each
    solve runs phase 1 and then phase 2 in the same array, and nothing is
    memoized.  An LP made by `with_column` has its own memo, whose
    `column` is (the LP it was made from, the column's index)."""

    __slots__ = ("phase1", "shared", "column")

    def __init__(self, column=None):
        self.phase1 = None
        self.shared = False
        self.column = column


class LPStandardForm:
    """One LP, minimize c . x subject to A x = b and lower <= x <= upper,
    with -inf or inf for a side without a bound; lower None gives 0 and
    upper None gives inf, a nonnegative column.  free marks the
    columns without bounds.  The arrays are checked once, here, and an
    LP's arrays are not changed in place after that.  Each LP has a phase 1
    memo of its own, unless `with_objective` made it; two LPs are equal
    only if they are the same object."""

    __slots__ = ("c", "A", "b", "lower", "upper", "free", "_memo")

    def __init__(self, c, A, b, lower=None, upper=None):
        c = np.asarray(c, dtype=float)
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise LPError("A must be a matrix, b and c vectors")
        if A.shape != (b.size, c.size):
            raise LPError(
                f"shape mismatch: A is {A.shape}, b has {b.size}, c has {c.size}")
        for name, arr in (("c", c), ("A", A), ("b", b)):
            if not np.isfinite(arr).all():
                raise LPError(f"{name} contains non-finite entries")
        n = c.size
        if lower is None and upper is None:
            lower, upper = np.zeros(n), np.full(n, np.inf)
            free = np.zeros(n, dtype=bool)
        else:
            lower = np.zeros(n) if lower is None else np.asarray(lower, float)
            upper = np.full(n, np.inf) if upper is None else np.asarray(upper, float)
            if lower.shape != c.shape or upper.shape != c.shape:
                raise LPError(f"bounds have shapes {lower.shape} and {upper.shape}, "
                              f"expected {c.shape}")
            if not (lower <= upper).all() or (lower == np.inf).any() or \
                    (upper == -np.inf).any():
                raise LPError("bounds must satisfy lower <= upper, lower < inf "
                              "and upper > -inf")
            free = (lower == -np.inf) & (upper == np.inf)
        self.c, self.A, self.b = c, A, b
        self.lower, self.upper, self.free = lower, upper, free
        self._memo = _Memo()

    def _derive(self, c: np.ndarray, A: np.ndarray, memo: _Memo) -> LPStandardForm:
        """This LP with c, A and memo, checked already, in place of its own;
        this LP's phase 1 is memoized from now on."""
        p = object.__new__(LPStandardForm)
        p.c, p.A, p.b, p.lower, p.upper = c, A, self.b, self.lower, self.upper
        p.free, p._memo = self.free, memo
        self._memo.shared = True
        return p

    def with_objective(self, c) -> LPStandardForm:
        """The same A, b and bounds with costs c; it shares this LP's
        phase 1, so that phase 1 runs once for both and each phase 2 runs
        on a copy of it.  Only c is checked."""
        c = np.asarray(c, dtype=float)
        if c.shape != self.c.shape:
            raise LPError(f"shape mismatch: c has shape {c.shape}, "
                          f"expected {self.c.shape}")
        if not np.isfinite(c).all():
            raise LPError("c contains non-finite entries")
        return self._derive(c, self.A, self._memo)

    def with_column(self, j: int, a) -> LPStandardForm:
        """This LP with column j replaced by a.  Column j must be zero
        here, with 0 inside its bounds: then phase 1 never pivots on it and
        leaves it nonbasic at 0, so the new LP's phase 1 is this LP's, with
        column j of the tableau set to B^-1 a at its basis B (`_start`);
        it has a memo of its own, whose phase 1 is made from this LP's."""
        m, n = self.A.shape
        a = np.asarray(a, dtype=float)
        if not -n <= j < n or a.shape != (m,):
            raise LPError(f"column {j} of shape {a.shape} does not fit a "
                          f"{m} x {n} LP")
        if not np.isfinite(a).all():
            raise LPError("the column contains non-finite entries")
        j %= n
        if self.A[:, j].any() or not self.lower[j] <= 0.0 <= self.upper[j]:
            raise LPError(f"column {j} is not zero with 0 inside its bounds")
        A = self.A.copy()
        A[:, j] = a
        return self._derive(self.c, A, _Memo(column=(self, j)))


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
    sign of a zero, so no pivot choice depends on which update ran.  A
    pivot of 1.0 leaves the row as it is, which dividing by it would do
    bit for bit.  Each update subtracts the broadcast product
    factors[:, None] * row, the entries of `np.outer` for fewer calls."""
    pivot, pivot_row = T[row, col], T[row]
    if pivot != 1.0:
        pivot_row /= pivot
    factors = T[:, col].copy()
    factors[row] = 0.0
    if T.size >= _DENSE_BELOW:
        m, n = T.shape
        c = np.count_nonzero(pivot_row)
        by_block = _BLOCK_COST * np.count_nonzero(factors) * c
        by_cols = _COLS_COST * m * c
        if by_block <= by_cols and by_block < m * n:
            rows, cols = factors.nonzero()[0], pivot_row.nonzero()[0]
            T[rows[:, None], cols] -= factors[rows, None] * pivot_row[cols]
            return
        if by_cols < m * n:
            cols = pivot_row.nonzero()[0]
            T[:, cols] -= factors[:, None] * pivot_row[cols]
            return
        # a copy: its own block subtracts 0 * x from it, turning -0.0 to 0.0
        pivot_row = pivot_row.copy()
        step = max(1, _BLOCK_ENTRIES // n)
        for r in range(0, m, step):
            T[r:r + step] -= factors[r:r + step, None] * pivot_row
        return
    T -= factors[:, None] * pivot_row


def _enter(T: np.ndarray, row: int, col: int, value: np.ndarray, bound: float):
    """Pivot col into the basis in row, whose basic variable leaves at
    bound, with x_B in T's last column: x_B is B^-1 (b - N x_N), so col's
    own term comes back in before the pivot and the leaving variable's
    goes out, each only when it is nonzero (on an LP of free and
    nonnegative columns, never).  The simplex loop and phase 1's
    drive-out share it."""
    if value[col] != 0.0:
        x = T[:-1, -1]
        x += value[col] * T[:-1, col]
    if bound != 0.0:
        T[row, -1] -= bound
    _pivot(T, row, col)


def _simplex(T: np.ndarray, basis: np.ndarray, lower: np.ndarray,
             upper: np.ndarray, value: np.ndarray, phase: int,
             shape: tuple) -> tuple:
    """Run the bounded-variable simplex on a tableau whose last row holds
    reduced costs and last column x_B, over the columns that lower and
    upper bound; value holds where each nonbasic column sits, at a bound,
    or at 0 inside its bounds.  Column j is priced at min(s_up d_j,
    s_down d_j), with signs kept per column: -|d_j| if it can move both
    ways, d_j at its lower bound, -d_j at its upper bound, and 0 (it never
    enters) if its bounds fix it.  It enters upwards when d_j < 0 and
    downwards when d_j > 0.  The entering column has the lowest price
    (Dantzig), except after `_STALL` degenerate pivots in a row, when it
    is the lowest-index improving column (Bland) until a step moves the
    objective again.  The ratio test stops at the first basic variable to
    reach one of its bounds, or at the entering column's own other bound:
    then the column only moves there (a bound flip), and the basis stays.
    The leaving row is the ratio-test tie with the lowest basic index, and
    its variable leaves at the bound it reached.  A free variable never
    leaves once basic; after the last one has entered, the loop is Bland's
    rule on bounded columns, which cannot cycle at one vertex, and every
    other step lowers the objective, so it terminates, or fails after
    `_MAX_ITER` pivots and flips.  On an LP whose columns are all free or
    nonnegative, such as the kinematic LP, no column has a bound to flip
    to, every nonbasic column sits at 0, and each step is that of a
    simplex without bounds.  Mutates T, the int array basis and value;
    returns (status, pivots), pivots counting the bound flips too."""
    m, n = len(basis), len(lower)
    costs, x = T[-1, :n], T[:-1, -1]  # views of the reduced costs and x_B
    movable = lower < upper
    up = np.where(value < upper, 1.0, -1.0) * movable  # s_up of each column
    down = np.where(value > lower, -1.0, 1.0) * movable  # and its s_down
    lb, ub, ratios = lower[basis], upper[basis], np.empty(m)
    stalled = 0
    for pivots in range(_MAX_ITER):
        prices = np.minimum(costs * up, costs * down)
        if stalled < _STALL:
            j = prices.argmin()
            if prices[j] >= -_PIVOT_TOL:
                return OPTIMAL, pivots
        else:
            improving = prices < -_PIVOT_TOL
            j = improving.argmax()
            if not improving[j]:
                return OPTIMAL, pivots
        rising = costs[j] < 0.0
        col = T[:-1, j]
        # each basic variable's distance to the bound it moves towards, per
        # unit step of column j (inf where it has none): (x - l) / a rising
        # and (l - x) / a falling, over the signed entry a, are the distance
        # over |a| but for the sign of a zero
        bound = np.where(col > 0.0 if rising else col < 0.0, lb, ub)
        distance = x - bound if rising else bound - x
        ratios.fill(np.inf)
        np.divide(distance, col, out=ratios, where=abs(col) > _PIVOT_TOL)
        best = ratios[ratios.argmin()] if m else np.inf
        span = upper[j] - value[j] if rising else value[j] - lower[j]
        if span <= best:
            if span == np.inf:
                return UNBOUNDED, pivots
            # a bound flip: column j moves to its other bound, x_B with it
            moved = upper[j] if rising else lower[j]
            x -= (moved - value[j]) * col
            value[j] = moved
            up[j] = down[j] = -1.0 if rising else 1.0
            stalled = 0
            continue
        ties = (ratios <= best + 1e-12).nonzero()[0]
        leave = ties[0] if ties.size == 1 else ties[basis[ties].argmin()]
        stalled = stalled + 1 if best <= 1e-12 else 0
        out, at = basis[leave], bound[leave]
        _enter(T, leave, j, value, at)
        value[out] = at
        # at its lower bound it can only rise, at its upper only fall
        sign = (1.0 if at == lb[leave] else -1.0) if movable[out] else 0.0
        up[out] = down[out] = sign
        lb[leave], ub[leave] = lower[j], upper[j]
        basis[leave] = j
    raise LPIterationError(phase, shape, _MAX_ITER)


def _crash_basis(A: np.ndarray, eligible: np.ndarray) -> np.ndarray:
    """For each row, the lowest-index eligible column whose only nonzero
    entry is positive and lies in that row, or -1 if there is none.  Such
    a column can start basic in its row: dividing the row by that entry
    makes it a unit column, and keeps a nonnegative right-hand side
    nonnegative, so eligible columns are those that can take any
    nonnegative value."""
    nonzero = A != 0.0
    single = ((nonzero.sum(axis=0) == 1) & eligible).nonzero()[0]
    basic = np.full(A.shape[0], -1)
    if not single.size:
        return basic
    _, row = np.nonzero(nonzero[:, single].T)  # the row of each such column
    positive = A[row, single] > 0.0
    rows, first = np.unique(row[positive], return_index=True)
    basic[rows] = single[positive][first]
    return basic


def _divide_rows(T: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Divide each row rows[i] of T by its entry in column cols[i].  The
    rows whose entry is 1.0 are left as they are, which dividing would do
    bit for bit, and only the others are gathered: a crash column is
    mostly a slack, whose entry is 1.0."""
    entries = T[rows, cols]
    scaled = entries != 1.0
    if scaled.any():
        T[rows[scaled]] /= entries[scaled, None]


def _phase1(A: np.ndarray, b: np.ndarray, lower: np.ndarray,
            upper: np.ndarray) -> _Phase1:
    """Crash-start phase 1.  Every nonbasic column starts at 0, or at the
    bound nearest 0 if 0 is outside its bounds, and the rows whose x_B
    would be negative are flipped.  A row with a `_crash_basis` column
    starts on it.  Each other row whose x_B is 0 then takes one Gaussian
    pivot, on its largest entry among the columns with 0 strictly inside
    their bounds, if that is above `_PIVOT_TOL` times the row's largest
    entry in A: x_B stays as it is, and the new basic variable is 0, away
    from its bounds.  The test is relative to the row, the cure for rows
    of very different sizes (Tomlin 1975): a row of A times a factor has
    its tableau row times that factor until its own pivot, so the crash
    does not change, and the box LP, whose rows scale with powers of the
    length unit, crashes alike in any unit.  Where bounded columns
    compete with free ones, the row's largest free entry is the pivot
    instead if it is at least `_FREE_CRASH` times that entry: a free
    column never leaves the basis once it enters, so each one left
    nonbasic costs phase 2 a pivot (free columns first, as in Bixby's
    crash, 1992).  So a nonnegative column is never a crash pivot, and the
    crash does not depend on one (`LPStandardForm.with_column`).  On the
    elastic 6x6 plate the kinematic LP's phase 2 takes 213 pivots from
    this start, and took 45,953 when the nonnegative columns were
    candidates too; on the plastic 16x16 plate every pressure starts
    basic and the box LP's takes 242, against 1,036 with 447 of the 512
    pressures nonbasic, and it failed its certificate after 17,660 from
    the lowest-index entries.  Only the rows left over get an artificial,
    which is nonnegative.  Minimize the sum of the artificials (at once
    optimal if all of their rows have x_B = 0), then drive the artificials
    left in the basis out of it, each on its row's first entry above
    `_PIVOT_TOL` (an absolute test), dropping the redundant rows.  The
    tableau's last row is for phase 2's reduced costs, which phase 2
    writes."""
    m, n = A.shape
    value = np.clip(0.0, lower, upper)
    T = np.empty((m + 1, n + 1))  # [A | x_B] over the cost row
    T[:m, :n] = A
    T[-1] = 0.0
    T[:m, -1] = b - A @ value if value.any() else b
    T[:m][T[:m, -1] < 0] *= -1.0
    basis = _crash_basis(T[:m, :n], (upper == np.inf) & (lower <= 0.0))
    crashed = (basis >= 0).nonzero()[0]
    if crashed.size:
        _divide_rows(T, crashed, basis[crashed])
    at_zero = ((basis < 0) & (T[:m, -1] == 0.0)).nonzero()[0]
    if at_zero.size:
        # each row's largest |entry|, the scale of its pivot test, without
        # a temporary the size of A
        row_max = np.maximum(A.max(axis=1), -A.min(axis=1))
        inside = (lower < 0.0) & (upper > 0.0)
        unbounded = (lower == -np.inf) & (upper == np.inf)
        # the free columns, if a bounded column competes with them
        competing = unbounded.any() and (inside & ~unbounded).any()
        free = unbounded.nonzero()[0] if competing else None
        inside = inside.astype(float)
    for r in at_zero:
        entries = np.abs(T[r, :n])
        entries *= inside
        j = int(entries.argmax())
        if free is not None:
            j_free = free[entries[free].argmax()]
            if entries[j_free] >= _FREE_CRASH * entries[j]:
                j = int(j_free)
        if entries[j] > _PIVOT_TOL * row_max[r]:
            _pivot(T[:m], r, j)
            basis[r] = j
    artificial = (basis < 0).nonzero()[0]
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
        value = np.concatenate((value, np.zeros(k)))
        status, pivots = _simplex(P, basis, np.concatenate((lower, np.zeros(k))),
                                  np.concatenate((upper, np.full(k, np.inf))),
                                  value, 1, (m, n))
        if status != OPTIMAL or P[:m, -1][basis >= n].sum() > tol:
            return _Phase1(None, basis[:0], [], pivots)
        # the artificial columns are not needed any more, and phase 2
        # overwrites the phase 1 costs
        T = np.concatenate((P[:, :n], P[:, n + k:]), axis=1)
        value = value[:n]
        del P

    keep_rows = list(range(m))
    drop = []
    # the artificials still basic; a pivot in one of their rows moves no
    # other row's basic variable
    for r in (basis >= n).nonzero()[0]:
        piv = np.nonzero(np.abs(T[r, :n]) > _PIVOT_TOL)[0]
        if piv.size:
            _enter(T, r, int(piv[0]), value, 0.0)
            basis[r] = int(piv[0])
        else:
            drop.append(r)
    if drop:
        keep_rows = [r for r in range(m) if r not in drop]
        T = T[keep_rows + [m]]
        basis = basis[keep_rows]
    return _Phase1(T, basis, keep_rows, pivots, value)


def _start(p: LPStandardForm) -> _Phase1:
    """Phase 1 of p, with a tableau, basis and nonbasic values that the
    caller may run phase 2 in.  A standalone LP gets phase 1's own arrays;
    an LP whose memo is shared gets copies of its memoized phase 1, run now
    if it is not yet there."""
    memo = p._memo
    if memo.column is not None:
        return _start_with_column(p, *memo.column)
    if memo.phase1 is None:
        start = _phase1(p.A, p.b, p.lower, p.upper)
        if not memo.shared:
            return start
        memo.phase1 = start
        if start.tableau is not None:  # only copies of it are handed out
            for arr in (start.tableau, start.basis, start.value):
                arr.flags.writeable = False
    start = memo.phase1
    if start.tableau is None:
        return start
    return start._replace(tableau=start.tableau.copy(), basis=start.basis.copy(),
                          value=start.value.copy())


def _start_with_column(p: LPStandardForm, base: LPStandardForm, j: int) -> _Phase1:
    """Phase 1 of p = base.with_column(j, a): a copy of base's, with
    column j of the tableau solved from the data at its basis B, B^-1 a.
    If base's phase 1 found it infeasible or dropped a redundant row, a
    need not share that, and B^-1 a needs B nonsingular in floating point,
    so otherwise p runs its own phase 1."""
    start = _start(base)
    if start.tableau is not None and len(start.keep_rows) == len(p.b):
        try:
            start.tableau[:-1, j] = np.linalg.solve(p.A[:, start.basis], p.A[:, j])
            return start
        except np.linalg.LinAlgError:
            pass
    return _phase1(p.A, p.b, p.lower, p.upper)


def _price(T: np.ndarray, basis: np.ndarray, c: np.ndarray):
    """Write the reduced costs of c at the basis into T's last row.  The
    constraint rows of T are the tableau of a feasible basis, so any c
    may follow any other."""
    n = len(c)
    T[-1, :n] = c
    T[-1, n] = 0.0
    T[-1] -= c[basis] @ T[:-1]


def _phase2(T: np.ndarray, basis: np.ndarray, c: np.ndarray,
            p: LPStandardForm, value: np.ndarray) -> tuple:
    """Phase 2 of p with costs c on all of T, from its basis, as
    `solve_each` walks it; returns (status, pivots)."""
    _price(T, basis, c)
    return _simplex(T, basis, p.lower, p.upper, value, 2, p.A.shape)


def _live_phase2(T: np.ndarray, basis: np.ndarray, c: np.ndarray,
                 p: LPStandardForm, value: np.ndarray) -> tuple:
    """Phase 2 of p with costs c from T's basis, `solve`'s: the reduced
    costs are written over all of T, and then the loop runs only on the
    rows that can leave the basis, those whose basic column is not free.
    A free variable never leaves once basic, and no ratio test stops at
    it, so each step is the one that all of T would take, and a free
    column that enters stays in its row; the rows left out would only
    follow the pivots, and `solve` solves x_B from the data.  The live
    rows move up over the others in T's own array, so no second tableau
    is made.  Mutates T, basis and value; returns (status, pivots)."""
    _price(T, basis, c)
    live = ~p.free[basis]
    if live.all():
        return _simplex(T, basis, p.lower, p.upper, value, 2, p.A.shape)
    rows = live.nonzero()[0]
    k = rows.size
    for i in (rows != np.arange(k)).nonzero()[0]:
        T[i] = T[rows[i]]
    T[k] = T[-1]
    live_basis = basis[rows]
    result = _simplex(T[:k + 1], live_basis, p.lower, p.upper, value, 2,
                      p.A.shape)
    basis[rows] = live_basis
    return result


def solve(p: LPStandardForm) -> LPSolution:
    """Dense two-phase simplex: phase 2 from `_start`, in phase 1's array
    if p is standalone, else on a copy of its shared phase 1, on the rows
    that can leave the basis (`_live_phase2`).  At the optimal basis B,
    x_B and the multipliers are solved from the data, not read off the
    tableau, whose pivots carry rounding: B x_B = b - N x_N and
    B^T y = c_B.  A singular B, or an x_B that leaves its bounds by
    more than `_FEAS_TOL` (1 + |bound|), raises `LPBasisError`: the
    tableau's rounding misled phase 2.  Deterministic for identical input,
    and the same whether phase 1 is run here or shared with an LP of the
    same A and b."""
    T, basis, keep_rows, _, value = _start(p)
    if T is None:
        return LPSolution(INFEASIBLE)
    status, pivots = _live_phase2(T, basis, p.c, p, value)
    if status != OPTIMAL:
        return LPSolution(status)
    del T  # freed before B is gathered and factored

    x = value.copy()
    x[basis] = 0.0
    # with every row kept, slices without index arrays gather B and b
    every = len(keep_rows) == len(p.b)
    rhs = p.b if every else p.b[keep_rows]
    if x.any():
        Ax = p.A @ x
        rhs = rhs - (Ax if every else Ax[keep_rows])
    B = p.A[:, basis] if every else p.A[np.ix_(keep_rows, basis)]
    try:
        x_B = np.linalg.solve(B, rhs)
        y_B = np.linalg.solve(B.T, p.c[basis])
    except np.linalg.LinAlgError:
        raise LPBasisError(p.A.shape, pivots, np.inf) from None
    x[basis] = x_B
    # equality multipliers w.r.t. the original rows (dropped redundant
    # rows get zero)
    if every:
        y = y_B
    else:
        y = np.zeros(len(p.b))
        y[keep_rows] = y_B
    lower, upper = p.lower[basis], p.upper[basis]
    inside = (x_B >= lower - _FEAS_TOL * (1.0 + np.abs(lower))) & \
        (x_B <= upper + _FEAS_TOL * (1.0 + np.abs(upper)))
    if not inside.all():
        violation = np.maximum(lower - x_B, x_B - upper)[~inside].max()
        raise LPBasisError(p.A.shape, pivots, float(violation))
    return LPSolution(OPTIMAL, x=x, y=y, objective=float(p.c @ x))


def _normal_row(p: LPStandardForm):
    """1 / A[r] over the nonnegative columns of p, an LP of free and
    nonnegative columns, if a row r normalizes it: b = e_r, and A[r] is
    positive on every nonnegative column and zero on every free one; None
    if no row does."""
    (rows,) = np.nonzero(p.b)
    if rows.size != 1 or p.b[rows[0]] != 1.0:
        return None
    a = p.A[rows[0]]
    if not ((a[~p.free] > 0.0).all() and not a[p.free].any()):
        return None
    return 1.0 / a[~p.free]


def solve_each(p: LPStandardForm, unit_costs, weights) -> tuple:
    """For each row w of weights, the status and objective that `solve`
    gives p with costs w @ unit_costs, up to rounding, or `DOMINATED` and
    a lower bound on that objective: an array of statuses and one of
    objectives, nan unless optimal or dominated.  Every column of p must
    be free or nonnegative (`LPError` otherwise).  One walk over the rows
    in order, after p's phase 1 (shared through its memo).  The first row
    not yet settled runs phase 2 from the basis where the previous phase 2
    stopped; A and b never change, so that basis stays feasible.  If it
    ends unbounded, which the rounding of a long walk can fake, phase 2
    runs again from a fresh copy of phase 1: the row is `UNBOUNDED` only
    if that one ends unbounded too, and the walk goes on from the basis
    where it stops.  At the optimal basis B it reaches, the
    reduced costs of the unit costs U, R = U - U_B B^-1 A, price the next
    `_LOOKAHEAD` rows not yet settled in one product, w @ R, a nonnegative
    column upwards and a free one both ways, as in `_simplex`.  Each row
    with no price below -`_PIVOT_TOL`, the test `_simplex` stops on, is
    optimal at B too, and settles with the value w . (U_B x_B) at B's
    vertex.  Rows that share optimal bases, such as the sign patterns of a
    traction, so need far fewer phase 2s than there are rows.  The
    rounding of the pivots before B carries into the values, so values
    that must be exact, or a solution, come from `solve`.  p's own costs
    are not used.

    If a row r normalizes p (`_normal_row`), as the strain budget does
    the kinematic LP, the walk also prunes.  At a basis B where every
    free column is basic, B's multipliers y less delta e_r, with
    delta(w) = max(0, max_j -d_j(w) / A[r, j]) over the nonnegative
    columns j and d(w) = w @ R, are then feasible for the dual, so by weak
    duality row w's optimum is at least w . (U_B x_B) - delta(w).  A row
    of the window that B does not settle, whose bound lies above the best
    objective settled so far by more than `_NEAR_TIE` (1 + |best|), can be
    neither the optimum of all rows nor a near tie of it: it settles as
    `DOMINATED`, with its bound as its objective, and runs no phase 2."""
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
    if np.isfinite(p.upper).any() or (p.lower[~p.free] != 0.0).any():
        raise LPError("solve_each needs every column free or nonnegative")
    inverse, bounded = _normal_row(p), np.flatnonzero(~p.free)
    W = W.astype(float)  # cast once, not in each product: the same values
    status = np.empty(len(W), dtype=object)
    status[:] = INFEASIBLE  # one str object; np.full would copy it per row
    objective = np.full(len(W), np.nan)
    p._memo.shared = True  # the LPs made from p share the walk's phase 1
    T, basis, _, _, value = _start(p)
    if T is None:
        return status, objective
    todo = np.arange(len(W))  # todo[head:] are the rows not settled, in order
    head, free, best = 0, np.flatnonzero(p.free), np.inf
    while head < len(todo):
        row = todo[head]
        costs = W[row] @ U
        if _phase2(T, basis, costs, p, value)[0] == UNBOUNDED:
            # the rounding of the walk's pivots can end a phase 2 on a
            # false ray, so a fresh copy of phase 1 must agree; the walk
            # goes on from the basis where that phase 2 stops
            T, basis, _, _, value = _start(p)
            if _phase2(T, basis, costs, p, value)[0] == UNBOUNDED:
                status[row] = UNBOUNDED
                head += 1
                continue
        U_B = U[:, basis]
        R = U - U_B @ T[:-1, :n]
        # -|d_j| >= -tol on a free column is d_j >= -tol and -d_j >= -tol
        R = np.concatenate((R, -R[:, free]), axis=1)
        ahead = todo[head + 1:head + 1 + _LOOKAHEAD]
        optimal = (W[ahead] @ R >= -_PIVOT_TOL).all(axis=1)
        done = np.concatenate(((row,), ahead[optimal]))
        vertex = U_B @ T[:-1, -1]  # each unit cost's objective at B
        status[done] = OPTIMAL
        objective[done] = W[done] @ vertex
        rest = ahead[~optimal]
        if inverse is not None:
            best = min(best, objective[done].min())
            if rest.size and np.count_nonzero(p.free[basis]) == free.size:
                # -delta: the least d_j / A[r, j] on the nonnegative
                # columns, or 0 if none is negative; one product over the
                # rows left costs less than selecting them from W[ahead] @ R
                W_rest = W[rest]
                ratios = (W_rest @ (R[:, bounded] * inverse)).min(axis=1)
                bound = W_rest @ vertex + np.minimum(ratios, 0.0)
                pruned = bound > best + _NEAR_TIE * (1.0 + abs(best))
                if pruned.any():
                    status[rest[pruned]] = DOMINATED
                    objective[rest[pruned]] = bound[pruned]
                    rest = rest[~pruned]
        # the rows left in the window move up to just before the rest
        head += 1 + len(ahead) - len(rest)
        todo[head:head + len(rest)] = rest
    return status, objective


_BRUTE_CAP = 14


def _independent_rows(A: np.ndarray, b: np.ndarray):
    """Gaussian elimination on [A|b]: returns (row indices, infeasible).
    It runs on Python floats, whose divisions, products and differences
    are the IEEE ones that numpy's would be, in the same order."""
    M = np.hstack([A, b.reshape(-1, 1)]).astype(float)
    m, n1 = M.shape
    scale = max(1.0, np.abs(M).max(initial=0.0))
    M = M.tolist()
    rows = []
    used = [False] * m
    for col in range(n1 - 1):
        cand = [r for r in range(m) if not used[r]]
        if not cand:
            break
        r = max(cand, key=lambda rr: abs(M[rr][col]))
        top = M[r]
        if abs(top[col]) <= 1e-9 * scale:
            continue
        used[r] = True
        rows.append(r)
        for rr in range(m):
            row = M[rr]
            if rr != r and abs(row[col]) > 0:
                factor = row[col] / top[col]
                M[rr] = [v - factor * t for v, t in zip(row, top)]
    infeasible = any(not used[r] and abs(M[r][-1]) > 1e-7 * scale
                     for r in range(m))
    return sorted(rows), infeasible


@functools.cache
def _bases(n: int, r: int) -> np.ndarray:
    """The combinations of r of n column indices, one per row, in
    `combinations` order; read-only, as it is shared."""
    cols = np.array(list(combinations(range(n), r)))
    cols.flags.writeable = False
    return cols


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
    cols = _bases(n, r)
    B = Ar[:, cols].transpose(1, 0, 2)  # B[k] = Ar[:, cols[k]]
    regular = np.abs(np.linalg.det(B)) >= 1e-9
    cols, B = cols[regular], B[regular]
    xb = np.linalg.solve(B, np.broadcast_to(br[:, None], (len(B), r, 1)))[..., 0]
    X = np.zeros((len(cols), n))
    X[np.arange(len(cols))[:, None], cols] = xb
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
    or bounded column is an `LPError`."""
    m, n = p.A.shape
    if not (p.lower == 0.0).all() or np.isfinite(p.upper).any():
        raise LPError("brute-force oracle takes no free or bounded columns")
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
    of the standard form, with the bounds it was declared with.  Rows come
    in dense blocks over all the variables declared by the time `build`
    runs, and keep the order they were added in, which is their order in
    the standard form and in `LPSolution.y`.  Each inequality row gets a
    nonnegative slack column after the variable columns.
    """

    def __init__(self):
        self._bounds = []     # (lower, upper, count) per add_vars call
        self._rows = []       # (block, rhs) per add_eq or add_le call
        self._is_le = []      # per row
        self.n_vars = 0

    def add_vars(self, count: int, lower=0.0, upper=np.inf):
        """Declare `count` variables; each bound is one number or one per
        variable, -inf or inf for a side without one."""
        self._bounds.append((lower, upper, count))
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
        lower = np.zeros(A.shape[1])
        upper = np.full(A.shape[1], np.inf)
        start = 0
        for lo, hi, count in self._bounds:
            lower[start:start + count] = lo
            upper[start:start + count] = hi
            start += count
        b = 0.0 + np.concatenate([rhs for _, rhs in self._rows])
        return LPStandardForm(c=c, A=A, b=b, lower=lower, upper=upper)
