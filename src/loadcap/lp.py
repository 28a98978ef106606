"""Dense two-phase simplex with Bland's rule, plus an enumeration oracle.

Standard form throughout: minimize c.x subject to A.x = b, x >= 0.
Free variables and inequalities are handled by LPBuilder, which keeps the
kernel itself in pure standard form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8


class LPError(ValueError):
    """Malformed problem data."""


class LPIterationError(RuntimeError):
    """Iteration limit exceeded; never reported as a wrong answer."""


@dataclass(frozen=True)
class LPStandardForm:
    c: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

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

    def dump(self) -> str:
        """Plain-text dump for bug reports."""
        lines = [f"LP standard form: {self.A.shape[0]} rows, {self.A.shape[1]} cols",
                 "c = " + np.array2string(self.c, max_line_width=120),
                 "b = " + np.array2string(self.b, max_line_width=120),
                 "A ="]
        lines.append(np.array2string(self.A, max_line_width=120))
        return "\n".join(lines)


@dataclass(frozen=True)
class LPSolution:
    status: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None  # equality-row multipliers
    objective: float | None = None


def _pivot(T: np.ndarray, row: int, col: int):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _bland_simplex(T: np.ndarray, basis: list, n_struct: int,
                   max_iter: int) -> str:
    """Run Bland's-rule simplex on a tableau whose last row holds reduced
    costs and last column the right-hand side.  Mutates T and basis."""
    for _ in range(max_iter):
        costs = T[-1, :n_struct]
        candidates = np.nonzero(costs < -_PIVOT_TOL)[0]
        if candidates.size == 0:
            return OPTIMAL
        j = int(candidates[0])  # Bland: smallest eligible index
        col = T[:-1, j]
        rows = np.nonzero(col > _PIVOT_TOL)[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = T[rows, -1] / col[rows]
        best = np.min(ratios)
        ties = rows[ratios <= best + 1e-12]
        # Bland tie-break: leaving variable with the smallest index
        leave = int(min(ties, key=lambda r: basis[r]))
        _pivot(T, leave, j)
        basis[leave] = j
    raise LPIterationError(f"simplex did not terminate in {max_iter} iterations")


def solve(p: LPStandardForm, max_iter: int = 50000) -> LPSolution:
    """Two-phase dense simplex.  Deterministic for identical input."""
    m, n = p.A.shape
    A = p.A.copy()
    b = p.b.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: minimize the sum of artificials
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, n:n + m] = 1.0
    T[-1] -= T[:m].sum(axis=0)
    basis = list(range(n, n + m))
    status = _bland_simplex(T, basis, n + m, max_iter)
    if status != OPTIMAL or T[-1, -1] < -_FEAS_TOL * (1.0 + np.abs(b).max(initial=0.0)):
        return LPSolution(INFEASIBLE)

    # drive remaining artificials out of the basis, dropping redundant rows
    keep_rows = list(range(m))
    drop = []
    for r in range(m):
        if basis[r] < n:
            continue
        row = T[r, :n]
        piv = np.nonzero(np.abs(row) > _PIVOT_TOL)[0]
        if piv.size:
            _pivot(T, r, int(piv[0]))
            basis[r] = int(piv[0])
        else:
            drop.append(r)
    if drop:
        rows = [r for r in range(m) if r not in drop]
        T = T[rows + [m]]
        basis = [basis[r] for r in rows]
        keep_rows = rows
    mm = len(basis)

    # phase 2 tableau: original costs, artificial columns removed
    T2 = np.zeros((mm + 1, n + 1))
    T2[:mm, :n] = T[:mm, :n]
    T2[:mm, -1] = T[:mm, -1]
    T2[-1, :n] = p.c
    for r, j in enumerate(basis):
        T2[-1] -= p.c[j] * T2[r]
    status = _bland_simplex(T2, basis, n, max_iter)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED)

    x = np.zeros(n)
    for r, j in enumerate(basis):
        x[j] = T2[r, -1]
    obj = float(p.c @ x)

    # equality multipliers from the final basis w.r.t. the original rows
    # (dropped redundant rows get zero)
    y = np.zeros(m)
    Bt = p.A[keep_rows][:, basis].T.copy()
    try:
        y_keep = np.linalg.solve(Bt, p.c[basis])
    except np.linalg.LinAlgError:
        y_keep, *_ = np.linalg.lstsq(Bt, p.c[basis], rcond=None)
    for r, yr in zip(keep_rows, y_keep):
        y[r] = yr
    return LPSolution(OPTIMAL, x=x, y=y, objective=obj)


_BRUTE_CAP = 14


def _independent_rows(A: np.ndarray, b: np.ndarray, tol: float = 1e-9):
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
        if abs(M[r, col]) <= tol * scale:
            continue
        used[r] = True
        rows.append(r)
        for rr in range(m):
            if rr != r and abs(M[rr, col]) > 0:
                M[rr] -= (M[rr, col] / M[r, col]) * M[r]
    infeasible = any(not used[r] and abs(M[r, -1]) > 1e-7 * scale
                     for r in range(m))
    return sorted(rows), infeasible


def _enumerate_best(A, b, c, tol=1e-9):
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
        if abs(np.linalg.det(B)) < tol:
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
        """Return (LPStandardForm, recover) for minimizing objective . x, where
        recover maps a standard-form solution vector back to the variables."""
        free = ~np.concatenate(self._nonneg)
        width = 1 + free
        col = np.cumsum(width) - width
        minus = col[free] + 1
        n_cols = self.n_vars + len(minus)
        slack = np.flatnonzero(self._is_le)
        # the rows, then the costs, one block at a time; x = x+ - x-, and
        # 0.0 + and 0.0 - never give -0.0
        std = np.zeros((len(self._is_le) + 1, n_cols + len(slack)))
        start = 0
        for blk in [blk for blk, _ in self._rows] + [np.atleast_2d(objective)]:
            part = std[start:start + len(blk)]
            part[:, col] = 0.0 + blk
            part[:, minus] = 0.0 - blk[:, free]
            start += len(blk)
        std[slack, n_cols + np.arange(len(slack))] = 1.0

        def recover(x_std: np.ndarray) -> np.ndarray:
            x = x_std[col]
            x[free] -= x_std[minus]
            return x

        b = np.concatenate([rhs for _, rhs in self._rows])
        return LPStandardForm(c=std[-1], A=std[:-1], b=b), recover
