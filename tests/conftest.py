import math
from itertools import combinations

import numpy as np
import pytest

from loadcap import capacity as cap
from loadcap import kinematics as kin
from loadcap import lp
from loadcap import mesh as msh
from loadcap import stress as st

ACCEPTANCE_VERDICTS = []


def record_verdict(line: str):
    """Collect a criterion pass/fail line for the end-of-run summary."""
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def trace_norm_l1(ops: kin.DiscreteOperators, w) -> float:
    """Oracle: area-weighted boundary L1 norm of the trace over gammaT."""
    return float(ops.areas @ np.abs(kin.trace(ops, w)).sum(axis=1))


def dump(p) -> str:
    """Plain-text dump of an `lp.LPStandardForm`, for assertion messages."""
    return "\n".join([
        f"LP standard form: {p.A.shape[0]} rows, {p.A.shape[1]} cols",
        "c = " + np.array2string(p.c, max_line_width=120),
        "b = " + np.array2string(p.b, max_line_width=120),
        f"free columns: {np.flatnonzero(p.free).tolist()}",
        "lower = " + np.array2string(p.lower, max_line_width=120),
        "upper = " + np.array2string(p.upper, max_line_width=120),
        "A =",
        np.array2string(p.A, max_line_width=120)])


def split_bounds(p):
    """Oracle: the `lp.LPStandardForm` p with every bound but x >= 0 moved
    into the rows of a nonnegative LP.  A column with a finite lower bound
    l becomes x' = x - l, one with only an upper bound u becomes
    x' = u - x, a free one a pair x = x+ - x-, and a column with both
    bounds gets a row x' + s = u - l with a slack s.  Returns the LP and
    the constant that the substitution moves out of the objective, so that
    p's optimum is the LP's plus the constant."""
    m, n = p.A.shape
    cols, costs, extra = [], [], []
    b, constant = p.b.copy(), 0.0
    for j in range(n):
        lo, hi, a, c = p.lower[j], p.upper[j], p.A[:, j], p.c[j]
        if np.isfinite(lo):
            b -= a * lo
            constant += c * lo
            cols.append(a)
            costs.append(c)
            if np.isfinite(hi):
                extra.append((len(cols) - 1, hi - lo))
        elif np.isfinite(hi):
            b -= a * hi
            constant += c * hi
            cols.append(-a)
            costs.append(-c)
        else:
            cols += [a, -a]
            costs += [c, -c]
    k = len(cols)
    A = np.zeros((m + len(extra), k + len(extra)))
    A[:m, :k] = np.transpose(cols)
    rhs = np.concatenate([b, [width for _, width in extra]])
    for i, (col, _) in enumerate(extra):
        A[m + i, col] = A[m + i, k + i] = 1.0
    return (lp.LPStandardForm(c=np.concatenate([costs, np.zeros(len(extra))]),
                              A=A, b=rhs), constant)


def split_free(p):
    """Oracle: the `lp.LPStandardForm` p with each free column x_j split
    into a nonnegative pair, x_j = x_j+ - x_j-.  x_j+ keeps column j and
    the x_j- columns follow all of p's columns, in order."""
    return lp.LPStandardForm(c=np.concatenate([p.c, -p.c[p.free]]),
                             A=np.hstack([p.A, -p.A[:, p.free]]), b=p.b)


def cold_generalized_K(ops: kin.DiscreteOperators, mode: str) -> cap.CapacityResult:
    """Oracle: exact K from one solve per vertex of the unit traction ball,
    by code counting up, each phase 2 from the shared phase 1; the first
    vertex that beats all before it by more than 1e-12 is the worst
    traction, certified from its own solution."""
    kinematic = st.kinematic_lp(ops, mode)
    best_val, worst, best_w, best_s = -1.0, None, None, None
    for t in cap._vertex_tractions(ops):
        val, w, s = st.kinematic_supremum(kinematic, kin.work_vector(ops, t))
        if val > best_val + 1e-12:
            best_val, worst, best_w, best_s = val, t, w, s
    K = max(best_val, 0.0)
    stress = st.certify(ops, worst, mode, K,
                        st.stress_field(ops, mode, best_s), best_w).sigma_hat
    return cap.CapacityResult(K=K, C=float("inf") if K == 0.0 else 1.0 / K,
                              worst_traction=worst, method=cap.EXACT,
                              certificate=best_w,
                              K_traction_side=st.stress_measure(stress, mode, ops))


def as_matrix(comps, dim: int) -> np.ndarray:
    """The symmetric dim x dim matrix with unique components comps, in the
    order of `kinematics.COMP_POSITIONS`."""
    m = np.zeros((dim, dim))
    for c, (i, j) in zip(comps, kin.COMP_POSITIONS[dim]):
        m[i, j] = m[j, i] = c
    return m


def embed3(m) -> np.ndarray:
    """m in the upper left corner of a zero 3x3 matrix."""
    full = np.zeros((3, 3))
    full[:len(m), :len(m)] = m
    return full


def mat_norm(m, ord) -> float:
    """Oracle: entrywise norm over all entries of a matrix, the sum of
    their magnitudes (ord=1) or the largest (ord=np.inf)."""
    return float(np.linalg.norm(np.ravel(m), ord))


def deviatoric(m) -> np.ndarray:
    """Oracle: traceless part of the 3x3 embedding of m."""
    full = embed3(m)
    return full - np.trace(full) / 3.0 * np.eye(3)


def yield_value(m, ord) -> float:
    """Oracle: yield seminorm, the norm of the deviatoric part; it vanishes
    on spherical matrices."""
    return mat_norm(deviatoric(m), ord)


def deviatoric_dual_value(e) -> float:
    """Oracle: min over spherical shifts p of the entrywise 1-norm of
    embed3(e) + p I, the norm dual to the yield seminorm on traceless
    matrices.  The median of the negated diagonal is a minimizing p."""
    full = embed3(e)
    return mat_norm(full - np.median(np.diag(full)) * np.eye(3), 1)


def dual_pairing(s, e) -> float:
    """Oracle: full-matrix contraction sum_ij s_ij e_ij."""
    s, e = np.asarray(s, dtype=float), np.asarray(e, dtype=float)
    if s.shape != e.shape:
        raise ValueError(f"shape mismatch: {s.shape} vs {e.shape}")
    return float(np.sum(s * e))


def make_two_tet_mesh() -> msh.Mesh:
    """Two tetrahedra sharing a face; the three faces around node 0 are
    supported, the three around node 4 are loaded."""
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
                     dtype=float)
    elements = [msh.Element(msh.TETRAHEDRON, (0, 1, 2, 3)),
                msh.Element(msh.TETRAHEDRON, (1, 2, 3, 4))]
    facets = [msh.Facet((0, 1, 2), msh.GAMMA0),
              msh.Facet((0, 1, 3), msh.GAMMA0),
              msh.Facet((0, 2, 3), msh.GAMMA0),
              msh.Facet((1, 2, 4), msh.GAMMAT),
              msh.Facet((1, 3, 4), msh.GAMMAT),
              msh.Facet((2, 3, 4), msh.GAMMAT)]
    return msh.Mesh(3, nodes, elements, facets)


MESH_CASES = [
    ("rect11", lambda: msh.generate_rectangle(1, 1, 1, 1, "left", "right")),
    ("rect22", lambda: msh.generate_rectangle(2, 1, 2, 2, "left", "right")),
    ("two_tet", make_two_tet_mesh),
]


def kuhn_box(nx: int, ny: int, nz: int) -> msh.Mesh:
    """Unit cubes cut into six tetrahedra each (Kuhn triangulation), the
    face x = 0 clamped and every other boundary face loaded."""
    def nid(i, j, k):
        return (k * (ny + 1) + j) * (nx + 1) + i

    nodes = np.array([[i, j, k] for k in range(nz + 1) for j in range(ny + 1)
                      for i in range(nx + 1)], dtype=float)
    elements = []
    for corner in np.ndindex(nx, ny, nz):
        for order in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            path = [list(corner)]
            for axis in order:
                path.append(path[-1].copy())
                path[-1][axis] += 1
            elements.append(msh.Element(msh.TETRAHEDRON, tuple(nid(*q) for q in path)))
    faces = {}
    for e in elements:
        for face in combinations(sorted(e.nodes), 3):
            faces[face] = faces.get(face, 0) + 1
    facets = [msh.Facet(f, msh.GAMMA0 if np.all(nodes[list(f), 0] == 0.0) else msh.GAMMAT)
              for f, count in sorted(faces.items()) if count == 1]
    return msh.Mesh(3, nodes, elements, facets)


def element_measure_oracle(mesh: msh.Mesh, elem: msh.Element) -> float:
    """Oracle: length / area / volume of one element (sign stripped), from
    its own nodes."""
    pts = mesh.nodes[list(elem.nodes)]
    if elem.kind == msh.BAR:
        return float(np.linalg.norm(pts[1] - pts[0]))
    det = np.linalg.det(pts[1:] - pts[0])
    return abs(det) / (2.0 if elem.kind == msh.TRIANGLE else 6.0)


def facet_measure_oracle(mesh: msh.Mesh, facet: msh.Facet) -> float:
    """Oracle: measure of one boundary facet; in 1D the cross-section area
    of the first bar that has the facet's node."""
    pts = mesh.nodes[list(facet.nodes)]
    if len(facet.nodes) == 1:
        return float(next(e.area for e in mesh.elements
                          if e.kind == msh.BAR and facet.nodes[0] in e.nodes))
    if len(facet.nodes) == 2:
        return float(np.linalg.norm(pts[1] - pts[0]))
    return float(np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0])) / 2.0)


def element_problems_oracle(mesh: msh.Mesh) -> list:
    """Oracle: `mesh.validate`'s element problems (node out of range, kind
    against dim, zero measure), one element at a time."""
    problems = []
    n = mesh.n_nodes
    coords = mesh.nodes.tolist()
    for i, e in enumerate(mesh.elements):
        if any(k < 0 or k >= n for k in e.nodes):
            problems.append(f"element {i} references node out of range")
            continue
        if len(e.nodes) != mesh.dim + 1:
            problems.append(f"element {i} kind {e.kind} does not match dim {mesh.dim}")
            continue
        longest = max(math.dist(coords[a], coords[b])
                      for a, b in combinations(e.nodes, 2))
        size = (element_measure_oracle(mesh, e)
                * math.factorial(mesh.dim)) ** (1 / mesh.dim)
        if size <= 1e-14 ** (1 / mesh.dim) * longest:
            problems.append(f"element {i} has zero measure")
    return problems


def end_tension_plate(n: int):
    """The unit square in n x n cells, clamped on the left, under a unit
    x-traction on the right edge; returns (mesh, traction)."""
    mesh = msh.generate_rectangle(1, 1, n, n, "left", "right")
    loaded = [f for f in mesh.facets if f.label == msh.GAMMAT]
    traction = [[1.0, 0.0] if all(mesh.nodes[q][0] == 1.0 for q in f.nodes)
                else [0.0, 0.0] for f in loaded]
    return mesh, np.array(traction)


@pytest.fixture
def two_tet_mesh():
    return make_two_tet_mesh()


@pytest.fixture
def unit_bar():
    return msh.generate_bar(1.0, 1.0, 1)


@pytest.fixture
def unit_square():
    return msh.generate_rectangle(1.0, 1.0, 1, 1, "left", "right")


def enumerate_best_loop(A, b, c):
    """Oracle: `lp._enumerate_best` as one loop over the column
    combinations, each basis solved on its own."""
    rows, infeasible = lp._independent_rows(A, b)
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


def reference_pivot(T, row, col):
    """Oracle: `lp._pivot` with each update an `np.outer` product; the
    same choice of update."""
    if T[row, col] != 1.0:
        T[row] /= T[row, col]
    pivot_row = T[row]
    factors = T[:, col].copy()
    factors[row] = 0.0
    if T.size >= lp._DENSE_BELOW:
        m, n = T.shape
        c = np.count_nonzero(pivot_row)
        by_block = lp._BLOCK_COST * np.count_nonzero(factors) * c
        by_cols = lp._COLS_COST * m * c
        if by_block <= by_cols and by_block < m * n:
            rows, cols = factors.nonzero()[0], pivot_row.nonzero()[0]
            T[np.ix_(rows, cols)] -= np.outer(factors[rows], pivot_row[cols])
            return
        if by_cols < m * n:
            cols = pivot_row.nonzero()[0]
            T[:, cols] -= np.outer(factors, pivot_row[cols])
            return
        pivot_row = pivot_row.copy()
        step = max(1, lp._BLOCK_ENTRIES // n)
        for r in range(0, m, step):
            T[r:r + step] -= np.outer(factors[r:r + step], pivot_row)
        return
    T -= np.outer(factors, pivot_row)


def reference_enter(T, row, col, value, bound):
    """Oracle: `lp._enter` over `reference_pivot`."""
    if value[col] != 0.0:
        T[:-1, -1] += value[col] * T[:-1, col]
    if bound != 0.0:
        T[row, -1] -= bound
    reference_pivot(T, row, col)


def reference_simplex(T, basis, lower, upper, value, plain, phase, shape):
    """Oracle: `lp._simplex` with its prices, ratio test and tie rule
    recomputed in full at every iteration (np.where masks, np.argmin,
    np.flatnonzero), over `reference_enter`; the same arguments,
    mutations and result, pivot for pivot."""
    n = len(lower)
    lb = lower[basis]
    if plain:
        down = lower == -np.inf
    else:
        up, down = value < upper, value > lower
        ub = upper[basis]
    stalled = 0
    for pivots in range(lp._MAX_ITER):
        costs = T[-1, :n]
        if plain:
            prices = np.where(down, -np.abs(costs), costs)
        else:
            prices = np.minimum(np.where(up, costs, np.inf),
                                np.where(down, -costs, np.inf))
        if stalled < lp._STALL:
            j = int(np.argmin(prices))
            if prices[j] >= -lp._PIVOT_TOL:
                return lp.OPTIMAL, pivots
        else:
            candidates = np.flatnonzero(prices < -lp._PIVOT_TOL)
            if candidates.size == 0:
                return lp.OPTIMAL, pivots
            j = int(candidates[0])
        rising = costs[j] < 0.0
        col = T[:-1, j] if rising else -T[:-1, j]
        if plain:
            rows = np.flatnonzero((col > lp._PIVOT_TOL) & (lb > -np.inf))
            if rows.size == 0:
                return lp.UNBOUNDED, pivots
            ratios = T[rows, -1] / col[rows]
            best = ratios.min()
            ties = rows[ratios <= best + 1e-12]
        else:
            x, size = T[:-1, -1], np.abs(col)
            ratios = np.divide(np.where(col > 0.0, x - lb, ub - x), size,
                               out=np.full(len(size), np.inf),
                               where=size > lp._PIVOT_TOL)
            best = ratios.min(initial=np.inf)
            span = upper[j] - value[j] if rising else value[j] - lower[j]
            if span <= best:
                if span == np.inf:
                    return lp.UNBOUNDED, pivots
                moved = upper[j] if rising else lower[j]
                T[:-1, -1] -= (moved - value[j]) * T[:-1, j]
                value[j] = moved
                up[j], down[j] = moved < upper[j], moved > lower[j]
                stalled = 0
                continue
            ties = np.flatnonzero(ratios <= best + 1e-12)
        leave = int(ties[np.argmin(basis[ties])])
        stalled = stalled + 1 if best <= 1e-12 else 0
        if plain:
            reference_pivot(T, leave, j)
        else:
            out = basis[leave]
            bound = lb[leave] if col[leave] > 0.0 else ub[leave]
            reference_enter(T, leave, j, value, bound)
            value[out] = bound
            up[out], down[out] = bound < upper[out], bound > lower[out]
            ub[leave] = upper[j]
        basis[leave] = j
        lb[leave] = lower[j]
    raise lp.LPIterationError(phase, shape, lp._MAX_ITER)
