import dataclasses

import numpy as np
import pytest

from loadcap import kinematics as kin
from loadcap import lp
from loadcap import stress as st

from conftest import MESH_CASES, dump


def standard(c, A, b):
    return lp.LPStandardForm(c=np.array(c, float), A=np.array(A, float),
                             b=np.array(b, float))


def check_optimal_invariants(p, sol):
    assert sol.status == lp.OPTIMAL
    x, y = sol.x, sol.y
    bmax = np.abs(p.b).max(initial=0.0)
    assert np.abs(p.A @ x - p.b).max(initial=0.0) <= 1e-8 * (1.0 + bmax)
    assert np.all(x >= -1e-10)
    reduced = p.c - p.A.T @ y
    slackness = np.abs(x * reduced).max(initial=0.0)
    assert slackness <= 1e-8 * (1.0 + abs(sol.objective))
    gap = abs(p.c @ x - p.b @ y)
    assert gap <= 1e-8 * (1.0 + abs(p.c @ x))


class TestSolveBasics:
    def test_single_equality(self):
        p = standard([1.0], [[1.0]], [1.0])
        sol = lp.solve(p)
        check_optimal_invariants(p, sol)
        assert sol.x[0] == pytest.approx(1.0)
        assert sol.objective == pytest.approx(1.0)

    def test_unbounded(self):
        # min -x with x - s = 0: both can grow without bound
        p = standard([-1.0, 0.0], [[1.0, -1.0]], [0.0])
        assert lp.solve(p).status == lp.UNBOUNDED

    def test_infeasible(self):
        p = standard([1.0], [[1.0], [1.0]], [1.0, 2.0])
        assert lp.solve(p).status == lp.INFEASIBLE

    def test_negative_rhs_handled(self):
        p = standard([1.0, 1.0], [[-1.0, 0.0]], [-2.0])
        sol = lp.solve(p)
        check_optimal_invariants(p, sol)
        assert sol.x[0] == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(lp.LPError):
            standard([1.0, 2.0], [[1.0]], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(lp.LPError):
            standard([np.nan], [[1.0]], [1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 8))
        p = standard(rng.normal(size=8), A, A @ rng.uniform(0, 1, 8))
        s1, s2 = lp.solve(p), lp.solve(p)
        assert np.array_equal(s1.x, s2.x)
        assert s1.objective == s2.objective


class TestAntiCycling:
    """Textbook LPs on which Dantzig pricing with the smallest-subscript
    leaving rule cycles; the Bland fallback must still reach the optimum."""

    def _cycling_lp(self, c, A, monkeypatch):
        p = standard(c, A, [0.0, 0.0, 1.0])
        with monkeypatch.context() as m:
            m.setattr(lp, "_STALL", 1000)  # never falls back to Bland
            m.setattr(lp, "_MAX_ITER", 1000)
            with pytest.raises(lp.LPIterationError, match="phase 2"):
                lp.solve(p)
        return p

    def test_beale_original(self, monkeypatch):
        # Beale (1955), slacks first
        c = [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0]
        A = [[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
             [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
             [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]]
        p = self._cycling_lp(c, A, monkeypatch)
        sol = lp.solve(p)
        check_optimal_invariants(p, sol)
        want = lp.solve_brute(p)
        assert want.objective == pytest.approx(-1.25, abs=1e-12)
        assert sol.objective == pytest.approx(want.objective, abs=1e-12)

    def test_beale_cycling_example(self, monkeypatch):
        # a rescaled Beale example, slacks last
        c = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
        A = [[0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
             [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
             [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]]
        p = self._cycling_lp(c, A, monkeypatch)
        sol = lp.solve(p)
        check_optimal_invariants(p, sol)
        want = lp.solve_brute(p)
        assert want.status == lp.OPTIMAL
        assert sol.objective == pytest.approx(want.objective, abs=1e-9)

    def test_degenerate_redundant_row(self):
        # duplicated constraint row: phase 1 must drop it and still solve
        p = standard([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
        sol = lp.solve(p)
        check_optimal_invariants(p, sol)
        assert sol.objective == pytest.approx(1.0)
        want = lp.solve_brute(p)
        assert want.objective == pytest.approx(1.0)


class TestBruteOracle:
    def test_matches_solve_on_basics(self):
        cases = [
            standard([1.0], [[1.0]], [1.0]),
            standard([-1.0, 0.0], [[1.0, -1.0]], [0.0]),
            standard([1.0], [[1.0], [1.0]], [1.0, 2.0]),
        ]
        for p in cases:
            got, want = lp.solve(p), lp.solve_brute(p)
            assert got.status == want.status
            if got.status == lp.OPTIMAL:
                assert got.objective == pytest.approx(want.objective, abs=1e-7)

    def test_size_cap(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(2, 20))
        p = standard(rng.normal(size=20), A, A @ rng.uniform(0, 1, 20))
        with pytest.raises(lp.LPError, match="brute"):
            lp.solve_brute(p)

    def test_random_agreement_200(self):
        rng = np.random.default_rng(42)
        n_optimal = n_infeasible = n_unbounded = 0
        for trial in range(200):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m + 1, 9))
            A = rng.normal(size=(m, n))
            kind = trial % 4
            if kind in (0, 1):
                b = A @ rng.uniform(0.0, 1.0, size=n)  # feasible by design
            elif kind == 2:
                b = rng.normal(size=m)  # may be infeasible
            else:
                A = np.abs(A) * np.sign(rng.normal(size=(m, n)))
                b = A @ rng.uniform(0.0, 1.0, size=n)
            c = rng.normal(size=n)
            p = standard(c, A, b)
            got, want = lp.solve(p), lp.solve_brute(p)
            assert got.status == want.status, f"trial {trial}: {dump(p)}"
            if got.status == lp.OPTIMAL:
                n_optimal += 1
                assert got.objective == pytest.approx(want.objective, abs=1e-7), \
                    f"trial {trial}"
                check_optimal_invariants(p, got)
            elif got.status == lp.INFEASIBLE:
                n_infeasible += 1
            else:
                n_unbounded += 1
        # the sampled population must exercise all three statuses
        assert n_optimal > 50
        assert n_infeasible > 0
        assert n_unbounded > 0


class TestBuilder:
    def test_free_variable_split(self):
        builder = lp.LPBuilder()
        builder.add_vars(1, nonneg=False)
        builder.add_eq([[1.0]], -3.0)
        prob, cols = builder.build([1.0])
        assert np.array_equal(prob.A, [[1.0, -1.0]])
        sol = lp.solve(prob)
        assert sol.status == lp.OPTIMAL
        assert cols.recover(sol.x)[0] == pytest.approx(-3.0)

    def test_inequality_slack(self):
        builder = lp.LPBuilder()
        builder.add_vars(1)
        builder.add_le([1.0], 2.0)
        prob, cols = builder.build([-1.0])
        assert np.array_equal(prob.A, [[1.0, 1.0]])
        sol = lp.solve(prob)
        assert cols.recover(sol.x)[0] == pytest.approx(2.0)

    def test_blocks_keep_row_and_column_order(self):
        # columns: x (nonneg), y as (y+, y-), then one slack per le row;
        # rows in the order their blocks were added
        builder = lp.LPBuilder()
        builder.add_vars(2, nonneg=[True, False])
        builder.add_le([[1.0, 2.0], [0.0, 1.0]], [4.0, 1.0])
        builder.add_eq([[1.0, -1.0]], 0.5)
        prob, cols = builder.build([1.0, -1.0])
        assert np.array_equal(prob.A, [[1.0, 2.0, -2.0, 1.0, 0.0],
                                       [0.0, 1.0, -1.0, 0.0, 1.0],
                                       [1.0, -1.0, 1.0, 0.0, 0.0]])
        assert np.array_equal(prob.b, [4.0, 1.0, 0.5])
        assert np.array_equal(prob.c, [1.0, -1.0, 1.0, 0.0, 0.0])
        assert not np.any(np.signbit(prob.A) & (prob.A == 0.0))
        assert np.array_equal(cols.recover(np.array([1.0, 2.0, 0.5, 0.0, 0.0])),
                              [1.0, 1.5])

    def test_column_map_costs_match_build(self):
        builder = lp.LPBuilder()
        builder.add_vars(3, nonneg=[False, True, False])
        builder.add_le([[1.0, 2.0, 0.0]], 4.0)
        builder.add_eq([[1.0, -1.0, 1.0]], 0.5)
        objective = np.array([0.0, -1.0, 2.5])
        prob, cols = builder.build(objective)
        costless, _ = builder.build(np.zeros(3))
        costs = cols.costs(objective)
        assert np.array_equal(costs, prob.c)
        assert not np.any(np.signbit(costs) & (costs == 0.0))
        assert np.array_equal(costless.A, prob.A)
        assert np.array_equal(costless.b, prob.b)
        assert not np.any(costless.c)

    def test_dump_mentions_shape(self):
        p = standard([1.0], [[1.0]], [1.0])
        assert "1 rows, 1 cols" in dump(p)


def same_solution(got, want):
    """Equal status, x, y and objective, bit for bit."""
    return (got.status == want.status
            and all((g is None and w is None) or np.array_equal(g, w)
                    for g, w in ((got.x, want.x), (got.y, want.y)))
            and got.objective == want.objective)


class TestSharedPhase1:
    """An LP made by `with_objective` runs only phase 2 from the phase 1 of
    the LP it was made from, and gives exactly what a fresh LP gives."""

    def test_random_lps_match_fresh(self):
        rng = np.random.default_rng(43)
        statuses = set()
        for trial in range(80):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(m + 1, 9))
            A = rng.normal(size=(m, n))
            kind = trial % 4
            if kind == 0:
                b = A @ rng.uniform(0.0, 1.0, size=n)
            elif kind == 1:
                A[-1] = A[0]  # a redundant row that phase 1 drops
                b = A @ rng.uniform(0.0, 1.0, size=n)
            elif kind == 2:
                b = rng.normal(size=m)  # may be infeasible
            else:
                A = np.abs(A) * np.sign(rng.normal(size=(m, n)))
                b = A @ rng.uniform(0.0, 1.0, size=n)
            base = standard(np.zeros(n), A, b)
            for _ in range(4):
                c = rng.normal(size=n)
                got = lp.solve(base.with_objective(c))
                want = lp.solve(standard(c, A, b))
                assert same_solution(got, want), f"trial {trial}"
                statuses.add(got.status)
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}

    def test_phase1_runs_once_and_start_is_kept(self, monkeypatch):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(4, 8))
        b = A @ rng.uniform(0.0, 1.0, size=8)
        base = standard(np.zeros(8), A, b)
        phase1 = lp._phase1
        calls = []
        monkeypatch.setattr(lp, "_phase1",
                            lambda *args: calls.append(1) or phase1(*args))
        costs = [rng.normal(size=8) for _ in range(3)]
        first = [lp.solve(base.with_objective(c)) for c in costs]
        start = base._memo.phase1.tableau.copy()
        again = [lp.solve(base.with_objective(c)) for c in reversed(costs)]
        assert len(calls) == 1
        assert np.array_equal(base._memo.phase1.tableau, start)
        assert all(same_solution(g, w) for g, w in zip(first, reversed(again)))

    def test_memo_not_in_repr_or_replace(self):
        p = standard([1.0], [[1.0]], [1.0])
        lp.solve(p)
        assert repr(p) == repr(standard([1.0], [[1.0]], [1.0])) == "LPStandardForm()"
        # a new A must not inherit the phase 1 of the old one
        q = dataclasses.replace(p, A=np.array([[2.0]]))
        assert q._memo is not p._memo
        assert lp.solve(q).x[0] == pytest.approx(0.5)

    def test_with_objective_checks_costs(self):
        p = standard([1.0, 1.0], [[1.0, 1.0]], [1.0])
        with pytest.raises(lp.LPError, match="shape"):
            p.with_objective([1.0])
        with pytest.raises(lp.LPError, match="non-finite"):
            p.with_objective([np.inf, 1.0])


class TestIterationLimit:
    def _lp(self):
        # phase 1 takes 3 pivots and phase 2 another 5
        rng = np.random.default_rng(1050)
        A = rng.normal(size=(3, 7))
        b = A @ rng.uniform(0, 1, 7)
        return standard(rng.normal(size=7), A, b)

    @pytest.mark.parametrize("max_iter,phase", [(1, 1), (5, 2)])
    def test_message_names_phase_shape_and_count(self, max_iter, phase,
                                                 monkeypatch):
        monkeypatch.setattr(lp, "_MAX_ITER", max_iter)
        with pytest.raises(lp.LPIterationError) as info:
            lp.solve(self._lp())
        err = info.value
        assert (err.phase, err.shape, err.iterations) == (phase, (3, 7), max_iter)
        message = str(err)
        assert f"phase {phase}" in message
        assert "3 x 7" in message
        assert f"{max_iter} iterations" in message


class TestCrashStart:
    """Phase 1 starts each row on a column whose only nonzero entry is
    positive and in that row, and gives artificials only to the others."""

    @pytest.mark.parametrize("name,factory", MESH_CASES, ids=[c[0] for c in MESH_CASES])
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_kinematic_lp_needs_no_phase1_pivot(self, name, factory, mode):
        # the budget row starts on its slack and every other row has b = 0
        ops = kin.assemble(factory())
        kinematic = st.kinematic_lp(ops, mode)
        st.kinematic_supremum(kinematic, np.ones(ops.n_dof))
        assert kinematic.prob._memo.phase1.pivots == 0

    def test_slack_lps_match_brute(self):
        rng = np.random.default_rng(44)
        statuses = set()
        for trial in range(80):
            m = int(rng.integers(2, 5))
            k = int(rng.integers(2, 10 - m + 1))
            A = np.hstack([rng.normal(size=(m, k)), np.eye(m)])
            kind = trial % 4
            if kind == 0:
                b = np.abs(rng.normal(size=m))  # every row on its slack
            elif kind == 1:
                b = rng.normal(size=m)  # flipped rows need artificials
            elif kind == 2:
                A[-1] = A[0]  # a redundant row that phase 1 drops
                b = A @ rng.uniform(0.0, 1.0, size=k + m)
            else:
                A[:, 0] = -np.abs(A[:, 0])  # column 0 is a ray if c[0] < 0
                b = np.abs(rng.normal(size=m))
            p = standard(rng.normal(size=k + m), A, b)
            got, want = lp.solve(p), lp.solve_brute(p)
            assert got.status == want.status, f"trial {trial}: {dump(p)}"
            if kind == 0:
                assert p._memo.phase1.pivots == 0
            if got.status == lp.OPTIMAL:
                assert got.objective == pytest.approx(want.objective, abs=1e-7), \
                    f"trial {trial}"
                check_optimal_invariants(p, got)
            statuses.add(got.status)
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}

    def test_negative_unit_column_not_basic(self):
        # flipping row 1 makes column 2 a unit column with entry -1; starting
        # on it would give x2 = -1 and the wrong optimum 0
        p = standard([1.0, 0.0, 0.0], [[1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]],
                     [1.0, -1.0])
        sol = lp.solve(p)
        check_optimal_invariants(p, sol)
        assert np.array_equal(sol.x, [1.0, 0.0, 0.0])
        assert sol.objective == lp.solve_brute(p).objective == 1.0
        assert p._memo.phase1.pivots > 0


class TestPivot:
    """`_pivot` updates only the rows with a nonzero pivot-column entry and
    the columns with a nonzero pivot-row entry.  The entries it skips are
    those where the dense rank-1 update subtracts 0 * x, so the two agree
    up to the sign of a zero, which `np.array_equal` ignores."""

    @staticmethod
    def dense_pivot(T, row, col):
        T = T.copy()
        T[row] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        return T

    @staticmethod
    def tableau(rng, shape, row_fill, col_fill, row, col):
        """A tableau whose pivot column is nonzero in about row_fill of
        the rows and whose pivot row in about col_fill of the columns; the
        other entries are zero with probability 1/2."""
        m, n = shape
        T = rng.normal(size=shape) * (rng.random(shape) < 0.5)
        T[:, col] = rng.normal(size=m) * (rng.random(m) < row_fill)
        T[row] = rng.normal(size=n) * (rng.random(n) < col_fill)
        T[row, col] = rng.uniform(0.5, 2.0)
        return T

    def test_matches_dense_update(self, monkeypatch):
        """Every branch of the choice is taken; the outer product's shape
        tells them apart: the whole tableau (dense, below or above the size
        gate), all rows by the pivot row's nonzero columns, or the nonzero
        rows by those columns."""
        outer, shapes = np.outer, []

        def spy(a, b):
            shapes.append((len(a), len(b)))
            return outer(a, b)
        monkeypatch.setattr(np, "outer", spy)
        rng = np.random.default_rng(1010)
        fills = (0.01, 0.03, 0.1, 0.3, 1.0)
        branches = set()
        # below the size gate, just above it and well above it
        for shape in ((20, 41), (60, 171), (150, 401)):
            m, n = shape
            for row_fill in fills:
                for col_fill in fills:
                    row, col = int(rng.integers(m)), int(rng.integers(n))
                    T = self.tableau(rng, shape, row_fill, col_fill, row, col)
                    want = self.dense_pivot(T, row, col)
                    shapes.clear()
                    lp._pivot(T, row, col)
                    assert np.array_equal(T, want), (shape, row_fill, col_fill)
                    (rows, cols), = shapes
                    if (rows, cols) == shape:
                        branches.add("dense" if m * n >= lp._DENSE_BELOW else "small")
                    else:
                        branches.add("columns" if rows == m else "block")
        assert branches == {"small", "dense", "columns", "block"}
