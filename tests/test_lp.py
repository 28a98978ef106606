
import zlib

import numpy as np
import pytest

from loadcap import kinematics as kin
from loadcap import lp
from loadcap import mesh as msh
from loadcap import stress as st

from conftest import (MESH_CASES, dump, end_tension_plate, enumerate_best_loop,
                      independent_rows_on_arrays, make_two_tet_mesh,
                      reference_simplex, split_bounds, split_free)


def standard(c, A, b):
    return lp.LPStandardForm(c=np.array(c, float), A=np.array(A, float),
                             b=np.array(b, float))


def standard_free(c, A, b, free):
    """The LP with the columns that the mask free marks free, the others
    nonnegative."""
    return lp.LPStandardForm(c=np.array(c, float), A=np.array(A, float),
                             b=np.array(b, float),
                             lower=np.where(free, -np.inf, 0.0))


@pytest.fixture
def phase1_runs(monkeypatch):
    """The outcome of every `_phase1` run, in order: a standalone LP keeps
    none in its memo."""
    runs, phase1 = [], lp._phase1

    def spy(*args):
        runs.append(phase1(*args))
        return runs[-1]
    monkeypatch.setattr(lp, "_phase1", spy)
    return runs


def check_optimal_invariants(p, sol):
    assert sol.status == lp.OPTIMAL
    x, y = sol.x, sol.y
    bmax = np.abs(p.b).max(initial=0.0)
    assert np.abs(p.A @ x - p.b).max(initial=0.0) <= 1e-8 * (1.0 + bmax)
    assert np.all(x[~p.free] >= -1e-10)
    reduced = p.c - p.A.T @ y
    assert np.abs(reduced[p.free]).max(initial=0.0) <= 1e-8 * (1.0 + np.abs(p.c).max())
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


# Beale (1955), slacks first, and a rescaled Beale example, slacks last:
# (c, A) of LPs with b = (0, 0, 1) on which Dantzig pricing with the
# smallest-subscript leaving rule cycles
BEALE_ORIGINAL = ([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0],
                  [[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                   [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                   [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
BEALE_RESCALED = ([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0],
                  [[0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
                   [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])


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
        p = self._cycling_lp(*BEALE_ORIGINAL, monkeypatch)
        sol = lp.solve(p)
        check_optimal_invariants(p, sol)
        want = lp.solve_brute(p)
        assert want.objective == pytest.approx(-1.25, abs=1e-12)
        assert sol.objective == pytest.approx(want.objective, abs=1e-12)

    def test_beale_cycling_example(self, monkeypatch):
        p = self._cycling_lp(*BEALE_RESCALED, monkeypatch)
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

    def test_batched_matches_loop(self):
        # the bases are solved in one batch; the loop over them
        # (`conftest.enumerate_best_loop`) must give the same bits, on the
        # LP and on solve_brute's recession LP, which finds unboundedness
        rng = np.random.default_rng(45)
        statuses = set()
        for trial in range(150):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m, 9))
            A = rng.normal(size=(m, n))
            kind = trial % 3
            if kind == 0:
                b = A @ rng.uniform(0.0, 1.0, size=n)
            elif kind == 1:
                b = rng.normal(size=m)  # may be infeasible
            else:
                A[-1] = A[0]  # a redundant row, or an inconsistent one
                b = A @ rng.uniform(0.0, 1.0, size=n)
                b[-1] += trial % 2
            c = rng.normal(size=n)
            ray = (np.vstack([A, np.ones(n)]), np.append(np.zeros(m), 1.0))
            for AA, bb in ((A, b), ray):
                got, want = lp._enumerate_best(AA, bb, c), enumerate_best_loop(AA, bb, c)
                assert got[0] == want[0], f"trial {trial}"
                assert (got[1] is None and want[1] is None) or \
                    np.array_equal(got[1], want[1]), f"trial {trial}"
            statuses.add(lp.solve_brute(standard(c, A, b)).status)
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}

    def test_independent_rows_match_array_elimination(self):
        # the elimination on Python floats runs the IEEE operations of the
        # one on numpy rows, in the same order: the same rows and verdicts,
        # also where entries tie or cancel exactly (small integers)
        rng = np.random.default_rng(46)
        verdicts = set()
        for trial in range(300):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 9))
            A = (rng.integers(-2, 3, size=(m, n)).astype(float) if trial % 2
                 else rng.normal(size=(m, n)))
            b = A @ rng.uniform(0.0, 1.0, size=n)
            if trial % 3 == 1 and m > 1:
                A[-1] = 2.0 * A[0]  # a redundant row, or an inconsistent one
                b[-1] = 2.0 * b[0] + trial % 2
            elif trial % 3 == 2:
                A[rng.integers(m)] = 0.0
                b = b + (trial % 4 == 2) * rng.normal(size=m)
            got = lp._independent_rows(A, b)
            assert got == independent_rows_on_arrays(A, b), f"trial {trial}"
            verdicts.add((got[1], len(got[0]) < m))
        assert verdicts == {(False, False), (False, True), (True, True)}

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
    def test_free_variable_one_column(self):
        builder = lp.LPBuilder()
        builder.add_vars(1, lower=-np.inf)
        builder.add_eq([[1.0]], -3.0)
        prob = builder.build([1.0])
        assert np.array_equal(prob.A, [[1.0]])
        assert np.array_equal(prob.free, [True])
        sol = lp.solve(prob)
        assert sol.status == lp.OPTIMAL
        assert sol.x[0] == pytest.approx(-3.0)

    def test_inequality_slack(self):
        builder = lp.LPBuilder()
        builder.add_vars(1)
        builder.add_le([1.0], 2.0)
        prob = builder.build([-1.0])
        assert np.array_equal(prob.A, [[1.0, 1.0]])
        assert not prob.free.any()
        sol = lp.solve(prob)
        assert sol.x[0] == pytest.approx(2.0)

    def test_blocks_keep_row_and_column_order(self):
        # columns: x (nonneg), y (free), then one slack per le row;
        # rows in the order their blocks were added
        builder = lp.LPBuilder()
        builder.add_vars(2, lower=[0.0, -np.inf])
        builder.add_le([[1.0, 2.0], [0.0, 1.0]], [4.0, 1.0])
        builder.add_eq([[1.0, -1.0]], 0.5)
        prob = builder.build([1.0, -1.0])
        assert np.array_equal(prob.A, [[1.0, 2.0, 1.0, 0.0],
                                       [0.0, 1.0, 0.0, 1.0],
                                       [1.0, -1.0, 0.0, 0.0]])
        assert np.array_equal(prob.b, [4.0, 1.0, 0.5])
        assert np.array_equal(prob.c, [1.0, -1.0, 0.0, 0.0])
        assert np.array_equal(prob.free, [False, True, False, False])
        assert not np.any(np.signbit(prob.A) & (prob.A == 0.0))
        # x - y = 0.5 on the whole feasible set
        sol = lp.solve(prob)
        assert sol.objective == pytest.approx(0.5)
        assert sol.x[0] - sol.x[1] == pytest.approx(0.5)

    def test_costs_match_build(self):
        builder = lp.LPBuilder()
        builder.add_vars(3, lower=[-np.inf, 0.0, -np.inf])
        builder.add_le([[-0.0, 2.0, 0.0]], 4.0)
        builder.add_eq([[1.0, -1.0, 1.0]], -0.0)
        objective = np.array([-0.0, -1.0, 2.5])
        prob = builder.build(objective)
        costless = builder.build(np.zeros(3))
        assert np.array_equal(prob.c, [0.0, -1.0, 2.5, 0.0])
        for arr in (prob.c, prob.A, prob.b):
            assert not np.any(np.signbit(arr) & (arr == 0.0))
        assert np.array_equal(costless.A, prob.A)
        assert np.array_equal(costless.b, prob.b)
        assert np.array_equal(costless.free, prob.free)
        assert not np.any(costless.c)
        assert same_solution(lp.solve(costless.with_objective(prob.c)),
                             lp.solve(prob))

    def test_dump_mentions_shape(self):
        p = standard([1.0], [[1.0]], [1.0])
        assert "1 rows, 1 cols" in dump(p)


class TestFreeVariables:
    """A free column is one column of the tableau: priced at -|d_j|,
    entered downwards when d_j > 0, and never leaving the basis.  The
    oracle is the same LP with each free column split into a nonnegative
    (+, -) pair (`split_free`)."""

    @staticmethod
    def random_lp(rng, kind):
        """A random LP with at least one free column, of one of four kinds:
        optimal by design, infeasible by design, random b, or feasible with
        random costs (mostly unbounded)."""
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 8))
        A = rng.normal(size=(m, n))
        free = rng.random(n) < 0.4
        free[rng.integers(n)] = True
        x0 = rng.uniform(0.0, 1.0, size=n)
        x0[free] = rng.uniform(-2.0, 1.0, size=free.sum())
        b = A @ x0
        c = rng.normal(size=n)
        if kind == 0:
            # dual feasible: c - A^T y0 is 0 on the free columns and
            # nonnegative on the others
            c = A.T @ rng.normal(size=m) + np.where(free, 0.0, np.abs(c))
        elif kind == 1:
            # row 0 has no free entry and only positive ones, and b[0] < 0
            A[0, free] = 0.0
            A[0, ~free] = np.abs(A[0, ~free])
            b[0] = -rng.uniform(0.1, 1.0)
        elif kind == 2:
            b = rng.normal(size=m)
        return standard_free(c, A, b, free)

    def test_random_agreement_with_split(self):
        rng = np.random.default_rng(1111)
        statuses = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, lp.UNBOUNDED: 0}
        negative_free = brute_checked = 0
        for trial in range(240):
            p = self.random_lp(rng, trial % 4)
            split = split_free(p)
            got, want = lp.solve(p), lp.solve(split)
            assert got.status == want.status, f"trial {trial}: {dump(p)}"
            if max(split.A.shape) <= lp._BRUTE_CAP:
                brute = lp.solve_brute(split)
                assert got.status == brute.status, f"trial {trial}: {dump(p)}"
                if got.status == lp.OPTIMAL:
                    assert got.objective == pytest.approx(brute.objective, abs=1e-7)
                brute_checked += 1
            statuses[got.status] += 1
            if got.status != lp.OPTIMAL:
                continue
            assert got.objective == pytest.approx(want.objective, abs=1e-7), \
                f"trial {trial}"
            check_optimal_invariants(p, got)
            assert np.all(got.x[~p.free] >= -1e-9)
            negative_free += bool(np.any(got.x[p.free] < -1e-6))
        assert min(statuses.values()) > 10, statuses
        assert negative_free > 10
        assert brute_checked > 100

    @pytest.mark.parametrize("c,want", [([1.0, 0.0], lp.UNBOUNDED),
                                        ([-1.0, 0.0], lp.OPTIMAL)])
    def test_enters_against_its_cost(self, c, want):
        # x free, s >= 0, x + s = 1 starts on s = 1.  With cost +1, x enters
        # downwards and nothing stops it; with cost -1 it stops at x = 1
        p = standard_free(c, [[1.0, 1.0]], [1.0], [True, False])
        sol = lp.solve(p)
        assert sol.status == want == lp.solve(split_free(p)).status
        if want == lp.OPTIMAL:
            assert np.array_equal(sol.x, [1.0, 0.0])

    def test_negative_optimum(self):
        # max x subject to x + s = -2, s >= 0: x = -2
        p = standard_free([-1.0, 0.0], [[1.0, 1.0]], [-2.0], [True, False])
        sol = lp.solve(p)
        check_optimal_invariants(p, sol)
        assert sol.x[0] == pytest.approx(-2.0)
        assert sol.objective == pytest.approx(2.0)
        assert lp.solve_brute(split_free(p)).objective == pytest.approx(2.0)

    def test_mask_shape_checked(self):
        # the bounds that a free mask gives, and bounds that are no range
        for free in ([True], [[True, False]], [True, False, True]):
            with pytest.raises(lp.LPError, match="bounds have shapes"):
                standard_free([1.0, 1.0], [[1.0, 1.0]], [1.0], free)
        for lower, upper in (([1.0, 0.0], [0.0, 1.0]), ([np.inf, 0.0], None),
                             (None, [-np.inf, 1.0]), ([np.nan, 0.0], None)):
            with pytest.raises(lp.LPError, match="bounds must satisfy"):
                lp.LPStandardForm(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0],
                                  lower=lower, upper=upper)

    def test_with_objective_keeps_mask(self):
        p = standard_free([1.0, 1.0], [[1.0, 1.0]], [1.0], [True, False])
        assert np.array_equal(p.with_objective([2.0, 0.0]).free, [True, False])
        assert not standard([1.0], [[1.0]], [1.0]).free.any()

    def test_brute_rejects_free_columns(self):
        p = standard_free([1.0, 1.0], [[1.0, 1.0]], [1.0], [True, False])
        with pytest.raises(lp.LPError, match="free"):
            lp.solve_brute(p)

    @pytest.mark.parametrize("name,factory", MESH_CASES, ids=[c[0] for c in MESH_CASES])
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_kinematic_lp_one_column_per_variable(self, name, factory, mode):
        # the velocity DOFs and, in plastic mode, one multiplier per element
        # are free; then a (+, -) budget pair per strain slot of each
        # element, where plane strain adds the out-of-plane slot
        ops = kin.assemble(factory())
        prob = st.kinematic_lp(ops, mode).prob
        plastic = mode == st.PLASTIC
        n_slots = kin.n_comps(ops.dim) + (plastic and ops.dim == 2)
        per_element = plastic + 2 * n_slots
        assert prob.A.shape[1] == ops.n_dof + ops.n_elements * per_element + 1
        assert prob.free.sum() == ops.n_dof + plastic * ops.n_elements
        assert prob.free[:ops.n_dof + plastic * ops.n_elements].all()

    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_no_negative_zero_in_lps(self, mode, monkeypatch):
        # zero and negative traction entries give zero work entries, whose
        # negated load column (box LP) and costs (kinematic LP) must not be
        # -0.0
        ops = kin.assemble(MESH_CASES[1][1]())
        t = np.zeros((len(ops.gammat_facets), 2))
        t[0] = [-1.0, 0.0]
        t[-1] = [0.0, -0.5]
        solve, seen = lp.solve, []
        monkeypatch.setattr(lp, "solve", lambda p: seen.append(p) or solve(p))
        st.optimal_stress(ops, t, mode)
        st.kinematic_supremum(st.kinematic_lp(ops, mode), kin.work_vector(ops, t))
        assert len(seen) == 2
        for p in seen:
            for arr in (p.A, p.b, p.c):
                assert not np.any(np.signbit(arr) & (arr == 0.0))


def random_bounds(rng, n):
    """Bounds of n columns, each of one of six kinds: nonnegative, free,
    a box around 0, a box away from 0, a lower bound only, an upper bound
    only; a fixed column now and then."""
    lower, upper = np.zeros(n), np.full(n, np.inf)
    for j, kind in enumerate(rng.integers(6, size=n)):
        lo, hi = np.sort(rng.uniform(-2.0, 2.0, size=2))
        if kind == 1:
            lower[j] = -np.inf
        elif kind == 2:
            lower[j], upper[j] = -rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
        elif kind == 3:
            lower[j], upper[j] = lo, hi if rng.random() < 0.9 else lo
        elif kind == 4:
            lower[j] = lo
        elif kind == 5:
            lower[j], upper[j] = -np.inf, hi
    return lower, upper


class TestBoundedVariables:
    """Bounds are kept out of the rows: a nonbasic column sits at a bound,
    or at 0 inside its bounds, and the ratio test includes its own other
    bound.  The oracle is the same LP with the bounds written as rows of a
    nonnegative LP (`split_bounds`)."""

    @staticmethod
    def random_lp(rng, kind):
        """A random bounded LP: feasible by design (kinds 0 and 1, with a
        zero right-hand side in kind 1), or with a random b."""
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m + 1, 8))
        A = rng.normal(size=(m, n))
        lower, upper = random_bounds(rng, n)
        x0 = np.clip(rng.normal(size=n), lower, upper)
        b = A @ x0 if kind == 0 else np.zeros(m) if kind == 1 else rng.normal(size=m)
        if kind == 1:
            lower = np.minimum(lower, 0.0)
            upper = np.maximum(upper, 0.0)
        return lp.LPStandardForm(c=rng.normal(size=n), A=A, b=b, lower=lower,
                                 upper=upper)

    def test_random_agreement_with_split(self):
        rng = np.random.default_rng(1717)
        statuses = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, lp.UNBOUNDED: 0}
        for trial in range(300):
            p = self.random_lp(rng, trial % 3)
            split, constant = split_bounds(p)
            got, want = lp.solve(p), lp.solve(split)
            assert got.status == want.status, f"trial {trial}: {dump(p)}"
            statuses[got.status] += 1
            if got.status != lp.OPTIMAL:
                continue
            assert got.objective == pytest.approx(want.objective + constant,
                                                  abs=1e-7), f"trial {trial}"
            check_bounded_optimum(p, got)
        assert min(statuses.values()) > 20, statuses

    def test_bound_flips(self):
        # max x1 + x2 over [0, 1]^2 with x1 + x2 + s = 5: both columns
        # only flip to their upper bounds, and s stays basic
        p = lp.LPStandardForm(c=[-1.0, -1.0, 0.0], A=[[1.0, 1.0, 1.0]], b=[5.0],
                              upper=[1.0, 1.0, np.inf])
        sol = lp.solve(p)
        assert np.array_equal(sol.x, [1.0, 1.0, 3.0]) and sol.objective == -2.0
        check_bounded_optimum(p, sol)

    def test_leaves_at_upper_bound(self):
        # max x subject to x - y = 0, y in [-1, 2], x free: y rises to its
        # upper bound and leaves the basis there
        p = lp.LPStandardForm(c=[-1.0, 0.0], A=[[1.0, -1.0]], b=[0.0],
                              lower=[-np.inf, -1.0], upper=[np.inf, 2.0])
        sol = lp.solve(p)
        assert np.array_equal(sol.x, [2.0, 2.0]) and sol.objective == -2.0
        check_bounded_optimum(p, sol)

    def test_starts_at_the_bound_nearest_zero(self):
        # x in [2, 3] starts at 2, y in [-3, -1] at -1: x + y = 1 holds
        # there, so the start is feasible without an artificial pivot
        p = lp.LPStandardForm(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0],
                              lower=[2.0, -3.0], upper=[3.0, -1.0])
        sol = lp.solve(p)
        assert sol.objective == pytest.approx(1.0)
        check_bounded_optimum(p, sol)

    def test_with_column_shares_phase1(self, monkeypatch):
        # LPs that differ from a base in one column, zero there, share the
        # base's phase 1, and match the standalone LP with that column
        rng = np.random.default_rng(1919)
        phase1, runs = lp._phase1, []
        monkeypatch.setattr(lp, "_phase1", lambda *a: runs.append(1) or phase1(*a))
        solved = 0
        for trial in range(40):
            p = self.random_lp(rng, 1)
            j = int(rng.integers(len(p.c)))
            A = p.A.copy()
            A[:, j] = 0.0
            base = lp.LPStandardForm(p.c, A.copy(), p.b, p.lower, p.upper)
            runs.clear()
            for _ in range(4):
                a = rng.normal(size=len(p.b))
                got = lp.solve(base.with_column(j, a))
                A[:, j] = a
                want = lp.solve(lp.LPStandardForm(p.c, A.copy(), p.b, p.lower, p.upper))
                assert got.status == want.status, f"trial {trial}: {dump(p)}"
                if got.status == lp.OPTIMAL:
                    assert got.objective == pytest.approx(want.objective, abs=1e-8)
                    check_bounded_optimum(
                        lp.LPStandardForm(p.c, A.copy(), p.b, p.lower, p.upper), got)
                    solved += 1
            # the base's phase 1 once, and the standalone LPs' own; more
            # only where the base's dropped a row or found no feasible point
            assert len(runs) >= 5
            if base._memo.phase1.tableau is not None and \
                    len(base._memo.phase1.keep_rows) == len(p.b):
                assert len(runs) == 5
        assert solved > 60
        with pytest.raises(lp.LPError, match="not zero"):
            p.with_column(0, np.ones(len(p.b))) if p.A[:, 0].any() else \
                lp.LPStandardForm(p.c, np.ones_like(p.A), p.b, p.lower,
                                  p.upper).with_column(0, np.ones(len(p.b)))
        with pytest.raises(lp.LPError, match="does not fit"):
            base.with_column(len(p.c), np.ones(len(p.b)))

    def test_builder_bounds(self):
        builder = lp.LPBuilder()
        builder.add_vars(2, lower=[-1.0, 0.0], upper=[1.0, np.inf])
        builder.add_vars(1, lower=-np.inf)
        builder.add_le([[1.0, 1.0, 1.0]], 4.0)
        prob = builder.build([0.0, 0.0, -1.0])
        assert np.array_equal(prob.lower, [-1.0, 0.0, -np.inf, 0.0])
        assert np.array_equal(prob.upper, [1.0, np.inf, np.inf, np.inf])
        assert np.array_equal(prob.free, [False, False, True, False])
        # the free column rises until x0 reaches its lower bound -1
        sol = lp.solve(prob)
        assert sol.objective == pytest.approx(-5.0)
        with pytest.raises(lp.LPError, match="no free or bounded"):
            lp.solve_brute(prob)


def check_bounded_optimum(p, sol):
    """x within its bounds and A x = b; the multipliers price every
    column that sits strictly inside its bounds at 0, one at its lower
    bound at >= 0 and one at its upper bound at <= 0; c.x = b.y plus the
    bounds' terms."""
    x, y = sol.x, sol.y
    tol = 1e-8 * (1.0 + np.abs(p.c).max() + np.abs(p.b).max(initial=0.0))
    assert np.all(x >= p.lower - 1e-9) and np.all(x <= p.upper + 1e-9)
    assert np.abs(p.A @ x - p.b).max(initial=0.0) <= tol
    d = p.c - p.A.T @ y
    at_lower, at_upper = x <= p.lower + 1e-9, x >= p.upper - 1e-9
    assert np.all(d[at_lower & ~at_upper] >= -tol)
    assert np.all(d[at_upper & ~at_lower] <= tol)
    assert np.all(np.abs(d[~at_lower & ~at_upper]) <= tol)
    assert p.c @ x == pytest.approx(p.b @ y + d @ x, abs=tol)


def same_solution(got, want):
    """Equal status, x, y and objective, bit for bit."""
    return (got.status == want.status
            and all((g is None and w is None) or np.array_equal(g, w)
                    for g, w in ((got.x, want.x), (got.y, want.y)))
            and got.objective == want.objective)


def dense_corpus():
    """80 seeded LPs over dense A, each with 4 cost vectors: (trial, A, b,
    costs).  Kinds by trial % 4: feasible, a redundant row that phase 1
    drops, a random b that may be infeasible, and mixed signs."""
    rng = np.random.default_rng(43)
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
        yield trial, A, b, [rng.normal(size=n) for _ in range(4)]


def slack_corpus():
    """80 seeded LPs whose last columns are the slacks of every row:
    (trial, kind, LP).  Kinds: every row starts on its slack, rows flipped
    by b < 0 that need artificials, a redundant row that phase 1 drops, and
    a column that is a ray if its cost is negative."""
    rng = np.random.default_rng(44)
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
        yield trial, kind, standard(rng.normal(size=k + m), A, b)


class TestSharedPhase1:
    """An LP made by `with_objective` runs only phase 2 from the phase 1 of
    the LP it was made from, and gives exactly what a fresh LP gives."""

    def test_random_lps_match_fresh(self):
        statuses = set()
        for trial, A, b, costs in dense_corpus():
            base = standard(np.zeros(A.shape[1]), A, b)
            for c in costs:
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

    def test_memo_not_inherited(self):
        p = standard([1.0], [[1.0]], [1.0])
        lp.solve(p.with_objective([2.0]))  # memoizes p's phase 1
        # an LP built from another LP's arrays, with a new A, must not
        # inherit the phase 1 of the old one
        q = lp.LPStandardForm(p.c, np.array([[2.0]]), p.b, p.lower, p.upper)
        assert q._memo is not p._memo and q._memo.phase1 is None
        assert lp.solve(q).x[0] == pytest.approx(0.5)

    def test_equal_only_to_itself(self):
        # an LP compares and hashes by identity, not by its arrays
        p = standard([1.0, 1.0], [[1.0, 1.0]], [1.0])
        q = p.with_objective([2.0, 0.0])
        assert p == p and p != q and p != standard([1.0, 1.0], [[1.0, 1.0]], [1.0])
        assert len({p, q, p}) == 2

    def test_with_objective_checks_costs(self):
        p = standard([1.0, 1.0], [[1.0, 1.0]], [1.0])
        with pytest.raises(lp.LPError, match="shape"):
            p.with_objective([1.0])
        with pytest.raises(lp.LPError, match="non-finite"):
            p.with_objective([np.inf, 1.0])


class TestStandalone:
    """A standalone LP, one not made by `with_objective` nor walked by
    `solve_each`, runs phase 2 in its phase 1's own array and memoizes
    nothing.  It gives exactly what an LP that shares its phase 1 gives."""

    @staticmethod
    def corpus():
        for trial, A, b, costs in dense_corpus():
            for c in costs:
                yield trial, standard(c, A, b)
        for trial, _, p in slack_corpus():
            yield trial, p

    def test_matches_shared(self, phase1_runs):
        statuses, artificials, dropped = set(), 0, 0
        for trial, p in self.corpus():
            phase1_runs.clear()
            got = lp.solve(p)
            (run,) = phase1_runs
            assert p._memo.phase1 is None
            shared = standard(np.zeros_like(p.c), p.A, p.b).with_objective(p.c)
            assert same_solution(got, lp.solve(shared)), f"trial {trial}: {dump(p)}"
            assert shared._memo.phase1 is not None
            statuses.add(got.status)
            artificials += run.pivots > 0
            dropped += len(run.keep_rows) < len(p.b) and run.tableau is not None
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
        assert artificials > 10 and dropped > 10, (artificials, dropped)

    def test_solved_twice(self, phase1_runs):
        for trial, p in self.corpus():
            A, b = p.A.copy(), p.b.copy()
            first = lp.solve(p)
            assert same_solution(lp.solve(p), first), f"trial {trial}: {dump(p)}"
            assert p._memo.phase1 is None
            assert np.array_equal(p.A, A) and np.array_equal(p.b, b)
        assert len(phase1_runs) == 2 * (4 * 80 + 80)


class TestSolveEach:
    """The walk gives, for each row w of the weights, the status and
    objective that `solve` gives the LP with costs w @ unit_costs."""

    @staticmethod
    def walk_matches_solve(p, unit_costs, weights, phase2_runs):
        """The walk's statuses and phase-2 runs, after checking its
        statuses and objectives against one cold `solve` per row.  A
        dominated row's objective is at most its cold optimum, up to
        rounding, and above the best optimal row's by more than the
        near-tie margin."""
        before = len(phase2_runs)
        status, objective = lp.solve_each(p, unit_costs, weights)
        walk_runs = len(phase2_runs) - before
        assert status.shape == objective.shape == (len(weights),)
        best = objective[status == lp.OPTIMAL].min(initial=np.inf)
        for s, value, w in zip(status, objective, np.asarray(weights, float)):
            q = p.with_objective(w @ np.asarray(unit_costs, float))
            want = lp.solve(q)
            if s == lp.DOMINATED:
                assert want.status == lp.OPTIMAL, dump(q)
                assert value <= want.objective + 1e-12 * (1.0 + abs(want.objective))
                assert value > best + lp._NEAR_TIE * (1.0 + abs(best))
                continue
            assert s == want.status, dump(q)
            if s == lp.OPTIMAL:
                assert value == pytest.approx(want.objective, rel=1e-9, abs=1e-9)
            else:
                assert np.isnan(value)
        return status.tolist(), walk_runs

    @pytest.fixture
    def phase2_runs(self, monkeypatch):
        runs = []
        phase2 = lp._phase2
        monkeypatch.setattr(lp, "_phase2",
                            lambda *args: runs.append(1) or phase2(*args))
        return runs

    def test_random_walks_match_solve(self, phase2_runs):
        # unit costs: one dual feasible cost, so that most rows are
        # optimal, and smaller ones that move it, so that some are not;
        # weights: +1 on the first, then random signs, as for the sign
        # patterns of a traction, or signs and zeros, or real numbers
        rng = np.random.default_rng(1212)
        counts = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, lp.UNBOUNDED: 0}
        bounded_after_unbounded = walk_runs = 0
        for trial in range(120):
            p = TestFreeVariables.random_lp(rng, trial % 4)
            if trial % 8 >= 4:
                p = lp.LPStandardForm(c=p.c, A=p.A, b=p.b)  # no free column
            (m, n), k = p.A.shape, int(rng.integers(2, 5))
            unit_costs = rng.normal(size=(k, n)) * rng.choice([0.05, 0.3, 1.0])
            unit_costs[0] = p.A.T @ rng.normal(size=m) + np.where(
                p.free, 0.0, np.abs(rng.normal(size=n)))
            if trial % 3 == 2:
                weights = rng.normal(size=(12, k))
                weights[:, 0] = rng.uniform(0.5, 1.5, size=12)
            else:
                # with zeros, some rows cost the first unit cost alone,
                # where more free columns than rows leave one nonbasic
                weights = rng.choice([-1, 1] if trial % 3 else [-1, 0, 1],
                                     size=(12, k)).astype(np.int8)
                weights[:, 0] = 1
            statuses, runs = self.walk_matches_solve(p, unit_costs, weights,
                                                     phase2_runs)
            for s in statuses:
                counts[s] += 1
            bounded_after_unbounded += sum(
                a == lp.UNBOUNDED and b == lp.OPTIMAL
                for a, b in zip(statuses, statuses[1:]))
            walk_runs += runs
        assert min(counts.values()) > 300, counts
        assert bounded_after_unbounded > 40
        # every unbounded row runs two phase 2s, the walk's and one from a
        # fresh phase 1, but most optimal rows settle at a basis that an
        # earlier row reached
        assert walk_runs - 2 * counts[lp.UNBOUNDED] < counts[lp.OPTIMAL] / 3

    # the phase 2s of each walk below before the walk pruned rows
    UNPRUNED_RUNS = {(st.ELASTIC, "rect11"): 14, (st.ELASTIC, "rect22"): 24,
                     (st.ELASTIC, "two_tet"): 19, (st.PLASTIC, "rect11"): 9,
                     (st.PLASTIC, "rect22"): 27, (st.PLASTIC, "two_tet"): 10}

    @pytest.mark.parametrize("name,factory", MESH_CASES, ids=[c[0] for c in MESH_CASES])
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_kinematic_lp(self, name, factory, mode, phase2_runs):
        # free columns, and costs that differ in signs of the work.  The
        # strain budget, the last row, normalizes the LP, so rows whose
        # bound is above the best settle without a phase 2
        ops = kin.assemble(factory())
        prob = st.kinematic_lp(ops, mode).prob
        rng = np.random.default_rng(1213)
        unit_costs = np.zeros((6, len(prob.c)))
        unit_costs[:, :ops.n_dof] = rng.uniform(-1.0, 1.0, size=(6, ops.n_dof))
        weights = np.where(rng.random((40, 6)) < 0.5, -1.0, 1.0)
        weights[:8] = rng.normal(size=(8, 6))
        statuses, runs = self.walk_matches_solve(prob, unit_costs, weights,
                                                 phase2_runs)
        assert set(statuses) == {lp.OPTIMAL, lp.DOMINATED}
        assert runs < self.UNPRUNED_RUNS[mode, name]

    @pytest.mark.parametrize("lookahead", [0, 1, 3])
    def test_window(self, monkeypatch, phase2_runs, lookahead):
        # rows past the window settle at a later basis, or run phase 2;
        # the unpruned walk ran 20, 19 and 17 phase 2s
        ops = kin.assemble(MESH_CASES[1][1]())
        prob = st.kinematic_lp(ops, st.PLASTIC).prob
        rng = np.random.default_rng(1214)
        unit_costs = np.zeros((5, len(prob.c)))
        unit_costs[:, :ops.n_dof] = rng.uniform(-1.0, 1.0, size=(5, ops.n_dof))
        weights = np.where(rng.random((20, 5)) < 0.5, -1.0, 1.0)
        monkeypatch.setattr(lp, "_LOOKAHEAD", lookahead)
        statuses, runs = self.walk_matches_solve(prob, unit_costs, weights,
                                                 phase2_runs)
        assert set(statuses) <= {lp.OPTIMAL, lp.DOMINATED}
        assert runs == {0: 20, 1: 17, 3: 15}[lookahead]

    @staticmethod
    def normalized_lp(rng):
        """A random LP shaped like the kinematic LP: free columns, then
        nonnegative ones and a slack; equality rows with right-hand side 0,
        free entries and no slack, then a last row, b = e_r, that is
        positive on the nonnegative columns and 0 on the free ones.  It is
        feasible (the slack alone takes the last row), and bounded when the
        free columns of the equality rows are independent, which fewer free
        columns than rows make almost sure."""
        m = int(rng.integers(2, 6))
        n_free, n_pos = int(rng.integers(0, m)), int(rng.integers(2, 8))
        n = n_free + n_pos + 1
        A = np.zeros((m + 1, n))
        A[:m, :-1] = rng.normal(size=(m, n - 1))
        A[m, n_free:] = rng.uniform(0.2, 2.0, size=n_pos + 1)
        return standard_free(np.zeros(n), A, np.eye(m + 1)[m], np.arange(n) < n_free)

    def test_random_normalized_walks(self, phase2_runs):
        # sign patterns of a few random unit costs, as in exact K: the
        # normalizing row settles some rows dominated, and the walks run
        # fewer phase 2s than the 140 they ran unpruned
        rng = np.random.default_rng(1215)
        counts = {lp.OPTIMAL: 0, lp.DOMINATED: 0}
        runs = 0
        for trial in range(60):
            p = self.normalized_lp(rng)
            k = int(rng.integers(3, 7))
            unit_costs = rng.normal(size=(k, p.A.shape[1]))
            weights = np.where(rng.random((2 ** (k - 1), k)) < 0.5, -1, 1)
            weights[:, 0] = 1
            statuses, walk_runs = self.walk_matches_solve(p, unit_costs, weights,
                                                          phase2_runs)
            runs += walk_runs
            for s in statuses:
                counts[s] += 1
        assert min(counts.values()) > 100, counts
        assert runs < 140

    def test_near_tie_not_pruned(self, phase2_runs):
        # a, b, s >= 0 and a + b + s = 1, which normalizes the LP, with
        # costs -w: the first row stops at a = 1 with the best objective,
        # -1.  There b's price is -w_b, so the bound of each other row is
        # -w_b: within the near-tie margin of -1 for an exact tie and one
        # 1e-10 off it, which are not pruned (the tie runs phase 2, at
        # whose basis the other is optimal), and far above it for w_b = 0.5
        p = standard([0.0] * 3, [[1.0, 1.0, 1.0]], [1.0])
        weights = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0 - 1e-10, 0.0],
                   [0.0, 0.5, 0.0]]
        status, objective = lp.solve_each(p, -np.eye(3), weights)
        assert status.tolist() == [lp.OPTIMAL] * 3 + [lp.DOMINATED]
        assert objective.tolist() == [-1.0, -1.0, -(1.0 - 1e-10), -0.5]
        assert len(phase2_runs) == 2
        self.walk_matches_solve(p, -np.eye(3), weights, phase2_runs)

    @pytest.mark.parametrize("A, b, free", [
        ([[1.0, 1.0, 1.0]], [2.0], [False] * 3),
        ([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]], [1.0, 1.0], [False] * 3),
        ([[1.0, 1.0, 0.0]], [1.0], [False] * 3),
        ([[1.0, 1.0, 1.0], [0.0, 0.0, 1.0]], [1.0, 0.0], [False, False, True])],
        ids=["b-not-unit", "b-two-rows", "zero-on-nonnegative", "free-in-row"])
    def test_prunes_only_normalized_lp(self, phase2_runs, A, b, free):
        # the LP of test_near_tie_not_pruned, with b not e_r, or the row
        # zero on a nonnegative column or nonzero on a free one: no row
        # normalizes it, and the walk settles no row dominated
        p = standard_free([0.0] * 3, A, b, free)
        weights = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0 - 1e-10, 0.0],
                   [0.0, 0.5, 0.0]]
        assert lp._normal_row(p) is None
        statuses, _ = self.walk_matches_solve(p, -np.eye(3), weights, phase2_runs)
        assert lp.DOMINATED not in statuses

    def test_unbounded_then_bounded(self, phase2_runs):
        # x free, s >= 0, x + s = 1: cost +1 on x is unbounded below, cost
        # -1 stops at x = 1, and the basis of x proves cost +1 on s
        # optimal at s = 0, and so cost -2 on x and 0.5 on s at x = 1
        p = standard_free([0.0, 0.0], [[1.0, 1.0]], [1.0], [True, False])
        weights = [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                   [-2.0, 0.5]]
        status, objective = lp.solve_each(p, np.eye(2), weights)
        assert status.tolist() == [lp.UNBOUNDED, lp.OPTIMAL, lp.UNBOUNDED,
                                   lp.OPTIMAL, lp.UNBOUNDED, lp.OPTIMAL]
        assert np.array_equal(objective, [np.nan, -1.0, np.nan, 0.0, np.nan, -2.0],
                              equal_nan=True)
        # each unbounded row runs phase 2 again from a fresh phase 1
        assert len(phase2_runs) == 3 * 2 + 1
        self.walk_matches_solve(p, np.eye(2), weights, phase2_runs)

    def test_nonbasic_free_column(self, phase2_runs):
        # x1, x2 free, s >= 0, x1 + x2 + s = 1: costs (a, b, 0) are bounded
        # only for a = b <= 0, where x1 is basic and x2 is not.  Row 1
        # prices x2 at -|d| = -|b - a| < 0, so it is not settled at that
        # basis: phase 2 finds it unbounded
        p = standard_free([0.0] * 3, [[1.0, 1.0, 1.0]], [1.0], [True, True, False])
        unit_costs = [[-1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]]
        weights = [[1.0, 0.0], [1.0, 0.5], [1.0, -0.5], [2.0, 0.0]]
        status, objective = lp.solve_each(p, unit_costs, weights)
        assert status.tolist() == [lp.OPTIMAL, lp.UNBOUNDED, lp.UNBOUNDED,
                                   lp.OPTIMAL]
        assert np.array_equal(objective, [-1.0, np.nan, np.nan, -2.0],
                              equal_nan=True)
        self.walk_matches_solve(p, unit_costs, weights, phase2_runs)

    def test_infeasible(self, phase2_runs):
        # x, y >= 0 and x + y = -1
        p = standard([0.0, 0.0], [[1.0, 1.0]], [-1.0])
        weights = [[1.0, 2.0], [-1.0, 0.0], [0.0, 0.0]]
        status, objective = lp.solve_each(p, np.eye(2), weights)
        assert status.tolist() == [lp.INFEASIBLE] * 3
        assert np.isnan(objective).all()
        assert self.walk_matches_solve(p, np.eye(2), weights, phase2_runs) == \
            ([lp.INFEASIBLE] * 3, 0)
        assert phase2_runs == []

    def test_no_rows(self):
        p = standard([1.0, 1.0], [[1.0, 1.0]], [1.0])
        status, objective = lp.solve_each(p, np.eye(2), np.zeros((0, 2)))
        assert status.shape == objective.shape == (0,)

    def test_phase1_runs_once(self, monkeypatch):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(4, 8))
        base = standard(np.zeros(8), A, A @ rng.uniform(0.0, 1.0, size=8))
        phase1 = lp._phase1
        calls = []
        monkeypatch.setattr(lp, "_phase1",
                            lambda *args: calls.append(1) or phase1(*args))
        unit_costs = rng.normal(size=(3, 8))
        assert len(lp.solve_each(base, unit_costs, rng.normal(size=(5, 3)))[0]) == 5
        lp.solve(base.with_objective(unit_costs[0]))
        assert len(calls) == 1

    def test_bounded_lp_rejected(self):
        p = lp.LPStandardForm(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0],
                              upper=[1.0, np.inf])
        with pytest.raises(lp.LPError, match="free or nonnegative"):
            lp.solve_each(p, np.eye(2), [[1.0, 0.0]])

    def test_costs_checked(self):
        p = standard([1.0, 1.0], [[1.0, 1.0]], [1.0])
        for unit_costs, weights, match in [
                ([1.0, 1.0], [[1.0]], "unit costs have shape"),
                ([[1.0]], [[1.0]], "unit costs have shape"),
                ([[1.0, 1.0]], [1.0], "weights are"),
                ([[1.0, 1.0]], [[1.0, 1.0]], "weights are"),
                ([[1.0, 1.0]], [["1"]], "weights are"),
                ([[np.nan, 1.0]], [[1.0]], "non-finite"),
                ([[1.0, 1.0]], [[1.0], [np.inf]], "non-finite")]:
            with pytest.raises(lp.LPError, match=match):
                lp.solve_each(p, unit_costs, weights)


def eligible_lp(rng, kind):
    """A random LP whose crash basis is dual feasible: free columns and
    slacks cost nothing, the other columns cost >= 0, and the rows without
    a slack take free columns.  kind 0 is feasible by design, kind 1 infeasible by
    design (row 0 has only positive entries, its slack among them, and
    b[0] < 0) and kind 2 has a random b."""
    m = int(rng.integers(2, 5))
    n = int(rng.integers(m + 1, 8))
    A = rng.normal(size=(m, n))
    free = rng.random(n) < 0.4
    free[:m] = rng.random(m) < 0.5  # room for the rows without a slack
    slack_rows = np.flatnonzero(rng.random(m) < 0.6)
    if kind == 1:
        slack_rows = np.union1d(slack_rows, [0])
    short = m - len(slack_rows)
    free[:short] = True
    x0 = rng.uniform(0.0, 1.0, size=n)
    x0[free] = rng.uniform(-2.0, 1.0, size=free.sum())
    b = A @ x0
    if kind == 1:
        A[0, free] = 0.0
        A[0] = np.abs(A[0])
        b[0] = -rng.uniform(0.1, 1.0)
    elif kind == 2:
        b = rng.normal(size=m)
    S = np.zeros((m, len(slack_rows)))
    S[slack_rows, np.arange(len(slack_rows))] = 1.0
    c = np.where(free, 0.0, np.abs(rng.normal(size=n)))
    return standard_free(np.concatenate([c, np.zeros(len(slack_rows))]),
                         np.hstack([A, S]), b,
                         np.concatenate([free, np.zeros(len(slack_rows), bool)]))


def dualized_beale():
    """Beale's cycling LP (min c.x, A x <= (0, 0, 1), x >= 0) with its
    second row scaled by 1/10, dualized: min (0, 0, 1).u subject to
    -A^T u + v = c, u, v >= 0.  Its slacks v start dual feasible, and a
    dual simplex without a Bland fallback cycles on it; the optimum is
    1.25, minus Beale's."""
    A = np.array([[0.25, -8.0, -1.0, 9.0],
                  [0.05, -1.2, -0.05, 0.3],
                  [0.0, 0.0, 1.0, 0.0]])
    return standard([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                    np.hstack([-A.T, np.eye(4)]), [-0.75, 20.0, -0.5, 6.0])


class TestDualSimplex:
    """LPs built for a dual simplex, which the package no longer has:
    random LPs whose crash basis is dual feasible (`eligible_lp`), with
    free columns, slacks and negative right-hand sides, and Beale's
    cycling LP dualized.  The two-phase simplex must solve them too."""

    def test_random_agreement_with_two_phase(self, phase1_runs):
        rng = np.random.default_rng(1313)
        statuses = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0}
        brute_checked = negative_free = 0
        for trial in range(240):
            p = eligible_lp(rng, trial % 3)
            phase1_runs.clear()
            got = lp.solve(p)
            assert len(phase1_runs) == 1, f"trial {trial}: {dump(p)}"
            split = split_free(p)
            if max(split.A.shape) <= lp._BRUTE_CAP:
                brute = lp.solve_brute(split)
                assert got.status == brute.status, f"trial {trial}: {dump(p)}"
                if got.status == lp.OPTIMAL:
                    assert got.objective == pytest.approx(brute.objective, abs=1e-7)
                brute_checked += 1
            statuses[got.status] += 1
            if got.status == lp.OPTIMAL:
                check_optimal_invariants(p, got)
                negative_free += bool(np.any(got.x[p.free] < -1e-6))
        assert min(statuses.values()) > 40, statuses
        assert brute_checked > 100
        assert negative_free > 10

    def test_cycling_lp_terminates(self):
        p = dualized_beale()
        sol = lp.solve(p)
        check_optimal_invariants(p, sol)
        want = lp.solve_brute(p)
        assert want.objective == pytest.approx(1.25, abs=1e-12)
        assert sol.objective == pytest.approx(want.objective, abs=1e-12)


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

    def test_walk_names_phase_shape_and_count(self, monkeypatch):
        p = self._lp()
        monkeypatch.setattr(lp, "_MAX_ITER", 5)
        with pytest.raises(lp.LPIterationError,
                           match="phase 2 did not terminate in 5 iterations "
                                 "on a 3 x 7 LP"):
            lp.solve_each(p, [p.c], [[1.0]])


class TestLivePhase2:
    """`solve`'s phase 2 runs on the rows whose basic column is not free
    (`_live_phase2`), and gives what phase 2 on the whole tableau gives:
    the same status and pivots, and the same x, y and objective, bit for
    bit."""

    @staticmethod
    def solve(p, monkeypatch, phase2):
        """`solve` with phase2 as its phase 2, and the (status, pivots)
        that phase2 returned."""
        runs = []
        with monkeypatch.context() as mp:
            mp.setattr(lp, "_live_phase2",
                       lambda *args: runs.append(phase2(*args)) or runs[-1])
            return lp.solve(p), runs

    @staticmethod
    def plastic_box_lps():
        """The plastic box LPs of `MESH_CASES` under a seeded random
        traction, and of the 5x5 and 8x8 plates under end tension."""
        rng = np.random.default_rng(31)
        for name, factory in MESH_CASES:
            ops = kin.assemble(factory())
            t = rng.uniform(-1.0, 1.0, size=(len(ops.gammat_facets), ops.dim))
            yield name, st.box_lp(ops, st.PLASTIC, kin.work_vector(ops, t))
        for n in (5, 8):
            mesh, t = end_tension_plate(n)
            ops = kin.assemble(mesh)
            yield f"rect{n}{n}", st.box_lp(ops, st.PLASTIC, kin.work_vector(ops, t))

    def test_plastic_box_lps(self, monkeypatch):
        for name, p in self.plastic_box_lps():
            start = lp._phase1(p.A, p.b, p.lower, p.upper)
            assert p.free[start.basis].any(), name  # rows are left out
            got, got_runs = self.solve(p, monkeypatch, lp._live_phase2)
            want, want_runs = self.solve(p, monkeypatch, lp._phase2)
            assert got_runs == want_runs and got_runs[0][1] > 0, name
            assert got.status == want.status == lp.OPTIMAL, name
            assert same_bits(got.x, want.x) and same_bits(got.y, want.y), name
            assert got.objective == want.objective, name

    def test_random_free_lps(self, monkeypatch):
        # free columns that enter and stay, beside rows that leave, and
        # bounded columns that flip
        rng = np.random.default_rng(32)
        reduced = 0
        for trial in range(120):
            p = TestFreeVariables.random_lp(rng, trial % 4) if trial % 2 else \
                TestBoundedVariables.random_lp(rng, trial % 3)
            got, got_runs = self.solve(p, monkeypatch, lp._live_phase2)
            want, want_runs = self.solve(p, monkeypatch, lp._phase2)
            assert got_runs == want_runs and got.status == want.status, dump(p)
            if got.status == lp.OPTIMAL:
                assert same_bits(got.x, want.x) and same_bits(got.y, want.y)
                start = lp._phase1(p.A, p.b, p.lower, p.upper)
                reduced += p.free[start.basis].any()
        assert reduced > 20


class TestOptimalBasis:
    """`solve` solves x_B and the multipliers from the data at the basis
    where phase 2 stops, and raises `LPBasisError`, naming the LP's shape,
    phase 2's pivots and the violation, where that basis gives none."""

    @pytest.fixture
    def spoil(self, monkeypatch):
        """Make `solve`'s phase 2 stop with its basis and nonbasic values
        changed by a function of the two."""
        phase2 = lp._live_phase2

        def install(change):
            def spoiled(T, basis, c, p, value):
                status, pivots = phase2(T, basis, c, p, value)
                change(basis, value)
                return status, pivots
            monkeypatch.setattr(lp, "_live_phase2", spoiled)
        return install

    def test_singular_basis(self, spoil):
        p = standard([1.0, 2.0, 0.0], [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 1.0])
        spoil(lambda basis, value: basis.__setitem__(1, basis[0]))
        with pytest.raises(lp.LPBasisError,
                           match=r"stopped after \d+ pivots at a basis that is "
                                 r"singular on a 2 x 3 LP") as info:
            lp.solve(p)
        assert (info.value.shape, info.value.violation) == ((2, 3), np.inf)

    def test_basis_out_of_bounds(self, spoil):
        # x0 + x1 = 2 over [0, 1]^2 holds only at (1, 1), where one column
        # is nonbasic at 1; at 0 instead, the basic one is 2
        p = lp.LPStandardForm(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[2.0],
                              upper=[1.0, 1.0])
        assert np.array_equal(lp.solve(p).x, [1.0, 1.0])
        spoil(lambda basis, value: value.fill(0.0))
        with pytest.raises(lp.LPBasisError,
                           match=r"x_B leaves its bounds by 1\.000e\+00 on a "
                                 r"1 x 2 LP") as info:
            lp.solve(p)
        assert info.value.violation == 1.0

    def test_with_column_at_a_singular_basis(self, monkeypatch):
        # B^-1 a cannot be taken at a singular basis of the shared phase 1:
        # the LP runs its own phase 1, and solves as the standalone LP does
        base = lp.LPStandardForm(c=[0.0, 1.0, -1.0], A=[[1.0, 1.0, 0.0]], b=[1.0],
                                 lower=[0.0, 0.0, -1.0], upper=[np.inf, np.inf, 1.0])
        lp.solve(base.with_column(2, [1.0]))  # memoizes the base's phase 1
        phase1, runs = lp._phase1, []
        monkeypatch.setattr(lp, "_phase1", lambda *a: runs.append(1) or phase1(*a))
        solve = np.linalg.solve

        def singular_once(*args):
            monkeypatch.setattr(np.linalg, "solve", solve)
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "solve", singular_once)
        got = lp.solve(base.with_column(2, [2.0]))
        assert len(runs) == 1
        want = lp.solve(lp.LPStandardForm(base.c, [[1.0, 1.0, 2.0]], base.b,
                                          base.lower, base.upper))
        assert got.status == want.status == lp.OPTIMAL
        assert np.array_equal(got.x, want.x) and got.objective == want.objective


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

    def test_slack_lps_match_brute(self, phase1_runs):
        statuses = set()
        for trial, kind, p in slack_corpus():
            phase1_runs.clear()
            got, want = lp.solve(p), lp.solve_brute(p)
            assert got.status == want.status, f"trial {trial}: {dump(p)}"
            (run,) = phase1_runs
            if kind == 0:
                assert run.pivots == 0
            if got.status == lp.OPTIMAL:
                assert got.objective == pytest.approx(want.objective, abs=1e-7), \
                    f"trial {trial}"
                check_optimal_invariants(p, got)
            statuses.add(got.status)
        assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}

    def test_crash_rows_divided_bit_for_bit(self, monkeypatch):
        # dividing only the crash rows whose entry is not 1.0 gives the
        # phase 1 that dividing every crash row gave, bit for bit
        def divide_all(T, rows, cols):
            T[rows] /= T[rows, cols][:, None]

        ops = [kin.assemble(factory()) for _, factory in MESH_CASES]
        lps = [p for _, _, p in slack_corpus()]
        # the same LPs with every column scaled, so that no crash entry is 1
        scales = np.random.default_rng(19).uniform(0.5, 2.0, size=(len(lps), 10))
        lps += [lp.LPStandardForm(p.c, p.A * s[:p.A.shape[1]], p.b, p.lower, p.upper)
                for p, s in zip(lps, scales)]
        for o in ops:
            for mode in st.MODES:
                f = np.arange(1.0, o.n_dof + 1.0)
                box = st.box_lp(o, mode)
                load = np.zeros(len(box.b))
                load[:o.n_dof] = -f
                lps += [st.kinematic_lp(o, mode).prob, box,
                        box.with_column(-1, load)]
        divided = 0
        for p in lps:
            args = (p.A, p.b, p.lower, p.upper)
            got = lp._phase1(*args)
            with monkeypatch.context() as mp:
                mp.setattr(lp, "_divide_rows", divide_all)
                want = lp._phase1(*args)
            assert (got.tableau is None) == (want.tableau is None)
            if got.tableau is not None:
                assert got.tableau.tobytes() == want.tableau.tobytes()
                assert np.array_equal(got.basis, want.basis)
            crash = lp._crash_basis(p.A, np.isposinf(p.upper))
            rows = np.flatnonzero(crash >= 0)
            divided += np.any(np.abs(p.A[rows, crash[rows]]) != 1.0)
        assert divided > 50

    @pytest.mark.parametrize("name,factory", [
        ("rect33", lambda: msh.generate_rectangle(1, 1, 3, 3, "left", "right")),
        ("rect55", lambda: msh.generate_rectangle(1, 1, 5, 5, "left", "right")),
        ("two_tet", make_two_tet_mesh)], ids=["rect33", "rect55", "two_tet"])
    def test_plastic_box_lp_crashes_every_pressure_basic(self, name, factory):
        # a free column never leaves the basis, so each one the crash
        # leaves nonbasic costs phase 2 a pivot; the two-tet mesh's first
        # pressure is a zero column, as its element has no free node
        box = st.box_lp(kin.assemble(factory()), st.PLASTIC)
        start = lp._phase1(box.A, box.b, box.lower, box.upper)
        assert start.pivots == 0
        assert np.count_nonzero(box.free[start.basis]) == \
            np.linalg.matrix_rank(box.A[:, box.free])

    @pytest.mark.parametrize("name,factory", MESH_CASES, ids=[c[0] for c in MESH_CASES])
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_row_scaling_keeps_the_crash(self, name, factory, mode):
        # the crash's pivot test is relative to each row of A, so rows
        # times powers of two, which keep the arithmetic exact and break
        # ties alike, crash on the same basis, with no artificial row; an
        # absolute test gave rows scaled below about 1e-9 an artificial
        box = st.box_lp(kin.assemble(factory()), mode)
        n = len(box.c)
        k = np.random.default_rng(zlib.crc32(name.encode())).integers(
            -40, 21, size=len(box.b))
        want = lp._phase1(box.A, box.b, box.lower, box.upper)
        got = lp._phase1(np.ldexp(box.A, k[:, None]), box.b, box.lower, box.upper)
        assert (want.basis < n).all() and (got.basis < n).all()
        assert np.array_equal(got.basis, want.basis)

    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_free_columns_first_only_among_bounded_ones(self, monkeypatch, mode):
        # the elastic box LP has no free column, and every column of the
        # kinematic LP with 0 inside its bounds is free: their crash is the
        # one that never prefers a free column
        lps = []
        for _, factory in MESH_CASES:
            ops = kin.assemble(factory())
            lps.append(st.kinematic_lp(ops, mode).prob)
            if mode == st.ELASTIC:
                lps.append(st.box_lp(ops, mode))
        for p in lps:
            args = (p.A, p.b, p.lower, p.upper)
            got = lp._phase1(*args)
            with monkeypatch.context() as mp:
                mp.setattr(lp, "_FREE_CRASH", np.inf)
                want = lp._phase1(*args)
            assert got.tableau.tobytes() == want.tableau.tobytes()
            assert np.array_equal(got.basis, want.basis)

    NEGATIVE_UNIT = ([1.0, 0.0, 0.0], [[1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]],
                     [1.0, -1.0])

    def test_negative_unit_column_not_basic(self, phase1_runs):
        # flipping row 1 makes column 2 a unit column with entry -1; starting
        # on it would give x2 = -1 and the wrong optimum 0
        p = standard(*self.NEGATIVE_UNIT)
        sol = lp.solve(p)
        check_optimal_invariants(p, sol)
        assert np.array_equal(sol.x, [1.0, 0.0, 0.0])
        assert sol.objective == lp.solve_brute(p).objective == 1.0
        (run,) = phase1_runs
        assert run.pivots > 0


class TestDriveOut:
    """Phase 1 drives an artificial out of its row on the first entry
    above `_PIVOT_TOL` times the row's largest entry in A, the crash's
    test, so that a row of small entries is not taken for a redundant
    one."""

    def test_row_scaled_by_1e_12(self):
        # random LPs, feasible by construction, with one row times 1e-12:
        # `solve` gives the unscaled LP's status and objective, or fails;
        # an absolute 1e-9 dropped that row and answered about a third of
        # them wrongly
        rng = np.random.default_rng(3232)
        statuses, failed = set(), 0
        for trial in range(1000):
            m, n = int(rng.integers(2, 5)), int(rng.integers(3, 7))
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            b = A @ rng.integers(0, 2, size=n)
            c = rng.integers(-2, 3, size=n)
            scaled_A, scaled_b = A.copy(), b.copy()
            r = int(rng.integers(m))
            scaled_A[r] *= 1e-12
            scaled_b[r] *= 1e-12
            want = lp.solve_brute(standard(c, A, b))
            try:
                got = lp.solve(standard(c, scaled_A, scaled_b))
            except lp.LPBasisError:
                failed += 1
                continue
            assert got.status == want.status, f"trial {trial}"
            if got.status == lp.OPTIMAL:
                assert got.objective == pytest.approx(want.objective, abs=1e-7), \
                    f"trial {trial}"
            statuses.add(got.status)
        assert statuses == {lp.OPTIMAL, lp.UNBOUNDED}
        assert failed < 100, failed


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

    class Recorded(np.ndarray):
        """A tableau that records the shape of each two-dimensional block
        of entries it updates in place: `T -= X` records X's shape and
        `T[key] -= X` the shape of T[key]; the division of the pivot row
        is one-dimensional and not recorded.  Its views record nothing."""

        def __setitem__(self, key, value):
            if "updates" in self.__dict__ and np.ndim(value) == 2:
                self.updates.append(np.shape(value))
            super().__setitem__(key, value)

        def __isub__(self, other):
            if "updates" in self.__dict__:
                self.updates.append(np.shape(other))
            return super().__isub__(other)

    def test_matches_dense_update(self):
        """Every branch of the choice is taken; the shapes of the blocks
        the pivot updates tell them apart: the whole tableau (below the
        size gate), every row by every column in blocks of rows (dense,
        above it), or the nonzero rows by the pivot row's nonzero
        columns."""
        rng = np.random.default_rng(1010)
        fills = (0.01, 0.03, 0.1, 0.3, 1.0)
        branches, blocks = set(), set()
        # below the size gate, just above it, well above it and in several
        # blocks of rows
        for shape in ((20, 41), (60, 171), (150, 401), (400, 701)):
            m, n = shape
            for row_fill in fills:
                for col_fill in fills:
                    row, col = int(rng.integers(m)), int(rng.integers(n))
                    T = self.tableau(rng, shape, row_fill, col_fill, row, col)
                    want = self.dense_pivot(T, row, col)
                    T = T.view(self.Recorded)
                    T.updates = shapes = []
                    lp._pivot(T, row, col)
                    assert np.array_equal(T, want), (shape, row_fill, col_fill)
                    (rows, cols), *more = shapes
                    if cols == n and sum(r for r, _ in shapes) == m and \
                            all(c == n for _, c in more):
                        branches.add("dense" if m * n >= lp._DENSE_BELOW else "small")
                        blocks.add(len(shapes))
                    else:
                        assert not more and rows < m
                        branches.add("block")
        assert branches == {"small", "dense", "block"}
        assert max(blocks) > 1


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: equal entries, signs of zeros too."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLoopMatchesReference:
    """Every `_simplex` call, phase 1, phase 2 and walk steps alike, ends
    as `conftest.reference_simplex`, the loop that recomputes its prices,
    ratio test and tie rule in full at each iteration, ends on copies of
    its arguments: the same tableau, basis and nonbasic values, bit for
    bit, the same status and the same count of pivots and flips, or the
    same iteration limit.  On an LP whose columns are all free or
    nonnegative the reference runs its simplex without bounds, so the
    bounded-variable loop must pivot as that one does."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """(phase, status, pivots, flips, plain) of each checked `_simplex`
        call: its pivots count the bound flips too, and plain says that
        the reference ran without bounds."""
        calls, simplex, pivot, pivoted = [], lp._simplex, lp._pivot, []
        monkeypatch.setattr(lp, "_pivot",
                            lambda *args: pivoted.append(1) or pivot(*args))

        def checked(T, basis, lower, upper, value, phase, shape):
            plain = bool(np.isposinf(upper).all()) and \
                not lower[np.isfinite(lower)].any()
            want = [T.copy(), basis.copy(), value.copy()]
            try:
                result = reference_simplex(want[0], want[1], lower, upper, want[2],
                                           plain, phase, shape)
            except lp.LPIterationError as exc:
                result = str(exc)
            pivoted.clear()
            try:
                got = simplex(T, basis, lower, upper, value, phase, shape)
            except lp.LPIterationError as exc:
                assert str(exc) == result
                raise
            assert got == result
            assert same_bits(T, want[0]) and same_bits(basis, want[1])
            assert same_bits(value, want[2])
            flips = got[1] - len(pivoted)
            assert flips == 0 or not plain  # no column has a bound to flip to
            calls.append((phase, *got, flips, plain))
            return got
        monkeypatch.setattr(lp, "_simplex", checked)
        return calls

    def test_dense_and_slack_corpora(self, calls):
        for trial, A, b, costs in dense_corpus():
            base = standard(np.zeros(A.shape[1]), A, b)
            for c in costs:
                lp.solve(standard(c, A, b))
                lp.solve(base.with_objective(c))
        for trial, _, p in slack_corpus():
            lp.solve(p)
        assert {status for _, status, *_ in calls} == {lp.OPTIMAL, lp.UNBOUNDED}
        assert {phase for phase, *_ in calls} == {1, 2}
        assert all(plain for *_, plain in calls)

    def test_bounded_corpus(self, calls):
        rng = np.random.default_rng(1717)
        fixed = 0
        for trial in range(300):
            p = TestBoundedVariables.random_lp(rng, trial % 3)
            fixed += np.count_nonzero(p.lower == p.upper)
            lp.solve(p)
        assert fixed > 0
        assert sum(flips for _, _, _, flips, _ in calls) > 0
        assert {status for _, status, *_ in calls} == {lp.OPTIMAL, lp.UNBOUNDED}

    @pytest.mark.parametrize("stall", [0, 1, 50])
    def test_bland_fallback(self, calls, monkeypatch, stall):
        """The Beale LPs reach Bland's rule at the default `_STALL`; at 0
        and 1 every corpus LP runs under it too."""
        monkeypatch.setattr(lp, "_STALL", stall)
        for c, A in (BEALE_ORIGINAL, BEALE_RESCALED):
            lp.solve(standard(c, A, [0.0, 0.0, 1.0]))
        if stall == 50:
            assert max(pivots for _, _, pivots, *_ in calls) > stall
            return
        for trial, A, b, costs in dense_corpus():
            lp.solve(standard(costs[0], A, b))
        rng = np.random.default_rng(1818)
        for trial in range(60):
            lp.solve(TestBoundedVariables.random_lp(rng, trial % 3))

    def test_iteration_limit(self, calls, monkeypatch):
        monkeypatch.setattr(lp, "_MAX_ITER", 2)
        limited = 0
        for trial, A, b, costs in dense_corpus():
            try:
                lp.solve(standard(costs[0], A, b))
            except lp.LPIterationError:
                limited += 1
        assert limited > 0

    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    @pytest.mark.parametrize("n", [1, 2, 3, "two_tet"])
    def test_box_and_kinematic_lps(self, calls, mode, n):
        """Box LPs standalone and sharing a phase 1, kinematic LPs solved
        one by one and walked, under random tractions and sign patterns."""
        mesh = make_two_tet_mesh() if n == "two_tet" else \
            msh.generate_rectangle(1, 1, n, n, "left", "right")
        ops = kin.assemble(mesh)
        rng = np.random.default_rng(2024)
        box, kinematic = st.box_lp(ops, mode), st.kinematic_lp(ops, mode)
        m = ops.n_boundary_comps
        unit = np.array([kin.work_vector(ops, e.reshape(-1, ops.dim))
                         for e in np.eye(m)])
        for _ in range(3):
            t = rng.uniform(-1.0, 1.0, size=(len(ops.gammat_facets), ops.dim))
            st.optimal_stress(ops, t, mode)
            st.box_optimum(ops, kin.work_vector(ops, t), mode, box)
            st.kinematic_supremum(kinematic, kin.work_vector(ops, t))
        st.kinematic_suprema(kinematic, unit, np.where(rng.random((40, m)) < 0.5, -1, 1))
        assert {phase for phase, *_ in calls} == {2}
        assert sum(pivots for _, _, pivots, *_ in calls) > 0
        # the plastic 3x3 plate's phase 2s, from a crash with every
        # pressure basic, reach their optima without a bound flip
        assert sum(flips for _, _, _, flips, _ in calls) > 0 or \
            (mode, n) == (st.PLASTIC, 3)
        # the kinematic LPs' columns are free or nonnegative
        assert {plain for *_, plain in calls} == {True, False}
