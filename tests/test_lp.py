import numpy as np
import pytest

from loadcap import lp


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
    def test_beale_cycling_example(self):
        # classic instance on which Dantzig's rule cycles
        c = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
        A = [[0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
             [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
             [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]]
        b = [0.0, 0.0, 1.0]
        p = standard(c, A, b)
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
            assert got.status == want.status, f"trial {trial}: {p.dump()}"
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
        prob, recover = builder.build([1.0])
        assert np.array_equal(prob.A, [[1.0, -1.0]])
        sol = lp.solve(prob)
        assert sol.status == lp.OPTIMAL
        assert recover(sol.x)[0] == pytest.approx(-3.0)

    def test_inequality_slack(self):
        builder = lp.LPBuilder()
        builder.add_vars(1)
        builder.add_le([1.0], 2.0)
        prob, recover = builder.build([-1.0])
        assert np.array_equal(prob.A, [[1.0, 1.0]])
        sol = lp.solve(prob)
        assert recover(sol.x)[0] == pytest.approx(2.0)

    def test_blocks_keep_row_and_column_order(self):
        # columns: x (nonneg), y as (y+, y-), then one slack per le row;
        # rows in the order their blocks were added
        builder = lp.LPBuilder()
        builder.add_vars(2, nonneg=[True, False])
        builder.add_le([[1.0, 2.0], [0.0, 1.0]], [4.0, 1.0])
        builder.add_eq([[1.0, -1.0]], 0.5)
        prob, recover = builder.build([1.0, -1.0])
        assert np.array_equal(prob.A, [[1.0, 2.0, -2.0, 1.0, 0.0],
                                       [0.0, 1.0, -1.0, 0.0, 1.0],
                                       [1.0, -1.0, 1.0, 0.0, 0.0]])
        assert np.array_equal(prob.b, [4.0, 1.0, 0.5])
        assert np.array_equal(prob.c, [1.0, -1.0, 1.0, 0.0, 0.0])
        assert not np.any(np.signbit(prob.A) & (prob.A == 0.0))
        assert np.array_equal(recover(np.array([1.0, 2.0, 0.5, 0.0, 0.0])),
                              [1.0, 1.5])

    def test_dump_mentions_shape(self):
        p = standard([1.0], [[1.0]], [1.0])
        assert "1 rows, 1 cols" in p.dump()
