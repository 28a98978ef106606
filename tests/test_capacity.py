from types import SimpleNamespace

import numpy as np
import pytest

from loadcap import capacity as cap
from loadcap import kinematics as kin
from loadcap import lp
from loadcap import mesh as msh
from loadcap import stress as st

from conftest import (cold_generalized_K, end_tension_plate, make_two_tet_mesh,
                      trace_norm_l1)


@pytest.fixture
def bar_ops(unit_bar):
    return kin.assemble(unit_bar)


@pytest.fixture
def square_ops(unit_square):
    return kin.assemble(unit_square)


def concentration_factor(ops, t):
    """sigma_opt / |t|_inf: the quantity whose sup over t is K."""
    return st.optimal_stress(ops, t).sigma_opt / kin.traction_sup_norm(ops, t)


class TestConcentrationFactor:
    def test_bar_unit(self, bar_ops):
        assert concentration_factor(bar_ops, np.array([[1.0]])) == \
            pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self, square_ops):
        rng = np.random.default_rng(20)
        t = rng.uniform(-1, 1, size=(3, 2))
        k1 = concentration_factor(square_ops, t)
        k5 = concentration_factor(square_ops, 5.0 * t)
        assert k1 == pytest.approx(k5, rel=1e-9)


class TestGeneralizedK:
    def test_bar_exact(self, bar_ops):
        res = cap.generalized_K(bar_ops)
        assert res.K == pytest.approx(1.0, abs=1e-9)
        assert res.C == pytest.approx(1.0, abs=1e-9)
        assert res.method == cap.EXACT

    def test_bar_chain(self):
        ops = kin.assemble(msh.generate_bar(2.0, 1.0, 2))
        assert cap.generalized_K(ops).K == pytest.approx(1.0, abs=1e-9)

    def test_K_dominates_sampled_tractions(self, square_ops):
        res = cap.generalized_K(square_ops)
        rng = np.random.default_rng(21)
        for _ in range(10):
            t = rng.uniform(-1, 1, size=(3, 2))
            if kin.traction_sup_norm(square_ops, t) == 0.0:
                continue
            assert concentration_factor(square_ops, t) <= res.K + 1e-8

    def test_certificate_ratio(self, square_ops):
        res = cap.generalized_K(square_ops)
        ratio = trace_norm_l1(square_ops, res.certificate) / \
            kin.strain_norm_l1(square_ops, res.certificate)
        assert ratio == pytest.approx(res.K, rel=1e-6)

    def test_plastic_certificate_ratio(self, square_ops):
        res = cap.generalized_K(square_ops, st.PLASTIC)
        ratio = trace_norm_l1(square_ops, res.certificate) / \
            kin.strain_norm_plastic(square_ops, res.certificate)
        assert ratio == pytest.approx(res.K, rel=1e-6)

    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_exact_K_is_certified(self, square_ops, two_tet_mesh, mode):
        for ops in (square_ops, kin.assemble(two_tet_mesh)):
            res = cap.generalized_K(ops, mode)
            assert res.K_traction_side == pytest.approx(
                res.K, abs=st.DUALITY_GAP_TOL * (1.0 + res.K))
            # the worst traction's value from a kinematic LP of its own
            value = st.kinematic_supremum(st.kinematic_lp(ops, mode),
                                          kin.work_vector(ops, res.worst_traction))[0]
            assert res.K_traction_side == pytest.approx(value, rel=1e-8)
            heur = cap.generalized_K(ops, mode, cap.HEURISTIC)
            assert heur.K_traction_side is None

    def test_failed_certificate_raises(self, square_ops, monkeypatch):
        solve = cap.kinematic_supremum

        def zero_multipliers(*args):
            val, w, y = solve(*args)
            return val, w, np.zeros_like(y)
        monkeypatch.setattr(cap, "kinematic_supremum", zero_multipliers)
        with pytest.raises(st.SolverFailure, match="does not balance"):
            cap.generalized_K(square_ops)

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_vertex_order(self, m):
        # code's bit b set <=> component b + 1 negative, code counting up
        ops = SimpleNamespace(gammat_facets=[None] * m, dim=1)
        want = [[1.0] + [-1.0 if code >> b & 1 else 1.0 for b in range(m - 1)]
                for code in range(2 ** (m - 1))]
        got = [t.ravel().tolist() for t in cap._vertex_tractions(ops)]
        assert got == want

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_gray_order(self, m):
        signs = cap._gray_signs(m)
        assert signs.dtype == np.int8
        got = signs.tolist()
        want = [cap._vertex(k ^ (k >> 1), m).tolist() for k in range(2 ** (m - 1))]
        assert got == want
        assert sorted(got) == sorted(cap._vertex(code, m).tolist()
                                     for code in range(2 ** (m - 1)))
        flips = [np.count_nonzero(np.subtract(a, b)) for a, b in zip(got, got[1:])]
        assert flips == [1] * (2 ** (m - 1) - 1)

    def test_heuristic_is_lower_bound(self, square_ops):
        exact = cap.generalized_K(square_ops)
        heur = cap.generalized_K(square_ops, method=cap.HEURISTIC)
        assert heur.lower_bound_only
        assert heur.K <= exact.K + 1e-8

    def test_heuristic_matches_exact_here(self, square_ops, two_tet_mesh):
        for ops in (square_ops, kin.assemble(two_tet_mesh)):
            for mode in (st.ELASTIC, st.PLASTIC):
                exact = cap.generalized_K(ops, mode)
                heur = cap.generalized_K(ops, mode, cap.HEURISTIC)
                assert heur.K == pytest.approx(exact.K, rel=1e-8)

    def test_heuristic_on_elastic_6x6_plate(self, monkeypatch):
        # a box LP per sign pattern; one of the kinematic LPs of these
        # patterns stalled phase 2 past 50,000 pivots
        solve, solves = lp.solve, []
        monkeypatch.setattr(lp, "solve", lambda p: solves.append(1) or solve(p))
        ops = kin.assemble(end_tension_plate(6)[0])
        res = cap.generalized_K(ops, st.ELASTIC, cap.HEURISTIC)
        budget = kin.strain_norm_l1(ops, res.certificate)
        assert trace_norm_l1(ops, res.certificate) / budget == pytest.approx(res.K, rel=1e-9)
        assert kin.external_work(ops, res.worst_traction, res.certificate) / budget == \
            pytest.approx(res.K, rel=1e-9)
        assert res.K == pytest.approx(9.5, rel=1e-9)
        assert len(solves) == 18

    def test_renumbering_invariance(self):
        m = msh.generate_rectangle(1, 1, 1, 1, "left", "right")
        perm = [2, 0, 3, 1]
        inv = np.argsort(perm)
        m2 = msh.Mesh(2, m.nodes[perm],
                      [msh.Element(e.kind, tuple(int(inv[n]) for n in e.nodes))
                       for e in m.elements],
                      [msh.Facet(tuple(int(inv[n]) for n in f.nodes), f.label)
                       for f in m.facets])
        k1 = cap.generalized_K(kin.assemble(m)).K
        k2 = cap.generalized_K(kin.assemble(m2)).K
        assert k1 == pytest.approx(k2, rel=1e-9)

    def test_cap_enforced(self):
        ops = kin.assemble(msh.generate_rectangle(1, 1, 3, 3, "left", "right"))
        assert len(ops.gammat_facets) * 2 > cap.SIGN_PATTERN_CAP
        with pytest.raises(cap.CapacityError, match="capped at 16"):
            cap.generalized_K(ops)
        res = cap.generalized_K(ops, method=cap.HEURISTIC)
        assert res.lower_bound_only and res.K > 0


def assert_same_result(got: cap.CapacityResult, want: cap.CapacityResult):
    """Every field equal, bit for bit."""
    for name, a, b in zip(want._fields, got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


EXACT_CASES = [
    ("bar8", lambda: msh.generate_bar(1.0, 1.0, 8), [st.ELASTIC]),
    *((f"rect{nx}x{ny}",
       lambda nx=nx, ny=ny: msh.generate_rectangle(1, 1, nx, ny, "left", "right"),
       [st.ELASTIC, st.PLASTIC]) for nx, ny in ((1, 1), (1, 2), (2, 1), (2, 2))),
    ("two_tet", make_two_tet_mesh, [st.ELASTIC, st.PLASTIC]),
]


class TestWalkMatchesColdEnumeration:
    """The walk and its near-tie solves give what one solve per vertex
    gives (`conftest.cold_generalized_K`), field for field."""

    @pytest.mark.parametrize("make, mode", [
        pytest.param(make, mode, id=f"{name}-{mode}")
        for name, make, modes in EXACT_CASES for mode in modes])
    def test_exact(self, make, mode):
        ops = kin.assemble(make())
        assert_same_result(cap.generalized_K(ops, mode), cold_generalized_K(ops, mode))

    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_walk_rounding_is_resolved(self, monkeypatch, mode):
        # walk values off by up to 1e-11 (relative), far above the walk's
        # rounding measured at m = 16, change nothing: the near ties are
        # solved again
        ops = kin.assemble(msh.generate_rectangle(1, 1, 2, 1, "left", "right"))
        suprema = cap.kinematic_suprema
        rng = np.random.default_rng(28)

        def rounded(*args):
            values = suprema(*args)
            return values * (1.0 + rng.uniform(-1e-11, 1e-11, values.shape))
        monkeypatch.setattr(cap, "kinematic_suprema", rounded)
        assert_same_result(cap.generalized_K(ops, mode), cold_generalized_K(ops, mode))

    def test_near_ties_solved_by_code(self, square_ops, monkeypatch):
        # Gray-code steps 2 and 3 visit codes 3 and 2; their full solves
        # run by code counting up, and no other pattern is solved again
        solved = []
        solve = cap.kinematic_supremum

        def recorded(kinematic, work):
            solved.append(work)
            return solve(kinematic, work)
        monkeypatch.setattr(cap, "kinematic_suprema",
                            lambda *args: np.array([0.0, 0.0, 1.0, 1.0] + [0.0] * 28))
        monkeypatch.setattr(cap, "kinematic_supremum", recorded)
        res = cap.generalized_K(square_ops)
        vertices = [cap._vertex(code, 6).reshape(3, 2) for code in (2, 3)]
        assert np.array_equal(solved, [kin.work_vector(square_ops, t) for t in vertices])
        assert any(np.array_equal(res.worst_traction, t) for t in vertices)


class TestOneKinematicLP:
    """Exact: one `generalized_K` call builds one kinematic LP and runs its
    phase 1 once; the patterns are the rows of one walk, which runs phase 2
    only for the patterns that no basis before them proves optimal, and
    each near tie is one solve of its own.  Heuristic: each distinct sign
    pattern is one box LP solve, all of them after one phase 1, and no
    kinematic LP is built."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"builds": 0, "phase1": 0, "walks": 0, "walk_rows": 0,
                  "phase2": 0, "solves": 0, "patterns": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counted_walk(p, unit_costs, weights):
            counts["walk_rows"] += len(weights)
            return solve_each(p, unit_costs, weights)
        solve_each = counted("walks", lp.solve_each)
        monkeypatch.setattr(st, "_dual_builder", counted("builds", st._dual_builder))
        monkeypatch.setattr(lp, "_phase1", counted("phase1", lp._phase1))
        monkeypatch.setattr(lp, "_phase2", counted("phase2", lp._phase2))
        monkeypatch.setattr(lp, "solve_each", counted_walk)
        monkeypatch.setattr(lp, "solve", counted("solves", lp.solve))
        monkeypatch.setattr(cap, "kinematic_supremum",
                            counted("patterns", cap.kinematic_supremum))
        return counts

    # the vertices of the 1x1 plate whose value is K (elastic: codes 0, 8,
    # 21 and 23; plastic: 10 codes); every other one is at least 1 below K.
    # Each near-tie solve runs one phase 2, and the walk runs 3 (elastic)
    # or 6 (plastic) for its 32 patterns
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_exact(self, square_ops, counts, mode):
        cap.generalized_K(square_ops, mode, cap.EXACT)
        ties = {st.ELASTIC: 4, st.PLASTIC: 10}[mode]
        walk_phase2 = {st.ELASTIC: 3, st.PLASTIC: 6}[mode]
        assert counts == {"builds": 1, "phase1": 1, "walks": 1,
                          "walk_rows": 2 ** 5, "phase2": walk_phase2 + ties,
                          "solves": ties, "patterns": ties}

    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_exact_phase2_runs(self, counts, mode):
        # 2^11 patterns on the 2x2 plate share far fewer optimal bases
        ops = kin.assemble(msh.generate_rectangle(1, 1, 2, 2, "left", "right"))
        cap.generalized_K(ops, mode, cap.EXACT)
        assert counts["walk_rows"] == 2 ** 11
        assert counts["phase2"] < 2 ** 11 / 2

    # the restarts and steps on the 1x1 plate visit 10 (elastic) or 9
    # (plastic) distinct sign patterns, in 15 or 14 steps; their box LPs
    # share the phase 1 of one box LP
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_heuristic(self, square_ops, counts, monkeypatch, mode):
        patterns, steps = {st.ELASTIC: (10, 15), st.PLASTIC: (9, 14)}[mode]
        works, solve, traces, trace = [], cap.box_optimum, [], cap.trace

        def recorded(ops, work, *args):
            works.append(work.tobytes())
            return solve(ops, work, *args)
        monkeypatch.setattr(cap, "box_optimum", recorded)
        monkeypatch.setattr(cap, "trace",
                            lambda *args: traces.append(1) or trace(*args))
        cap.generalized_K(square_ops, mode, cap.HEURISTIC)
        assert counts["builds"] == counts["patterns"] == 0
        assert counts["phase1"] == 1
        assert counts["solves"] == len(works) == len(set(works)) == patterns
        assert len(traces) == steps

    def test_cap_checked_before_build(self, counts):
        ops = kin.assemble(msh.generate_rectangle(1, 1, 3, 3, "left", "right"))
        with pytest.raises(cap.CapacityError, match="capped at 16"):
            cap.generalized_K(ops)
        assert counts["builds"] == 0


class TestDualCheck:
    def test_bar(self, bar_ops):
        assert cap.generalized_K_dual_check(bar_ops) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_square_both_modes(self, square_ops, mode):
        K = cap.generalized_K(square_ops, mode).K
        Kp = cap.generalized_K_dual_check(square_ops, mode)
        assert abs(K - Kp) <= 1e-6 * (1.0 + K)


class TestLoadCapacity:
    def test_bar(self, bar_ops):
        res = cap.generalized_K(bar_ops)
        assert res.C == pytest.approx(1.0, abs=1e-9)

    def test_C_times_K(self, square_ops, two_tet_mesh):
        for ops in (square_ops, kin.assemble(two_tet_mesh)):
            res = cap.generalized_K(ops)
            assert res.C * res.K == pytest.approx(1.0, abs=1e-12)

    def test_C_is_geometry_only(self, square_ops):
        # plastic C never reads a traction or a yield stress
        c1 = cap.generalized_K(square_ops, st.PLASTIC).C
        c2 = cap.generalized_K(square_ops, st.PLASTIC).C
        assert c1 == c2


class TestLimitAnalysis:
    def test_definitional_ratio(self, square_ops):
        rng = np.random.default_rng(22)
        t = rng.uniform(-1, 1, size=(3, 2))
        res = cap.limit_analysis(square_ops, t, Y0=1.0)
        assert res.lambda_star * res.sigma_opt == pytest.approx(1.0, rel=1e-14)

    def test_projection_reaches_collapse_manifold(self, square_ops):
        rng = np.random.default_rng(23)
        for _ in range(3):
            t = rng.uniform(-1, 1, size=(3, 2))
            res = cap.limit_analysis(square_ops, t, Y0=2.0)
            check = st.optimal_stress(square_ops, res.t_collapse, st.PLASTIC)
            assert check.sigma_opt == pytest.approx(2.0, rel=1e-6)

    def test_projection_idempotent(self, square_ops):
        rng = np.random.default_rng(24)
        t = rng.uniform(-1, 1, size=(3, 2))
        res1 = cap.limit_analysis(square_ops, t, Y0=1.0)
        res2 = cap.limit_analysis(square_ops, res1.t_collapse, Y0=1.0)
        assert np.abs(res2.t_collapse - res1.t_collapse).max() <= 1e-9

    def test_homogeneity(self, square_ops):
        rng = np.random.default_rng(25)
        t = rng.uniform(-1, 1, size=(3, 2))
        lam = cap.limit_analysis(square_ops, t, Y0=1.0).lambda_star
        lam2 = cap.limit_analysis(square_ops, 2.0 * t, Y0=1.0).lambda_star
        assert lam2 == pytest.approx(lam / 2.0, rel=1e-9)

    def test_zero_traction_rejected(self, square_ops):
        with pytest.raises(cap.CapacityError):
            cap.limit_analysis(square_ops, np.zeros((3, 2)), Y0=1.0)

    def test_bar_rejected(self, bar_ops):
        with pytest.raises(st.StressError):
            cap.limit_analysis(bar_ops, np.array([[1.0]]), Y0=1.0)


class TestKinematicLimitCheck:
    def test_static_kinematic_agreement(self, square_ops, two_tet_mesh):
        tet_ops = kin.assemble(two_tet_mesh)
        rng = np.random.default_rng(26)
        for ops in (square_ops, tet_ops):
            t = rng.uniform(-1, 1, size=(len(ops.gammat_facets), ops.dim))
            lam_s, lam_k, gap = cap.kinematic_limit_check(ops, t, Y0=1.5)
            assert gap <= 1e-6 * (1.0 + lam_s)

    def test_scaling(self, square_ops):
        rng = np.random.default_rng(27)
        t = rng.uniform(-1, 1, size=(3, 2))
        s1, k1, _ = cap.kinematic_limit_check(square_ops, t, Y0=1.0)
        s2, k2, _ = cap.kinematic_limit_check(square_ops, 2.0 * t, Y0=1.0)
        assert s2 == pytest.approx(s1 / 2.0, rel=1e-9)
        assert k2 == pytest.approx(k1 / 2.0, rel=1e-9)

    def test_zero_traction_error(self, square_ops):
        with pytest.raises(cap.CapacityError):
            cap.kinematic_limit_check(square_ops, np.zeros((3, 2)), Y0=1.0)


class TestPinnedCounts:
    """Counts of simplex work, pinned on three workloads: a change to the
    simplex loop's bookkeeping that keeps every pivot keeps them all.
    phase2 counts phase 2s (walk steps and standalone solves alike),
    iterations their pivots and bound flips, and pivots every `_pivot`
    call, the crash's Gaussian pivots included."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"phase2": 0, "iterations": 0, "pivots": 0, "phase2_pivots": 0}
        simplex, pivot, phase = lp._simplex, lp._pivot, []

        def counted_simplex(*args):
            phase.append(args[6])
            try:
                status, iterations = simplex(*args)
            finally:
                phase.pop()
            if args[6] == 2:
                counts["phase2"] += 1
                counts["iterations"] += iterations
            return status, iterations

        def counted_pivot(*args):
            counts["pivots"] += 1
            counts["phase2_pivots"] += phase == [2]
            return pivot(*args)
        monkeypatch.setattr(lp, "_simplex", counted_simplex)
        monkeypatch.setattr(lp, "_pivot", counted_pivot)
        return counts

    @pytest.mark.parametrize("mode, phase2, iterations, K",
                             [(st.ELASTIC, 455, 2181, 6.0), (st.PLASTIC, 325, 1981, 2.5)])
    def test_exact_K_on_2x2_plate(self, counts, mode, phase2, iterations, K):
        ops = kin.assemble(msh.generate_rectangle(1, 1, 2, 2, "left", "right"))
        assert cap.generalized_K(ops, mode, cap.EXACT).K == pytest.approx(K, rel=1e-12)
        assert (counts["phase2"], counts["iterations"]) == (phase2, iterations)

    def test_plastic_5x5_plate_end_tension(self, counts):
        mesh, t = end_tension_plate(5)
        assert st.optimal_stress(kin.assemble(mesh), t, st.PLASTIC).sigma_opt == \
            pytest.approx(0.5, rel=1e-12)
        assert (counts["pivots"], counts["phase2_pivots"]) == (175, 69)
        assert (counts["phase2"], counts["iterations"]) == (1, 69)

    def test_heuristic_on_elastic_3x3_plate(self, counts):
        ops = kin.assemble(msh.generate_rectangle(1, 1, 3, 3, "left", "right"))
        result = cap.generalized_K(ops, st.ELASTIC, cap.HEURISTIC)
        assert result.K == pytest.approx(7.0, rel=1e-12)
        assert (counts["phase2"], counts["iterations"]) == (14, 250)
