import dataclasses
import zlib

import numpy as np
import pytest

from loadcap import kinematics as kin
from loadcap import lp
from loadcap import stress as st

from conftest import (MESH_CASES, as_matrix, end_tension_plate, mat_norm,
                      yield_value)


@pytest.fixture
def bar_ops(unit_bar):
    return kin.assemble(unit_bar)


@pytest.fixture
def square_ops(unit_square):
    return kin.assemble(unit_square)


class TestStressMeasure:
    def test_zero_field(self, square_ops):
        s = st.StressField(np.zeros((2, 3)))
        assert st.stress_measure(s, st.ELASTIC, square_ops) == 0.0

    def test_uniaxial_elastic_vs_plastic(self, two_tet_mesh):
        ops = kin.assemble(two_tet_mesh)
        s = st.StressField(np.array([[3.0, 0, 0, 0, 0, 0], [0.0] * 6]))
        assert st.stress_measure(s, st.ELASTIC, ops) == pytest.approx(3.0)
        assert st.stress_measure(s, st.PLASTIC, ops) == pytest.approx(2.0)

    def test_spherical_plastic_kernel(self, two_tet_mesh):
        ops = kin.assemble(two_tet_mesh)
        s = st.StressField(np.array([[2.0, 2.0, 2.0, 0, 0, 0]] * 2))
        assert st.stress_measure(s, st.PLASTIC, ops) == pytest.approx(0.0)

    def test_s33_enters_plastic_measure(self, square_ops):
        comps = np.array([[1.0, 1.0, 0.0]] * 2)
        no_s33 = st.StressField(comps, s33=np.zeros(2))
        with_s33 = st.StressField(comps, s33=np.ones(2))
        assert st.stress_measure(with_s33, st.PLASTIC, square_ops) == \
            pytest.approx(0.0)
        assert st.stress_measure(no_s33, st.PLASTIC, square_ops) > 0.5

    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_matches_elementwise_measure(self, square_ops, two_tet_mesh, mode):
        # the stacked measure against the oracle's measure of each element
        rng = np.random.default_rng(5)
        for ops, s33 in ((square_ops, rng.normal(size=2)),
                         (kin.assemble(two_tet_mesh), None)):
            comps = rng.normal(size=(ops.n_elements, kin.n_comps(ops.dim)))
            want = []
            for e, c in enumerate(comps):
                m = as_matrix(c, ops.dim)
                full = np.zeros((3, 3))
                full[:ops.dim, :ops.dim] = m
                if s33 is not None:
                    full[2, 2] = s33[e]
                want.append(mat_norm(m, np.inf) if mode == st.ELASTIC
                            else yield_value(full, np.inf))
            measure = st.stress_measure(st.StressField(comps, s33), mode, ops)
            assert measure == pytest.approx(max(want), rel=1e-12)

    def test_element_count_mismatch(self, square_ops):
        s = st.StressField(np.zeros((1, 3)))
        with pytest.raises(st.StressError):
            st.stress_measure(s, st.ELASTIC, square_ops)

    def test_bad_mode(self, square_ops):
        with pytest.raises(st.StressError):
            st.stress_measure(st.StressField(np.zeros((2, 3))), "rigid",
                              square_ops)


class TestCheckEquilibrium:
    def test_bar_unit(self, bar_ops):
        s = st.StressField(np.array([[1.0]]))
        ok, residual = st.check_equilibrium(bar_ops, s, np.array([[1.0]]))
        assert ok
        assert residual == pytest.approx(0.0, abs=1e-14)

    def test_bar_violated(self, bar_ops):
        s = st.StressField(np.array([[2.0]]))
        ok, residual = st.check_equilibrium(bar_ops, s, np.array([[1.0]]))
        assert not ok
        assert residual == pytest.approx(1.0)

    def test_zero_zero(self, bar_ops):
        s = st.StressField(np.array([[0.0]]))
        ok, residual = st.check_equilibrium(bar_ops, s, np.array([[0.0]]))
        assert ok and residual == 0.0

    def test_shape_mismatch(self, square_ops):
        # one row of unique components per element, and one s33 per element
        t = np.zeros((3, 2))
        for s in (st.StressField(np.zeros((2, 2))), st.StressField(np.zeros(6)),
                  st.StressField(np.zeros((2, 3)), s33=np.zeros(3))):
            with pytest.raises(st.StressError):
                st.equilibrium_residual(square_ops, s, t)
            with pytest.raises(st.StressError):
                st.stress_measure(s, st.PLASTIC, square_ops)


class TestOptimalStressBar:
    def test_unit_traction(self, bar_ops):
        res = st.optimal_stress(bar_ops, np.array([[1.0]]), st.ELASTIC)
        assert res.sigma_opt == pytest.approx(1.0, abs=1e-12)
        assert res.dual_value == pytest.approx(1.0, abs=1e-12)
        assert res.sigma_hat.comps[0, 0] == pytest.approx(1.0)

    def test_negative_traction(self, bar_ops):
        sigma_opt, _ = st.optimal_stress_primal(bar_ops, np.array([[-2.0]]),
                                                st.ELASTIC)
        assert sigma_opt == pytest.approx(2.0, abs=1e-12)

    def test_zero_traction(self, bar_ops):
        res = st.optimal_stress(bar_ops, np.array([[0.0]]), st.ELASTIC)
        assert res.sigma_opt == pytest.approx(0.0, abs=1e-12)

    def test_dual_witness(self, bar_ops):
        value, w, _ = st.kinematic_supremum(st.kinematic_lp(bar_ops, st.ELASTIC),
                                            kin.work_vector(bar_ops, [[1.0]]))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert kin.external_work(bar_ops, np.array([[1.0]]), w) / \
            kin.strain_norm_l1(bar_ops, w) == pytest.approx(1.0, abs=1e-8)

    def test_dual_sign_symmetry(self, bar_ops):
        kinematic = st.kinematic_lp(bar_ops, st.ELASTIC)
        vp, _, _ = st.kinematic_supremum(kinematic, kin.work_vector(bar_ops, [[1.0]]))
        vm, _, _ = st.kinematic_supremum(kinematic, kin.work_vector(bar_ops, [[-1.0]]))
        assert vp == pytest.approx(vm, abs=1e-12)

    def test_plastic_rejected_on_bars(self, bar_ops):
        with pytest.raises(st.StressError, match="isochoric"):
            st.optimal_stress(bar_ops, np.array([[1.0]]), st.PLASTIC)


class TestDegeneratePlates:
    """End-tension plates whose degenerate vertices stalled a simplex that
    always priced by Bland's rule: phase 1 took thousands of pivots before
    it started from the LP's slack columns, and the elastic 6x6 kinematic
    LP hit the pivot limit in phase 2 before Dantzig pricing, which falls
    back to Bland's rule only while the objective does not move.  The
    plastic 8x8 kinematic LP (642 x 1570 tableau) fits in Tier-1 because a
    pivot updates only the tableau rows and columns it changes."""

    def test_plastic_6x6_plate(self):
        mesh, t = end_tension_plate(6)
        res = st.optimal_stress(kin.assemble(mesh), t, st.PLASTIC)
        assert res.sigma_opt == pytest.approx(0.5, abs=1e-9)

    def test_plastic_8x8_plate(self):
        mesh, t = end_tension_plate(8)
        res = st.optimal_stress(kin.assemble(mesh), t, st.PLASTIC)
        assert res.sigma_opt == pytest.approx(0.5, abs=1e-9)

    def test_elastic_6x6_plate(self):
        mesh, t = end_tension_plate(6)
        res = st.optimal_stress(kin.assemble(mesh), t, st.ELASTIC)
        assert res.sigma_opt == pytest.approx(1.0, abs=1e-9)

    def test_elastic_4x4_static_lp(self):
        mesh, t = end_tension_plate(4)
        ops = kin.assemble(mesh)
        static, _ = st.optimal_stress_primal(ops, t, st.ELASTIC)
        kinematic = st.optimal_stress(ops, t, st.ELASTIC).sigma_opt
        assert static == pytest.approx(kinematic, rel=1e-9)
        assert static == pytest.approx(1.0, abs=1e-9)


class TestStrongDuality:
    @pytest.mark.parametrize("name,factory", MESH_CASES, ids=[c[0] for c in MESH_CASES])
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_random_tractions(self, name, factory, mode):
        ops = kin.assemble(factory())
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(5):
            t = rng.uniform(-1, 1, size=(len(ops.gammat_facets), ops.dim))
            res = st.optimal_stress(ops, t, mode)
            assert res.duality_gap <= 1e-6 * (1.0 + res.sigma_opt)
            ok, residual = st.check_equilibrium(ops, res.sigma_hat, t)
            assert ok and residual == res.equilibrium_residual
            measured = st.stress_measure(res.sigma_hat, mode, ops)
            assert measured == pytest.approx(res.sigma_opt,
                                             rel=1e-7, abs=1e-9)

    def test_homogeneity(self, square_ops):
        rng = np.random.default_rng(13)
        t = rng.uniform(-1, 1, size=(3, 2))
        for mode in (st.ELASTIC, st.PLASTIC):
            base = st.optimal_stress(square_ops, t, mode)
            scaled = st.optimal_stress(square_ops, 3.0 * t, mode)
            assert scaled.sigma_opt == pytest.approx(3.0 * base.sigma_opt,
                                                     rel=1e-9, abs=1e-9)

    def test_dual_witness_certificate(self, square_ops):
        rng = np.random.default_rng(14)
        t = rng.uniform(-1, 1, size=(3, 2))
        res = st.optimal_stress(square_ops, t, st.ELASTIC)
        ratio = kin.external_work(square_ops, t, res.dual_witness) / \
            kin.strain_norm_l1(square_ops, res.dual_witness)
        assert ratio == pytest.approx(res.dual_value, abs=1e-8)

    def test_plastic_witness_isochoric(self, square_ops):
        rng = np.random.default_rng(15)
        t = rng.uniform(-1, 1, size=(3, 2))
        res = st.optimal_stress(square_ops, t, st.PLASTIC)
        rows = kin.isochoric_constraints(square_ops)
        assert np.abs(rows @ res.dual_witness).max() <= 1e-9


class TestKinematicLP:
    """Every objective solved on one `kinematic_lp` shares its phase 1 and
    gives exactly what a fresh LP with that objective gives."""

    @pytest.mark.parametrize("name,factory", MESH_CASES, ids=[c[0] for c in MESH_CASES])
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_shared_phase1_matches_fresh(self, name, factory, mode):
        ops = kin.assemble(factory())
        kinematic = st.kinematic_lp(ops, mode)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(4):
            c = np.zeros(kinematic.columns.n_vars)
            c[:ops.n_dof] = rng.uniform(-1.0, 1.0, size=ops.n_dof)
            costs = kinematic.columns.costs(c)
            got = lp.solve(kinematic.prob.with_objective(costs))
            want = lp.solve(lp.LPStandardForm(c=costs, A=kinematic.prob.A.copy(),
                                              b=kinematic.prob.b.copy()))
            assert got.status == want.status == lp.OPTIMAL
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.y, want.y)
            assert got.objective == want.objective

    def test_supremum_matches_fresh_lp(self, square_ops):
        kinematic = st.kinematic_lp(square_ops, st.PLASTIC)
        rng = np.random.default_rng(16)
        for _ in range(4):
            f = kin.work_vector(square_ops, rng.uniform(-1, 1, size=(3, 2)))
            got = st.kinematic_supremum(kinematic, f)
            want = st.kinematic_supremum(st.kinematic_lp(square_ops, st.PLASTIC), f)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], want[2])


class TestStressFromMultipliers:
    @pytest.mark.parametrize("name,factory", MESH_CASES, ids=[c[0] for c in MESH_CASES])
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_matches_static_lp(self, name, factory, mode):
        ops = kin.assemble(factory())
        rng = np.random.default_rng(31)
        for _ in range(3):
            t = rng.uniform(-1, 1, size=(len(ops.gammat_facets), ops.dim))
            res = st.optimal_stress(ops, t, mode)
            static, _ = st.optimal_stress_primal(ops, t, mode)
            assert st.stress_measure(res.sigma_hat, mode, ops) == \
                pytest.approx(static, rel=1e-9, abs=1e-12)
            assert res.sigma_opt == pytest.approx(static, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_corrupted_multiplier_fails_certificate(self, square_ops, mode,
                                                    monkeypatch):
        solve = lp.solve

        def corrupting_solve(prob, *args, **kwargs):
            # row 0 of the kinematic LP is strain slot 0 of element 0
            sol = solve(prob, *args, **kwargs)
            y = sol.y.copy()
            y[0] += 0.1
            return dataclasses.replace(sol, y=y)

        t = np.array([[1.0, 0.0], [0.0, -0.5], [0.25, 0.0]])
        st.optimal_stress(square_ops, t, mode)
        monkeypatch.setattr(lp, "solve", corrupting_solve)
        with pytest.raises(st.SolverFailure, match="does not balance"):
            st.optimal_stress(square_ops, t, mode)


@pytest.mark.parametrize("name,solve", [("kinematic LP", st.optimal_stress),
                                        ("static LP", st.optimal_stress_primal)])
def test_pivot_limit_names_the_lp(square_ops, monkeypatch, name, solve):
    def stalled(prob, *args, **kwargs):
        raise lp.LPIterationError(2, prob.A.shape, 7)

    monkeypatch.setattr(lp, "solve", stalled)
    t = np.array([[1.0, 0.0], [0.0, -0.5], [0.25, 0.0]])
    with pytest.raises(st.SolverFailure,
                       match=f"^{name}: simplex phase 2 did not terminate in 7 "
                             r"iterations on a \d+ x \d+ LP") as info:
        solve(square_ops, t, st.ELASTIC)
    assert isinstance(info.value.__cause__, lp.LPIterationError)
