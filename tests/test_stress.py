import dataclasses

import numpy as np
import pytest

from loadcap import kinematics as kin
from loadcap import lp
from loadcap import mesh as msh
from loadcap import stress as st
from loadcap.matnorm import SymMatrix

from conftest import make_two_tet_mesh


@pytest.fixture
def bar_ops(unit_bar):
    return kin.assemble(unit_bar)


@pytest.fixture
def square_ops(unit_square):
    return kin.assemble(unit_square)


class TestStressMeasure:
    def test_zero_field(self, square_ops):
        s = st.StressField.zero(square_ops)
        assert st.stress_measure(s, st.ELASTIC, square_ops) == 0.0

    def test_uniaxial_elastic_vs_plastic(self, two_tet_mesh):
        ops = kin.assemble(two_tet_mesh)
        elems = [SymMatrix.from_matrix(np.diag([3.0, 0, 0])),
                 SymMatrix.zero(3)]
        s = st.StressField(elems)
        assert st.stress_measure(s, st.ELASTIC, ops) == pytest.approx(3.0)
        assert st.stress_measure(s, st.PLASTIC, ops) == pytest.approx(2.0)

    def test_spherical_plastic_kernel(self, two_tet_mesh):
        ops = kin.assemble(two_tet_mesh)
        elems = [SymMatrix.from_matrix(2.0 * np.eye(3))] * 2
        s = st.StressField(elems)
        assert st.stress_measure(s, st.PLASTIC, ops) == pytest.approx(0.0)

    def test_s33_enters_plastic_measure(self, square_ops):
        elems = [SymMatrix(2, np.array([1.0, 1.0, 0.0]))] * 2
        no_s33 = st.StressField(elems, s33=np.zeros(2))
        with_s33 = st.StressField(elems, s33=np.ones(2))
        assert st.stress_measure(with_s33, st.PLASTIC, square_ops) == \
            pytest.approx(0.0)
        assert st.stress_measure(no_s33, st.PLASTIC, square_ops) > 0.5

    def test_element_count_mismatch(self, square_ops):
        s = st.StressField([SymMatrix.zero(2)])
        with pytest.raises(st.StressError):
            st.stress_measure(s, st.ELASTIC, square_ops)

    def test_bad_mode(self, square_ops):
        with pytest.raises(st.StressError):
            st.stress_measure(st.StressField.zero(square_ops), "rigid", square_ops)


class TestCheckEquilibrium:
    def test_bar_unit(self, bar_ops):
        s = st.StressField([SymMatrix(1, np.array([1.0]))])
        ok, residual = st.check_equilibrium(bar_ops, s, np.array([[1.0]]))
        assert ok
        assert residual == pytest.approx(0.0, abs=1e-14)

    def test_bar_violated(self, bar_ops):
        s = st.StressField([SymMatrix(1, np.array([2.0]))])
        ok, residual = st.check_equilibrium(bar_ops, s, np.array([[1.0]]))
        assert not ok
        assert residual == pytest.approx(1.0)

    def test_zero_zero(self, bar_ops):
        s = st.StressField([SymMatrix(1, np.array([0.0]))])
        ok, residual = st.check_equilibrium(bar_ops, s, np.array([[0.0]]))
        assert ok and residual == 0.0


class TestOptimalStressBar:
    def test_unit_traction(self, bar_ops):
        res = st.optimal_stress(bar_ops, np.array([[1.0]]), st.ELASTIC)
        assert res.sigma_opt == pytest.approx(1.0, abs=1e-12)
        assert res.dual_value == pytest.approx(1.0, abs=1e-12)
        assert res.sigma_hat.elements[0].comps[0] == pytest.approx(1.0)

    def test_negative_traction(self, bar_ops):
        sigma_opt, _ = st.optimal_stress_primal(bar_ops, np.array([[-2.0]]),
                                                st.ELASTIC)
        assert sigma_opt == pytest.approx(2.0, abs=1e-12)

    def test_zero_traction(self, bar_ops):
        res = st.optimal_stress(bar_ops, np.array([[0.0]]), st.ELASTIC)
        assert res.sigma_opt == pytest.approx(0.0, abs=1e-12)

    def test_dual_witness(self, bar_ops):
        value, w = st.optimal_stress_dual(bar_ops, np.array([[1.0]]), st.ELASTIC)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert kin.external_work(bar_ops, np.array([[1.0]]), w) / \
            kin.strain_norm_l1(bar_ops, w) == pytest.approx(1.0, abs=1e-8)

    def test_dual_sign_symmetry(self, bar_ops):
        vp, _ = st.optimal_stress_dual(bar_ops, np.array([[1.0]]), st.ELASTIC)
        vm, _ = st.optimal_stress_dual(bar_ops, np.array([[-1.0]]), st.ELASTIC)
        assert vp == pytest.approx(vm, abs=1e-12)

    def test_plastic_rejected_on_bars(self, bar_ops):
        with pytest.raises(st.StressError, match="isochoric"):
            st.optimal_stress(bar_ops, np.array([[1.0]]), st.PLASTIC)


MESH_CASES = [
    ("rect11", lambda: msh.generate_rectangle(1, 1, 1, 1, "left", "right")),
    ("rect22", lambda: msh.generate_rectangle(2, 1, 2, 2, "left", "right")),
    ("two_tet", make_two_tet_mesh),
]


class TestStrongDuality:
    @pytest.mark.parametrize("name,factory", MESH_CASES, ids=[c[0] for c in MESH_CASES])
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_random_tractions(self, name, factory, mode):
        ops = kin.assemble(factory())
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        for _ in range(5):
            t = rng.uniform(-1, 1, size=(len(ops.gammat_facets), ops.dim))
            res = st.optimal_stress(ops, t, mode)
            assert res.duality_gap <= 1e-6 * (1.0 + res.sigma_opt)
            ok, _ = st.check_equilibrium(ops, res.sigma_hat, t)
            assert ok
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
        builders = []
        dual_builder, solve = st._dual_builder, lp.solve

        def recording_builder(*args):
            out = dual_builder(*args)
            builders.append(out[0])
            return out

        def corrupting_solve(prob, *args, **kwargs):
            sol = solve(prob, *args, **kwargs)
            y = sol.y.copy()
            y[builders[-1].labels["slot", 0, 0]] += 0.1
            return dataclasses.replace(sol, y=y)

        t = np.array([[1.0, 0.0], [0.0, -0.5], [0.25, 0.0]])
        st.optimal_stress(square_ops, t, mode)
        monkeypatch.setattr(st, "_dual_builder", recording_builder)
        monkeypatch.setattr(lp, "solve", corrupting_solve)
        with pytest.raises(st.SolverFailure, match="does not balance"):
            st.optimal_stress(square_ops, t, mode)
