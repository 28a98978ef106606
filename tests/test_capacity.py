import numpy as np
import pytest

from loadcap import capacity as cap
from loadcap import kinematics as kin
from loadcap import mesh as msh
from loadcap import stress as st


@pytest.fixture
def bar_ops(unit_bar):
    return kin.assemble(unit_bar)


@pytest.fixture
def square_ops(unit_square):
    return kin.assemble(unit_square)


class TestConcentrationFactor:
    def test_bar_unit(self, bar_ops):
        assert cap.concentration_factor_for(bar_ops, np.array([[1.0]])) == \
            pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self, square_ops):
        rng = np.random.default_rng(20)
        t = rng.uniform(-1, 1, size=(3, 2))
        k1 = cap.concentration_factor_for(square_ops, t)
        k5 = cap.concentration_factor_for(square_ops, 5.0 * t)
        assert k1 == pytest.approx(k5, rel=1e-9)

    def test_zero_traction_rejected(self, bar_ops):
        with pytest.raises(cap.CapacityError):
            cap.concentration_factor_for(bar_ops, np.array([[0.0]]))


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
            assert cap.concentration_factor_for(square_ops, t) <= res.K + 1e-8

    def test_certificate_ratio(self, square_ops):
        res = cap.generalized_K(square_ops)
        ratio = kin.trace_norm_l1(square_ops, res.certificate) / \
            kin.strain_norm_l1(square_ops, res.certificate)
        assert ratio == pytest.approx(res.K, rel=1e-6)

    def test_plastic_certificate_ratio(self, square_ops):
        res = cap.generalized_K(square_ops, st.PLASTIC)
        ratio = kin.trace_norm_l1(square_ops, res.certificate) / \
            kin.strain_norm_plastic(square_ops, res.certificate)
        assert ratio == pytest.approx(res.K, rel=1e-6)

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
