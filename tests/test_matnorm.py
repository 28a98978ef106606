import numpy as np
import pytest

from loadcap.matnorm import (L1, LINF, NormError, SymMatrix,
                             deviatoric_dual_value, dual_norm_id, embed3,
                             mat_norm, proj_deviatoric, proj_spherical,
                             vec_norm, yield_value)

from conftest import dual_pairing


def sym(m):
    return SymMatrix.from_matrix(m)


class TestMatNorm:
    def test_identity_l1(self):
        assert mat_norm(sym(np.eye(2)), L1) == 2.0

    def test_offdiagonal_doubling(self):
        m = sym([[0, 3], [3, 0]])
        assert mat_norm(m, L1) == 6.0
        assert mat_norm(m, LINF) == 3.0

    def test_zero(self):
        assert mat_norm(SymMatrix.zero(3), L1) == 0.0
        assert mat_norm(SymMatrix.zero(3), LINF) == 0.0

    def test_unknown_id(self):
        with pytest.raises(NormError):
            mat_norm(sym(np.eye(2)), "l2")

    def test_vec_norm(self):
        assert vec_norm([3.0, -4.0], L1) == 7.0
        assert vec_norm([3.0, -4.0], LINF) == 4.0
        assert vec_norm([], LINF) == 0.0
        with pytest.raises(NormError):
            vec_norm([1.0], "l2")


class TestDualPairing:
    def test_identity(self):
        assert dual_pairing(sym(np.eye(2)), sym(np.eye(2))) == 2.0

    def test_offdiagonal_counted_twice(self):
        m = sym([[0, 1], [1, 0]])
        assert dual_pairing(m, m) == 2.0

    def test_zero(self):
        assert dual_pairing(sym([[1, 2], [2, 3]]), SymMatrix.zero(2)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(NormError):
            dual_pairing(sym(np.eye(2)), sym(np.eye(3)))

    def test_equals_full_matrix_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            s, e = sym(a + a.T), sym(b + b.T)
            expected = float(np.sum(s.as_matrix() * e.as_matrix()))
            assert dual_pairing(s, e) == pytest.approx(expected, abs=1e-12)


class TestProjections:
    def test_spherical_input(self):
        m = sym(np.eye(3))
        assert np.allclose(proj_spherical(m).as_matrix(), np.eye(3))
        assert np.allclose(proj_deviatoric(m).as_matrix(), 0.0)

    def test_uniaxial(self):
        m = sym(np.diag([3.0, 0.0, 0.0]))
        assert np.allclose(proj_spherical(m).as_matrix(), np.eye(3))
        assert np.allclose(proj_deviatoric(m).as_matrix(),
                           np.diag([2.0, -1.0, -1.0]))

    def test_pure_shear(self):
        m = sym([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert np.allclose(proj_spherical(m).as_matrix(), 0.0)
        assert np.allclose(proj_deviatoric(m).as_matrix(), m.as_matrix())

    def test_idempotence_and_complementarity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = rng.normal(size=(3, 3))
            m = sym(a + a.T)
            pp = proj_spherical(m)
            pd = proj_deviatoric(m)
            assert np.allclose(pp.as_matrix() + pd.as_matrix(),
                               m.as_matrix(), atol=1e-12)
            assert abs(np.trace(pd.as_matrix())) <= 1e-12
            assert np.allclose(proj_spherical(pp).as_matrix(),
                               pp.as_matrix(), atol=1e-12)
            assert np.allclose(proj_deviatoric(pd).as_matrix(),
                               pd.as_matrix(), atol=1e-12)
            assert np.allclose(proj_spherical(pd).as_matrix(), 0.0, atol=1e-12)

    def test_2d_embedding(self):
        m = SymMatrix(2, np.array([1.0, 2.0, 0.5]))
        m3 = embed3(m)
        assert m3.dim == 3
        assert m3.as_matrix()[2, 2] == 0.0
        assert m3.as_matrix()[0, 1] == 0.5


class TestYield:
    def test_spherical_kernel(self):
        for p in (-2.0, 0.0, 3.5):
            assert yield_value(sym(p * np.eye(3)), LINF) == pytest.approx(0.0)

    def test_uniaxial(self):
        assert yield_value(sym(np.diag([3.0, 0, 0])), LINF) == pytest.approx(2.0)

    def test_pure_shear_l1(self):
        m = sym([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert yield_value(m, L1) == pytest.approx(2.0)

    def test_spherical_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            m = (a + a.T)
            p = rng.normal()
            for nid in (L1, LINF):
                assert yield_value(sym(m + p * np.eye(3)), nid) == pytest.approx(
                    yield_value(sym(m), nid), abs=1e-12)


class TestDualNormId:
    def test_pairing(self):
        assert dual_norm_id(L1) == LINF
        assert dual_norm_id(LINF) == L1

    def test_involution(self):
        for nid in (L1, LINF):
            assert dual_norm_id(dual_norm_id(nid)) == nid


class TestDualityInequality:
    def test_holder_and_extremizers(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            s, e = sym(a + a.T), sym(b + b.T)
            for nid in (L1, LINF):
                bound = mat_norm(s, dual_norm_id(nid)) * mat_norm(e, nid)
                assert abs(dual_pairing(s, e)) <= bound + 1e-12

    def test_equality_attained_linf_side(self):
        # stress aligned with the sign pattern of the strain attains equality
        e = sym([[1, -2], [-2, 0.5]])
        s = sym(np.sign(e.as_matrix()) * 3.0)
        assert dual_pairing(s, e) == pytest.approx(
            mat_norm(s, LINF) * mat_norm(e, L1))

    def test_equality_attained_l1_side(self):
        # strain concentrated on the largest stress entry attains equality
        s = sym([[1, -4], [-4, 2]])
        e = sym([[0, -1], [-1, 0]])
        assert dual_pairing(s, e) == pytest.approx(
            mat_norm(s, LINF) * mat_norm(e, L1))


class TestDeviatoricDualValue:
    def test_plain_l1_for_plane_strain_isochoric(self):
        m = SymMatrix(2, np.array([1.5, -1.5, 0.7]))
        assert deviatoric_dual_value(m) == pytest.approx(mat_norm(m, L1))

    def test_shift_beats_plain_l1_in_3d(self):
        m = sym(np.diag([1.0, 1.0, -2.0]))
        assert deviatoric_dual_value(m) == pytest.approx(3.0)
        assert mat_norm(m, L1) == pytest.approx(4.0)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            a = rng.normal(size=(3, 3))
            m = sym(a + a.T)
            ps = np.linspace(-6, 6, 4001)
            vals = [mat_norm(sym(m.as_matrix() + p * np.eye(3)), L1) for p in ps]
            assert deviatoric_dual_value(m) <= min(vals) + 1e-6
