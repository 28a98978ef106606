"""The entrywise norms, the yield seminorm and their duals on plain
symmetric matrices: the oracles in conftest that the stacked stress
measure and strain norms are checked against."""

import numpy as np
import pytest

from conftest import (deviatoric, deviatoric_dual_value, dual_pairing, embed3,
                      mat_norm, yield_value)

INF = np.inf


def sym(a):
    """The symmetric matrix a + a^T."""
    return a + a.T


class TestMatNorm:
    def test_identity_l1(self):
        assert mat_norm(np.eye(2), 1) == 2.0

    def test_offdiagonal_doubling(self):
        m = [[0, 3], [3, 0]]
        assert mat_norm(m, 1) == 6.0
        assert mat_norm(m, INF) == 3.0

    def test_zero(self):
        assert mat_norm(np.zeros((3, 3)), 1) == 0.0
        assert mat_norm(np.zeros((3, 3)), INF) == 0.0


class TestDualPairing:
    def test_identity(self):
        assert dual_pairing(np.eye(2), np.eye(2)) == 2.0

    def test_offdiagonal_counted_twice(self):
        m = [[0, 1], [1, 0]]
        assert dual_pairing(m, m) == 2.0

    def test_zero(self):
        assert dual_pairing([[1, 2], [2, 3]], np.zeros((2, 2))) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            dual_pairing(np.eye(2), np.eye(3))

    def test_equals_full_matrix_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = sym(rng.normal(size=(3, 3)))
            e = sym(rng.normal(size=(3, 3)))
            expected = sum(s[i, j] * e[i, j] for i in range(3) for j in range(3))
            assert dual_pairing(s, e) == pytest.approx(expected, abs=1e-12)


class TestProjections:
    """The spherical part of m is embed3(m) - deviatoric(m)."""

    def test_spherical_input(self):
        assert np.allclose(deviatoric(np.eye(3)), 0.0)

    def test_uniaxial(self):
        m = np.diag([3.0, 0.0, 0.0])
        assert np.allclose(m - deviatoric(m), np.eye(3))
        assert np.allclose(deviatoric(m), np.diag([2.0, -1.0, -1.0]))

    def test_pure_shear(self):
        m = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        assert np.allclose(deviatoric(m), m)

    def test_idempotence_and_complementarity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = sym(rng.normal(size=(3, 3)))
            pd = deviatoric(m)
            pp = m - pd
            assert abs(np.trace(pd)) <= 1e-12
            assert np.allclose(pp, np.trace(m) / 3.0 * np.eye(3), atol=1e-12)
            assert np.allclose(deviatoric(pd), pd, atol=1e-12)
            assert np.allclose(deviatoric(pp), 0.0, atol=1e-12)

    def test_2d_embedding(self):
        m = np.array([[1.0, 0.5], [0.5, 2.0]])
        m3 = embed3(m)
        assert m3.shape == (3, 3)
        assert m3[2, 2] == 0.0
        assert m3[0, 1] == 0.5
        assert deviatoric(m)[2, 2] == pytest.approx(-1.0)


class TestYield:
    def test_spherical_kernel(self):
        for p in (-2.0, 0.0, 3.5):
            assert yield_value(p * np.eye(3), INF) == pytest.approx(0.0)

    def test_uniaxial(self):
        assert yield_value(np.diag([3.0, 0, 0]), INF) == pytest.approx(2.0)

    def test_pure_shear_l1(self):
        m = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        assert yield_value(m, 1) == pytest.approx(2.0)

    def test_spherical_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = sym(rng.normal(size=(3, 3)))
            p = rng.normal()
            for ord in (1, INF):
                assert yield_value(m + p * np.eye(3), ord) == pytest.approx(
                    yield_value(m, ord), abs=1e-12)


class TestDualityInequality:
    def test_holder_and_extremizers(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = sym(rng.normal(size=(3, 3)))
            e = sym(rng.normal(size=(3, 3)))
            for ord, dual in ((1, INF), (INF, 1)):
                bound = mat_norm(s, dual) * mat_norm(e, ord)
                assert abs(dual_pairing(s, e)) <= bound + 1e-12

    def test_equality_attained_linf_side(self):
        # stress aligned with the sign pattern of the strain attains equality
        e = np.array([[1, -2], [-2, 0.5]])
        s = np.sign(e) * 3.0
        assert dual_pairing(s, e) == pytest.approx(
            mat_norm(s, INF) * mat_norm(e, 1))

    def test_equality_attained_l1_side(self):
        # strain concentrated on the largest stress entry attains equality
        s = np.array([[1, -4], [-4, 2]])
        e = np.array([[0, -1], [-1, 0]])
        assert dual_pairing(s, e) == pytest.approx(
            mat_norm(s, INF) * mat_norm(e, 1))


class TestDeviatoricDualValue:
    def test_plain_l1_for_plane_strain_isochoric(self):
        m = np.array([[1.5, 0.7], [0.7, -1.5]])
        assert deviatoric_dual_value(m) == pytest.approx(mat_norm(m, 1))

    def test_shift_beats_plain_l1_in_3d(self):
        m = np.diag([1.0, 1.0, -2.0])
        assert deviatoric_dual_value(m) == pytest.approx(3.0)
        assert mat_norm(m, 1) == pytest.approx(4.0)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = sym(rng.normal(size=(3, 3)))
            ps = np.linspace(-6, 6, 4001)
            vals = [mat_norm(m + p * np.eye(3), 1) for p in ps]
            assert deviatoric_dual_value(m) <= min(vals) + 1e-6
