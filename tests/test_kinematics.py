import numpy as np
import pytest

from loadcap import kinematics as kin
from loadcap import mesh as msh

from conftest import (affine_field, as_matrix, deviatoric_dual_value, kuhn_box,
                      trace_norm_l1)


def kuhn_cube() -> msh.Mesh:
    """Unit cube cut into six tetrahedra around its main diagonal, face
    x=0 clamped, the other boundary faces loaded: its corners lie on up to
    six loaded facets."""
    return kuhn_box(1, 1, 1)


def strains(ops, w) -> np.ndarray:
    """Unique strain components of every element, one row each."""
    return (ops.strain_op @ w).reshape(ops.n_elements, -1)


class TestAssemble:
    def test_bar_hand_assembly(self, unit_bar):
        ops = kin.assemble(unit_bar)
        assert ops.n_dof == 1
        assert np.allclose(ops.strain_op, [[1.0]])
        assert ops.volumes[0] == pytest.approx(1.0)
        assert ops.areas[0] == pytest.approx(1.0)

    def test_affine_exactness_triangle(self):
        m = msh.generate_rectangle(1, 1, 1, 1, "left", "right")
        ops = kin.assemble(m, clamp=False)
        w = affine_field(ops, [[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(strains(ops, w), [1.0, 0.0, 0.0], atol=1e-12)

    def test_affine_exactness_general(self, two_tet_mesh):
        rng = np.random.default_rng(2)
        ops = kin.assemble(two_tet_mesh, clamp=False)
        grad = rng.normal(size=(3, 3))
        sym = 0.5 * (grad + grad.T)
        expected = [sym[0, 0], sym[1, 1], sym[2, 2], sym[1, 2], sym[0, 2], sym[0, 1]]
        w = affine_field(ops, grad, const=rng.normal(size=3))
        assert np.allclose(strains(ops, w), expected, atol=1e-12)

    def test_translation_has_zero_strain(self):
        m = msh.generate_rectangle(1, 1, 2, 2, "left", "right")
        ops = kin.assemble(m, clamp=False)
        w = affine_field(ops, np.zeros((2, 2)), const=[1.0, -2.0])
        assert np.allclose(strains(ops, w), 0.0, atol=1e-14)

    def test_rotation_has_zero_strain(self):
        m = msh.generate_rectangle(1, 1, 2, 1, "left", "right")
        ops = kin.assemble(m, clamp=False)
        w = affine_field(ops, [[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(strains(ops, w), 0.0, atol=1e-14)

    def test_gamma0_nodes_eliminated(self, unit_square):
        ops = kin.assemble(unit_square)
        assert ops.n_dof == 4  # two right-edge nodes, two components each
        # the columns of the left nodes 0 and 2 dropped, those of 1 and 3 kept
        whole = kin.assemble(unit_square, clamp=False)
        for op in ("strain_op", "trace_op"):
            assert np.array_equal(getattr(ops, op), getattr(whole, op)[:, [2, 3, 6, 7]])

    @pytest.mark.parametrize("make", [
        lambda: msh.generate_bar(1.0, 1.0, 8),
        lambda: msh.generate_rectangle(1.0, 1.0, 2, 2, "left", "right"),
        kuhn_cube], ids=["bar8", "rect2x2", "kuhn_cube"])
    def test_operators_column_major(self, make):
        # the last bits of a report depend on the layout of the operators,
        # not only on their entries: the same entries row-major change the
        # equilibrium residual of about a third of the benchmark's reports
        ops = kin.assemble(make())
        assert ops.strain_op.flags.f_contiguous
        assert ops.trace_op.flags.f_contiguous

    def test_invalid_mesh_rejected(self):
        m = msh.Mesh(1, np.array([[0.0], [0.0]]), [(0, 1)], [(0,), (1,)],
                     np.array([True, False]), [1.0])
        with pytest.raises(kin.KinematicsError, match="invalid mesh"):
            kin.assemble(m)


class TestStrainNorm:
    def test_zero_field(self, unit_bar):
        ops = kin.assemble(unit_bar)
        assert kin.strain_norm_l1(ops, np.zeros(1)) == 0.0

    def test_bar_unit(self, unit_bar):
        ops = kin.assemble(unit_bar)
        assert kin.strain_norm_l1(ops, np.array([1.0])) == pytest.approx(1.0)

    def test_homogeneity(self, unit_square):
        ops = kin.assemble(unit_square)
        rng = np.random.default_rng(4)
        w = rng.normal(size=ops.n_dof)
        assert kin.strain_norm_l1(ops, 2.0 * w) == pytest.approx(
            2.0 * kin.strain_norm_l1(ops, w))

    def test_injectivity_on_clamped_space(self):
        # strain norm zero implies zero field when gamma0 is nonempty
        for m in (msh.generate_bar(2, 1, 3),
                  msh.generate_rectangle(1, 1, 2, 2, "left", "right")):
            ops = kin.assemble(m)
            sv = np.linalg.svd(ops.strain_op, compute_uv=False)
            assert sv[-1] > 1e-9 * sv[0]

    def test_plastic_norm_matches_elementwise_value(self, unit_square):
        # the stacked norm against the oracle's value of each element's strain
        for mesh in (unit_square, kuhn_cube()):
            ops = kin.assemble(mesh)
            rng = np.random.default_rng(3)
            for _ in range(5):
                w = rng.normal(size=ops.n_dof)
                want = sum(vol * deviatoric_dual_value(as_matrix(e, ops.dim))
                           for vol, e in zip(ops.volumes, strains(ops, w)))
                assert kin.strain_norm_plastic(ops, w) == pytest.approx(want, rel=1e-12)

    def test_plastic_norm_le_plain(self, two_tet_mesh):
        ops = kin.assemble(two_tet_mesh)
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = rng.normal(size=ops.n_dof)
            assert kin.strain_norm_plastic(ops, w) <= \
                kin.strain_norm_l1(ops, w) + 1e-12

    def test_length_mismatch(self, unit_bar):
        ops = kin.assemble(unit_bar)
        with pytest.raises(kin.KinematicsError):
            kin.strain_norm_l1(ops, np.zeros(3))


class TestTrace:
    def test_bar_trace(self, unit_bar):
        ops = kin.assemble(unit_bar)
        values = kin.trace(ops, np.array([1.0]))
        assert values.shape == (1, 1)
        assert values[0, 0] == pytest.approx(1.0)
        assert trace_norm_l1(ops, np.array([1.0])) == pytest.approx(1.0)

    def test_constant_field_unclamped(self, unit_square):
        ops = kin.assemble(unit_square, clamp=False)
        w = affine_field(ops, np.zeros((2, 2)), const=[0.7, -0.3])
        for v in kin.trace(ops, w):
            assert np.allclose(v, [0.7, -0.3], atol=1e-14)

    def test_affine_trace_matches_boundary_values(self, unit_square):
        ops = kin.assemble(unit_square, clamp=False)
        grad = np.array([[0.5, 1.0], [0.0, -0.25]])
        w = affine_field(ops, grad)
        for facet, v in zip(ops.gammat_facets, kin.trace(ops, w)):
            mid = ops.mesh.nodes[facet].mean(axis=0)
            assert np.allclose(v, grad @ mid, atol=1e-12)

    def test_zero(self, unit_square):
        ops = kin.assemble(unit_square)
        assert trace_norm_l1(ops, np.zeros(ops.n_dof)) == 0.0


class TestWorkAndNorms:
    def test_bar_work(self, unit_bar):
        ops = kin.assemble(unit_bar)
        assert kin.work_vector(ops, np.array([[1.0]])) @ np.array([1.0]) == \
            pytest.approx(1.0)

    def test_zero_traction(self, unit_square):
        ops = kin.assemble(unit_square)
        t = np.zeros((3, 2))
        rng = np.random.default_rng(6)
        for _ in range(5):
            assert kin.work_vector(ops, t) @ rng.normal(size=ops.n_dof) == 0.0

    def test_bilinearity(self, unit_square):
        ops = kin.assemble(unit_square)
        rng = np.random.default_rng(9)
        t = rng.normal(size=(3, 2))
        w = rng.normal(size=ops.n_dof)
        assert kin.work_vector(ops, 2.0 * t) @ (3.0 * w) == pytest.approx(
            6.0 * (kin.work_vector(ops, t) @ w))

    def test_traction_sup_norm(self, unit_square):
        ops = kin.assemble(unit_square)
        t = np.array([[3.0, -4.0], [0.0, 0.0], [1.0, 1.0]])
        assert kin.traction_sup_norm(ops, t) == 4.0
        assert kin.traction_sup_norm(ops, 0.5 * t) == 2.0
        assert kin.traction_sup_norm(ops, np.zeros((3, 2))) == 0.0

    def test_boundary_holder_inequality(self, unit_square):
        ops = kin.assemble(unit_square)
        rng = np.random.default_rng(10)
        for _ in range(30):
            t = rng.normal(size=(3, 2))
            w = rng.normal(size=ops.n_dof)
            lhs = abs(kin.work_vector(ops, t) @ w)
            rhs = kin.traction_sup_norm(ops, t) * trace_norm_l1(ops, w)
            assert lhs <= rhs * (1.0 + 1e-9) + 1e-12

    def test_work_vector_matches_facet_loop(self):
        # summed facet by facet, in facet order, the same floats as a loop
        ops = kin.assemble(kuhn_cube())
        t = np.random.default_rng(11).uniform(-1, 1, size=(len(ops.gammat_facets), 3))
        want = np.zeros(ops.n_dof)
        for a, tv, T in zip(ops.areas, t, ops.trace_op.reshape(len(t), 3, -1)):
            want += a * (tv @ T)
        assert np.array_equal(kin.work_vector(ops, t), want)

    @pytest.mark.parametrize("make", [
        lambda: msh.generate_bar(1.0, 1.0, 8),
        lambda: msh.generate_rectangle(0.7, 1.3, 2, 1, "left", "right"),
        kuhn_cube], ids=["bar8", "rect2x1", "kuhn_cube"])
    def test_unit_works(self, make):
        # row i is the work vector of the unit traction on component i,
        # bit for bit
        ops = kin.assemble(make())
        m = ops.n_boundary_comps
        want = np.array([kin.work_vector(ops, e.reshape(-1, ops.dim))
                         for e in np.eye(m)])
        got = kin.unit_works(ops)
        assert (got.dtype, got.shape, got.tobytes()) == \
            (want.dtype, want.shape, want.tobytes())

    def test_work_vector_consistency(self, two_tet_mesh):
        ops = kin.assemble(two_tet_mesh)
        rng = np.random.default_rng(12)
        t = rng.normal(size=(3, 3))
        f = kin.work_vector(ops, t)
        for _ in range(5):
            w = rng.normal(size=ops.n_dof)
            # the area-weighted work of each facet's traction on its trace
            assert f @ w == pytest.approx(
                ops.areas @ (t * kin.trace(ops, w)).sum(axis=1))


class TestIsochoric:
    def test_bar_constraint_is_strain(self, unit_bar):
        ops = kin.assemble(unit_bar)
        rows = kin.isochoric_constraints(ops)
        assert np.allclose(rows, ops.strain_op)

    def test_pure_shear_satisfies(self, unit_square):
        ops = kin.assemble(unit_square, clamp=False)
        w = affine_field(ops, [[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(kin.isochoric_constraints(ops) @ w, 0.0, atol=1e-12)

    def test_dilation_violates_every_constraint(self, unit_square):
        ops = kin.assemble(unit_square, clamp=False)
        w = affine_field(ops, np.eye(2))
        assert np.all(np.abs(kin.isochoric_constraints(ops) @ w - 2.0) < 1e-12)


class TestRigidKernel:
    def test_2d(self):
        m = msh.generate_rectangle(1, 1, 2, 2, "left", "right")
        assert kin.rigid_kernel_dim(kin.assemble(m, clamp=False)) == 3

    def test_3d(self, two_tet_mesh):
        assert kin.rigid_kernel_dim(kin.assemble(two_tet_mesh, clamp=False)) == 6

    def test_clamped(self, two_tet_mesh):
        m = msh.generate_rectangle(1, 1, 3, 2, "bottom", "top")
        assert kin.rigid_kernel_dim(kin.assemble(m)) == 0
        assert kin.rigid_kernel_dim(kin.assemble(two_tet_mesh)) == 0
