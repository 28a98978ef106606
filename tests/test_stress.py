import dataclasses
import tracemalloc
import zlib

import numpy as np
import pytest

from loadcap import kinematics as kin
from loadcap import lp
from loadcap import stress as st

from loadcap import capacity as cap
from loadcap import mesh as msh

from conftest import (MESH_CASES, as_matrix, end_tension_plate, kuhn_box,
                      mat_norm, yield_value)


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

    def test_one_small_row_violated(self):
        # on two bars, element 0 at stress 1 and element 1 at 1e-10: the
        # work of this stress balances row 0, and row 1's load is left
        # out, so row 1's residual is all of its own terms, yet 1e-8 of
        # row 0's terms would have passed it
        ops = kin.assemble(msh.generate_bar(1.0, 1.0, 2))
        s = st.StressField(np.array([[1.0], [1e-10]]))
        work = (ops.strain_weights * s.comps.ravel()) @ ops.strain_op
        work[1] = 0.0
        ok, residual = st._balance(ops, s, work)
        assert not ok
        assert residual == pytest.approx(1e-10) and residual <= 1e-8 * work[0]

    def test_one_small_element_dilated(self):
        # element 1's dilation is all of its own terms, 1e-10, where 1e-8
        # of element 0's terms would have passed it
        C = np.array([[1.0, 1.0], [1e-10, 0.0]])
        ok, dilation = st.check_isochoric(C, np.array([1.0, -1.0]))
        assert not ok and dilation == 1e-10

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
                st.check_equilibrium(square_ops, s, t)[1]
            with pytest.raises(st.StressError):
                st.stress_measure(s, st.PLASTIC, square_ops)


class TestCertifyLengthUnit:
    """`certify`'s tolerances are relative to the terms each of its checks
    adds up, so a uniform change of the length unit changes no verdict: the
    plates below, with their nodes scaled by 1e-8 or 1e8, certify the
    value of the unscaled plate, where absolute floors of 1e-8 failed 9 of
    the 12 plastic cases at 1e-8 ("not isochoric") and 3 of the 24 cases
    at 1e8 ("does not balance").  A corrupted witness or stress still
    fails at every scale."""

    @staticmethod
    def scaled(nx, ny, seed, scale):
        mesh = msh.generate_rectangle(1.0, 1.0, nx, ny, "left", "right")
        rng = np.random.default_rng(seed)
        t = rng.uniform(-1.0, 1.0, size=(np.count_nonzero(~mesh.gamma0), 2))
        mesh = dataclasses.replace(mesh, nodes=scale * mesh.nodes)
        return kin.assemble(mesh), t

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_scaled_plates_certify(self, mode, scale):
        for nx, ny in ((1, 1), (2, 2), (3, 2)):
            for seed in range(4):
                want = st.optimal_stress(*self.scaled(nx, ny, seed, 1.0), mode)
                got = st.optimal_stress(*self.scaled(nx, ny, seed, scale), mode)
                assert got.sigma_opt == pytest.approx(want.sigma_opt, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("mode, field, message", [
        (st.ELASTIC, "y", "disagree"), (st.PLASTIC, "y", "not isochoric"),
        (st.ELASTIC, "x", "does not balance"), (st.PLASTIC, "x", "does not balance")])
    def test_corruption_fails_at_every_scale(self, monkeypatch, mode, field,
                                             message, scale):
        # y[0] is the witness's first entry, x[0] element 0's first stress
        # component; each moves by a tenth of its vector's largest entry
        ops, t = self.scaled(2, 2, 0, scale)
        solve = lp.solve

        def corrupting_solve(prob, *args, **kwargs):
            sol = solve(prob, *args, **kwargs)
            values = getattr(sol, field).copy()
            values[0] += 0.1 * np.abs(values).max()
            return sol._replace(**{field: values})
        st.optimal_stress(ops, t, mode)
        monkeypatch.setattr(lp, "solve", corrupting_solve)
        with pytest.raises(st.SolverFailure, match=message):
            st.optimal_stress(ops, t, mode)


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
        assert kin.work_vector(bar_ops, np.array([[1.0]])) @ w / \
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
    """End-tension plates, whose LPs have many degenerate vertices.  Most
    of their variables are free (velocities, stresses, the plastic
    pressure), and each is one column that the simplex prices at -|d_j|
    and that never leaves the basis once it has entered: a (+, -) pair in
    its place can swap its halves in and out of the basis at a degenerate
    vertex, which took the elastic 6x6 kinematic LP about ten times as
    many pivots."""

    def test_plastic_6x6_plate(self):
        mesh, t = end_tension_plate(6)
        res = st.optimal_stress(kin.assemble(mesh), t, st.PLASTIC)
        assert res.sigma_opt == pytest.approx(0.5, abs=1e-9)

    def test_plastic_6x6_plate_memory(self):
        # the solve is standalone: phase 2 runs in phase 1's own array, and
        # the dense pivot subtracts in blocks of rows, so the peak is the
        # build's (the element rows and A) or the solve's (A and the
        # tableau); phase 2 on a copy of a memoized phase 1 would hold about
        # four tableaux
        mesh, t = end_tension_plate(6)
        ops = kin.assemble(mesh)
        m, n = st.kinematic_lp(ops, st.PLASTIC).prob.A.shape
        tracemalloc.start()
        try:
            res = st.optimal_stress(ops, t, st.PLASTIC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.sigma_opt == pytest.approx(0.5, abs=1e-9)
        assert peak <= 2.5 * (m + 1) * (n + 1) * 8

    def test_plastic_8x8_plate(self):
        mesh, t = end_tension_plate(8)
        res = st.optimal_stress(kin.assemble(mesh), t, st.PLASTIC)
        assert res.sigma_opt == pytest.approx(0.5, abs=1e-9)

    def test_elastic_6x6_plate(self):
        mesh, t = end_tension_plate(6)
        res = st.optimal_stress(kin.assemble(mesh), t, st.ELASTIC)
        assert res.sigma_opt == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def check_static_lp(n, mode, want):
        # the static problem's box LP against the kinematic LP
        mesh, t = end_tension_plate(n)
        ops = kin.assemble(mesh)
        static = st.optimal_stress(ops, t, mode).sigma_opt
        kinematic = kinematic_supremum_of(ops, t, mode)[0]
        assert static == pytest.approx(kinematic, rel=1e-9)
        assert static == pytest.approx(want, abs=1e-9)

    def test_elastic_4x4_static_lp(self):
        self.check_static_lp(4, st.ELASTIC, 1.0)

    def test_plastic_6x6_static_lp(self):
        self.check_static_lp(6, st.PLASTIC, 0.5)

    def test_elastic_6x6_static_lp(self):
        self.check_static_lp(6, st.ELASTIC, 1.0)


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
        ratio = kin.work_vector(square_ops, t) @ res.dual_witness / \
            kin.strain_norm_l1(square_ops, res.dual_witness)
        assert ratio == pytest.approx(res.dual_value, abs=1e-8)

    def test_plastic_witness_isochoric(self, square_ops):
        rng = np.random.default_rng(15)
        t = rng.uniform(-1, 1, size=(3, 2))
        res = st.optimal_stress(square_ops, t, st.PLASTIC)
        rows = kin.isochoric_constraints(square_ops)
        assert np.abs(rows @ res.dual_witness).max() <= 1e-9


BOX_CASES = [("bar3", lambda: msh.generate_bar(2.0, 0.5, 3), st.ELASTIC)] + [
    (name, factory, mode) for name, factory in
    MESH_CASES + [("box211", lambda: kuhn_box(2, 1, 1))] for mode in st.MODES]


def pressure_traction(mesh: msh.Mesh) -> np.ndarray:
    """The traction -n on each loaded edge of a unit square, n its outward
    normal: a uniform pressure, balanced by the spherical stress -I."""
    rows = []
    for f in mesh.facets[~mesh.gamma0]:
        x, y = mesh.nodes[f].T
        rows.append([-1.0, 0.0] if np.all(x == 1.0) else
                    [0.0, 1.0] if np.all(y == 0.0) else [0.0, -1.0])
    return np.array(rows)


class TestBoxLP:
    """The box LP, maximize lambda subject to E s = lambda f and |s| <= 1,
    and the kinematic LP are two independent LPs with one optimum; the box
    LP's multipliers are a kinematic witness."""

    @pytest.mark.parametrize("name,factory,mode", BOX_CASES,
                             ids=[f"{c[0]}-{c[2]}" for c in BOX_CASES])
    def test_matches_kinematic_lp(self, name, factory, mode):
        ops = kin.assemble(factory())
        kinematic = st.kinematic_lp(ops, mode)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(4):
            t = rng.uniform(-1, 1, size=(len(ops.gammat_facets), ops.dim))
            f = kin.work_vector(ops, t)
            want = st.kinematic_supremum(kinematic, f)[0]
            box = st.box_optimum(ops, f, mode)
            assert 1.0 / box.load_factor == pytest.approx(want, rel=1e-9)
            res = st.optimal_stress(ops, t, mode)
            assert res.sigma_opt == pytest.approx(want, rel=1e-9)
            # the witness does unit work at strain budget lambda
            w = res.dual_witness
            assert f @ w == pytest.approx(1.0, rel=1e-12)
            budget = (kin.strain_norm_plastic if mode == st.PLASTIC
                      else kin.strain_norm_l1)(ops, w)
            assert budget == pytest.approx(box.load_factor, rel=1e-9)
            if mode == st.PLASTIC:
                dilation = kin.isochoric_constraints(ops) @ w
                assert np.abs(dilation).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("mode", st.MODES)
    def test_shape(self, square_ops, mode):
        # elastic: every element's 3 components and lambda; plastic: 4
        # deviatoric components, then a pressure per element, then lambda,
        # and one traceless row per element
        prob = st.box_lp(square_ops, mode)
        plastic = mode == st.PLASTIC
        assert prob.A.shape == (4 + 2 * plastic, 2 * (3 + plastic) + 2 * plastic + 1)
        bounded = np.isfinite(prob.upper)
        assert bounded.sum() == 2 * (3 + plastic)
        assert np.all(prob.lower[bounded] == -1.0) and np.all(prob.upper[bounded] == 1.0)
        assert prob.free.sum() == 2 * plastic
        assert prob.c[-1] == -1.0 and not prob.c[:-1].any()
        # lambda's column is left open, and no crash pivots on it
        assert not prob.A[:, -1].any() and prob.lower[-1] == 0.0

    @pytest.mark.parametrize("mode", st.MODES)
    def test_zero_traction(self, square_ops, mode):
        # lambda is unbounded; no stress at all balances the zero load
        res = st.optimal_stress(square_ops, np.zeros((3, 2)), mode)
        assert res.sigma_opt == 0.0 and res.dual_value == 0.0
        assert not res.sigma_hat.comps.any() and not res.dual_witness.any()

    def test_pressure_is_free_in_plastic_mode(self, unit_square):
        # a uniform pressure is balanced by -I, whose yield measure is 0:
        # lambda is unbounded in plastic mode, 1 in elastic mode
        ops = kin.assemble(unit_square)
        t = pressure_traction(unit_square)
        assert st.optimal_stress(ops, t, st.ELASTIC).sigma_opt == pytest.approx(1.0)
        res = st.optimal_stress(ops, t, st.PLASTIC)
        assert res.sigma_opt == 0.0
        assert res.equilibrium_residual <= 1e-12
        assert res.sigma_hat.comps[:, :2] == pytest.approx(-1.0)
        assert res.sigma_hat.s33 == pytest.approx(-1.0)
        kinematic = st.kinematic_supremum(st.kinematic_lp(ops, st.PLASTIC),
                                          kin.work_vector(ops, t))[0]
        assert kinematic == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(cap.CapacityError, match="no work"):
            cap.limit_analysis(ops, t, 1.0)

    def test_mechanism_fails(self, square_ops):
        # with the strain of DOF 0 dropped, a load on it cannot be balanced
        ops = dataclasses.replace(square_ops, strain_op=square_ops.strain_op.copy())
        ops.strain_op[:, 0] = 0.0
        f = np.zeros(ops.n_dof)
        f[0] = 1.0
        for mode in st.MODES:
            with pytest.raises(st.SolverFailure, match="^box LP: load factor 0"):
                st.box_optimum(ops, f, mode)

    @pytest.mark.parametrize("n,want", [(8, 1.0), (12, 1.0)])
    def test_elastic_end_tension(self, n, want):
        # the elastic 8x8 kinematic LP stalls past 50,000 pivots
        mesh, t = end_tension_plate(n)
        res = st.optimal_stress(kin.assemble(mesh), t, st.ELASTIC)
        assert res.sigma_opt == pytest.approx(want, rel=1e-9)

    def test_kuhn_cube_random_load(self):
        ops = kin.assemble(kuhn_box(3, 3, 3))
        t = np.random.default_rng(0).uniform(-1, 1, size=(len(ops.gammat_facets), 3))
        res = st.optimal_stress(ops, t, st.ELASTIC)
        assert res.duality_gap <= 1e-9 * res.sigma_opt

    @staticmethod
    def thin_kuhn_box(mode, z) -> float:
        box = kuhn_box(2, 2, 1)
        ops = kin.assemble(dataclasses.replace(box, nodes=box.nodes * [1.0, 1.0, z]))
        t = np.random.default_rng(0).uniform(-1, 1, size=(len(ops.gammat_facets), 3))
        return st.optimal_stress(ops, t, mode).sigma_opt

    @pytest.mark.parametrize("z", [1.0, 1e-2, 1e-3, 1e-4, 1e-7, 1e-8])
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_thin_kuhn_box_random_load(self, mode, z):
        # each z certifies (`optimal_stress` raises if not); at 1e-7 and
        # 1e-8 the plastic box LP fails by pivot growth if the crash
        # prefers a free column whatever its entry (`lp._FREE_CRASH`).  At
        # 1e-8 the rows of the thin direction fell below an absolute crash
        # pivot tolerance: elastic failed its certificate, and plastic
        # certified 0.215 under a balance test relative to the largest row
        # only.  At 1e-5 and 1e-6 neither mode certifies: there the
        # in-plane stress columns scale with z, a column scaling that the
        # crash's row-relative test does not cover
        sigma_opt = self.thin_kuhn_box(mode, z)
        assert sigma_opt > 0.0
        if z == 1e-8:
            # sigma_opt grows as 1 / z as the box thins
            want = 1e-7 * self.thin_kuhn_box(mode, 1e-7)
            assert z * sigma_opt == pytest.approx(want, rel=1e-5)


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
            costs = np.zeros(len(kinematic.prob.c))
            costs[:ops.n_dof] = rng.uniform(-1.0, 1.0, size=ops.n_dof)
            got = lp.solve(kinematic.prob.with_objective(costs))
            want = lp.solve(lp.LPStandardForm(c=costs, A=kinematic.prob.A.copy(),
                                              b=kinematic.prob.b.copy(),
                                              lower=kinematic.prob.lower.copy(),
                                              upper=kinematic.prob.upper.copy()))
            assert got.status == want.status == lp.OPTIMAL
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.y, want.y)
            assert got.objective == want.objective

    @pytest.mark.parametrize("mesh", [
        msh.generate_rectangle(1e-3, 1e-3, 2, 2, "left", "right"),
        msh.generate_rectangle(1.0, 1.0, 2, 2, "left", "right"),
        msh.generate_rectangle(700.0, 350.0, 2, 1, "left", "right"),
        kuhn_box(2, 1, 1)], ids=["plate 1e-3", "plate 1", "plate 700", "kuhn box"])
    def test_elastic_rows_are_the_scaled_strains(self, mesh):
        # built as the box LP's dual, the elastic LP is that of the mesh
        # with its lengths multiplied by a power of two: the strain rows
        # over it, up to the rounding of multiplying by the box LP's
        # weights and dividing again, and budget pairs weighted by the
        # strain weights times its power dim, exactly
        ops = kin.assemble(mesh)
        scale = 2.0 ** (1 - np.frexp(np.ptp(mesh.nodes, axis=0).max())[1])
        prob = st.kinematic_lp(ops, st.ELASTIC).prob
        n_dof, n_rows = ops.n_dof, len(ops.strain_weights)
        assert prob.A.shape == (n_rows + 1, n_dof + 2 * n_rows + 1)
        want = ops.strain_op / scale
        got = prob.A[:n_rows, :n_dof]
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        pairs = prob.A[:n_rows, n_dof:-1].reshape(n_rows, n_rows, 2)
        assert np.array_equal(pairs, np.eye(n_rows)[:, :, None] * [-1.0, 1.0])
        assert np.array_equal(prob.A[-1, n_dof:-1],
                              np.repeat(ops.strain_weights * scale ** ops.dim, 2))
        assert not prob.A[-1, :n_dof].any() and prob.A[-1, -1] == 1.0

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


    @pytest.mark.parametrize("name,factory", MESH_CASES, ids=[c[0] for c in MESH_CASES])
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_suprema_match_supremum(self, name, factory, mode):
        # the objectives are signed sums of a few works, and real mixes.
        # The walk prunes by the strain budget: a value is the supremum, or
        # an upper bound on it below the largest value by more than the
        # near-tie margin
        ops = kin.assemble(factory())
        kinematic = st.kinematic_lp(ops, mode)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        shape = (len(ops.gammat_facets), ops.dim)
        works = [kin.work_vector(ops, rng.uniform(-1, 1, size=shape)) for _ in range(4)]
        weights = np.vstack([np.where(rng.random((12, 4)) < 0.5, -1.0, 1.0),
                             rng.normal(size=(4, 4))])
        want = np.array([st.kinematic_supremum(kinematic, w @ works)[0]
                         for w in weights])
        got = st.kinematic_suprema(kinematic, works, weights)
        top = got.max()
        assert top == pytest.approx(want.max(), rel=1e-12, abs=1e-12)
        exact = np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))
        bounds = ~exact
        assert bounds.any()
        assert np.all(got[bounds] >= want[bounds])
        assert np.all(got[bounds] < top - lp._NEAR_TIE * (1.0 + abs(top)))

    @pytest.mark.parametrize("status", [lp.UNBOUNDED, lp.INFEASIBLE, "pivot limit"])
    def test_suprema_fail_as_supremum(self, square_ops, monkeypatch, status):
        # the walk's first row that is neither optimal nor dominated raises
        kinematic = st.kinematic_lp(square_ops, st.ELASTIC)
        f = kin.work_vector(square_ops, np.ones((3, 2)))
        if status == "pivot limit":
            monkeypatch.setattr(lp, "_MAX_ITER", 0)
        else:
            monkeypatch.setattr(lp, "solve", lambda p: lp.LPSolution(status))
            monkeypatch.setattr(lp, "solve_each", lambda p, unit_costs, weights: (
                np.array([lp.DOMINATED, status, lp.INFEASIBLE], dtype=object),
                np.array([-1.0, np.nan, np.nan])))
        with pytest.raises(st.SolverFailure) as want:
            st.kinematic_supremum(kinematic, f)
        with pytest.raises(st.SolverFailure) as got:
            st.kinematic_suprema(kinematic, [f], [[1], [-1], [1]])
        assert str(got.value) == str(want.value)
        assert type(got.value.__cause__) is type(want.value.__cause__)


class TestStressFromMultipliers:
    @pytest.mark.parametrize("name,factory", MESH_CASES, ids=[c[0] for c in MESH_CASES])
    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_matches_static_lp(self, name, factory, mode):
        # `stress_field` of the stress columns that the kinematic LP's
        # multipliers give balances the traction and attains the box LP's
        # optimum
        ops = kin.assemble(factory())
        kinematic = st.kinematic_lp(ops, mode)
        rng = np.random.default_rng(31)
        for _ in range(3):
            t = rng.uniform(-1, 1, size=(len(ops.gammat_facets), ops.dim))
            static = st.optimal_stress(ops, t, mode).sigma_opt
            value, _, s = st.kinematic_supremum(kinematic, kin.work_vector(ops, t))
            stress = st.stress_field(ops, mode, s)
            assert st.check_equilibrium(ops, stress, t)[0]
            assert st.stress_measure(stress, mode, ops) == \
                pytest.approx(static, rel=1e-9, abs=1e-12)
            assert value == pytest.approx(static, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_corrupted_multiplier_fails_certificate(self, square_ops, mode,
                                                    monkeypatch):
        # row 0 of the box LP is the equilibrium row of velocity DOF 0: its
        # multiplier is the witness's first entry
        self.check_corrupted(square_ops, mode, monkeypatch, "y",
                             "not isochoric" if mode == st.PLASTIC else "disagree")

    @pytest.mark.parametrize("mode", [st.ELASTIC, st.PLASTIC])
    def test_corrupted_stress_fails_certificate(self, square_ops, mode,
                                                monkeypatch):
        # column 0 of the box LP is element 0's first stress component
        self.check_corrupted(square_ops, mode, monkeypatch, "x", "does not balance")

    @staticmethod
    def check_corrupted(ops, mode, monkeypatch, field, message):
        solve = lp.solve

        def corrupting_solve(prob, *args, **kwargs):
            sol = solve(prob, *args, **kwargs)
            values = getattr(sol, field).copy()
            values[0] += 0.1
            return sol._replace(**{field: values})

        t = np.array([[1.0, 0.0], [0.0, -0.5], [0.25, 0.0]])
        st.optimal_stress(ops, t, mode)
        monkeypatch.setattr(lp, "solve", corrupting_solve)
        with pytest.raises(st.SolverFailure, match=message):
            st.optimal_stress(ops, t, mode)


def kinematic_supremum_of(ops, t, mode):
    return st.kinematic_supremum(st.kinematic_lp(ops, mode), kin.work_vector(ops, t))


@pytest.mark.parametrize("name,solve", [("box LP", st.optimal_stress),
                                        ("kinematic LP", kinematic_supremum_of)])
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
