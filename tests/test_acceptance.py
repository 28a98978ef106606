"""End-to-end acceptance suite.

Each test emits a single pass/fail line for its criterion; the lines are
printed together in an "acceptance criteria" section at the end of the
pytest run (see conftest) so they survive output capture.
"""

import json
import time

import numpy as np
import pytest

from loadcap import capacity as cap
from loadcap import cli
from loadcap import kinematics as kin
from loadcap import lp
from loadcap import mesh as msh
from loadcap import stress as st

from conftest import make_two_tet_mesh, record_verdict


def verdict(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    record_verdict(line)
    assert ok, line


def affine_field(ops, grad, const=None):
    dim = ops.dim
    const = np.zeros(dim) if const is None else np.asarray(const, float)
    w = np.zeros(ops.n_dof)
    for node in range(ops.mesh.n_nodes):
        val = const + np.asarray(grad, float) @ ops.mesh.nodes[node]
        for comp in range(dim):
            k = ops.dof_index[node, comp]
            if k >= 0:
                w[k] = val[comp]
    return w


BAR_MESHES = [(1.0, 1.0, 1), (1.0, 1.0, 4), (2.0, 1.0, 8), (1.0, 2.0, 2)]
RECT_MESHES = [(1, 1, 1, 1), (2, 1, 2, 1), (1, 2, 1, 2),
               (2, 2, 2, 2), (3, 1, 3, 1), (1, 1, 3, 3)]


@pytest.fixture(scope="module")
def instance_suite():
    """>= 50 solved instances shared by the duality/representation checks."""
    rng = np.random.default_rng(2024)
    instances = []
    t_start = time.monotonic()
    cases = []
    for L, A, n in BAR_MESHES:
        cases.append((kin.assemble(msh.generate_bar(L, A, n)), [st.ELASTIC], 2))
    for w, h, nx, ny in RECT_MESHES:
        ops = kin.assemble(msh.generate_rectangle(w, h, nx, ny, "left", "right"))
        cases.append((ops, [st.ELASTIC, st.PLASTIC], 3))
    cases.append((kin.assemble(make_two_tet_mesh()),
                  [st.ELASTIC, st.PLASTIC], 3))
    for ops, modes, reps in cases:
        shape = (len(ops.gammat_facets), ops.dim)
        for mode in modes:
            for _ in range(reps):
                t = rng.uniform(-1.0, 1.0, size=shape)
                res = st.optimal_stress(ops, t, mode)
                instances.append((ops, t, mode, res))
    elapsed = time.monotonic() - t_start
    return instances, elapsed


def test_criterion_01_strong_duality(instance_suite):
    instances, elapsed = instance_suite
    worst = max(r.duality_gap / (1.0 + r.sigma_opt) for _, _, _, r in instances)
    ok = len(instances) >= 50 and worst <= 1e-6 and elapsed < 60.0
    verdict(1, ok, f"strong duality on {len(instances)} instances, "
                   f"worst relative gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_virtual_work_representation(instance_suite):
    instances, _ = instance_suite
    worst = 0.0
    ok = True
    for ops, t, _, res in instances:
        residual = st.equilibrium_residual(ops, res.sigma_hat, t)
        bound = 1e-8 * (1.0 + kin.traction_sup_norm(ops, t))
        worst = max(worst, residual)
        ok = ok and residual <= bound
    verdict(2, ok, f"virtual-work residual <= 1e-8*(1+|t|inf) on all "
                   f"{len(instances)} fields, worst {worst:.2e}")


def test_criterion_03_attainment(instance_suite):
    instances, _ = instance_suite
    worst = 0.0
    for ops, _, mode, res in instances:
        measured = st.stress_measure(res.sigma_hat, mode, ops)
        worst = max(worst, abs(measured - res.sigma_opt) / (1.0 + res.sigma_opt))
    ok = worst <= 1e-7
    verdict(3, ok, f"stress_measure(sigma_hat) attains sigma_opt, "
                   f"worst relative error {worst:.2e}")


def test_criterion_04_K_duality():
    meshes = [("bar", msh.generate_bar(1.0, 1.0, 1)),
              ("rect11", msh.generate_rectangle(1, 1, 1, 1, "left", "right")),
              ("rect21", msh.generate_rectangle(2, 1, 2, 1, "left", "right")),
              ("two_tet", make_two_tet_mesh())]
    worst = 0.0
    checked = 0
    for name, mesh in meshes:
        ops = kin.assemble(mesh)
        modes = [st.ELASTIC] + ([st.PLASTIC] if mesh.dim > 1 else [])
        for mode in modes:
            K = cap.generalized_K(ops, mode).K
            Kp = cap.generalized_K_dual_check(ops, mode)
            worst = max(worst, abs(K - Kp))
            checked += 1
    ok = worst <= 1e-6
    verdict(4, ok, f"sign-pattern K equals vertex-traction K' on {checked} "
                   f"mesh/mode pairs, worst gap {worst:.2e}")


def test_criterion_05_bar_values():
    worst_sigma = worst_K = 0.0
    for L in (1.0, 2.0):
        for A in (1.0, 2.0):
            for n in (1, 2, 4):
                ops = kin.assemble(msh.generate_bar(L, A, n))
                for tau in (1.5, -2.0):
                    t = np.array([[tau]])
                    res = st.optimal_stress(ops, t, st.ELASTIC)
                    worst_sigma = max(worst_sigma,
                                      abs(res.sigma_opt - abs(tau)))
                result = cap.generalized_K(ops)
                worst_K = max(worst_K, abs(result.K - 1.0),
                              abs(result.C - 1.0))
    ok = worst_sigma <= 1e-9 and worst_K <= 1e-9
    verdict(5, ok, f"bar sigma_opt=|t| and K=C=1 over 12 meshes, "
                   f"errors {worst_sigma:.2e} / {worst_K:.2e}")


def test_criterion_06_limit_analysis_identities():
    meshes = [msh.generate_rectangle(1, 1, 1, 1, "left", "right"),
              msh.generate_rectangle(2, 1, 2, 1, "left", "right"),
              make_two_tet_mesh()]
    rng = np.random.default_rng(6)
    worst_def = worst_proj = worst_kin = 0.0
    for mesh in meshes:
        ops = kin.assemble(mesh)
        shape = (len(ops.gammat_facets), ops.dim)
        for Y0 in (1.0, 2.5):
            t = rng.uniform(-1.0, 1.0, size=shape)
            lam_s, lam_k, gap = cap.kinematic_limit_check(ops, t, Y0)
            res = cap.limit_analysis(ops, t, Y0)
            worst_def = max(worst_def,
                            abs(res.lambda_star * res.sigma_opt - Y0) / Y0)
            proj = st.optimal_stress(ops, res.t_collapse, st.PLASTIC)
            worst_proj = max(worst_proj, abs(proj.sigma_opt - Y0) / Y0)
            worst_kin = max(worst_kin, gap / (1.0 + lam_s))
    ok = worst_def <= 1e-12 and worst_proj <= 1e-6 and worst_kin <= 1e-6
    verdict(6, ok, f"lambda*.sigma_opt=Y0 ({worst_def:.2e}), "
                   f"sigma_opt(t_psi)=Y0 ({worst_proj:.2e}), "
                   f"static=kinematic ({worst_kin:.2e})")


def test_criterion_07_load_capacity_safety():
    meshes = [msh.generate_rectangle(1, 1, 1, 1, "left", "right"),
              make_two_tet_mesh()]
    Y0 = 1.0
    ok = True
    details = []
    for mesh in meshes:
        ops = kin.assemble(mesh)
        result = cap.generalized_K(ops, st.PLASTIC)
        C = result.C
        # max sigma_opt over all vertex tractions of sup norm 0.9*C*Y0
        safe_max = 0.9 * C * Y0 * cap.generalized_K_dual_check(ops, st.PLASTIC)
        ok = ok and safe_max <= 0.9 * Y0 + 1e-6
        over = st.optimal_stress(ops, 1.1 * C * Y0 * result.worst_traction,
                                 st.PLASTIC)
        ok = ok and over.sigma_opt >= 1.1 * Y0 * (1.0 - 1e-6)
        details.append(f"{safe_max:.6f}/{over.sigma_opt:.6f}")
    verdict(7, ok, "tractions below 0.9*C*Y0 stay safe, worst traction at "
                   "1.1*C*Y0 collapses (max-safe/over: " + ", ".join(details) + ")")


def test_criterion_08_kinematics():
    rect = msh.generate_rectangle(1, 1, 2, 2, "left", "right")
    tet = make_two_tet_mesh()
    dims_ok = (kin.rigid_kernel_dim(kin.assemble(rect, clamp=False)) == 3
               and kin.rigid_kernel_dim(kin.assemble(tet, clamp=False)) == 6
               and kin.rigid_kernel_dim(kin.assemble(rect)) == 0
               and kin.rigid_kernel_dim(kin.assemble(tet)) == 0)
    rng = np.random.default_rng(8)
    worst = 0.0
    for mesh in (rect, tet):
        ops = kin.assemble(mesh, clamp=False)
        grad = rng.normal(size=(mesh.dim, mesh.dim))
        sym = 0.5 * (grad + grad.T)
        w = affine_field(ops, grad, const=rng.normal(size=mesh.dim))
        for e in kin.strain(ops, w):
            err = np.abs(e.as_matrix() - sym).max()
            worst = max(worst, err)
    ok = dims_ok and worst <= 1e-12
    verdict(8, ok, f"rigid kernel dimensions 3/6 unclamped, 0 clamped; "
                   f"affine strain error {worst:.2e}")


def test_criterion_09_lp_oracle():
    rng = np.random.default_rng(42)
    worst_obj = worst_gap = 0.0
    n_solved = 0
    agree = True
    for trial in range(200):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 9))
        A = rng.normal(size=(m, n))
        kind = trial % 4
        if kind in (0, 1):
            b = A @ rng.uniform(0.0, 1.0, size=n)
        elif kind == 2:
            b = rng.normal(size=m)
        else:
            A = np.abs(A) * np.sign(rng.normal(size=(m, n)))
            b = A @ rng.uniform(0.0, 1.0, size=n)
        prob = lp.LPStandardForm(c=rng.normal(size=n), A=A, b=b)
        got, want = lp.solve(prob), lp.solve_brute(prob)
        agree = agree and got.status == want.status
        if got.status == lp.OPTIMAL and want.status == lp.OPTIMAL:
            n_solved += 1
            worst_obj = max(worst_obj, abs(got.objective - want.objective))
            worst_gap = max(worst_gap,
                            abs(prob.c @ got.x - prob.b @ got.y)
                            / (1.0 + abs(got.objective)))
    ok = agree and worst_obj <= 1e-7 and worst_gap <= 1e-8
    verdict(9, ok, f"200 random LPs: statuses agree, {n_solved} optima match "
                   f"to {worst_obj:.2e}, worst duality gap {worst_gap:.2e}")


def test_criterion_10_determinism(tmp_path, capsys):
    mesh_path = tmp_path / "m.mesh"
    msh.write_mesh(msh.generate_rectangle(1, 1, 1, 1, "left", "right"),
                   mesh_path)
    traction_path = tmp_path / "t.traction"
    traction_path.write_text(json.dumps(
        {"facets": [[0.3, -1.0], [0.0, 0.7], [-0.2, 0.1]]}))

    def stdout_of(argv):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        return out

    ok = True
    for argv in (["analyze", str(mesh_path), str(traction_path)],
                 ["analyze", str(mesh_path), str(traction_path),
                  "--mode", "plastic"],
                 ["capacity", str(mesh_path)]):
        runs = {stdout_of(argv) for _ in range(3)}
        ok = ok and len(runs) == 1
    verdict(10, ok, "repeated analyze/capacity runs emit byte-identical reports")
