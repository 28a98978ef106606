"""Checkers for `loadcap` reports, built apart from `loadcap`.

`Operators` assembles the P1 strain and boundary-trace operators of a mesh
document with plain numpy, and the checkers recompute from them the
certificates every report must carry:

- analyze: the equilibrium residual of `sigma_hat`, its attained stress
  measure, and the witness ratio work(w)/budget(w), all equal to
  `sigma_opt`;
- capacity: the certificate ratio |trace(w)|_1 / |eps(w)|_1 and the work of
  the worst traction on w, both equal to `K`;
- limit: the homogeneity identities of `lambda*`;
- verify: every internal check passed.

Each checker returns a list of problems; an empty list accepts the report.
"""

from __future__ import annotations

import hashlib
from math import factorial

import numpy as np

RTOL = 1e-9

# unique components of a symmetric matrix: diagonal first, then off-diagonals
_POSITIONS = {1: ((0, 0),),
              2: ((0, 0), (1, 1), (0, 1)),
              3: ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))}


def _weights(dim: int) -> np.ndarray:
    return np.array([1.0 if i == j else 2.0 for i, j in _POSITIONS[dim]])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * (1.0 + abs(b))


class Operators:
    """Strain operator `B` (n_el, n_comp, n_dof), element volumes, trace
    operator `T` (n_loaded, dim, n_dof) and loaded-facet measures.

    Degrees of freedom follow the CLI's numbering: nodes in file order,
    components within a node, nodes of `gamma0` facets left out.
    """

    def __init__(self, mesh: dict):
        self.dim = dim = int(mesh["dim"])
        nodes = np.array(mesh["nodes"], dtype=float).reshape(-1, dim)
        clamped = {k for f in mesh["facets"] if f["label"] == "gamma0"
                   for k in f["nodes"]}
        free = [k for k in range(len(nodes)) if k not in clamped]
        self.dof = -np.ones((len(nodes), dim), dtype=int)
        self.dof[free] = np.arange(len(free) * dim).reshape(-1, dim)
        self.n_dof = len(free) * dim

        elements = mesh["elements"]
        self.B = np.zeros((len(elements), len(_POSITIONS[dim]), self.n_dof))
        self.vol = np.zeros(len(elements))
        for e, el in enumerate(elements):
            pts = nodes[el["nodes"]]
            edges = (pts[1:] - pts[0]).T
            grads = np.linalg.inv(edges)          # row a-1: grad of lambda_a
            grads = np.vstack([-grads.sum(axis=0), grads])
            self.vol[e] = abs(np.linalg.det(edges)) / factorial(dim) \
                * el.get("area", 1.0)
            for a, node in enumerate(el["nodes"]):
                for comp in range(dim):
                    k = self.dof[node, comp]
                    if k < 0:
                        continue
                    for c, (i, j) in enumerate(_POSITIONS[dim]):
                        # eps_ij = (d_j w_i + d_i w_j) / 2
                        self.B[e, c, k] += 0.5 * ((i == comp) * grads[a, j]
                                                  + (j == comp) * grads[a, i])

        loaded = [f["nodes"] for f in mesh["facets"] if f["label"] == "gammaT"]
        self.T = np.zeros((len(loaded), dim, self.n_dof))
        self.area = np.zeros(len(loaded))
        for f, fn in enumerate(loaded):
            for node in fn:
                for comp in range(dim):
                    if self.dof[node, comp] >= 0:
                        self.T[f, comp, self.dof[node, comp]] += 1.0 / len(fn)
            pts = nodes[fn]
            if len(fn) == 1:
                self.area[f] = next(el["area"] for el in elements
                                    if fn[0] in el["nodes"])
            elif len(fn) == 2:
                self.area[f] = np.linalg.norm(pts[1] - pts[0])
            else:
                self.area[f] = np.linalg.norm(
                    np.cross(pts[1] - pts[0], pts[2] - pts[0])) / 2.0

    # -- kinematic side
    def strain(self, w) -> np.ndarray:
        return self.B @ np.asarray(w, dtype=float)        # (n_el, n_comp)

    def trace(self, w) -> np.ndarray:
        return self.T @ np.asarray(w, dtype=float)        # (n_loaded, dim)

    def work(self, t, w) -> float:
        return float(np.sum(self.area[:, None] * np.asarray(t) * self.trace(w)))

    def trace_l1(self, w) -> float:
        return float(np.sum(self.area * np.abs(self.trace(w)).sum(axis=1)))

    def budget(self, w, mode: str) -> float:
        """Volume-weighted strain norm: entrywise 1-norm (elastic), or its
        minimum over spherical shifts of the 3x3 embedding (plastic)."""
        eps = self.strain(w)
        if mode == "elastic":
            return float(self.vol @ (np.abs(eps) @ _weights(self.dim)))
        diag = np.zeros((len(eps), 3))
        diag[:, :self.dim] = eps[:, :self.dim]
        shift = np.median(-diag, axis=1)[:, None]
        per_el = (np.abs(diag + shift).sum(axis=1)
                  + 2.0 * np.abs(eps[:, self.dim:]).sum(axis=1))
        return float(self.vol @ per_el)

    def volumetric_strain(self, w) -> np.ndarray:
        return self.strain(w)[:, :self.dim].sum(axis=1)

    # -- static side
    def force(self, t) -> np.ndarray:
        """Generalized force f with f . w = work(t, w)."""
        return np.einsum("f,fi,fik->k", self.area, np.asarray(t, dtype=float),
                         self.T)

    def internal_force(self, sigma) -> np.ndarray:
        return np.einsum("e,ec,eck->k", self.vol,
                         np.asarray(sigma) * _weights(self.dim), self.B)

    def stress_measure(self, sigma, s33, mode: str) -> float:
        sigma = np.asarray(sigma, dtype=float)
        if mode == "elastic":
            return float(np.abs(sigma).max(initial=0.0))
        full = np.zeros((len(sigma), 3, 3))
        for c, (i, j) in enumerate(_POSITIONS[self.dim]):
            full[:, i, j] = full[:, j, i] = sigma[:, c]
        if s33 is not None:
            full[:, 2, 2] = s33
        dev = full - np.trace(full, axis1=1, axis2=2)[:, None, None] / 3.0 * np.eye(3)
        return float(np.abs(dev).max(initial=0.0))


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_analyze(job, report: dict, ops: Operators) -> list:
    problems = []
    t = job.traction
    sigma_opt = float(report["sigma_opt"])
    sigma = np.array(report["sigma_hat"], dtype=float)
    s33 = report["sigma_hat_s33"]
    f = ops.force(t)
    residual = float(np.abs(ops.internal_force(sigma) - f).max(initial=0.0))
    if residual > RTOL * (1.0 + np.abs(f).max(initial=0.0)):
        problems.append(f"equilibrium residual {residual:.3e}")
    measure = ops.stress_measure(sigma, s33, job.mode)
    if not _close(measure, sigma_opt):
        problems.append(f"stress measure {measure!r} != sigma_opt {sigma_opt!r}")
    w = np.array(report["dual_witness"], dtype=float)
    if w.shape != (ops.n_dof,):
        return problems + [f"witness has {w.shape} entries, expected {ops.n_dof}"]
    problems += _isochoric_problems(ops, w, job.mode)
    budget = ops.budget(w, job.mode)
    ratio = ops.work(t, w) / budget if budget > 0 else float("nan")
    if not _close(ratio, sigma_opt):
        problems.append(f"witness ratio {ratio!r} != sigma_opt {sigma_opt!r}")
    if "sigma_opt" in job.expect and not _close(sigma_opt, job.expect["sigma_opt"]):
        problems.append(f"sigma_opt {sigma_opt!r}, analytic "
                        f"{job.expect['sigma_opt']!r}")
    return problems


def _isochoric_problems(ops: Operators, w, mode: str) -> list:
    if mode == "plastic":
        vol = np.abs(ops.volumetric_strain(w)).max(initial=0.0)
        if vol > RTOL * (1.0 + np.abs(w).max(initial=0.0)):
            return [f"plastic witness is not isochoric ({vol:.3e})"]
    return []


def check_capacity(job, report: dict, ops: Operators) -> list:
    problems = []
    K = float(report["K"])
    w = np.array(report["certificate"], dtype=float)
    if w.shape != (ops.n_dof,):
        return [f"certificate has {w.shape} entries, expected {ops.n_dof}"]
    problems += _isochoric_problems(ops, w, job.mode)
    budget = ops.budget(w, job.mode)
    ratio = ops.trace_l1(w) / budget if budget > 0 else float("nan")
    if not _close(ratio, K):
        problems.append(f"certificate ratio {ratio!r} != K {K!r}")
    worst = np.array(report["worst_traction"], dtype=float)
    worst_ratio = ops.work(worst, w) / budget if budget > 0 else float("nan")
    if not _close(worst_ratio, K):
        problems.append(f"worst traction does {worst_ratio!r} work on the "
                        f"certificate, K is {K!r}")
    lower_only = bool(report["lower_bound_only"])
    if lower_only != bool(report["caps_hit"]):
        problems.append("lower_bound_only disagrees with caps_hit")
    if not lower_only:
        K_side = report.get("K_traction_side")
        if K_side is None or not _close(float(K_side), K):
            problems.append(f"K_traction_side {K_side!r} != K {K!r}")
        if job.end_tension_ratio is not None and K < job.end_tension_ratio * (1 - RTOL):
            problems.append(f"K {K!r} below the end-tension ratio "
                            f"{job.end_tension_ratio!r}")
    if "K" in job.expect and not _close(K, job.expect["K"]):
        problems.append(f"K {K!r}, analytic {job.expect['K']!r}")
    C = float(report["C"])
    if not _close(C * K, 1.0):
        problems.append(f"C*K = {C * K!r}")
    return problems


def check_limit(job, report: dict, sigma_same: float | None) -> list:
    problems = []
    y0 = float(report["y0"])
    sigma_opt = float(report["sigma_opt"])
    lam = float(report["lambda_star"])
    if y0 != job.y0:
        problems.append(f"y0 {y0!r} != {job.y0!r}")
    if not _close(lam * sigma_opt, y0):
        problems.append(f"lambda* sigma_opt = {lam * sigma_opt!r} != Y0 {y0!r}")
    lam_kin = float(report["lambda_kinematic"])
    if not _close(lam_kin, lam):
        problems.append(f"lambda_kinematic {lam_kin!r} != lambda* {lam!r}")
    t_collapse = np.array(report["t_collapse"], dtype=float)
    if np.abs(t_collapse - lam * job.traction).max() > RTOL * (1.0 + abs(lam)):
        problems.append("t_collapse is not lambda* t")
    if sigma_same is not None and not _close(sigma_opt, sigma_same):
        problems.append(f"sigma_opt {sigma_opt!r} != certified plastic "
                        f"analyze {sigma_same!r}")
    if "sigma_opt" in job.expect and not _close(sigma_opt, job.expect["sigma_opt"]):
        problems.append(f"sigma_opt {sigma_opt!r}, analytic "
                        f"{job.expect['sigma_opt']!r}")
    return problems


def check_verify(job, report: dict) -> list:
    trials = int(job.argv[job.argv.index("--trials") + 1])
    modes = 1 if job.mesh["dim"] == 1 else 2
    expected = 2 + 2 * trials * modes + 10
    problems = []
    if len(report["checks"]) != expected:
        problems.append(f"{len(report['checks'])} checks, expected {expected}")
    failed = [c["check"] for c in report["checks"] if not c["ok"]]
    if failed or report["all_ok"] is not True:
        problems.append(f"verify failed: {failed}")
    return problems


def check_report(job, report: dict, ops: Operators | None,
                 certified: dict) -> list:
    """Problems with the report of `job`.  `certified` maps the names of
    analyze jobs whose reports passed to their `sigma_opt`."""
    problems = []
    if report.get("command") != job.command:
        problems.append(f"command {report.get('command')!r} != {job.command!r}")
    if report.get("mesh_sha256") != _sha256(job.argv[1]):
        problems.append("mesh_sha256 does not match the mesh file")
    if job.command in ("analyze", "capacity") and report.get("mode") != job.mode:
        problems.append(f"mode {report.get('mode')!r} != {job.mode!r}")
    if job.command == "analyze":
        problems += check_analyze(job, report, ops)
    elif job.command == "capacity":
        problems += check_capacity(job, report, ops)
    elif job.command == "limit":
        same = certified.get(job.same_as) if job.same_as else None
        if job.same_as and same is None:
            problems.append(f"{job.same_as} has no certified sigma_opt")
        problems += check_limit(job, report, same)
    else:
        problems += check_verify(job, report)
    return problems
