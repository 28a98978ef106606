"""Discrete kinematic operators: strain map, boundary trace, norms.

Assembly clamps every displacement component of nodes lying on a gamma0
facet (elimination, not penalty), so the strain operator on the clamped
space is injective whenever the mesh is connected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mesh as msh
from .matnorm import (L1, LINF, SymMatrix, comp_positions, comp_weights,
                      deviatoric_dual_value, n_comps, vec_norm)


class KinematicsError(ValueError):
    """Invalid mesh, singular element geometry or shape mismatch."""


@dataclass(frozen=True)
class DiscreteOperators:
    """Assembled strain/trace operators for a mesh.

    strain_maps[e] maps the free-DOF vector to the unique strain
    components of element e; trace_maps[f] maps it to the representative
    (facet-averaged) velocity of the f-th gammaT facet.
    """

    mesh: msh.Mesh
    clamped: bool
    n_dof: int
    dof_index: np.ndarray = field(repr=False)   # (n_nodes, dim), -1 = clamped
    strain_maps: tuple = field(repr=False)      # per element (n_comp, n_dof)
    volumes: np.ndarray = field(repr=False)
    trace_maps: tuple = field(repr=False)       # per gammaT facet (dim, n_dof)
    areas: np.ndarray = field(repr=False)
    gammat_facets: tuple = ()

    @property
    def dim(self) -> int:
        return self.mesh.dim

    @property
    def n_elements(self) -> int:
        return len(self.mesh.elements)


def _shape_gradients(points: np.ndarray) -> np.ndarray:
    """Gradients of the linear shape functions of a simplex, rows per node."""
    d = points.shape[1]
    edges = (points[1:] - points[0]).T  # (d, d)
    if abs(np.linalg.det(edges)) < 1e-14:
        raise KinematicsError("element has singular geometry")
    # x = p0 + E lam  =>  lam = inv(E)(x - p0); grad lam_k is row k of inv(E)
    grads_rest = np.linalg.inv(edges)
    grad0 = -grads_rest.sum(axis=0)
    return np.vstack([grad0, grads_rest])


def _element_strain_map(mesh: msh.Mesh, elem: msh.Element,
                        dof_index: np.ndarray, n_dof: int) -> np.ndarray:
    dim = mesh.dim
    pts = mesh.nodes[list(elem.nodes)]
    B = np.zeros((n_comps(dim), n_dof))
    if elem.kind == msh.BAR:
        length = pts[1, 0] - pts[0, 0]
        for node, sign in ((elem.nodes[0], -1.0), (elem.nodes[1], 1.0)):
            k = dof_index[node, 0]
            if k >= 0:
                B[0, k] += sign / length
        return B
    grads = _shape_gradients(pts)
    for local, node in enumerate(elem.nodes):
        g = grads[local]
        for comp in range(dim):
            k = dof_index[node, comp]
            if k < 0:
                continue
            for c, (i, j) in enumerate(comp_positions(dim)):
                # eps_ij = 1/2 (d_i w_j + d_j w_i)
                if i == comp:
                    B[c, k] += 0.5 * g[j]
                if j == comp:
                    B[c, k] += 0.5 * g[i]
    return B


def assemble(mesh: msh.Mesh, clamp: bool = True) -> DiscreteOperators:
    """Build the discrete strain and trace operators for a valid mesh.

    With clamp=False no boundary condition is applied; that variant is
    used only for rigid-kernel diagnostics.
    """
    problems = msh.validate(mesh)
    if problems:
        raise KinematicsError("invalid mesh: " + "; ".join(problems))
    dim = mesh.dim
    clamped_nodes = set()
    if clamp:
        for f in mesh.facets_labeled(msh.GAMMA0):
            clamped_nodes.update(f.nodes)
    dof_index = -np.ones((mesh.n_nodes, dim), dtype=int)
    n_dof = 0
    for node in range(mesh.n_nodes):
        if node in clamped_nodes:
            continue
        for comp in range(dim):
            dof_index[node, comp] = n_dof
            n_dof += 1

    strain_maps = tuple(_element_strain_map(mesh, e, dof_index, n_dof)
                        for e in mesh.elements)
    volumes = []
    for e in mesh.elements:
        v = msh.element_measure(mesh, e)
        if e.kind == msh.BAR:
            v *= e.area
        volumes.append(v)

    gammat = tuple(mesh.facets_labeled(msh.GAMMAT))
    trace_maps = []
    areas = []
    for f in gammat:
        T = np.zeros((dim, n_dof))
        w = 1.0 / len(f.nodes)
        for node in f.nodes:
            for comp in range(dim):
                k = dof_index[node, comp]
                if k >= 0:
                    T[comp, k] += w
        trace_maps.append(T)
        areas.append(msh.facet_measure(mesh, f))

    return DiscreteOperators(
        mesh=mesh, clamped=clamp, n_dof=n_dof,
        dof_index=dof_index, strain_maps=strain_maps,
        volumes=np.array(volumes), trace_maps=tuple(trace_maps),
        areas=np.array(areas), gammat_facets=gammat)


def _check_dofs(ops: DiscreteOperators, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (ops.n_dof,):
        raise KinematicsError(
            f"velocity field has {w.shape} entries, expected ({ops.n_dof},)")
    return w


def check_traction(ops: DiscreteOperators, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape != (len(ops.gammat_facets), ops.dim):
        raise KinematicsError(
            f"traction field has shape {t.shape}, expected "
            f"({len(ops.gammat_facets)}, {ops.dim})")
    if not np.all(np.isfinite(t)):
        raise KinematicsError("traction field has non-finite entries")
    return t


def strain(ops: DiscreteOperators, w) -> list:
    """Per-element strain matrices of a velocity field."""
    w = _check_dofs(ops, w)
    return [SymMatrix(ops.dim, B @ w) for B in ops.strain_maps]


def strain_norm_l1(ops: DiscreteOperators, w) -> float:
    """Volume-weighted L1 norm of the strain field (the LD norm of w)."""
    w = _check_dofs(ops, w)
    wgt = comp_weights(ops.dim)
    total = 0.0
    for B, vol in zip(ops.strain_maps, ops.volumes):
        total += vol * float(np.sum(wgt * np.abs(B @ w)))
    return total


def strain_norm_plastic(ops: DiscreteOperators, w) -> float:
    """Volume-weighted strain norm with the yield-dual (quotient) magnitude."""
    w = _check_dofs(ops, w)
    total = 0.0
    for B, vol in zip(ops.strain_maps, ops.volumes):
        total += vol * deviatoric_dual_value(SymMatrix(ops.dim, B @ w))
    return total


def trace(ops: DiscreteOperators, w) -> np.ndarray:
    """Per-gammaT-facet representative (averaged) velocity vectors."""
    w = _check_dofs(ops, w)
    if not ops.trace_maps:
        return np.zeros((0, ops.dim))
    return np.array([T @ w for T in ops.trace_maps])


def trace_norm_l1(ops: DiscreteOperators, w) -> float:
    """Area-weighted boundary L1 norm of the trace over gammaT."""
    values = trace(ops, w)
    return float(sum(a * vec_norm(v, L1)
                     for a, v in zip(ops.areas, values)))


def external_work(ops: DiscreteOperators, t, w) -> float:
    """Virtual work of the traction field against a velocity field."""
    t = check_traction(ops, t)
    values = trace(ops, w)
    return float(sum(a * np.dot(tv, v)
                     for a, tv, v in zip(ops.areas, t, values)))


def traction_sup_norm(ops: DiscreteOperators, t) -> float:
    """Sup over gammaT facets of the dual vector norm of the traction."""
    t = check_traction(ops, t)
    if t.shape[0] == 0:
        return 0.0
    return max(vec_norm(tv, LINF) for tv in t)


def work_vector(ops: DiscreteOperators, t) -> np.ndarray:
    """Generalized force: f such that external_work(t, w) = f . w."""
    t = check_traction(ops, t)
    f = np.zeros(ops.n_dof)
    for a, tv, T in zip(ops.areas, t, ops.trace_maps):
        f += a * (tv @ T)
    return f


def isochoric_constraints(ops: DiscreteOperators) -> np.ndarray:
    """One row per element: trace of the element strain must vanish."""
    rows = np.zeros((ops.n_elements, ops.n_dof))
    for e, B in enumerate(ops.strain_maps):
        rows[e] = B[: ops.dim].sum(axis=0)
    return rows


def rigid_kernel_dim(ops: DiscreteOperators, tol: float = 1e-9) -> int:
    """Nullspace dimension of the stacked strain operator."""
    if ops.n_dof == 0:
        return 0
    stacked = np.vstack(ops.strain_maps)
    svals = np.linalg.svd(stacked, compute_uv=False)
    smax = svals[0] if svals.size else 0.0
    if smax == 0.0:
        return ops.n_dof
    rank = int(np.sum(svals > tol * smax))
    return ops.n_dof - rank
