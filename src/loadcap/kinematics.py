"""Discrete kinematic operators: stacked strain and trace maps, norms.

Assembly clamps every displacement component of nodes lying on a gamma0
facet (elimination, not penalty), so the strain operator on the clamped
space is injective whenever the mesh is connected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mesh as msh

# unique strain (and stress) components of an element, in the row order of
# strain_op: diagonal first, then off-diagonals (dim 3: 11, 22, 33, 23, 13,
# 12); dim 1 is the bar's scalar strain
COMP_POSITIONS = {
    1: ((0, 0),),
    2: ((0, 0), (1, 1), (0, 1)),
    3: ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)),
}


def n_comps(dim: int) -> int:
    return dim * (dim + 1) // 2


def comp_weights(dim: int) -> np.ndarray:
    """Multiplicity of each unique component in the full matrix (1 or 2)."""
    return np.array([1.0 if i == j else 2.0 for i, j in COMP_POSITIONS[dim]])


class KinematicsError(ValueError):
    """Invalid mesh or shape mismatch."""


@dataclass(frozen=True)
class DiscreteOperators:
    """Stacked strain and trace operators of a mesh, on the free DOFs.

    Row e*n_comp + c of strain_op gives unique strain component c of
    element e, weighted by strain_weights = volume_e * comp_weight_c in the
    strain budget.  Row f*dim + i of trace_op gives component i of the
    representative (facet-averaged) velocity of the f-th gammaT facet,
    weighted by areas[f] in boundary integrals.
    """

    mesh: msh.Mesh
    n_dof: int
    dof_index: np.ndarray = field(repr=False)   # (n_nodes, dim), -1 = clamped
    strain_op: np.ndarray = field(repr=False)   # (n_el * n_comp, n_dof)
    strain_weights: np.ndarray = field(repr=False)
    volumes: np.ndarray = field(repr=False)
    trace_op: np.ndarray = field(repr=False)    # (n_gammaT * dim, n_dof)
    areas: np.ndarray = field(repr=False)
    gammat_facets: tuple = ()

    @property
    def dim(self) -> int:
        return self.mesh.dim

    @property
    def n_elements(self) -> int:
        return len(self.mesh.elements)


def _shape_gradients(edges: np.ndarray) -> np.ndarray:
    """Gradients of the linear shape functions of simplices with edge
    vectors edges[:, k] = p_(k+1) - p_0, as (n_el, node, axis)."""
    # x = p0 + E lam  =>  lam = inv(E)(x - p0); grad lam_k is row k of inv(E)
    grads_rest = np.linalg.inv(np.swapaxes(edges, 1, 2))
    return np.concatenate([-grads_rest.sum(axis=1, keepdims=True), grads_rest],
                          axis=1)


def assemble(mesh: msh.Mesh, clamp: bool = True) -> DiscreteOperators:
    """Build the discrete strain and trace operators for a valid mesh.

    With clamp=False no boundary condition is applied; that variant is
    used only for rigid-kernel diagnostics.
    """
    problems = msh.validate(mesh)
    if problems:
        raise KinematicsError("invalid mesh: " + "; ".join(problems))
    dim, n_nodes = mesh.dim, mesh.n_nodes
    clamped = np.zeros(n_nodes, dtype=bool)
    if clamp:
        for f in mesh.facets_labeled(msh.GAMMA0):
            clamped[list(f.nodes)] = True
    free = np.repeat(~clamped, dim)             # (node, component), node-major
    n_dof = int(free.sum())
    dof_index = -np.ones(n_nodes * dim, dtype=int)
    dof_index[free] = np.arange(n_dof)

    n_el, nc = len(mesh.elements), n_comps(dim)
    conn = np.array([e.nodes for e in mesh.elements]).reshape(n_el, dim + 1)
    edges = mesh.nodes[conn[:, 1:]] - mesh.nodes[conn[:, :1]]
    volumes = msh.element_measures(edges)
    if dim == 1:  # bars: length times cross-section
        volumes = volumes * [e.area for e in mesh.elements]
    grads = _shape_gradients(edges)
    # eps_ij = 1/2 (d_i w_j + d_j w_i), by (element, comp, local node, axis)
    local = np.zeros((n_el, nc, dim + 1, dim))
    for c, (i, j) in enumerate(COMP_POSITIONS[dim]):
        local[:, c, :, i] += 0.5 * grads[:, :, j]
        local[:, c, :, j] += 0.5 * grads[:, :, i]
    axis = np.arange(dim)
    strain_op = np.zeros((n_el, nc, n_nodes, dim))
    strain_op[np.arange(n_el)[:, None, None, None], np.arange(nc)[:, None, None],
              conn[:, None, :, None], axis] = local

    gammat = tuple(mesh.facets_labeled(msh.GAMMAT))
    fnodes = np.array([f.nodes for f in gammat]).reshape(len(gammat), dim)
    trace_op = np.zeros((len(gammat), dim, n_nodes, dim))
    trace_op[np.arange(len(gammat))[:, None, None], axis[:, None],
             fnodes[:, None, :], axis[:, None]] = 1.0 / dim

    return DiscreteOperators(
        mesh=mesh, n_dof=n_dof,
        dof_index=dof_index.reshape(n_nodes, dim),
        strain_op=strain_op.reshape(n_el * nc, -1)[:, free],
        strain_weights=(volumes[:, None] * comp_weights(dim)).ravel(),
        volumes=volumes,
        trace_op=trace_op.reshape(len(gammat) * dim, -1)[:, free],
        areas=msh.facet_measures(mesh, fnodes),
        gammat_facets=gammat)


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


def strain_norm_l1(ops: DiscreteOperators, w) -> float:
    """Volume-weighted L1 norm of the strain field (the LD norm of w)."""
    return float(ops.strain_weights @ np.abs(ops.strain_op @ _check_dofs(ops, w)))


def strain_norm_plastic(ops: DiscreteOperators, w) -> float:
    """Volume-weighted strain norm with the yield-dual (quotient) magnitude:
    each element's entrywise 1-norm of its strain, embedded in 3x3, after
    the spherical shift that minimizes it (the norm dual to the yield
    seminorm on traceless matrices)."""
    eps = (ops.strain_op @ _check_dofs(ops, w)).reshape(ops.n_elements, -1)
    diag = np.zeros((ops.n_elements, 3))
    diag[:, :ops.dim] = eps[:, :ops.dim]
    diag -= np.sort(diag, axis=1)[:, 1:2]  # the best spherical shift
    budget = np.abs(diag).sum(axis=1) + 2.0 * np.abs(eps[:, ops.dim:]).sum(axis=1)
    return float(ops.volumes @ budget)


def trace(ops: DiscreteOperators, w) -> np.ndarray:
    """Per-gammaT-facet representative (averaged) velocity vectors."""
    return (ops.trace_op @ _check_dofs(ops, w)).reshape(-1, ops.dim)


def external_work(ops: DiscreteOperators, t, w) -> float:
    """Virtual work of the traction field against a velocity field."""
    return float(work_vector(ops, t) @ _check_dofs(ops, w))


def traction_sup_norm(ops: DiscreteOperators, t) -> float:
    """Sup over gammaT facets of the dual vector norm of the traction."""
    return float(np.abs(check_traction(ops, t)).max(initial=0.0))


def work_vector(ops: DiscreteOperators, t) -> np.ndarray:
    """Generalized force: f such that external_work(t, w) = f . w."""
    t = check_traction(ops, t).reshape(-1, 1)
    rows = np.repeat(ops.areas, ops.dim)[:, None] * (t * ops.trace_op)
    # cumsum, unlike sum, adds the rows one by one in facet order; 0.0 +
    # turns a sum of -0.0 terms into 0.0
    return 0.0 + np.cumsum(rows, axis=0)[-1]


def isochoric_constraints(ops: DiscreteOperators) -> np.ndarray:
    """One row per element: trace of the element strain must vanish."""
    strain_op = ops.strain_op.reshape(ops.n_elements, -1, ops.n_dof)
    return strain_op[:, :ops.dim].sum(axis=1)


def rigid_kernel_dim(ops: DiscreteOperators) -> int:
    """Nullspace dimension of the stacked strain operator."""
    if ops.n_dof == 0:
        return 0
    svals = np.linalg.svd(ops.strain_op, compute_uv=False)
    smax = svals[0] if svals.size else 0.0
    if smax == 0.0:
        return ops.n_dof
    rank = int(np.sum(svals > 1e-9 * smax))
    return ops.n_dof - rank
