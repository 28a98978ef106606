"""Optimal equilibrating stress fields: the static problem as a
box-bounded LP, the kinematic dual, and the static LP as a reference.

Elastic mode bounds every stress component; plastic mode bounds only the
deviatoric part, leaving the pressure (and, in plane strain, the
out-of-plane normal stress) free.  The kinematic dual uses the matching
strain budget: plain volume-weighted entrywise-1 norm in elastic mode,
and its quotient by spherical shifts in plastic mode.

- The box LP (`box_lp`) is the static problem with the bound scaled to
  1: maximize lambda subject to E s = lambda f and |s| <= 1 (plastic:
  |d| <= 1 on the deviatoric part d, with tr d = 0 and a free pressure),
  with one row per velocity DOF, and one per element in plastic mode.
  The simplex keeps its bounds out of the rows.  `optimal_stress` solves
  it once: sigma_opt = 1 / lambda, sigma_hat = s / lambda, and the
  multipliers of its equilibrium rows are the kinematic witness;
  `certify` checks the three against each other.
- The kinematic LP maximizes the work over the unit strain-budget ball.
  The traction enters only its costs, so every objective shares one
  phase 1: the exact-K walk over sign patterns runs on it, and `verify`
  uses it as an independent reference for the box LP.
- The static LP minimizes the bound T with the bound rows written out;
  it starts dual feasible and is solved by the dual simplex
  (`static_optima` walks it over a sequence of tractions).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import lp
from .kinematics import (DiscreteOperators, check_traction, comp_weights,
                         external_work, isochoric_constraints, n_comps,
                         strain_norm_l1, strain_norm_plastic, work_vector)

ELASTIC = "elastic"
PLASTIC = "plastic"
MODES = (ELASTIC, PLASTIC)

DUALITY_GAP_TOL = 1e-6


class StressError(ValueError):
    """Bad mode, shape mismatch, or plastic mode on a non-viable mesh."""


class SolverFailure(RuntimeError):
    """LP failure or a failed certificate; never a silent wrong answer."""


def check_mode(mode: str):
    if mode not in MODES:
        raise StressError(f"unknown mode {mode!r}; expected one of {MODES}")


def require_plastic_viable(ops: DiscreteOperators):
    """Plastic mode needs a nontrivial isochoric subspace; bar meshes have
    none (the 1D strain trace is the strain itself)."""
    if ops.dim == 1:
        raise StressError(
            "plastic mode rejected: all-bar mesh has a trivial isochoric subspace")


class StressField(NamedTuple):
    """The stress of every element: row e of comps holds element e's unique
    components, in the order of `strain_op`'s rows
    (`kinematics.COMP_POSITIONS`); s33 is the out-of-plane normal stress of
    each element in 2D plastic mode."""

    comps: np.ndarray           # (n_el, n_comp)
    s33: np.ndarray | None = None


class OptimalStressResult(NamedTuple):
    """sigma_opt is the certified optimum (1 / lambda of the box LP in
    `optimal_stress`), dual_value the witness's ratio work/budget,
    duality_gap |stress_measure(sigma_hat) - dual_value|, and
    equilibrium_residual that of sigma_hat against the traction."""

    sigma_opt: float
    sigma_hat: StressField
    dual_value: float
    dual_witness: np.ndarray
    duality_gap: float = 0.0
    equilibrium_residual: float = 0.0


def _check_stress(ops: DiscreteOperators, s: StressField) -> np.ndarray:
    """s.comps as a float array of the mesh's shape."""
    comps = np.asarray(s.comps, dtype=float)
    shape = (ops.n_elements, n_comps(ops.dim))
    if comps.shape != shape:
        raise StressError(f"stress field has shape {comps.shape}, expected {shape}")
    if s.s33 is not None and np.shape(s.s33) != shape[:1]:
        raise StressError(f"s33 has shape {np.shape(s.s33)}, expected {shape[:1]}")
    return comps


def stress_measure(s: StressField, mode: str, ops: DiscreteOperators) -> float:
    """Sup over elements of the stress magnitude (norm or yield seminorm)."""
    check_mode(mode)
    comps = _check_stress(ops, s)
    if mode == PLASTIC:
        # deviatoric part of the 3x3 embedding, s33 its third diagonal entry
        diag = np.zeros((ops.n_elements, 3))
        diag[:, :ops.dim] = comps[:, :ops.dim]
        if s.s33 is not None:
            diag[:, 2] = s.s33
        diag -= diag.sum(axis=1, keepdims=True) / 3.0
        comps = np.hstack([diag, comps[:, ops.dim:]])
    return float(np.abs(comps).max(initial=0.0))


def equilibrium_residual(ops: DiscreteOperators, s: StressField, t) -> float:
    """Max violation of the virtual-work identity over the DOF basis."""
    return check_equilibrium(ops, s, t)[1]


def check_equilibrium(ops: DiscreteOperators, s: StressField, t):
    """(ok, residual): the max violation of the virtual-work identity
    E s = f over the DOF basis, and whether it is within 1e-8 times the
    largest sum of magnitudes that one of its rows adds up,
    (|E| |s| + |f|)_k.  Every term scales alike with the unit of length,
    so the verdict does not depend on it."""
    weighted = ops.strain_weights * _check_stress(ops, s).ravel()
    work = work_vector(ops, t)
    residual = float(np.abs(weighted @ ops.strain_op - work).max(initial=0.0))
    terms = np.abs(weighted) @ np.abs(ops.strain_op) + np.abs(work)
    return residual <= 1e-8 * terms.max(initial=0.0), residual


def _deviatoric_rows(dim: int) -> np.ndarray:
    """Matrix of the deviatoric part of an element stress, by unique
    components (3D: d11, d22, d33, d23, d13, d12; 2D: d11, d22, d33, d12).
    Its columns are the element's unique stress components and, in 2D, the
    free out-of-plane normal stress u after them."""
    third = np.full((3, 3), -1 / 3)
    np.fill_diagonal(third, 2 / 3)
    nc = n_comps(dim)
    n = nc + (dim == 2)
    rows = np.zeros((n, n))
    rows[:3, [0, 1, nc] if dim == 2 else [0, 1, 2]] = third
    rows[3:, dim:nc] = np.eye(nc - dim)
    return rows


def _solve(prob: lp.LPStandardForm, name: str) -> lp.LPSolution:
    """`lp.solve`, with a pivot-limit failure named after the LP."""
    try:
        return lp.solve(prob)
    except lp.LPIterationError as exc:
        raise SolverFailure(f"{name}: {exc}") from exc


class StaticLP(NamedTuple):
    """The static LP of one mesh and mode with its right-hand side left
    open: minimize the stress bound T over the stress fields that balance
    a traction.  Its columns are every element's stress components, then
    in 2D plastic mode every element's out-of-plane normal stress u, then
    T, then the bound rows' slacks.  Its first n_dof rows are the
    equilibrium rows and the bound rows have b = 0, so the LP of a
    traction t has b = (work_vector(t), 0) (`_static_rhs`).  Only T has a
    cost, so `lp.solve` runs the dual simplex on it from its slacks and
    free stress columns, and a walk over tractions keeps its basis."""

    n_dof: int
    n_comp: int
    n_u: int  # 1 for the 2D out-of-plane stress in plastic mode, else 0
    prob: lp.LPStandardForm


def static_lp(ops: DiscreteOperators, mode: str) -> StaticLP:
    """The static LP of `ops` in `mode`, to solve for many tractions."""
    check_mode(mode)
    if mode == PLASTIC:
        require_plastic_viable(ops)
    dim, n_el = ops.dim, ops.n_elements
    nc = n_comps(dim)
    bound = _deviatoric_rows(dim) if mode == PLASTIC else np.eye(nc)
    n_u = bound.shape[1] - nc
    # variables: every element's stress, then every element's u, then T
    builder = lp.LPBuilder()
    builder.add_vars(n_el * (nc + n_u), lower=-np.inf)
    builder.add_vars(1)
    equilibrium = np.zeros((ops.n_dof, builder.n_vars))
    equilibrium[:, :n_el * nc] = (ops.strain_weights[:, None] * ops.strain_op).T
    builder.add_eq(equilibrium, 0.0)
    # per element and bound row r: r.s <= T, then -r.s <= T
    signed = np.stack([bound, -bound], axis=1).reshape(-1, bound.shape[1])
    el, rows = np.arange(n_el)[:, None, None], np.arange(len(signed))[:, None]
    bounds = np.zeros((n_el, len(signed), builder.n_vars))
    bounds[el, rows, el * nc + np.arange(nc)] = signed[:, :nc]
    bounds[el, rows, n_el * nc + el * n_u + np.arange(n_u)] = signed[:, nc:]
    bounds[:, :, -1] = -1.0
    builder.add_le(bounds.reshape(-1, builder.n_vars), 0.0)
    objective = np.zeros(builder.n_vars)
    objective[-1] = 1.0
    return StaticLP(ops.n_dof, nc, n_u, builder.build(objective))


def _static_rhs(static: StaticLP, work) -> np.ndarray:
    """The static LP's right-hand side for the work vector of a traction;
    adding 0.0 turns a -0.0 of the work into 0.0."""
    b = np.zeros(len(static.prob.b))
    b[:static.n_dof] = np.asarray(work, dtype=float) + 0.0
    return b


def _check_static(status: str):
    """Raise the `SolverFailure` of a static LP that ended with status."""
    if status != lp.OPTIMAL:
        raise SolverFailure(
            f"primal stress LP ended with status {status}; with a "
            "nonempty supported boundary on a connected mesh this indicates "
            "an internal error")


def optimal_stress_primal(ops: DiscreteOperators, t, mode: str):
    """Minimize the stress bound T over all equilibrating stress fields.

    Returns (sigma_opt, sigma_hat).
    """
    check_mode(mode)
    t = check_traction(ops, t)
    static = static_lp(ops, mode)
    prob = static.prob
    sol = _solve(lp.LPStandardForm(c=prob.c, A=prob.A, lower=prob.lower,
                                   upper=prob.upper,
                                   b=_static_rhs(static, work_vector(ops, t))),
                 "static LP")
    _check_static(sol.status)
    n_el = ops.n_elements
    n_stress = n_el * static.n_comp
    return float(sol.objective), StressField(
        sol.x[:n_stress].reshape(n_el, static.n_comp),
        sol.x[n_stress:n_stress + n_el] if static.n_u else None)


def static_optima(static: StaticLP, works) -> np.ndarray:
    """The value of `optimal_stress_primal` for the traction of each work
    vector in turn, from one walk over the right-hand sides
    (`lp.solve_each_rhs`), without stress fields.  A value may differ
    from `optimal_stress_primal`'s in its last digits.  Failures raise the
    same `SolverFailure`s."""
    rhss = (_static_rhs(static, work) for work in works)
    values = []
    try:
        for status, value in lp.solve_each_rhs(static.prob, rhss):
            _check_static(status)
            values.append(value)
    except lp.LPIterationError as exc:
        raise SolverFailure(f"static LP: {exc}") from exc
    return np.array(values)


@functools.lru_cache(maxsize=None)
def _element_block(dim: int, mode: str):
    """One element's part of the kinematic LP, the same for every element.

    Returns its rows (one per strain slot, then in plastic mode the
    isochoric row) over its columns (in plastic mode the spherical shift
    p, then a (+, -) budget pair per slot), and each column's strain-budget
    weight per unit volume.  Plane strain in plastic mode adds the
    out-of-plane diagonal slot, whose strain is zero.
    """
    nc = n_comps(dim)
    plastic = int(mode == PLASTIC)
    n_slots = nc + (plastic and dim == 2)
    slot = np.arange(n_slots)
    rows = np.zeros((n_slots + plastic, plastic + 2 * n_slots))
    rows[slot, plastic + 2 * slot] = -1.0
    rows[slot, plastic + 2 * slot + 1] = 1.0
    if plastic:
        rows[[*range(dim), *range(nc, n_slots)], 0] = 1.0
    slot_wgt = np.ones(n_slots)
    slot_wgt[:nc] = comp_weights(dim)
    budget = np.zeros(rows.shape[1])
    budget[plastic:] = np.repeat(slot_wgt, 2)
    rows.flags.writeable = budget.flags.writeable = False  # shared by every call
    return rows, budget


class KinematicLP(NamedTuple):
    """The kinematic LP of one mesh and mode with its objective left open.
    Its feasible set, the unit strain-budget ball, is the same for every
    objective, so every `kinematic_supremum` on it shares one phase 1.
    The velocity DOFs are the first n_dof columns of `prob`."""

    n_dof: int
    prob: lp.LPStandardForm


def _dual_builder(ops: DiscreteOperators, mode: str) -> KinematicLP:
    """Kinematic LP over the velocity DOFs and each element's
    `_element_block` columns, with zero costs.

    The equality rows come element by element, as in `_element_block`;
    their multipliers carry the stress field.  The last row bounds the
    strain budget by 1.
    """
    dim, n_el, n_dof = ops.dim, ops.n_elements, ops.n_dof
    nc, plastic = n_comps(dim), mode == PLASTIC
    local, local_budget = _element_block(dim, mode)
    n_rows, n_cols = local.shape
    eq = np.zeros((n_el, n_rows, n_dof + n_el * n_cols))
    eq[:, :nc, :n_dof] = ops.strain_op.reshape(n_el, nc, n_dof)
    if plastic:
        eq[:, -1, :n_dof] = isochoric_constraints(ops)
    el = np.arange(n_el)[:, None, None]
    eq[el, np.arange(n_rows)[:, None], n_dof + el * n_cols + np.arange(n_cols)] = local

    builder = lp.LPBuilder()
    builder.add_vars(n_dof, lower=-np.inf)
    # p, the first column of a plastic element, is free
    builder.add_vars(n_el * n_cols,
                     lower=np.where(np.arange(n_el * n_cols) % n_cols >= plastic, 0.0, -np.inf))
    builder.add_eq(eq.reshape(n_el * n_rows, -1), 0.0)
    budget = np.zeros(builder.n_vars)
    budget[n_dof:] = (ops.volumes[:, None] * local_budget).ravel()
    builder.add_le(budget, 1.0)
    return KinematicLP(n_dof, builder.build(np.zeros(builder.n_vars)))


def kinematic_lp(ops: DiscreteOperators, mode: str) -> KinematicLP:
    """The kinematic LP of `ops` in `mode`, to solve for many objectives."""
    check_mode(mode)
    if mode == PLASTIC:
        require_plastic_viable(ops)
    return _dual_builder(ops, mode)


def _kinematic_costs(kinematic: KinematicLP, objective) -> np.ndarray:
    """The LP's costs for maximizing objective . w."""
    # 0.0 - x, unlike -x, gives 0.0 and not -0.0 for a zero entry
    c = np.zeros(len(kinematic.prob.c))
    c[:kinematic.n_dof] = 0.0 - objective
    return c


def _check_kinematic(status: str):
    """Raise the `SolverFailure` of a kinematic LP that ended with status."""
    if status == lp.UNBOUNDED:
        raise SolverFailure(
            "kinematic LP unbounded: the mesh admits a mechanism despite "
            "the supported boundary")
    if status != lp.OPTIMAL:
        raise SolverFailure(f"kinematic LP ended with status {status}")


def kinematic_supremum(kinematic: KinematicLP, objective: np.ndarray):
    """Maximize objective . w over the unit strain-budget ball (plastic:
    restricted to isochoric fields).  Returns (value, witness, the LP's
    multipliers).  The LP shares the phase 1 of `kinematic.prob`."""
    sol = _solve(kinematic.prob.with_objective(_kinematic_costs(kinematic, objective)),
                 "kinematic LP")
    _check_kinematic(sol.status)
    # 0.0 - x again, so that a zero optimum is reported as 0.0
    return 0.0 - sol.objective, sol.x[:kinematic.n_dof], sol.y


def kinematic_suprema(kinematic: KinematicLP, unit_objectives,
                      weights) -> np.ndarray:
    """The value of `kinematic_supremum` for the objective
    w @ unit_objectives of each row w of weights, from one simplex walk
    (`lp.solve_each`), without witnesses or multipliers.  A value may
    differ from `kinematic_supremum`'s in its last digits.  Failures raise
    the same `SolverFailure`s, for the first row that fails."""
    unit_costs = np.reshape([_kinematic_costs(kinematic, f) for f in unit_objectives],
                            (-1, len(kinematic.prob.c)))
    try:
        status, value = lp.solve_each(kinematic.prob, unit_costs, weights)
    except lp.LPIterationError as exc:
        raise SolverFailure(f"kinematic LP: {exc}") from exc
    failed = status[status != lp.OPTIMAL]
    if failed.size:
        _check_kinematic(failed[0])
    return np.subtract(0.0, value, out=value)  # 0.0 - value, in place


def stress_from_multipliers(ops: DiscreteOperators, mode: str,
                            y) -> StressField:
    """The stress field dual to the kinematic LP, from its multipliers y.
    Stationarity of the kinematic LP in w reads
    sum_ec (y_ec + [c diagonal] mu_e) B_e[c] = -f, with mu_e the isochoric
    multiplier (plastic only); equilibrium reads
    sum_ec vol_e wgt_c s_ec B_e[c] = f.  So the stress dual to the LP is
    s_ec = -(y_ec + [c diagonal] mu_e) / (vol_e wgt_c), and the plane-strain
    out-of-plane slot gives s33_e = -(y_e33 + mu_e) / vol_e."""
    dim, n_el, nc = ops.dim, ops.n_elements, n_comps(ops.dim)
    plastic = mode == PLASTIC
    y = y[:n_el * len(_element_block(dim, mode)[0])].reshape(n_el, -1)
    mu = y[:, -1] if plastic else np.zeros(n_el)
    on_diag = np.arange(nc) < dim
    comps = -(y[:, :nc] + on_diag * mu[:, None]) / ops.strain_weights.reshape(n_el, nc)
    s33 = -(y[:, nc] + mu) / ops.volumes if plastic and dim == 2 else None
    return StressField(comps, s33)


def _n_deviatoric(dim: int) -> int:
    """The box LP's deviatoric columns per element in plastic mode: the
    unique components and, in 2D, the out-of-plane d33."""
    return n_comps(dim) + (dim == 2)


def _pressure_op(ops: DiscreteOperators) -> np.ndarray:
    """The equilibrium columns of the element pressures p: those of each
    element's diagonal stress components, summed, (n_dof, n_el)."""
    strain_op = ops.strain_op.reshape(ops.n_elements, -1, ops.n_dof)
    weights = ops.strain_weights.reshape(ops.n_elements, -1)
    return np.einsum("ec,eck->ke", weights[:, :ops.dim], strain_op[:, :ops.dim])


def box_lp(ops: DiscreteOperators, mode: str) -> lp.LPStandardForm:
    """The static problem as a box-bounded LP: maximize the load factor
    lambda >= 0 subject to E s = lambda f, with
    E = (strain_weights * strain_op)^T, one row per velocity DOF.  Its
    last column, lambda's, is left zero: the LP of a work vector f has -f
    there (`box_optimum`).  Its phase 1 does not depend on f, since the
    crash pivots only on columns with 0 strictly inside their bounds,
    never on lambda, which is nonnegative; so the LPs of many tractions
    can share it (`lp.LPStandardForm.with_column`).

    Elastic: s is every element's unique stress components, each in
    [-1, 1].  Plastic: every element's deviatoric components d, each in
    [-1, 1] (its unique components, then in 2D d33), then every element's
    free pressure p, with s_ii = d_ii + p and s_ij = d_ij; one more row
    per element keeps d traceless, d11 + d22 + d33 = 0, so that d is the
    deviatoric part of s (in 2D, s33 = d33 + p is the out-of-plane
    stress).  The bound is the stress measure, so the optimum is
    sigma_opt = 1 / lambda, attained by s / lambda."""
    check_mode(mode)
    if mode == PLASTIC:
        require_plastic_viable(ops)
    dim, n_el, n_dof = ops.dim, ops.n_elements, ops.n_dof
    nc = n_comps(dim)
    E = (ops.strain_weights[:, None] * ops.strain_op).T
    builder = lp.LPBuilder()
    if mode == ELASTIC:
        builder.add_vars(n_el * nc, lower=-1.0, upper=1.0)
        builder.add_vars(1)
        builder.add_eq(np.hstack([E, np.zeros((n_dof, 1))]), 0.0)
    else:
        n_dev = _n_deviatoric(dim)
        builder.add_vars(n_el * n_dev, lower=-1.0, upper=1.0)
        builder.add_vars(n_el, lower=-np.inf)
        builder.add_vars(1)
        equilibrium = np.zeros((n_dof, builder.n_vars))
        deviatoric = equilibrium[:, :n_el * n_dev].reshape(n_dof, n_el, n_dev)
        deviatoric[:, :, :nc] = E.reshape(n_dof, n_el, nc)
        equilibrium[:, n_el * n_dev:-1] = _pressure_op(ops)
        builder.add_eq(equilibrium, 0.0)
        traceless = np.zeros((n_el, builder.n_vars))
        diagonal = [*range(dim), nc] if dim == 2 else list(range(dim))
        el = np.arange(n_el)[:, None]
        traceless[el, el * n_dev + diagonal] = 1.0
        builder.add_eq(traceless, 0.0)
    objective = np.zeros(builder.n_vars)
    objective[-1] = -1.0
    return builder.build(objective)


class BoxOptimum(NamedTuple):
    """The box LP's optimum for a work vector: the load factor lambda, the
    stress field s / lambda and the witness, the multipliers of the
    equilibrium rows.  lambda is inf when a stress of measure 0 balances
    the traction; then the stress field is that one and the witness 0."""

    load_factor: float
    sigma_hat: StressField
    witness: np.ndarray


def box_optimum(ops: DiscreteOperators, work, mode: str = ELASTIC,
                box: lp.LPStandardForm | None = None) -> BoxOptimum:
    """Solve the box LP of the work vector once: standalone, or sharing
    the phase 1 of box, the `box_lp` of ops and mode, if it is given.

    Its multipliers y price the equilibrium rows: lambda's reduced cost
    is 0, so f . y = 1, and each stress column's reduced cost -E_k . y
    sits at the bound the column takes, so the strain budget of y is
    sum_k |E_k . y| = lambda.  So y is a kinematic witness with ratio
    work/budget = 1 / lambda.  Unbounded lambda means that a stress of
    measure 0 balances the traction: none but 0 in elastic mode, a
    pressure field in plastic mode, found by least squares.  lambda = 0
    means that the traction loads a mechanism."""
    template = box_lp(ops, mode) if box is None else box
    load = np.zeros(len(template.b))
    load[:ops.n_dof] = 0.0 - np.asarray(work, dtype=float)  # 0.0 - x: no -0.0
    if box is None:
        A = template.A
        A[:, -1] = load  # the template is this call's own
        prob = lp.LPStandardForm(c=template.c, A=A, b=template.b,
                                 lower=template.lower, upper=template.upper)
    else:
        prob = box.with_column(-1, load)
    sol = _solve(prob, "box LP")
    n_el, nc = ops.n_elements, n_comps(ops.dim)
    plastic, planar = mode == PLASTIC, ops.dim == 2
    if sol.status == lp.UNBOUNDED:
        comps = np.zeros((n_el, nc))
        if not plastic:
            return BoxOptimum(np.inf, StressField(comps), np.zeros(ops.n_dof))
        p = np.linalg.lstsq(_pressure_op(ops), work, rcond=None)[0]
        comps[:, :ops.dim] = p[:, None]
        return BoxOptimum(np.inf, StressField(comps, p if planar else None),
                          np.zeros(ops.n_dof))
    if sol.status != lp.OPTIMAL:
        raise SolverFailure(
            f"box LP ended with status {sol.status}; s = 0 with lambda = 0 "
            "is feasible, so this indicates an internal error")
    lam = sol.x[-1]
    if not lam > 0.0:
        raise SolverFailure(
            "box LP: load factor 0: the traction loads a mechanism of the "
            "mesh despite the supported boundary")
    s = sol.x[:-1] / lam
    if not plastic:
        return BoxOptimum(lam, StressField(s.reshape(n_el, nc)), sol.y[:ops.n_dof])
    n_dev = _n_deviatoric(ops.dim)
    d = s[:n_el * n_dev].reshape(n_el, n_dev)
    p = s[n_el * n_dev:]
    comps = d[:, :nc].copy()
    comps[:, :ops.dim] += p[:, None]
    s33 = d[:, nc] + p if planar else None
    return BoxOptimum(lam, StressField(comps, s33), sol.y[:ops.n_dof])


def optimal_stress(ops: DiscreteOperators, t, mode: str = ELASTIC,
                   box: lp.LPStandardForm | None = None) -> OptimalStressResult:
    """Solve the box LP once (`box_optimum`, sharing the phase 1 of box if
    it is given) and certify its optimum, sigma_opt = 1 / lambda
    (`certify`)."""
    t = check_traction(ops, t)
    opt = box_optimum(ops, work_vector(ops, t), mode, box)
    return certify(ops, t, mode, 1.0 / opt.load_factor, opt.sigma_hat, opt.witness)


def certify(ops: DiscreteOperators, t, mode: str, value: float, sigma_hat: StressField,
            w) -> OptimalStressResult:
    """Certify an optimum value for t without the LP: check that the
    stress field sigma_hat balances t, that the witness w is admissible,
    and that stress_measure(sigma_hat), the witness ratio work/budget and
    value agree.  By weak duality that proves both optimal; a failed check
    raises SolverFailure naming it."""
    ok, residual = check_equilibrium(ops, sigma_hat, t)
    if not ok:
        raise SolverFailure(
            "certificate failed: the recovered stress does not balance the "
            f"traction (equilibrium residual {residual:.3e})")
    if mode == PLASTIC:
        # relative to the largest sum of magnitudes of a dilation's terms
        isochoric = isochoric_constraints(ops)
        dilation = np.abs(isochoric @ w).max(initial=0.0)
        if dilation > 1e-8 * (np.abs(isochoric) @ np.abs(w)).max(initial=0.0):
            raise SolverFailure(
                "certificate failed: the plastic witness is not isochoric "
                f"(volumetric strain {dilation:.3e})")
    measure = stress_measure(sigma_hat, mode, ops)
    strain_norm = strain_norm_plastic if mode == PLASTIC else strain_norm_l1
    budget = strain_norm(ops, w)
    ratio = external_work(ops, t, w) / budget if budget > 0.0 else 0.0
    gap = abs(measure - ratio)
    if max(gap, abs(value - measure)) > DUALITY_GAP_TOL * (1.0 + measure):
        raise SolverFailure(
            f"certificate failed: stress measure {measure:.9g}, witness ratio "
            f"work/budget {ratio:.9g} and LP value {value:.9g} disagree")
    return OptimalStressResult(sigma_opt=value, sigma_hat=sigma_hat,
                               dual_value=ratio, dual_witness=w,
                               duality_gap=gap, equilibrium_residual=residual)
