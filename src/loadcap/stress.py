"""Optimal equilibrating stress fields: minimax primal and kinematic dual.

Elastic mode bounds every stress component; plastic mode bounds only the
deviatoric part, leaving the pressure (and, in plane strain, the
out-of-plane normal stress) as free variables.  The kinematic dual uses
the matching strain budget: plain volume-weighted entrywise-1 norm in
elastic mode, and its quotient by spherical shifts in plastic mode,
which makes the two linear programs exact duals of each other.
`optimal_stress` solves only the kinematic LP, reads the stress off its
multipliers and certifies the pair by weak duality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .kinematics import (DiscreteOperators, check_traction, external_work,
                         isochoric_constraints, strain_norm_l1,
                         strain_norm_plastic, traction_sup_norm, work_vector)
from .matnorm import (LINF, SymMatrix, comp_weights, mat_norm, n_comps,
                      yield_value)

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


@dataclass(frozen=True)
class StressField:
    """Per-element stress matrices; s33 carries the out-of-plane normal
    component in 2D plastic mode."""

    elements: tuple
    s33: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.s33 is not None:
            object.__setattr__(self, "s33", np.asarray(self.s33, dtype=float))

    @classmethod
    def zero(cls, ops: DiscreteOperators, with_s33: bool = False):
        elems = [SymMatrix.zero(ops.dim) for _ in range(ops.n_elements)]
        s33 = np.zeros(ops.n_elements) if with_s33 else None
        return cls(elems, s33)


@dataclass(frozen=True)
class OptimalStressResult:
    """sigma_opt is the kinematic LP's optimum, dual_value the witness's
    ratio work/budget, duality_gap |stress_measure(sigma_hat) - dual_value|."""

    mode: str
    sigma_opt: float
    sigma_hat: StressField
    dual_value: float
    dual_witness: np.ndarray = field(repr=False)
    duality_gap: float = 0.0


def _element_measure_matrix(s: StressField, e: int, dim: int) -> SymMatrix:
    """Stress matrix of element e embedded for measurement, with s33 folded in."""
    m = s.elements[e]
    if s.s33 is None:
        return m
    full = np.zeros((3, 3))
    full[:dim, :dim] = m.as_matrix()
    full[2, 2] = s.s33[e]
    return SymMatrix.from_matrix(full)


def stress_measure(s: StressField, mode: str, ops: DiscreteOperators) -> float:
    """Sup over elements of the stress magnitude (norm or yield seminorm)."""
    check_mode(mode)
    if len(s.elements) != ops.n_elements:
        raise StressError(
            f"stress field has {len(s.elements)} elements, mesh has {ops.n_elements}")
    if not s.elements:
        return 0.0
    if mode == ELASTIC:
        return max(mat_norm(m, LINF) for m in s.elements)
    return max(yield_value(_element_measure_matrix(s, e, ops.dim), LINF)
               for e in range(ops.n_elements))


def equilibrium_residual(ops: DiscreteOperators, s: StressField, t) -> float:
    """Max violation of the virtual-work identity over the DOF basis."""
    f = work_vector(ops, t)
    wgt = comp_weights(ops.dim)
    lhs = np.zeros(ops.n_dof)
    for B, vol, m in zip(ops.strain_maps, ops.volumes, s.elements):
        lhs += vol * ((wgt * m.comps) @ B)
    return float(np.abs(lhs - f).max(initial=0.0))


def check_equilibrium(ops: DiscreteOperators, s: StressField, t,
                      tol: float = 1e-8):
    """True iff the stress field equilibrates t within tol*(1+|t|_inf)."""
    residual = equilibrium_residual(ops, s, t)
    ok = residual <= tol * (1.0 + traction_sup_norm(ops, t))
    return ok, residual


def _deviatoric_rows(dim: int, sigma_vars, u_var):
    """Linear expressions (coeff dicts) for the unique components of the
    deviatoric part of the element stress.  sigma_vars holds the in-plane
    unique components; u_var is the free out-of-plane normal stress in 2D."""
    rows = []
    if dim == 2:
        s11, s22, s12 = sigma_vars
        u = u_var
        rows.append({s11: 2 / 3, s22: -1 / 3, u: -1 / 3})   # d11
        rows.append({s11: -1 / 3, s22: 2 / 3, u: -1 / 3})   # d22
        rows.append({s11: -1 / 3, s22: -1 / 3, u: 2 / 3})   # d33
        rows.append({s12: 1.0})                             # d12
    else:
        diag = sigma_vars[:3]
        for i in range(3):
            row = {v: -1 / 3 for v in diag}
            row[diag[i]] = 2 / 3
            rows.append(row)
        for v in sigma_vars[3:]:
            rows.append({v: 1.0})
    return rows


def optimal_stress_primal(ops: DiscreteOperators, t, mode: str):
    """Minimize the stress bound T over all equilibrating stress fields.

    Returns (sigma_opt, sigma_hat).
    """
    check_mode(mode)
    t = check_traction(ops, t)
    if mode == PLASTIC:
        require_plastic_viable(ops)
    dim = ops.dim
    nc = n_comps(dim)
    wgt = comp_weights(dim)
    f = work_vector(ops, t)

    builder = lp.LPBuilder()
    sigma_vars = [builder.add_vars(nc, nonneg=False)
                  for _ in range(ops.n_elements)]
    u_vars = None
    if mode == PLASTIC and dim == 2:
        u_vars = [builder.add_var(nonneg=False) for _ in range(ops.n_elements)]
    T = builder.add_var(nonneg=True)

    for k in range(ops.n_dof):
        row = {}
        for e, B in enumerate(ops.strain_maps):
            for c in range(nc):
                coef = ops.volumes[e] * wgt[c] * B[c, k]
                if coef != 0.0:
                    row[sigma_vars[e][c]] = row.get(sigma_vars[e][c], 0.0) + coef
        builder.add_eq(row, f[k])

    for e in range(ops.n_elements):
        if mode == ELASTIC:
            bound_rows = [{v: 1.0} for v in sigma_vars[e]]
        else:
            u = u_vars[e] if u_vars is not None else None
            bound_rows = _deviatoric_rows(dim, sigma_vars[e], u)
        for row in bound_rows:
            le = dict(row)
            le[T] = le.get(T, 0.0) - 1.0
            builder.add_le(le, 0.0)
            ge = {v: -c for v, c in row.items()}
            ge[T] = ge.get(T, 0.0) - 1.0
            builder.add_le(ge, 0.0)

    builder.set_objective({T: 1.0})
    prob, recover = builder.build()
    sol = lp.solve(prob)
    if sol.status != lp.OPTIMAL:
        raise SolverFailure(
            f"primal stress LP ended with status {sol.status}; with a "
            "nonempty supported boundary on a connected mesh this indicates "
            "an internal error")
    x = recover(sol.x)
    elems = [SymMatrix(dim, x[np.array(sigma_vars[e])])
             for e in range(ops.n_elements)]
    s33 = (np.array([x[u] for u in u_vars]) if u_vars is not None else None)
    return float(sol.objective), StressField(elems, s33)


def _dual_builder(ops: DiscreteOperators, mode: str):
    """Shared kinematic-LP skeleton: velocity DOFs, strain-budget split
    variables, and (plastic) spherical shifts plus isochoric rows.

    Returns (builder, w_vars, budget) with the budget left open.  The
    strain row of element e and slot c is labelled ("slot", e, c), its
    isochoric row ("iso", e): their multipliers carry the stress field.
    """
    dim = ops.dim
    nc = n_comps(dim)
    wgt = comp_weights(dim)
    builder = lp.LPBuilder()
    w_vars = builder.add_vars(ops.n_dof, nonneg=False)
    budget = {}
    for e, B in enumerate(ops.strain_maps):
        vol = ops.volumes[e]
        p = builder.add_var(nonneg=False) if mode == PLASTIC else None
        n_slots = nc + (1 if mode == PLASTIC and dim == 2 else 0)
        for c in range(n_slots):
            gp = builder.add_var()
            gm = builder.add_var()
            row = {gp: -1.0, gm: 1.0}
            if c < nc:
                for k in range(ops.n_dof):
                    if B[c, k] != 0.0:
                        row[w_vars[k]] = B[c, k]
                slot_wgt = wgt[c]
            else:
                slot_wgt = 1.0  # out-of-plane diagonal slot, strain is zero
            if p is not None and (c < dim or c == nc):
                row[p] = row.get(p, 0.0) + 1.0
            builder.add_eq(row, 0.0, label=("slot", e, c))
            budget[gp] = vol * slot_wgt
            budget[gm] = vol * slot_wgt
        if mode == PLASTIC:
            iso = {}
            for k in range(ops.n_dof):
                coef = float(B[:dim, k].sum())
                if coef != 0.0:
                    iso[w_vars[k]] = coef
            builder.add_eq(iso, 0.0, label=("iso", e))
    return builder, w_vars, budget


def _solve_kinematic(ops: DiscreteOperators, objective: np.ndarray,
                     mode: str):
    """`kinematic_supremum`, plus the LP's multipliers and row labels."""
    check_mode(mode)
    if mode == PLASTIC:
        require_plastic_viable(ops)
    builder, w_vars, budget = _dual_builder(ops, mode)
    builder.add_le(budget, 1.0)
    builder.set_objective({w_vars[k]: -objective[k] for k in range(ops.n_dof)})
    prob, recover = builder.build()
    sol = lp.solve(prob)
    if sol.status == lp.UNBOUNDED:
        raise SolverFailure(
            "kinematic LP unbounded: the mesh admits a mechanism despite "
            "the supported boundary")
    if sol.status != lp.OPTIMAL:
        raise SolverFailure(f"kinematic LP ended with status {sol.status}")
    x = recover(sol.x)
    w = x[np.array(w_vars)] if w_vars else np.zeros(0)
    # 0.0 - x, unlike -x, reports a zero optimum as 0.0 and not -0.0
    return 0.0 - sol.objective, w, sol.y, builder.labels


def kinematic_supremum(ops: DiscreteOperators, objective: np.ndarray,
                       mode: str):
    """Maximize objective . w over the unit strain-budget ball (plastic:
    restricted to isochoric fields).  Returns (value, witness)."""
    value, w, _, _ = _solve_kinematic(ops, objective, mode)
    return value, w


def optimal_stress_dual(ops: DiscreteOperators, t, mode: str):
    """Kinematic supremum of external work over the unit strain-budget ball."""
    t = check_traction(ops, t)
    return kinematic_supremum(ops, work_vector(ops, t), mode)


def _stress_from_multipliers(ops: DiscreteOperators, mode: str, y,
                             rows) -> StressField:
    """Stationarity of the kinematic LP in w reads
    sum_ec (y_ec + [c diagonal] mu_e) B_e[c] = -f, with mu_e the isochoric
    multiplier (plastic only); equilibrium reads
    sum_ec vol_e wgt_c s_ec B_e[c] = f.  So the stress dual to the LP is
    s_ec = -(y_ec + [c diagonal] mu_e) / (vol_e wgt_c), and the plane-strain
    out-of-plane slot gives s33_e = -(y_e33 + mu_e) / vol_e."""
    dim, nc = ops.dim, n_comps(ops.dim)
    on_diag = np.arange(nc) < dim
    wgt = comp_weights(dim)
    elems, s33 = [], []
    for e, vol in enumerate(ops.volumes):
        mu = y[rows["iso", e]] if mode == PLASTIC else 0.0
        y_e = np.array([y[rows["slot", e, c]] for c in range(nc)])
        elems.append(SymMatrix(dim, -(y_e + on_diag * mu) / (vol * wgt)))
        if mode == PLASTIC and dim == 2:
            s33.append(-(y[rows["slot", e, nc]] + mu) / vol)
    return StressField(elems, s33 if mode == PLASTIC and dim == 2 else None)


def optimal_stress(ops: DiscreteOperators, t, mode: str = ELASTIC) -> OptimalStressResult:
    """Solve the kinematic LP once, read sigma_hat off its multipliers, and
    certify the pair without the LP: sigma_hat balances t, the witness is
    admissible, and stress_measure(sigma_hat), the witness ratio
    work/budget and the LP value agree.  By weak duality that proves both
    optimal; a failed check raises SolverFailure naming it."""
    t = check_traction(ops, t)
    value, w, y, rows = _solve_kinematic(ops, work_vector(ops, t), mode)
    sigma_hat = _stress_from_multipliers(ops, mode, y, rows)
    ok, residual = check_equilibrium(ops, sigma_hat, t)
    if not ok:
        raise SolverFailure(
            "certificate failed: the recovered stress does not balance the "
            f"traction (equilibrium residual {residual:.3e})")
    if mode == PLASTIC:
        dilation = np.abs(isochoric_constraints(ops) @ w).max(initial=0.0)
        if dilation > 1e-8 * (1.0 + np.abs(w).max(initial=0.0)):
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
    return OptimalStressResult(mode=mode, sigma_opt=value, sigma_hat=sigma_hat,
                               dual_value=ratio, dual_witness=w,
                               duality_gap=gap)
