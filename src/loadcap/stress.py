"""Optimal equilibrating stress fields: the static problem as a
box-bounded LP, and the kinematic dual.

Elastic mode bounds every stress component; plastic mode bounds only the
deviatoric part, leaving the pressure (and, in plane strain, the
out-of-plane normal stress) free.  The kinematic dual uses the matching
strain budget: the volume-weighted entrywise-1 norm in elastic mode,
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
  It is built as the box LP's dual (`_dual_builder`): one row per stress
  column of the box LP, over that column's budget weight, so the yield
  condition is written once, in `box_lp`, and a stress field is decoded
  from the box LP's stress columns in one place (`stress_field`).  The
  traction enters only its costs, so every objective shares one phase 1:
  the exact-K walk over sign patterns runs on it.  Being derived, it
  would share a formulation error of `box_lp`; `certify`'s checks, which
  do not use the LP solver, catch such an error.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import lp
from .kinematics import (DiscreteOperators, check_traction,
                         isochoric_constraints, n_comps,
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
    duality_gap: float
    equilibrium_residual: float


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


def check_equilibrium(ops: DiscreteOperators, s: StressField, t):
    """(ok, residual): the max violation of the virtual-work identity
    E s = f over the DOF basis, and whether each row's violation is within
    1e-8 times the sum of magnitudes that the row adds up,
    (|E| |s| + |f|)_k, plus `_ROUNDING` times the largest such sum.  Every
    term scales alike with the unit of length, so the verdict does not
    depend on it."""
    return _balance(ops, s, work_vector(ops, t))


# the floor of `check_equilibrium`'s and `check_isochoric`'s per-row test,
# relative to the largest row's terms: a stress field or witness solved
# from an LP carries the rounding of its largest entries into every row,
# so a row whose own terms are tiny, or cancel to 0, is only as exact as
# that; 1e-12 is about 5,000 ulps of the largest terms
_ROUNDING = 1e-12


def _within(residuals: np.ndarray, terms: np.ndarray) -> bool:
    """Whether every residual is within 1e-8 times its own terms, plus
    `_ROUNDING` times the largest terms."""
    floor = _ROUNDING * terms.max(initial=0.0)
    return bool((residuals <= 1e-8 * terms + floor).all())


def _balance(ops: DiscreteOperators, s: StressField, work: np.ndarray):
    """`check_equilibrium` for the work vector f = work of the traction."""
    weighted = ops.strain_weights * _check_stress(ops, s).ravel()
    residuals = np.abs(weighted @ ops.strain_op - work)
    terms = np.abs(weighted) @ np.abs(ops.strain_op) + np.abs(work)
    return _within(residuals, terms), float(residuals.max(initial=0.0))


def check_isochoric(C: np.ndarray, w):
    """(ok, dilation): the largest volumetric strain of an element under
    the velocity field w, and whether each element's is within 1e-8 times
    the sum of magnitudes that it adds up, (|C| |w|)_e, plus `_ROUNDING`
    times the largest such sum, with C the isochoric constraints
    (`isochoric_constraints`), which a caller that checks several fields
    builds once; as in `check_equilibrium`, the verdict does not depend on
    the unit of length."""
    dilations = np.abs(C @ w)
    return (_within(dilations, np.abs(C) @ np.abs(w)),
            float(dilations.max(initial=0.0)))


def _solve(prob: lp.LPStandardForm, name: str) -> lp.LPSolution:
    """`lp.solve`, with a pivot-limit or optimal-basis failure named after
    the LP."""
    try:
        return lp.solve(prob)
    except (lp.LPIterationError, lp.LPBasisError) as exc:
        raise SolverFailure(f"{name}: {exc}") from exc


class KinematicLP(NamedTuple):
    """The kinematic LP of one mesh and mode with its objective left open.
    Its feasible set, the unit strain-budget ball, is the same for every
    objective, so every `kinematic_supremum` on it shares one phase 1.
    The velocity DOFs are the first n_dof columns of `prob`.  prob is the
    LP of the mesh with its lengths multiplied by a power of two
    (`_length_scale`), whose works are the mesh's times work_scale,
    exactly.  Row rows[j] of prob is the box LP's stress column j times
    work_scale, that column of the scaled mesh, over weights[j], its
    weight in the scaled mesh's strain budget, so the multipliers y of the
    rows give the box LP's stress columns -y[rows] / weights, those of a
    stress field of the mesh."""

    n_dof: int
    prob: lp.LPStandardForm
    work_scale: float
    rows: np.ndarray
    weights: np.ndarray


def _box_columns(ops: DiscreteOperators, mode: str) -> tuple:
    """The strain-budget weight and the element of each stress column of
    `box_lp`: the weight is strain_weights for a stress component, and the
    element volume for a plastic element's d33 and p."""
    n_el = ops.n_elements
    if mode != PLASTIC:
        return ops.strain_weights, np.repeat(np.arange(n_el), n_comps(ops.dim))
    n_dev = _n_deviatoric(ops.dim)
    weights = np.column_stack([ops.strain_weights.reshape(n_el, -1), ops.volumes])
    return (np.concatenate([weights[:, :n_dev].ravel(), ops.volumes]),
            np.concatenate([np.repeat(np.arange(n_el), n_dev), np.arange(n_el)]))


def _length_scale(ops: DiscreteOperators) -> float:
    """2^-floor(log2(extent)), extent the largest side of the mesh's
    bounding box: the kinematic LP (`_dual_builder`) multiplies the mesh's
    lengths by it, exactly, which brings the extent into [1, 2).  Its
    strain-budget row scales as unit^dim: at a unit of 1e-4 its entries,
    about 1e-8, would come so near the simplex's absolute tolerances that
    the LP can stop at a wrong vertex.  The box LP needs no scale
    (`box_lp`)."""
    extent = np.ptp(ops.mesh.nodes, axis=0).max()
    return 2.0 ** (1 - int(np.frexp(extent)[1]))


def _dual_builder(ops: DiscreteOperators, mode: str) -> KinematicLP:
    """The kinematic LP as the dual of `box_lp`, with zero costs, of the
    mesh with its lengths multiplied by `_length_scale`: the box LP's
    equilibrium rows times scale^(dim-1) and the budget weights times
    scale^dim, both exactly.  Its free columns are the box LP's row
    multipliers: the velocity DOFs, then in plastic mode one per traceless
    row.  Each stress column of the box LP, over its weight, is one row,
    element by element (on the plastic 6x6 plate phase 1 then takes a
    third of the time it takes in the box LP's column order).  A bounded
    column adds a (+, -) pair, the strain of its row, which the last row,
    the strain budget, weighs by the same weight and bounds by 1; a free
    column, a plastic pressure, adds none: the witness is isochoric."""
    scale = _length_scale(ops)
    work_scale = scale ** (ops.dim - 1)
    box = box_lp(ops, mode)
    weights, element = _box_columns(ops, mode)
    weights = weights * scale ** ops.dim
    order = np.argsort(element, kind="stable")  # the box column of each row
    A = box.A[:, order]
    A[:ops.n_dof] *= work_scale  # the traceless rows have no length
    eq = A.T / weights[order, None]
    bounded = np.flatnonzero(np.isfinite(box.upper[order]))
    pairs = np.zeros((len(order), len(bounded), 2))
    pairs[bounded, np.arange(len(bounded))] = -1.0, 1.0

    builder = lp.LPBuilder()
    builder.add_vars(eq.shape[1], lower=-np.inf)
    builder.add_vars(2 * len(bounded))
    builder.add_eq(np.hstack([eq, pairs.reshape(len(order), -1)]), 0.0)
    budget = np.zeros(builder.n_vars)
    budget[eq.shape[1]:] = np.repeat(weights[order[bounded]], 2)
    builder.add_le(budget, 1.0)
    return KinematicLP(ops.n_dof, builder.build(np.zeros(builder.n_vars)),
                       work_scale, np.argsort(order), weights)


def kinematic_lp(ops: DiscreteOperators, mode: str) -> KinematicLP:
    """`_dual_builder`'s LP of ops in mode, to solve for many objectives."""
    return _dual_builder(ops, mode)


def _kinematic_costs(kinematic: KinematicLP, objective) -> np.ndarray:
    """The LP's costs for maximizing objective . w, objective a work
    vector of the mesh."""
    # 0.0 - x, unlike -x, gives 0.0 and not -0.0 for a zero entry
    c = np.zeros(len(kinematic.prob.c))
    c[:kinematic.n_dof] = 0.0 - kinematic.work_scale * np.asarray(objective)
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
    restricted to isochoric fields).  Returns (value, witness, s): the
    witness scaled back to the mesh's lengths, and s, from the multipliers
    y of the LP's rows (`KinematicLP`), the box LP's stress columns of a
    stress field that balances the objective (`stress_field`) and attains
    the value.  The LP shares the phase 1 of `kinematic.prob`."""
    sol = _solve(kinematic.prob.with_objective(_kinematic_costs(kinematic, objective)),
                 "kinematic LP")
    _check_kinematic(sol.status)
    # 0.0 - x again, so that a zero optimum is reported as 0.0
    return (0.0 - sol.objective, kinematic.work_scale * sol.x[:kinematic.n_dof],
            -sol.y[kinematic.rows] / kinematic.weights)


def kinematic_suprema(kinematic: KinematicLP, unit_objectives,
                      weights) -> np.ndarray:
    """The value of `kinematic_supremum` for the objective
    w @ unit_objectives of each row w of weights, from one simplex walk
    (`lp.solve_each`), without witnesses or multipliers.  A value may
    differ from `kinematic_supremum`'s in its last digits.  The strain
    budget, the LP's last row, normalizes it, so the walk settles a row
    whose weak-duality bound shows it far below the largest value as
    `lp.DOMINATED`: its value here is that bound, an upper bound on its
    supremum that lies below the largest value by more than
    `lp._NEAR_TIE` (1 + |largest|), so no near tie of it is pruned.
    Failures raise the same `SolverFailure`s, for the first that fails."""
    unit_costs = np.reshape([_kinematic_costs(kinematic, f) for f in unit_objectives],
                            (-1, len(kinematic.prob.c)))
    try:
        status, value = lp.solve_each(kinematic.prob, unit_costs, weights)
    except lp.LPIterationError as exc:
        raise SolverFailure(f"kinematic LP: {exc}") from exc
    failed = status[(status != lp.OPTIMAL) & (status != lp.DOMINATED)]
    if failed.size:
        _check_kinematic(failed[0])
    return np.subtract(0.0, value, out=value)  # 0.0 - value, in place


def _n_deviatoric(dim: int) -> int:
    """The box LP's deviatoric columns per element in plastic mode: the
    unique components and, in 2D, the out-of-plane d33."""
    return n_comps(dim) + (dim == 2)


def stress_field(ops: DiscreteOperators, mode: str, s) -> StressField:
    """The stress field of the box LP's stress columns s, lambda's left
    out (`box_lp`): in plastic mode s_ii = d_ii + p, s_ij = d_ij and, in
    2D, s33 = d33 + p."""
    n_el, nc = ops.n_elements, n_comps(ops.dim)
    if mode != PLASTIC:
        return StressField(s.reshape(n_el, nc))
    d, p = s[:-n_el].reshape(n_el, -1), s[-n_el:]
    comps = d[:, :nc].copy()
    comps[:, :ops.dim] += p[:, None]
    return StressField(comps, d[:, nc] + p if ops.dim == 2 else None)


def _pressure_op(ops: DiscreteOperators) -> np.ndarray:
    """The equilibrium columns of the element pressures p: those of each
    element's diagonal stress components, summed, (n_dof, n_el)."""
    strain_op = ops.strain_op.reshape(ops.n_elements, -1, ops.n_dof)
    weights = ops.strain_weights.reshape(ops.n_elements, -1)
    return np.einsum("ec,eck->ke", weights[:, :ops.dim], strain_op[:, :ops.dim])


def box_lp(ops: DiscreteOperators, mode: str, work=None) -> lp.LPStandardForm:
    """The static problem of the work vector work as a box-bounded LP:
    maximize the load factor lambda >= 0 subject to E s = lambda f, with
    E = (strain_weights * strain_op)^T, one row per velocity DOF, in the
    mesh's own lengths.  Each row scales with a power of the length unit,
    an equilibrium row and its load as unit^(dim-1), a plastic traceless
    row not at all, and the simplex's tableau B^-1 A, x_B, prices and
    ratios do not change when a row is scaled; nor does its crash, whose
    pivot test is relative to each row (`lp._phase1`), so the LP needs no
    length scale.  Without work, lambda's column is zero.  Its phase 1
    does not depend on f, since the crash pivots only on columns with 0
    strictly inside their bounds, never on lambda, which is nonnegative;
    so the LPs of many tractions can share the one without work
    (`lp.LPStandardForm.with_column`, `box_optimum`).

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
    load = np.zeros(n_dof) if work is None else -np.asarray(work, float)
    builder = lp.LPBuilder()
    if mode == ELASTIC:
        builder.add_vars(n_el * nc, lower=-1.0, upper=1.0)
        builder.add_vars(1)
        builder.add_eq(np.hstack([E, load[:, None]]), 0.0)
    else:
        n_dev = _n_deviatoric(dim)
        builder.add_vars(n_el * n_dev, lower=-1.0, upper=1.0)
        builder.add_vars(n_el, lower=-np.inf)
        builder.add_vars(1)
        equilibrium = np.zeros((n_dof, builder.n_vars))
        deviatoric = equilibrium[:, :n_el * n_dev].reshape(n_dof, n_el, n_dev)
        deviatoric[:, :, :nc] = E.reshape(n_dof, n_el, nc)
        equilibrium[:, n_el * n_dev:-1] = _pressure_op(ops)
        equilibrium[:, -1] = load
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
    work/budget = 1 / lambda.  Unbounded lambda means that a
    stress of measure 0 balances the traction: none but 0 in elastic
    mode, a pressure field in plastic mode, found by least squares.
    lambda = 0 means that the traction loads a mechanism."""
    if box is None:
        prob = box_lp(ops, mode, work)
    else:
        load = np.zeros(len(box.b))
        load[:ops.n_dof] = 0.0 - np.asarray(work, dtype=float)
        prob = box.with_column(-1, load)  # 0.0 - x above: no -0.0 in it
    sol = _solve(prob, "box LP")
    if sol.status == lp.UNBOUNDED:
        s = np.zeros(len(prob.c) - 1)
        if mode == PLASTIC:
            s[-ops.n_elements:] = np.linalg.lstsq(_pressure_op(ops), work, rcond=None)[0]
        return BoxOptimum(np.inf, stress_field(ops, mode, s), np.zeros(ops.n_dof))
    if sol.status != lp.OPTIMAL:
        raise SolverFailure(
            f"box LP ended with status {sol.status}; s = 0 with lambda = 0 "
            "is feasible, so this indicates an internal error")
    lam = sol.x[-1]
    if not lam > 0.0:
        raise SolverFailure(
            "box LP: load factor 0: the traction loads a mechanism of the "
            "mesh despite the supported boundary")
    return BoxOptimum(lam, stress_field(ops, mode, sol.x[:-1] / lam),
                      sol.y[:ops.n_dof])


def optimal_stress(ops: DiscreteOperators, t, mode: str = ELASTIC,
                   box: lp.LPStandardForm | None = None) -> OptimalStressResult:
    """Solve the box LP once (`box_optimum`, sharing the phase 1 of box if
    it is given) and certify its optimum, sigma_opt = 1 / lambda
    (`certify`)."""
    t = check_traction(ops, t)
    opt = box_optimum(ops, work_vector(ops, t), mode, box)
    return certify(ops, t, mode, 1.0 / opt.load_factor, opt.sigma_hat, opt.witness)


def optimal_stress_primal(ops: DiscreteOperators, t, mode: str):
    """(sigma_opt, sigma_hat) = (1 / lambda, s / lambda) of the box LP
    (`box_optimum`), uncertified.  The package does not call it: it stays
    only because the benchmark's layer tracing (`TRACED` in
    `bench/tracing.py`) wraps it."""
    opt = box_optimum(ops, work_vector(ops, t), mode)
    return 1.0 / opt.load_factor, opt.sigma_hat


def certify(ops: DiscreteOperators, t, mode: str, value: float, sigma_hat: StressField,
            w) -> OptimalStressResult:
    """Certify an optimum value for t without the LP: check that the
    stress field sigma_hat balances t, that the witness w is admissible,
    and that stress_measure(sigma_hat), the witness ratio work/budget and
    value agree.  By weak duality that proves both optimal; a failed check
    raises SolverFailure naming it."""
    work = work_vector(ops, t)  # the balance's right-hand side and the work
    ok, residual = _balance(ops, sigma_hat, work)
    if not ok:
        raise SolverFailure(
            "certificate failed: the recovered stress does not balance the "
            f"traction (equilibrium residual {residual:.3e})")
    if mode == PLASTIC:
        isochoric, dilation = check_isochoric(isochoric_constraints(ops), w)
        if not isochoric:
            raise SolverFailure(
                "certificate failed: the plastic witness is not isochoric "
                f"(volumetric strain {dilation:.3e})")
    measure = stress_measure(sigma_hat, mode, ops)
    strain_norm = strain_norm_plastic if mode == PLASTIC else strain_norm_l1
    budget = strain_norm(ops, w)
    ratio = float(work @ w) / budget if budget > 0.0 else 0.0
    gap = abs(measure - ratio)
    if max(gap, abs(value - measure)) > DUALITY_GAP_TOL * (1.0 + measure):
        raise SolverFailure(
            f"certificate failed: stress measure {measure:.9g}, witness ratio "
            f"work/budget {ratio:.9g} and LP value {value:.9g} disagree")
    return OptimalStressResult(sigma_opt=value, sigma_hat=sigma_hat,
                               dual_value=ratio, dual_witness=w,
                               duality_gap=gap, equilibrium_residual=residual)
