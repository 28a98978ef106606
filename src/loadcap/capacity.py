"""Generalized stress concentration factor, load capacity ratio and
limit-analysis quantities.

K is the operator norm of the boundary trace on the clamped kinematic
space: the supremum of boundary L1 norm over strain norm.  Its exact
computation maximizes a convex piecewise-linear functional over a
polytope, done here by exhaustive enumeration of boundary sign patterns
(hard cap 16 scalar components), the vertices of the unit traction ball,
which one int8 matrix holds in Gray-code order (`_sign_vertices`).
Exact K runs on the kinematic LP, where a pattern's traction enters
only the costs: one simplex walk down that matrix, which runs phase 2,
from the optimal basis where the last one stopped, only for a pattern
that no basis before it proves optimal and whose weak-duality bound
there does not put it below the best found so far (`lp.DOMINATED`),
then one full solve of the first pattern whose walk value is a near
tie of the best, which is the worst traction.  Beyond the cap an
alternating heuristic produces a lower bound; it solves the box LP of
each sign pattern it visits (`stress.box_optimum`), once.  Both certify
the worst pattern's own solution (`stress.certify`), so the heuristic's
K is the certified value of one traction, a lower bound on K, and its C
is not a safe load.  `limit_analysis` reads lambda* off one plastic box
LP, whose optimum is the load factor itself.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import lp
from .kinematics import (DiscreteOperators, check_traction, trace,
                         traction_sup_norm, unit_works, work_vector)
from .stress import (ELASTIC, PLASTIC, box_lp, box_optimum, certify,
                     kinematic_lp, kinematic_suprema, kinematic_supremum,
                     stress_field, stress_measure)

EXACT = "exact_vertex_enumeration"
HEURISTIC = "alternating_heuristic"
SIGN_PATTERN_CAP = 16
HEURISTIC_MAX_ITER = 50
HEURISTIC_RESTARTS = 8


class CapacityError(ValueError):
    """Zero traction, size-cap violation, or non-viable plastic request."""


class CapacityResult(NamedTuple):
    """K and C = 1/K, the traction that attains K and the velocity field
    that certifies it.  The heuristic's K is a lower bound only.
    K_traction_side is the stress measure of the certified stress of
    worst_traction."""

    K: float
    C: float
    worst_traction: np.ndarray
    method: str
    certificate: np.ndarray
    K_traction_side: float


class LimitResult(NamedTuple):
    sigma_opt: float
    lambda_star: float
    t_collapse: np.ndarray
    lambda_kinematic: float


def _sign_vertices(ops: DiscreteOperators) -> np.ndarray:
    """The 2^(m-1) vertices of the unit traction ball up to sign, raveled,
    m the number of boundary components, which is checked against the cap
    first: an int8 matrix whose component 0 is +1 (t and -t give the same
    value), in binary-reflected Gray-code order: component b + 1 of row k
    is -1 exactly when bit b of k ^ (k >> 1) is set, so consecutive rows
    differ in one sign.  Built by reflection: rows 2^b to 2^(b+1) - 1 are
    the rows before them reversed, with component b + 1 negative."""
    m = ops.n_boundary_comps
    if m > SIGN_PATTERN_CAP:
        raise CapacityError(
            f"exact enumeration capped at {SIGN_PATTERN_CAP} boundary "
            f"components; this mesh has {m} (use the heuristic)")
    signs = np.ones((2 ** (m - 1), m), dtype=np.int8)
    for b in range(m - 1):
        half = 2 ** b
        signs[half:2 * half] = signs[half - 1::-1]
        signs[half:2 * half, b + 1] = -1
    return signs


def generalized_K(ops: DiscreteOperators, mode: str = ELASTIC,
                  method: str = EXACT) -> CapacityResult:
    """Compute K = sup_w trace_norm / strain_norm (plastic: isochoric w).

    Exact: every sign pattern maximizes a new work over the same kinematic
    LP, built once here, so all of them share its phase 1.  One simplex
    walk (`kinematic_suprema`) down the vertex matrix (`_sign_vertices`),
    row k at step k, so that each step flips one sign, gives every
    vertex's value, without a phase 2 for a vertex that an optimal basis
    it reaches proves optimal or, by weak duality, puts far below the
    best (`lp.DOMINATED`).  The values carry the rounding of the walk,
    so the worst traction is the first vertex, in walk order, within
    `lp._NEAR_TIE` (relative) of the best, and its value, witness and
    stress come from one solve of its own.

    Heuristic: from all-ones and `HEURISTIC_RESTARTS` - 1 seeded random
    sign patterns, alternate between solving a pattern's box LP (all of
    them share the phase 1 of one `stress.box_lp`), whose value is
    sigma_opt = 1 / lambda and whose witness is its equilibrium rows'
    multipliers, and taking the signs of the witness's trace, until the
    signs repeat.  A pattern that an earlier restart or step visited is
    not solved again: its solve is deterministic, so its optimum is kept
    for the call.  K is then a lower bound on the true K.

    Either way K is certified (`stress.certify`) from the worst pattern's
    own solution, once, and K_traction_side is the stress measure of its
    certified stress."""
    if method == EXACT:
        signs = _sign_vertices(ops)
        kinematic = kinematic_lp(ops, mode)
        values = kinematic_suprema(kinematic, unit_works(ops), signs)
        top = values.max()
        first = np.argmax(values >= top - lp._NEAR_TIE * (1.0 + abs(top)))
        worst = signs[first].reshape(-1, ops.dim).astype(float)
        best_val, best_w, s = kinematic_supremum(kinematic, work_vector(ops, worst))
        sigma_hat = stress_field(ops, mode, s)
    elif method == HEURISTIC:
        best_val = -1.0
        box = box_lp(ops, mode)
        shape = ops.gammat_facets.shape
        rng = np.random.default_rng(0)
        starts = [np.ones(shape)]
        starts += [np.where(rng.random(shape) < 0.5, -1.0, 1.0)
                   for _ in range(HEURISTIC_RESTARTS - 1)]
        solved = {}  # sign pattern -> its BoxOptimum
        for signs in starts:
            for _ in range(HEURISTIC_MAX_ITER):
                key = signs.tobytes()
                if key not in solved:
                    solved[key] = box_optimum(ops, work_vector(ops, signs), mode, box)
                opt = solved[key]
                val = 1.0 / opt.load_factor
                if val > best_val + 1e-12:
                    best_val, worst, best_w = val, signs, opt.witness
                    sigma_hat = opt.sigma_hat
                new_signs = np.where(trace(ops, opt.witness) >= 0.0, 1.0, -1.0)
                if np.array_equal(new_signs, signs):
                    break
                signs = new_signs
    else:
        raise CapacityError(f"unknown method {method!r}")
    K = max(best_val, 0.0)
    certify(ops, worst, mode, K, sigma_hat, best_w)
    return CapacityResult(K=K, C=float("inf") if K == 0.0 else 1.0 / K,
                          worst_traction=worst, method=method, certificate=best_w,
                          K_traction_side=stress_measure(sigma_hat, mode, ops))


def generalized_K_dual_check(ops: DiscreteOperators, mode: str = ELASTIC) -> float:
    """K recomputed from the static side: the max of the box LP's
    sigma_opt = 1 / lambda over the vertices of the unit traction ball,
    the rows of `_sign_vertices`, every vertex's LP sharing the phase 1 of
    one `box_lp`, as the heuristic's do.  The kinematic LP that
    `generalized_K` walks is built as the box LP's dual
    (`stress.kinematic_lp`), so the two share any error in `box_lp`'s
    formulation: the check compares the two solves, not the two
    formulations.  The package does not call it: it stays
    only because the benchmark's layer tracing (`TRACED` in
    `bench/tracing.py`) wraps it."""
    signs = _sign_vertices(ops)
    box = box_lp(ops, mode)
    return max(1.0 / box_optimum(ops, work_vector(ops, t.reshape(-1, ops.dim)),
                                 mode, box).load_factor for t in signs)


def limit_analysis(ops: DiscreteOperators, t, Y0: float) -> LimitResult:
    """Limit-analysis factor lambda* = Y0 lambda = Y0 / sigma_opt, with
    lambda the plastic box LP's optimal load factor, and the
    collapse-manifold projection lambda* t of the traction, from one
    certified optimum; lambda_kinematic is Y0 budget(w)/work(w) of its
    witness."""
    t = check_traction(ops, t)
    if not (np.isfinite(Y0) and Y0 > 0):
        raise CapacityError(
            f"yield stress Y0 must be finite and positive, got {Y0!r}")
    if traction_sup_norm(ops, t) == 0.0:
        raise CapacityError("limit analysis undefined for zero traction")
    box = box_optimum(ops, work_vector(ops, t), PLASTIC)
    result = certify(ops, t, PLASTIC, 1.0 / box.load_factor, box.sigma_hat,
                     box.witness)
    if min(result.sigma_opt, result.dual_value) <= 0.0:
        raise CapacityError(
            "traction does no work against admissible fields; no collapse load")
    lambda_star = Y0 * box.load_factor
    return LimitResult(sigma_opt=result.sigma_opt,
                       lambda_star=lambda_star, t_collapse=lambda_star * t,
                       lambda_kinematic=Y0 / result.dual_value)


def kinematic_limit_check(ops: DiscreteOperators, t, Y0: float):
    """Static vs kinematic limit factor of one certified plastic optimum.
    Returns (lambda_static, lambda_kinematic, gap).  The package does not
    call it: it stays only because the benchmark's layer tracing (`TRACED`
    in `bench/tracing.py`) wraps it."""
    r = limit_analysis(ops, t, Y0)
    gap = abs(r.lambda_star - r.lambda_kinematic)
    return r.lambda_star, r.lambda_kinematic, gap
