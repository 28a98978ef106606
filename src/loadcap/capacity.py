"""Generalized stress concentration factor, load capacity ratio and
limit-analysis quantities.

K is the operator norm of the boundary trace on the clamped kinematic
space: the supremum of boundary L1 norm over strain norm.  Its exact
computation maximizes a convex piecewise-linear functional over a
polytope, done here by exhaustive enumeration of boundary sign patterns
(hard cap 16 scalar components) on the kinematic LP, where a pattern's
traction enters only the costs: one simplex walk over the patterns in
Gray-code order, which runs phase 2, from the optimal basis where the
last one stopped, only for a pattern that no basis before it proves
optimal, then a full solve of every pattern whose walk value is a near
tie of the best, among which the worst traction is chosen.  Beyond
the cap an alternating heuristic produces a certified lower bound; it
solves the box LP of each sign pattern it visits (`stress.box_optimum`),
once.  `limit_analysis` reads lambda* off one plastic box LP, whose
optimum is the load factor itself.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .kinematics import (DiscreteOperators, check_traction, trace,
                         traction_sup_norm, work_vector)
from .stress import (ELASTIC, PLASTIC, box_lp, box_optimum, certify,
                     kinematic_lp, kinematic_suprema, kinematic_supremum,
                     stress_field, stress_measure)

EXACT = "exact_vertex_enumeration"
HEURISTIC = "alternating_heuristic"
SIGN_PATTERN_CAP = 16
HEURISTIC_MAX_ITER = 50
HEURISTIC_RESTARTS = 8
# a walk value this close to the best, relative to 1 + |best|, is solved
# again cold: the walk's rounding measured 3.6e-14 at m = 12 and 6.7e-13 at
# m = 16 (absolute, on the 2x2 and 3x2 plates)
_NEAR_TIE = 1e-9


class CapacityError(ValueError):
    """Zero traction, size-cap violation, or non-viable plastic request."""


class CapacityResult(NamedTuple):
    """K and C = 1/K, the traction that attains K and the velocity field
    that certifies it.  The heuristic's K is a lower bound only.
    K_traction_side, exact method only, is the stress measure of the
    certified stress of worst_traction."""

    K: float
    C: float
    worst_traction: np.ndarray
    method: str
    certificate: np.ndarray
    K_traction_side: float | None = None


class LimitResult(NamedTuple):
    sigma_opt: float
    lambda_star: float
    t_collapse: np.ndarray
    lambda_kinematic: float


def _sign_components(ops: DiscreteOperators) -> int:
    """m, the number of boundary components, checked against the cap."""
    m = len(ops.gammat_facets) * ops.dim
    if m > SIGN_PATTERN_CAP:
        raise CapacityError(
            f"exact enumeration capped at {SIGN_PATTERN_CAP} boundary "
            f"components; this mesh has {m} (use the heuristic)")
    return m


def _vertex(code: int, m: int) -> np.ndarray:
    """Vertex `code` of the unit traction ball, raveled: component 0 is +1
    (t and -t give the same value), and component b + 1 is -1 exactly when
    bit b of code is set."""
    return np.concatenate(([1.0], 1.0 - 2.0 * ((code >> np.arange(m - 1)) & 1)))


def _vertex_tractions(ops: DiscreteOperators):
    """The 2^(m-1) vertices of the unit traction ball up to sign, by code
    counting up.  The cap is checked at once; the vertices come one at a
    time."""
    m = _sign_components(ops)
    return (_vertex(code, m).reshape(-1, ops.dim) for code in range(2 ** (m - 1)))


def _gray_signs(m: int) -> np.ndarray:
    """The 2^(m-1) vertices of the unit traction ball up to sign, raveled,
    in Gray-code order: row k is `_vertex(k ^ (k >> 1), m)`, so each row
    flips one sign of the row before, component b + 1 with b the lowest
    set bit of k.  Built by reflection: rows 2^b to 2^(b+1) - 1 are the
    rows before them in reverse, with component b + 1 negative.  int8, and
    no temporary array."""
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
    walk (`kinematic_suprema`) gives every vertex's value, in Gray-code
    order (`_gray_signs`), and settles every vertex that an optimal basis
    it reaches already proves optimal without a phase 2 of its own.  Its
    values carry the rounding of the walk, so every vertex within
    `_NEAR_TIE` (relative) of the best is solved again on its own, by code
    counting up, and the first one that beats all before it by more than
    1e-12 is the worst traction.  K is certified (`stress.certify`) from
    that solve's solution.

    Heuristic: from all-ones and `HEURISTIC_RESTARTS` - 1 seeded random
    sign patterns, alternate between solving a pattern's box LP (all of
    them share the phase 1 of one `stress.box_lp`), whose value is
    sigma_opt = 1 / lambda and whose witness is its equilibrium rows'
    multipliers, and taking the signs of the witness's trace, until the
    signs repeat.  A pattern that an earlier restart or step visited is
    not solved again: its solve is deterministic, so its value and
    witness are kept for the call."""
    if method == EXACT:
        m = _sign_components(ops)
        kinematic = kinematic_lp(ops, mode)
        unit_work = np.array([work_vector(ops, e.reshape(-1, ops.dim))
                              for e in np.eye(m)])
        values = kinematic_suprema(kinematic, unit_work, _gray_signs(m))
        top = values.max()
        steps = np.flatnonzero(values >= top - _NEAR_TIE * (1.0 + abs(top)))
        best_val, worst, best_w, best_s = -1.0, None, None, None
        for code in np.sort(steps ^ (steps >> 1)):
            t = _vertex(int(code), m).reshape(-1, ops.dim)
            val, w, s = kinematic_supremum(kinematic, work_vector(ops, t))
            if val > best_val + 1e-12:
                best_val, worst, best_w, best_s = val, t, w, s
        K = max(best_val, 0.0)
        stress = certify(ops, worst, mode, K,
                         stress_field(ops, mode, best_s), best_w).sigma_hat
        return CapacityResult(K=K, C=_safe_inverse(K), worst_traction=worst,
                              method=EXACT, certificate=best_w,
                              K_traction_side=stress_measure(stress, mode, ops))
    if method == HEURISTIC:
        box = box_lp(ops, mode)
        shape = (len(ops.gammat_facets), ops.dim)
        rng = np.random.default_rng(0)
        starts = [np.ones(shape)]
        starts += [np.where(rng.random(shape) < 0.5, -1.0, 1.0)
                   for _ in range(HEURISTIC_RESTARTS - 1)]
        best_val, best_w, worst = -1.0, None, starts[0]
        solved = {}  # sign pattern -> (value, witness)
        for signs in starts:
            for _ in range(HEURISTIC_MAX_ITER):
                key = signs.tobytes()
                if key not in solved:
                    opt = box_optimum(ops, work_vector(ops, signs), mode, box)
                    solved[key] = 1.0 / opt.load_factor, opt.witness
                val, w = solved[key]
                if val > best_val + 1e-12:
                    best_val, worst, best_w = val, signs, w
                new_signs = np.where(trace(ops, w) >= 0.0, 1.0, -1.0)
                if np.array_equal(new_signs, signs):
                    break
                signs = new_signs
        K = max(best_val, 0.0)
        return CapacityResult(K=K, C=_safe_inverse(K), worst_traction=worst,
                              method=HEURISTIC, certificate=best_w)
    raise CapacityError(f"unknown method {method!r}")


def _safe_inverse(K: float) -> float:
    return float("inf") if K == 0.0 else 1.0 / K


def generalized_K_dual_check(ops: DiscreteOperators, mode: str = ELASTIC) -> float:
    """K recomputed from the static side: the max of the box LP's
    sigma_opt = 1 / lambda over the vertices of the unit traction ball,
    every vertex's LP sharing the phase 1 of one `box_lp`, as the
    heuristic's do.  The kinematic LP that `generalized_K` walks is built
    as the box LP's dual (`stress.kinematic_lp`), so the two share any
    error in `box_lp`'s formulation: the check compares the two solves,
    not the two formulations.  The package does not call it: it stays
    only because the benchmark's layer tracing (`TRACED` in
    `bench/tracing.py`) wraps it."""
    tractions = _vertex_tractions(ops)
    box = box_lp(ops, mode)
    return max(1.0 / box_optimum(ops, work_vector(ops, t), mode, box).load_factor
               for t in tractions)


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
