"""Generalized stress concentration factor, load capacity ratio and
limit-analysis quantities.

K is the operator norm of the boundary trace on the clamped kinematic
space: the supremum of boundary L1 norm over strain norm.  Its exact
computation maximizes a convex piecewise-linear functional over a
polytope, done here by exhaustive enumeration of boundary sign patterns
(hard cap 16 scalar components); beyond the cap an alternating heuristic
produces a certified lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinematics import (DiscreteOperators, check_traction, trace,
                         traction_sup_norm, work_vector)
from .stress import (ELASTIC, PLASTIC, kinematic_supremum, optimal_stress,
                     optimal_stress_primal)

EXACT = "exact_vertex_enumeration"
HEURISTIC = "alternating_heuristic"
SIGN_PATTERN_CAP = 16
HEURISTIC_MAX_ITER = 50
HEURISTIC_RESTARTS = 8


class CapacityError(ValueError):
    """Zero traction, size-cap violation, or non-viable plastic request."""


@dataclass(frozen=True)
class CapacityResult:
    K: float
    C: float
    worst_traction: np.ndarray = field(repr=False)
    method: str = EXACT
    certificate: np.ndarray = field(repr=False, default=None)
    lower_bound_only: bool = False
    converged: bool = True


@dataclass(frozen=True)
class LimitResult:
    Y0: float
    sigma_opt: float
    lambda_star: float
    t_collapse: np.ndarray = field(repr=False, default=None)
    lambda_kinematic: float | None = None


def concentration_factor_for(ops: DiscreteOperators, t, mode: str = ELASTIC) -> float:
    """Stress concentration factor for one traction: sigma_opt / |t|_inf."""
    t = check_traction(ops, t)
    denom = traction_sup_norm(ops, t)
    if denom == 0.0:
        raise CapacityError("concentration factor undefined for zero traction")
    return optimal_stress(ops, t, mode).sigma_opt / denom


def _vertex_tractions(ops: DiscreteOperators):
    """The 2^(m-1) vertices of the unit traction ball up to sign (t and -t
    give the same value, so the first component stays positive)."""
    m = len(ops.gammat_facets) * ops.dim
    if m > SIGN_PATTERN_CAP:
        raise CapacityError(
            f"exact enumeration capped at {SIGN_PATTERN_CAP} boundary "
            f"components; this mesh has {m} (use the heuristic)")
    for code in range(2 ** max(m - 1, 0)):
        signs = np.ones(m)
        for bit in range(m - 1):
            if code >> bit & 1:
                signs[bit + 1] = -1.0
        yield signs.reshape(len(ops.gammat_facets), ops.dim)


def generalized_K(ops: DiscreteOperators, mode: str = ELASTIC,
                  method: str = EXACT) -> CapacityResult:
    """Compute K = sup_w trace_norm / strain_norm (plastic: isochoric w)."""
    if method == EXACT:
        best_val, worst, best_w = -1.0, None, None
        for t in _vertex_tractions(ops):
            val, w = kinematic_supremum(ops, work_vector(ops, t), mode)
            if val > best_val + 1e-12:
                best_val, worst, best_w = val, t, w
        K = max(best_val, 0.0)
        return CapacityResult(K=K, C=_safe_inverse(K), worst_traction=worst,
                              method=EXACT, certificate=best_w)
    if method == HEURISTIC:
        shape = (len(ops.gammat_facets), ops.dim)
        rng = np.random.default_rng(0)
        starts = [np.ones(shape)]
        starts += [np.where(rng.random(shape) < 0.5, -1.0, 1.0)
                   for _ in range(HEURISTIC_RESTARTS - 1)]
        best_val, best_w, worst = -1.0, None, starts[0]
        n_converged = 0
        for signs in starts:
            for _ in range(HEURISTIC_MAX_ITER):
                val, w = kinematic_supremum(ops, work_vector(ops, signs), mode)
                if val > best_val + 1e-12:
                    best_val, worst, best_w = val, signs, w
                new_signs = np.where(trace(ops, w) >= 0.0, 1.0, -1.0)
                if np.array_equal(new_signs, signs):
                    n_converged += 1
                    break
                signs = new_signs
        K = max(best_val, 0.0)
        return CapacityResult(K=K, C=_safe_inverse(K), worst_traction=worst,
                              method=HEURISTIC, certificate=best_w,
                              lower_bound_only=True,
                              converged=n_converged == len(starts))
    raise CapacityError(f"unknown method {method!r}")


def _safe_inverse(K: float) -> float:
    return float("inf") if K == 0.0 else 1.0 / K


def generalized_K_dual_check(ops: DiscreteOperators, mode: str = ELASTIC) -> float:
    """K recomputed from the static side: the max of the static LP's
    sigma_opt over the vertices of the unit traction ball.  An oracle
    independent of the kinematic LPs that `generalized_K` solves."""
    return max((optimal_stress_primal(ops, t, mode)[0]
                for t in _vertex_tractions(ops)))


def limit_analysis(ops: DiscreteOperators, t, Y0: float) -> LimitResult:
    """Limit-analysis factor Y0/sigma_opt and the collapse-manifold
    projection lambda* t of the traction, from one certified plastic
    optimum; lambda_kinematic is Y0 budget(w)/work(w) of its witness."""
    t = check_traction(ops, t)
    if not (np.isfinite(Y0) and Y0 > 0):
        raise CapacityError(
            f"yield stress Y0 must be finite and positive, got {Y0!r}")
    if traction_sup_norm(ops, t) == 0.0:
        raise CapacityError("limit analysis undefined for zero traction")
    result = optimal_stress(ops, t, PLASTIC)
    if min(result.sigma_opt, result.dual_value) <= 0.0:
        raise CapacityError(
            "traction does no work against admissible fields; no collapse load")
    lambda_star = Y0 / result.sigma_opt
    return LimitResult(Y0=Y0, sigma_opt=result.sigma_opt,
                       lambda_star=lambda_star, t_collapse=lambda_star * t,
                       lambda_kinematic=Y0 / result.dual_value)


def kinematic_limit_check(ops: DiscreteOperators, t, Y0: float):
    """Static vs kinematic limit factor of one certified plastic optimum.
    Returns (lambda_static, lambda_kinematic, gap)."""
    r = limit_analysis(ops, t, Y0)
    gap = abs(r.lambda_star - r.lambda_kinematic)
    return r.lambda_star, r.lambda_kinematic, gap
