"""Command-line front end.

Structured JSON report on stdout (deterministic for identical inputs),
human-readable summary plus wall time on stderr.  Exit codes: 0 success,
2 input/validation failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from . import capacity as cap
from . import kinematics as kin
from . import lp
from . import mesh as msh
from . import stress as st

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


class InputError(ValueError):
    pass


def _sha256(path) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_mesh(path) -> msh.Mesh:
    try:
        return msh.read_mesh(path)
    except OSError as exc:
        raise InputError(f"cannot read mesh file {path}: {exc}") from exc
    except msh.MeshError as exc:
        raise InputError(str(exc)) from exc


def _load_traction(path, ops: kin.DiscreteOperators) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:  # JSON's encoding
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read traction file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot parse traction file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"traction file {path} is not a JSON object")
    if "facets" not in doc:
        raise InputError("traction file missing required key 'facets'")
    rows = doc["facets"]
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(msh.is_number(v) for v in row)
            for row in rows)):
        raise InputError("traction file: 'facets' must be a list of rows of numbers")
    if len({len(row) for row in rows}) > 1:
        raise InputError("traction file: the rows of 'facets' differ in length")
    try:
        t = np.array(rows, dtype=float)
    except OverflowError:
        raise InputError(
            f"traction file {path} has an integer too large for a float") from None
    return kin.check_traction(ops, t)


def _emit(report: dict, summary_lines, t0: float):
    json.dump(report, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
    elapsed = time.monotonic() - t0
    for line in summary_lines:
        print(line, file=sys.stderr)
    print(f"wall time: {elapsed:.3f} s", file=sys.stderr)


def _base_report(command: str, mesh_path) -> dict:
    return {
        "tool": "loadcap",
        "version": __version__,
        "command": command,
        "mesh_sha256": _sha256(mesh_path),
        "norm": "l1linf",
        # zero-traction gammaT facets participate in the traction sup norm
        "sup_norm_over_all_gammat_facets": True,
    }


def cmd_analyze(args) -> int:
    t0 = time.monotonic()
    mesh = _load_mesh(args.mesh)
    ops = kin.assemble(mesh)
    t = _load_traction(args.traction, ops)
    result = st.optimal_stress(ops, t, args.mode)
    residual = result.equilibrium_residual
    report = _base_report("analyze", args.mesh)
    report.update({
        "traction_sha256": _sha256(args.traction),
        "mode": args.mode,
        "sigma_opt": result.sigma_opt,
        "dual_value": result.dual_value,
        "duality_gap": result.duality_gap,
        "equilibrium_residual": residual,
        # optimal_stress raises SolverFailure on a stress that does not balance t
        "equilibrium_ok": True,
        "sigma_hat": result.sigma_hat.comps.tolist(),
        "sigma_hat_s33": (None if result.sigma_hat.s33 is None
                          else result.sigma_hat.s33.tolist()),
        "dual_witness": [float(v) for v in result.dual_witness],
    })
    _emit(report, [f"sigma_opt = {result.sigma_opt:.9g} "
                   f"(gap {result.duality_gap:.2e}, residual {residual:.2e})"], t0)
    return EXIT_OK


def cmd_capacity(args) -> int:
    t0 = time.monotonic()
    mesh = _load_mesh(args.mesh)
    ops = kin.assemble(mesh)
    m = len(ops.gammat_facets) * ops.dim
    method = args.method
    if method == "auto":
        method = cap.EXACT if m <= cap.SIGN_PATTERN_CAP else cap.HEURISTIC
    elif method == "exact":
        method = cap.EXACT
    else:
        method = cap.HEURISTIC
    result = cap.generalized_K(ops, args.mode, method)
    if result.method == cap.HEURISTIC:
        interpretation = (
            "K is a lower bound on the stress concentration factor, so C is "
            "an upper bound on the load capacity, not a safe load: a traction "
            "field with sup norm below C times the yield stress may collapse")
        summary = (f"K >= {result.K:.9g}, C <= {result.C:.9g} "
                   f"({result.method}; C is not a safe load)")
    else:
        interpretation = ("no collapse occurs under any traction field with "
                          "sup norm below C times the yield stress")
        summary = f"K = {result.K:.9g}, C = {result.C:.9g} ({result.method})"
    report = _base_report("capacity", args.mesh)
    report.update({
        "mode": args.mode,
        "method": result.method,
        "K": result.K,
        "C": result.C,
        "lower_bound_only": result.method == cap.HEURISTIC,
        "caps_hit": m > cap.SIGN_PATTERN_CAP,
        "worst_traction": [[float(v) for v in row] for row in result.worst_traction],
        "certificate": [float(v) for v in result.certificate],
        "interpretation": interpretation,
    })
    if result.K_traction_side is not None:
        report["K_traction_side"] = result.K_traction_side
        report["K_cross_check_gap"] = abs(result.K - result.K_traction_side)
    _emit(report, [summary], t0)
    return EXIT_OK


def cmd_limit(args) -> int:
    t0 = time.monotonic()
    mesh = _load_mesh(args.mesh)
    ops = kin.assemble(mesh)
    t = _load_traction(args.traction, ops)
    result = cap.limit_analysis(ops, t, args.y0)
    lam_kin = result.lambda_kinematic
    gap = abs(result.lambda_star - lam_kin)
    report = _base_report("limit", args.mesh)
    report.update({
        "traction_sha256": _sha256(args.traction),
        "mode": st.PLASTIC,
        "y0": args.y0,
        "sigma_opt": result.sigma_opt,
        "lambda_star": result.lambda_star,
        "lambda_kinematic": lam_kin,
        "static_kinematic_gap": gap,
        "t_collapse": [[float(v) for v in row] for row in result.t_collapse],
    })
    _emit(report, [f"lambda* = {result.lambda_star:.9g} "
                   f"(kinematic {lam_kin:.9g}, gap {gap:.2e})"], t0)
    return EXIT_OK


def _probe_ratio(ops: kin.DiscreteOperators, work, mode: str, rng) -> float:
    """The largest |work . w| / budget(w) over four random clamped velocity
    fields w, in plastic mode first projected onto the isochoric ones by
    least squares: each is admissible, so by weak duality this bounds
    sigma_opt below."""
    W = rng.uniform(-1.0, 1.0, size=(4, ops.n_dof))
    norm = kin.strain_norm_l1
    if mode == st.PLASTIC:
        C = kin.isochoric_constraints(ops)
        W -= np.linalg.lstsq(C, C @ W.T, rcond=None)[0].T
        # a mesh without isochoric fields leaves only rounding
        W = [w for w in W if st.check_isochoric(ops, w)[0]]
        norm = kin.strain_norm_plastic
    ratios = [abs(work @ w) / budget for w in W if (budget := norm(ops, w)) > 0.0]
    return max(ratios, default=0.0)


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    if args.trials < 0:
        raise InputError(f"--trials must be non-negative, got {args.trials}")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    mesh = _load_mesh(args.mesh)
    ops = kin.assemble(mesh)
    rng = np.random.default_rng(args.seed)
    checks = []

    def record(name, ok, detail=""):
        checks.append({"check": name, "ok": bool(ok), "detail": detail})

    unclamped = kin.assemble(mesh, clamp=False)
    expected = {1: 1, 2: 3, 3: 6}[mesh.dim]
    kd = kin.rigid_kernel_dim(unclamped)
    record("rigid_kernel_unclamped", kd == expected, f"dim {kd} vs {expected}")
    kd_clamped = kin.rigid_kernel_dim(ops)
    record("rigid_kernel_clamped", kd_clamped == 0, f"dim {kd_clamped}")

    modes = [st.ELASTIC] + ([st.PLASTIC] if mesh.dim > 1 else [])
    # every trial's traction is drawn before the LP-oracle draws below
    nfac = len(ops.gammat_facets)
    drawn = [rng.uniform(-1.0, 1.0, size=(nfac, mesh.dim))
             for _ in range(args.trials)]
    trials = [(trial, t) for trial, t in enumerate(drawn)
              if kin.traction_sup_norm(ops, t) != 0.0]
    # the probe fields draw from their own stream, so that a seed's
    # tractions and LP-oracle LPs do not depend on them
    probe_rng = rng.spawn(1)[0]
    # one box LP per mode, whose phase 1 every traction's LP shares
    box = {mode: st.box_lp(ops, mode) for mode in modes} if trials else {}
    E = (ops.strain_weights[:, None] * ops.strain_op).T
    for trial, t in trials:
        work = kin.work_vector(ops, t)
        # weak duality brackets sigma_opt without an LP: above by the
        # measure of any stress that balances t, below by the ratio of any
        # admissible velocity field
        balanced = st.StressField(np.linalg.lstsq(E, work, rcond=None)[0]
                                  .reshape(ops.n_elements, -1))
        for mode in modes:
            low = _probe_ratio(ops, work, mode, probe_rng)
            high = st.stress_measure(balanced, mode, ops)
            try:
                res = st.optimal_stress(ops, t, mode, box[mode])
            except st.SolverFailure as exc:
                record(f"duality_trial{trial}_{mode}", False, str(exc))
                record(f"homogeneity_trial{trial}_{mode}", False,
                       "no certified optimum")
                continue
            tol = st.DUALITY_GAP_TOL * (1.0 + res.sigma_opt)
            record(f"duality_trial{trial}_{mode}",
                   res.duality_gap <= tol and low - tol <= res.sigma_opt <= high + tol,
                   f"gap {res.duality_gap:.2e}, bounds [{low:.9g}, {high:.9g}]")
            scaled = st.optimal_stress(ops, 3.0 * t, mode, box[mode])
            ok_h = abs(scaled.sigma_opt - 3.0 * res.sigma_opt) \
                <= 1e-6 * (1.0 + res.sigma_opt)
            record(f"homogeneity_trial{trial}_{mode}", ok_h)

    for i in range(10):
        n, mrows = 6, 4
        A = rng.uniform(-1.0, 1.0, size=(mrows, n))
        x0 = rng.uniform(0.0, 1.0, size=n)
        prob = lp.LPStandardForm(c=rng.uniform(-1.0, 1.0, size=n),
                                 A=A, b=A @ x0)
        got, want = lp.solve(prob), lp.solve_brute(prob)
        ok = got.status == want.status and (
            got.status != lp.OPTIMAL
            or abs(got.objective - want.objective)
            <= 1e-7 * (1.0 + abs(want.objective)))
        record(f"lp_oracle_{i}", ok)

    all_ok = all(c["ok"] for c in checks)
    report = _base_report("verify", args.mesh)
    report.update({"seed": args.seed, "trials": args.trials,
                   "all_ok": all_ok, "checks": checks})
    n_ok = sum(c["ok"] for c in checks)
    _emit(report, [f"{n_ok}/{len(checks)} checks passed"], t0)
    return EXIT_OK if all_ok else EXIT_SOLVER


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="loadcap",
        description="Optimal stress, stress concentration factor and load "
                    "capacity of discretized supported bodies.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="optimal stress for a traction field")
    p.add_argument("mesh")
    p.add_argument("traction")
    p.add_argument("--mode", choices=list(st.MODES), default=st.ELASTIC)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("capacity", help="stress concentration factor K and C")
    p.add_argument("mesh")
    p.add_argument("--mode", choices=list(st.MODES), default=st.ELASTIC)
    p.add_argument("--method", choices=["auto", "exact", "heuristic"],
                   default="auto")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("limit", help="limit-analysis factor for a traction")
    p.add_argument("mesh")
    p.add_argument("traction")
    p.add_argument("--y0", type=float, default=1.0)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("verify", help="run the invariant suite on a mesh")
    p.add_argument("mesh")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, msh.MeshError, kin.KinematicsError, st.StressError,
            cap.CapacityError, lp.LPError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (st.SolverFailure, lp.LPIterationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
