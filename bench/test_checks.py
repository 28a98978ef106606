"""Tests of the benchmark's checkers: each accepts the true report of a job
and rejects a corrupted one.  A cross-check solves the ladder and commands
values with HiGHS (`scipy.optimize.linprog`); it is skipped without scipy.

    python3 -m pytest bench -q
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from loadcap import cli  # noqa: E402
from loadcap import kinematics as kin  # noqa: E402
from loadcap import mesh as msh  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import workloads as wl  # noqa: E402
from checks import Operators, check_report  # noqa: E402


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """name -> (job, report, ops) for a few small jobs of every command."""
    w = wl._JobWriter(tmp_path_factory.mktemp("jobs"))
    rng = np.random.default_rng(7)
    square, plate = wl.rect_mesh(1, 1), wl.rect_mesh(2, 2)
    t = wl.random_traction(plate, rng)
    w.add("analyze bar8", "analyze", wl.bar_mesh(8),
          traction=wl.end_tension(wl.bar_mesh(8)), expect={"sigma_opt": 1.0})
    w.add("analyze plate elastic", "analyze", plate, traction=t)
    w.add("analyze plate plastic", "analyze", plate, mode="plastic", traction=t)
    w.add("analyze box plastic", "analyze", wl.box_mesh(1, 1, 1), mode="plastic",
          traction=wl.random_traction(wl.box_mesh(1, 1, 1), rng))
    w.add("limit plate", "limit", plate, mode="plastic", traction=t, y0=1.5,
          same_as="analyze plate plastic", extra=["--y0", "1.5"])
    w.add("capacity square elastic", "capacity", square, end_tension_ratio=1.0)
    w.add("capacity twotet plastic", "capacity", wl.two_tet_mesh(), mode="plastic")
    w.add("capacity bar8", "capacity", wl.bar_mesh(8), expect={"K": 1.0},
          end_tension_ratio=1.0)
    w.add("capacity rect3x3 auto", "capacity", wl.rect_mesh(3, 3),
          extra=["--method", "auto"])
    w.add("verify square", "verify", square, extra=["--trials", "2"])
    out = {}
    for job in w.jobs:
        o = harness.run_job(cli, job)
        assert o.code == 0, o.stderr
        out[job.name] = (job, json.loads(o.stdout), Operators(job.mesh))
    return out


def problems(reports, name, edit=None, certified=None):
    job, report, ops = reports[name]
    report = copy.deepcopy(report)
    if edit:
        edit(report)
    if certified is None:
        certified = {"analyze plate plastic":
                     reports["analyze plate plastic"][1]["sigma_opt"]}
    return check_report(job, report, ops, certified)


def test_true_reports_pass(reports):
    for name in reports:
        assert problems(reports, name) == [], name


def _scale(key, factor):
    def edit(r):
        r[key] = (np.array(r[key]) * factor).tolist()
    return edit


def _nudge(key, delta):
    def edit(r):
        r[key] = r[key] + delta
    return edit


@pytest.mark.parametrize("name", ["analyze bar8", "analyze plate elastic",
                                  "analyze plate plastic", "analyze box plastic"])
@pytest.mark.parametrize("edit", [
    _scale("sigma_hat", 1.01),
    _nudge("sigma_opt", 1e-6),
    _scale("dual_witness", -1.0),
], ids=["sigma_hat_x1.01", "sigma_opt+1e-6", "witness_negated"])
def test_analyze_rejects(reports, name, edit):
    assert problems(reports, name, edit)


def test_analyze_rejects_foreign_witness(reports):
    elastic = reports["analyze plate elastic"][1]["dual_witness"]
    plastic = reports["analyze plate plastic"][1]["dual_witness"]
    assert not np.allclose(elastic, plastic)

    def edit(r):
        r["dual_witness"] = elastic
    assert problems(reports, "analyze plate plastic", edit)


def test_analyze_rejects_s33_and_analytic_value(reports):
    def edit(r):
        r["sigma_hat_s33"] = [v + 0.3 for v in r["sigma_hat_s33"]]
    assert problems(reports, "analyze plate plastic", edit)
    job, report, ops = reports["analyze bar8"]
    job = copy.copy(job)
    job.expect = {"sigma_opt": 1.0 + 1e-6}
    assert check_report(job, report, ops, {})


def test_mesh_hash_checked(reports):
    assert problems(reports, "analyze bar8",
                    lambda r: r.update(mesh_sha256="0" * 64))


@pytest.mark.parametrize("name", ["capacity square elastic",
                                  "capacity twotet plastic", "capacity bar8"])
@pytest.mark.parametrize("edit", [
    _nudge("K", 1e-6),
    _nudge("K_traction_side", 1e-6),
    _scale("worst_traction", -1.0),
    lambda r: r["certificate"].__setitem__(
        0, r["certificate"][0] - 1.0 - 2.0 * max(map(abs, r["certificate"]))),
    lambda r: r.update(lower_bound_only=True),
], ids=["K+1e-6", "K_traction_side+1e-6", "worst_negated", "certificate",
        "lower_bound_only"])
def test_capacity_rejects(reports, name, edit):
    assert problems(reports, name, edit)


def test_capacity_heuristic_rejects(reports):
    assert problems(reports, "capacity rect3x3 auto", _nudge("K", 1e-6))
    assert problems(reports, "capacity rect3x3 auto",
                    lambda r: r.update(lower_bound_only=False))


def test_capacity_rejects_K_below_end_tension(reports):
    job, report, ops = reports["capacity square elastic"]
    job = copy.copy(job)
    job.end_tension_ratio = report["K"] * 1.001
    assert check_report(job, report, ops, {})


@pytest.mark.parametrize("edit", [
    _nudge("lambda_star", 1e-6),
    _nudge("lambda_kinematic", 1e-6),
    _nudge("sigma_opt", 1e-6),
    _scale("t_collapse", 1.0 + 1e-6),
], ids=["lambda_star", "lambda_kinematic", "sigma_opt", "t_collapse"])
def test_limit_rejects(reports, edit):
    assert problems(reports, "limit plate", edit)


def test_limit_rejects_uncertified_pair(reports):
    assert problems(reports, "limit plate", certified={})
    assert problems(reports, "limit plate",
                    certified={"analyze plate plastic": 0.999})


def test_verify_rejects(reports):
    def fail_one(r):
        r["checks"][3]["ok"] = False
    assert problems(reports, "verify square", fail_one)
    assert problems(reports, "verify square", lambda r: r["checks"].pop())
    assert problems(reports, "verify square", lambda r: r.update(all_ok=False))


def test_operators_match_loadcap():
    """The checkers' operators agree with the CLI's on random fields."""
    rng = np.random.default_rng(3)
    for doc in (wl.bar_mesh(5), wl.rect_mesh(3, 2), wl.box_mesh(1, 1, 1),
                wl.two_tet_mesh()):
        mesh = msh.Mesh(doc["dim"], doc["nodes"],
                        [msh.Element(e["kind"], e["nodes"], area=e.get("area"))
                         for e in doc["elements"]],
                        [msh.Facet(f["nodes"], f["label"]) for f in doc["facets"]])
        ref, ops = kin.assemble(mesh), Operators(doc)
        w = rng.normal(size=ref.n_dof)
        t = wl.random_traction(doc, rng)
        assert ops.n_dof == ref.n_dof
        np.testing.assert_allclose(ops.trace(w), kin.trace(ref, w), atol=1e-12)
        assert ops.budget(w, "elastic") == pytest.approx(kin.strain_norm_l1(ref, w))
        assert ops.work(t, w) == pytest.approx(kin.external_work(ref, t, w))
        np.testing.assert_allclose(ops.force(t), kin.work_vector(ref, t), atol=1e-12)
        if doc["dim"] > 1:
            assert ops.budget(w, "plastic") == pytest.approx(
                kin.strain_norm_plastic(ref, w))


# ------------------------------------------------------ HiGHS cross-check

def highs_sigma_opt(ops: Operators, t, mode: str) -> float:
    """Static LP: minimize the bound T on the stress measure over stress
    fields in equilibrium with t, solved by HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n_el, nc, n_dof = ops.B.shape
    extra = int(mode == "plastic" and ops.dim == 2)    # out-of-plane s33
    per_el = nc + extra
    n = n_el * per_el + 1
    A_eq = np.zeros((n_dof, n))
    weights = checks._weights(ops.dim)
    for e in range(n_el):
        A_eq[:, e * per_el:e * per_el + nc] = (ops.vol[e] * weights[:, None]
                                                * ops.B[e]).T
    # rows of the bounded measure as linear maps of one element's variables
    if mode == "elastic":
        rows = np.eye(nc, per_el)
    else:
        # deviatoric part of the 3x3 embedding: diagonal, then off-diagonal
        diag = np.zeros((3, per_el))
        diag[np.arange(ops.dim), np.arange(ops.dim)] = 1.0
        if extra:
            diag[2, nc] = 1.0
        dev = diag - diag.sum(axis=0) / 3.0
        rows = np.vstack([dev, np.eye(per_el)[ops.dim:nc]])
    A_ub = []
    for e in range(n_el):
        for row in rows:
            for sign in (1.0, -1.0):
                r = np.zeros(n)
                r[e * per_el:(e + 1) * per_el] = sign * row
                r[-1] = -1.0
                A_ub.append(r)
    c = np.zeros(n)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.array(A_ub), b_ub=np.zeros(len(A_ub)), A_eq=A_eq,
                  b_eq=ops.force(t), bounds=[(None, None)] * (n - 1) + [(0, None)],
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def test_highs_ladder_analytic_values():
    """The ladder's values, the failing 4x4 elastic case and the 6x6
    plate left out of the ladder included, agree with HiGHS."""
    cases = [(wl.bar_mesh(n), "elastic", 1.0) for n in (1, 8, 64)]
    cases += [(wl.rect_mesh(n, n), "elastic", 1.0) for n in (1, 2, 3, 4, 6)]
    cases += [(wl.rect_mesh(n, n), "plastic", 0.5) for n in (1, 3, 5, 6)]
    cases += [(wl.box_mesh(2, 1, 1), "elastic", 1.0)]
    for doc, mode, value in cases:
        got = highs_sigma_opt(Operators(doc), wl.end_tension(doc), mode)
        assert got == pytest.approx(value, rel=1e-7), (doc["dim"], mode)


def test_highs_commands(tmp_path):
    """sigma_opt of the commands workload's analyze and limit jobs agrees
    with HiGHS."""
    pytest.importorskip("scipy.optimize")
    jobs = [j for j in wl.make_jobs("commands", 1, tmp_path)
            if j.command in ("analyze", "limit")]
    for job in jobs:
        o = harness.run_job(cli, job)
        assert o.code == 0, o.stderr
        got = json.loads(o.stdout)["sigma_opt"]
        want = highs_sigma_opt(Operators(job.mesh), job.traction, job.mode)
        assert got == pytest.approx(want, rel=1e-7), job.name
