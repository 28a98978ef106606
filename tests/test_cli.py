import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from loadcap import cli
from loadcap import kinematics as kin
from loadcap import lp
from loadcap import mesh as msh
from loadcap import stress as st

from conftest import end_tension_plate


@pytest.fixture
def bar_files(tmp_path):
    mesh_path = tmp_path / "bar.mesh"
    msh.write_mesh(msh.generate_bar(1.0, 1.0, 1), mesh_path)
    traction_path = tmp_path / "bar.traction"
    traction_path.write_text(json.dumps({"facets": [[1.5]]}))
    return str(mesh_path), str(traction_path)


@pytest.fixture
def square_files(tmp_path):
    mesh_path = tmp_path / "square.mesh"
    msh.write_mesh(msh.generate_rectangle(1, 1, 1, 1, "left", "right"), mesh_path)
    traction_path = tmp_path / "square.traction"
    traction_path.write_text(json.dumps(
        {"facets": [[1.0, 0.0], [0.0, -0.5], [0.25, 0.0]]}))
    return str(mesh_path), str(traction_path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.fixture
def solves(monkeypatch):
    """Shapes of the LPs passed to `lp.solve`, in call order."""
    calls = []
    solve = lp.solve

    def counted(prob, *args, **kwargs):
        calls.append(prob.A.shape)
        return solve(prob, *args, **kwargs)
    monkeypatch.setattr(lp, "solve", counted)
    return calls


class TestAnalyze:
    def test_bar(self, capsys, bar_files):
        mesh_path, traction_path = bar_files
        code, out, err = run(capsys, ["analyze", mesh_path, traction_path])
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["sigma_opt"] == pytest.approx(1.5, abs=1e-10)
        assert report["equilibrium_ok"]
        assert "wall time" in err

    def test_plastic_square(self, capsys, square_files):
        mesh_path, traction_path = square_files
        code, out, _ = run(capsys, ["analyze", mesh_path, traction_path,
                                    "--mode", "plastic"])
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["mode"] == "plastic"
        assert report["duality_gap"] <= 1e-6 * (1.0 + report["sigma_opt"])
        assert report["sigma_hat_s33"] is not None

    def test_deterministic_stdout(self, capsys, square_files):
        mesh_path, traction_path = square_files
        argv = ["analyze", mesh_path, traction_path]
        _, out1, err1 = run(capsys, argv)
        _, out2, err2 = run(capsys, argv)
        assert out1 == out2  # byte identical; wall time lives on stderr
        assert "wall time" in err1 and "wall time" in err2

    def test_missing_traction_file(self, capsys, bar_files):
        mesh_path, _ = bar_files
        code, _, err = run(capsys, ["analyze", mesh_path, "/nonexistent.traction"])
        assert code == cli.EXIT_INPUT
        assert "error:" in err

    def test_wrong_traction_shape(self, capsys, bar_files, tmp_path):
        mesh_path, _ = bar_files
        bad = tmp_path / "bad.traction"
        bad.write_text(json.dumps({"facets": [[1.0], [2.0]]}))
        code, _, _ = run(capsys, ["analyze", mesh_path, str(bad)])
        assert code == cli.EXIT_INPUT

    def test_traction_missing_key(self, capsys, bar_files, tmp_path):
        mesh_path, _ = bar_files
        bad = tmp_path / "bad.traction"
        bad.write_text(json.dumps({"values": [[1.0]]}))
        code, _, err = run(capsys, ["analyze", mesh_path, str(bad)])
        assert code == cli.EXIT_INPUT
        assert "facets" in err

    def test_plastic_on_bar_mesh(self, capsys, bar_files):
        mesh_path, traction_path = bar_files
        code, _, err = run(capsys, ["analyze", mesh_path, traction_path,
                                    "--mode", "plastic"])
        assert code == cli.EXIT_INPUT
        assert "isochoric" in err

    def test_mesh_path_is_a_directory(self, capsys, tmp_path, bar_files):
        code, out, err = run(capsys, ["analyze", str(tmp_path), bar_files[1]])
        assert code == cli.EXIT_INPUT and out == ""
        assert_one_error_line(err)
        assert err.startswith(f"error: cannot read mesh file {tmp_path}: ")

    def test_invalid_mesh_file(self, capsys, tmp_path, bar_files):
        _, traction_path = bar_files
        bad = tmp_path / "bad.mesh"
        bad.write_text("{not json")
        code, _, _ = run(capsys, ["analyze", str(bad), traction_path])
        assert code == cli.EXIT_INPUT


class TestCapacity:
    def test_bar(self, capsys, bar_files):
        mesh_path, _ = bar_files
        code, out, _ = run(capsys, ["capacity", mesh_path])
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["K"] == pytest.approx(1.0, abs=1e-9)
        assert report["C"] == pytest.approx(1.0, abs=1e-9)
        assert report["K_cross_check_gap"] <= 1e-9

    def test_square_exact_deterministic(self, capsys, square_files):
        mesh_path, _ = square_files
        _, out1, _ = run(capsys, ["capacity", mesh_path, "--method", "exact"])
        _, out2, _ = run(capsys, ["capacity", mesh_path, "--method", "exact"])
        assert out1 == out2
        assert json.loads(out1)["K"] == pytest.approx(3.0, abs=1e-9)

    def test_auto_falls_back_to_heuristic(self, capsys, tmp_path):
        mesh_path = tmp_path / "big.mesh"
        msh.write_mesh(msh.generate_rectangle(1, 1, 3, 3, "left", "right"),
                       mesh_path)
        code, out, err = run(capsys, ["capacity", str(mesh_path)])
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["method"] == "alternating_heuristic"
        assert report["lower_bound_only"] and report["caps_hit"]
        # a lower bound on K makes C an upper bound, never a safe load
        assert "K_traction_side" not in report
        assert "no collapse occurs" not in report["interpretation"]
        assert "lower bound" in report["interpretation"]
        assert "upper bound on the load capacity" in report["interpretation"]
        summary = err.splitlines()[0]
        assert summary.startswith("K >= ") and "C <= " in summary
        assert "not a safe load" in summary

    def test_exact_over_cap_is_input_error(self, capsys, tmp_path):
        mesh_path = tmp_path / "big.mesh"
        msh.write_mesh(msh.generate_rectangle(1, 1, 3, 3, "left", "right"),
                       mesh_path)
        code, _, err = run(capsys, ["capacity", str(mesh_path),
                                    "--method", "exact"])
        assert code == cli.EXIT_INPUT
        assert "capped" in err


class TestLimit:
    def test_square(self, capsys, square_files):
        mesh_path, traction_path = square_files
        code, out, _ = run(capsys, ["limit", mesh_path, traction_path,
                                    "--y0", "2.0"])
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["lambda_star"] * report["sigma_opt"] == \
            pytest.approx(2.0, rel=1e-12)
        assert report["static_kinematic_gap"] <= 1e-6 * (1.0 + report["lambda_star"])

    def test_bar_rejected(self, capsys, bar_files):
        mesh_path, traction_path = bar_files
        code, _, err = run(capsys, ["limit", mesh_path, traction_path])
        assert code == cli.EXIT_INPUT
        assert "isochoric" in err


class TestVerify:
    def test_bar(self, capsys, bar_files):
        mesh_path, _ = bar_files
        code, out, _ = run(capsys, ["verify", mesh_path, "--trials", "3"])
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["all_ok"]
        assert all(c["ok"] for c in report["checks"])

    def test_square(self, capsys, square_files):
        mesh_path, _ = square_files
        code, out, _ = run(capsys, ["verify", mesh_path, "--trials", "3",
                                    "--seed", "7"])
        assert code == cli.EXIT_OK
        assert json.loads(out)["seed"] == 7

    def test_lp_oracle_relative_tolerance(self, capsys, tmp_path):
        # lp_oracle_8 of this seed has optimum -33664.772204; solve and
        # solve_brute differ there by 2.9e-7, which is 9e-12 relative
        mesh_path = tmp_path / "plate.mesh"
        msh.write_mesh(msh.generate_rectangle(1, 1, 2, 2, "left", "right"),
                       mesh_path)
        code, out, _ = run(capsys, ["verify", str(mesh_path), "--trials", "5",
                                    "--seed", "889717146"])
        assert code == cli.EXIT_OK
        assert json.loads(out)["all_ok"]

    def test_elastic_8x8_plate(self, capsys, tmp_path):
        # verify used to walk this plate's 385 x 913 kinematic LP as a
        # reference, which hit the 50,000-pivot limit
        mesh_path = tmp_path / "plate.mesh"
        msh.write_mesh(end_tension_plate(8)[0], mesh_path)
        code, out, _ = run(capsys, ["verify", str(mesh_path), "--trials", "1"])
        assert code == cli.EXIT_OK
        assert json.loads(out)["all_ok"]

    def test_box_lp_formulation_error(self, capsys, tmp_path, monkeypatch):
        # off-diagonal stress columns of weight 1 instead of 2 in the
        # equilibrium rows: the box LP's stresses do not balance the traction
        box_lp = st.box_lp

        def halved(ops, mode):
            p = box_lp(ops, mode)
            nc = kin.n_comps(ops.dim)
            per = nc + (mode == st.PLASTIC and ops.dim == 2)
            cols = np.arange(ops.n_elements)[:, None] * per + np.arange(ops.dim, nc)
            A = p.A.copy()
            A[:ops.n_dof, cols.ravel()] *= 0.5
            return lp.LPStandardForm(c=p.c, A=A, b=p.b, lower=p.lower,
                                     upper=p.upper)
        monkeypatch.setattr(st, "box_lp", halved)
        mesh_path = tmp_path / "plate.mesh"
        msh.write_mesh(msh.generate_rectangle(1, 1, 2, 2, "left", "right"),
                       mesh_path)
        code, out, _ = run(capsys, ["verify", str(mesh_path), "--trials", "3"])
        assert code == cli.EXIT_SOLVER
        checks = json.loads(out)["checks"]
        assert len(checks) == 2 + 2 * 3 * 2 + 10
        duality = [c for c in checks if c["check"].startswith("duality_trial")]
        assert len(duality) == 6 and not any(c["ok"] for c in duality)

    @pytest.mark.parametrize("factor", [0.0, 1e3])
    def test_duality_bounds_checked(self, capsys, square_files, monkeypatch,
                                    factor):
        # a sigma_opt below every probe's ratio, or above the measure of the
        # least-squares stress, fails although its certificate's gap holds
        optimal_stress = st.optimal_stress

        def moved(*args):
            res = optimal_stress(*args)
            return res._replace(sigma_opt=factor * res.sigma_opt)
        monkeypatch.setattr(st, "optimal_stress", moved)
        code, out, _ = run(capsys, ["verify", square_files[0], "--trials", "3"])
        assert code == cli.EXIT_SOLVER
        failed = [c["check"] for c in json.loads(out)["checks"] if not c["ok"]]
        assert failed == [f"duality_trial{k}_{mode}" for k in range(3)
                          for mode in ("elastic", "plastic")]

    @pytest.mark.parametrize("module, name, trials, failure, check", [
        (st, "optimal_stress", 1, st.SolverFailure("box LP: stalled"),
         "homogeneity_trial0_elastic"),
        (lp, "solve", 0, lp.LPIterationError(2, (4, 6), 7), "lp_oracle_1"),
        (lp, "solve", 0, lp.LPBasisError((4, 6), 3, np.inf), "lp_oracle_1"),
    ], ids=["scaled_traction", "oracle_pivot_limit", "oracle_singular_basis"])
    def test_failed_solve_is_a_failed_check(self, capsys, square_files, monkeypatch,
                                            module, name, trials, failure, check):
        # the second solve fails: trial 0's scaled traction, or the second
        # LP-oracle LP; the report is printed with that check failed
        solve, calls = getattr(module, name), []

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise failure
            return solve(*args)
        monkeypatch.setattr(module, name, failing)
        code, out, _ = run(capsys, ["verify", square_files[0], "--trials", str(trials)])
        assert code == cli.EXIT_SOLVER
        failed = [c for c in json.loads(out)["checks"] if not c["ok"]]
        assert failed == [{"check": check, "ok": False, "detail": str(failure)}]

    def test_work_vector_probe(self, capsys, tmp_path, monkeypatch):
        # the load's own work vector, as a probe field, lifts each bound
        # below to 27-65 % of sigma_opt on this plate (3-29 % from the
        # random probes alone), so a sigma_opt a quarter of the true one
        # fails every duality check and nothing else
        optimal_stress = st.optimal_stress

        def quartered(*args):
            res = optimal_stress(*args)
            return res._replace(sigma_opt=0.25 * res.sigma_opt)
        monkeypatch.setattr(st, "optimal_stress", quartered)
        mesh_path = tmp_path / "plate.mesh"
        msh.write_mesh(end_tension_plate(4)[0], mesh_path)
        code, out, _ = run(capsys, ["verify", str(mesh_path), "--trials", "3"])
        assert code == cli.EXIT_SOLVER
        failed = [c["check"] for c in json.loads(out)["checks"] if not c["ok"]]
        assert failed == [f"duality_trial{k}_{mode}" for k in range(3)
                          for mode in ("elastic", "plastic")]

    def test_no_isochoric_field(self, capsys, tmp_path):
        # three triangles about the one free node: only w = 0 is isochoric,
        # so the plastic probes' projections leave rounding only, which is
        # not admissible and bounds nothing
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        elements = [(0, 1, 3), (0, 3, 2), (1, 4, 3)]
        facets = [(0, 1), (2, 0), (1, 4), (4, 3), (3, 2)]
        mesh_path = tmp_path / "fan.mesh"
        msh.write_mesh(msh.Mesh(2, nodes, elements, facets, np.arange(5) < 3), mesh_path)
        code, out, _ = run(capsys, ["verify", str(mesh_path), "--trials", "5"])
        assert code == cli.EXIT_OK
        assert json.loads(out)["all_ok"]


def test_small_length_unit(capsys, tmp_path):
    # on the 2x1 plate at a length unit of 1e-4, capacity reported
    # K = 3.333 and a C that is not safe, and plastic capacity failed: the
    # kinematic LP's entries came near the simplex's absolute tolerances,
    # until its lengths were normalized by a power of two (the box LP
    # needs no such scale: the crash's pivot test is relative to each
    # row).  verify, which solved the kinematic LP too, checks
    # weak-duality bounds that scale with the unit of length
    mesh_path = tmp_path / "small.mesh"
    msh.write_mesh(msh.generate_rectangle(1e-4, 1e-4, 2, 1, "left", "right"),
                   mesh_path)
    for mode, K in (("elastic", 13 / 3), ("plastic", 2.5)):
        code, out, _ = run(capsys, ["capacity", str(mesh_path), "--mode", mode])
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["K"] == pytest.approx(K, rel=1e-9)
        assert report["C"] == pytest.approx(1.0 / K, rel=1e-9)
    code, out, _ = run(capsys, ["verify", str(mesh_path)])
    assert code == cli.EXIT_OK
    assert json.loads(out)["all_ok"]


class TestBadNumbers:
    @pytest.mark.parametrize("y0", ["nan", "inf", "0", "-1"])
    def test_limit_rejects_y0(self, capsys, square_files, y0):
        mesh_path, traction_path = square_files
        code, out, err = run(capsys, ["limit", mesh_path, traction_path,
                                      "--y0", y0])
        assert code == cli.EXIT_INPUT and out == ""
        assert_one_error_line(err)
        assert "Y0" in err

    def test_nonfinite_traction(self, capsys, square_files, tmp_path):
        mesh_path, _ = square_files
        bad = tmp_path / "nan.traction"
        bad.write_text('{"facets": [[NaN, 0.0], [0.0, 0.0], [0.0, 0.0]]}')
        for command in ("analyze", "limit"):
            code, out, err = run(capsys, [command, mesh_path, str(bad)])
            assert code == cli.EXIT_INPUT and out == ""
            assert_one_error_line(err)
            assert "traction field has non-finite entries" in err

    def test_negative_trials(self, capsys, square_files):
        mesh_path, _ = square_files
        code, out, err = run(capsys, ["verify", mesh_path, "--trials", "-1"])
        assert code == cli.EXIT_INPUT and out == ""
        assert_one_error_line(err)
        assert "--trials" in err

    def test_negative_seed(self, capsys, square_files):
        mesh_path, _ = square_files
        code, out, err = run(capsys, ["verify", mesh_path, "--seed", "-1"])
        assert code == cli.EXIT_INPUT and out == ""
        assert_one_error_line(err)
        assert "--seed" in err

    @pytest.mark.parametrize("value", ["true", "false", '"1.0"', "1" + "0" * 400],
                             ids=["true", "false", "string", "huge_integer"])
    def test_traction_entry_not_a_number(self, capsys, square_files, tmp_path,
                                         value):
        mesh_path, _ = square_files
        bad = tmp_path / "bad.traction"
        bad.write_text('{"facets": [[%s, 0.0], [0.0, -0.5], [0.25, 0.0]]}' % value)
        for command in ("analyze", "limit"):
            code, out, err = run(capsys, [command, mesh_path, str(bad)])
            assert code == cli.EXIT_INPUT and out == ""
            assert_one_error_line(err)

    @pytest.mark.parametrize("which", ["mesh", "traction"])
    def test_file_not_utf8(self, capsys, square_files, tmp_path, which):
        # JSON is UTF-8, and byte 0xFF never occurs in it
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        mesh_path, traction_path = square_files
        argv = ["analyze", str(bad), traction_path] if which == "mesh" \
            else ["analyze", mesh_path, str(bad)]
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_INPUT and out == ""
        assert_one_error_line(err)
        assert f"cannot parse {which} file" in err

    @pytest.mark.parametrize("doc", ["null", "5", '{"facets": {"a": 1}}'],
                             ids=["null", "number", "facets_object"])
    def test_traction_not_an_object(self, capsys, square_files, tmp_path, doc):
        mesh_path, _ = square_files
        bad = tmp_path / "bad.traction"
        bad.write_text(doc)
        for command in ("analyze", "limit"):
            code, out, err = run(capsys, [command, mesh_path, str(bad)])
            assert code == cli.EXIT_INPUT and out == ""
            assert_one_error_line(err)


class TestSolveCounts:
    """LP solves per command: each certified optimum costs one box LP."""

    def test_analyze_and_limit(self, capsys, square_files, solves):
        mesh_path, traction_path = square_files
        for argv in (["analyze", mesh_path, traction_path],
                     ["analyze", mesh_path, traction_path, "--mode", "plastic"],
                     ["limit", mesh_path, traction_path, "--y0", "2.0"]):
            solves.clear()
            code, _, _ = run(capsys, argv)
            assert code == cli.EXIT_OK
            assert len(solves) == 1, argv

    def test_exact_capacity(self, capsys, square_files, solves, monkeypatch):
        # 3 loaded edges x 2 components: 2^5 sign patterns, the rows of one
        # walk after one phase 1, which runs phase 2 for 3 of them; then
        # one solve, and phase 2, for the first of the 4 patterns whose
        # value is K, whose own solution is certified, not solved again
        phase1, solve_each = lp._phase1, lp.solve_each
        calls = {"phase1": 0, "phase2": 0, "walks": 0, "walk_rows": 0}

        def counted_phase1(*args):
            calls["phase1"] += 1
            return phase1(*args)

        def counted(phase2):
            def counted_phase2(*args):
                calls["phase2"] += 1
                return phase2(*args)
            return counted_phase2

        def counted_walk(p, unit_costs, weights):
            calls["walks"] += 1
            calls["walk_rows"] += len(weights)
            return solve_each(p, unit_costs, weights)
        monkeypatch.setattr(lp, "_phase1", counted_phase1)
        # the walk's phase 2s and `solve`'s, on the rows that can leave
        monkeypatch.setattr(lp, "_phase2", counted(lp._phase2))
        monkeypatch.setattr(lp, "_live_phase2", counted(lp._live_phase2))
        monkeypatch.setattr(lp, "solve_each", counted_walk)
        mesh_path, _ = square_files
        code, out, _ = run(capsys, ["capacity", mesh_path])
        assert code == cli.EXIT_OK
        assert json.loads(out)["method"] == "exact_vertex_enumeration"
        assert calls == {"phase1": 1, "phase2": 3 + 1, "walks": 1,
                         "walk_rows": 2 ** 5}
        assert len(solves) == 1

    @pytest.mark.parametrize("trials", [0, 2])
    def test_verify(self, capsys, square_files, bar_files, solves, monkeypatch,
                    trials):
        # per trial and mode: the certified box LP optimum and the scaled
        # traction's; then ten LP-oracle solves.  The duality bounds solve
        # no LP, so nothing walks
        monkeypatch.setattr(lp, "solve_each", None)
        for (mesh_path, _), modes in ((square_files, 2), (bar_files, 1)):
            solves.clear()
            code, out, _ = run(capsys, ["verify", mesh_path,
                                        "--trials", str(trials)])
            assert code == cli.EXIT_OK
            assert len(solves) == 2 * trials * modes + 10
            assert len(json.loads(out)["checks"]) == 2 + 2 * trials * modes + 10

    def test_verify_phase1_runs(self, capsys, square_files, bar_files,
                                monkeypatch):
        # one phase 1 per mode, shared by every traction's box LP, and one
        # per LP-oracle solve
        phase1 = lp._phase1
        calls = []
        monkeypatch.setattr(lp, "_phase1",
                            lambda *args: calls.append(1) or phase1(*args))
        trials = 2
        for (mesh_path, _), modes in ((square_files, 2), (bar_files, 1)):
            calls.clear()
            code, out, _ = run(capsys, ["verify", mesh_path,
                                        "--trials", str(trials)])
            assert code == cli.EXIT_OK
            assert len(calls) == modes + 10
            assert len(json.loads(out)["checks"]) == 2 + 2 * trials * modes + 10


def test_pivot_limit_names_the_lp(capsys, square_files, monkeypatch):
    def stalled(prob, *args, **kwargs):
        raise lp.LPIterationError(2, prob.A.shape, 7)

    monkeypatch.setattr(lp, "solve", stalled)
    code, out, err = run(capsys, ["analyze", *square_files])
    assert code == cli.EXIT_SOLVER and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("solver failure: box LP: simplex phase 2 ")


class TestOptimalBasisFailure:
    """A phase 2 that stops at a basis whose solution from the data is
    unusable exits 3 with one line naming the LP's shape, phase 2's pivot
    count and the violation."""

    @staticmethod
    def analyze(capsys, monkeypatch, files, spoil):
        phase2 = lp._live_phase2

        def spoiled(T, basis, c, p, value):
            status, pivots = phase2(T, basis, c, p, value)
            spoil(basis, value)
            return status, pivots
        monkeypatch.setattr(lp, "_live_phase2", spoiled)
        code, out, err = run(capsys, ["analyze", *files])
        assert code == cli.EXIT_SOLVER and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        return lines[0]

    def test_singular_basis(self, capsys, square_files, monkeypatch):
        def repeat_column(basis, value):
            basis[1] = basis[0]
        line = self.analyze(capsys, monkeypatch, square_files, repeat_column)
        assert line == ("solver failure: box LP: simplex phase 2 stopped after 2 "
                        "pivots at a basis that is singular on a 4 x 7 LP "
                        "(rows x cols)")

    def test_basis_out_of_bounds(self, capsys, bar_files, monkeypatch):
        # the bar's optimal basis holds lambda alone, with the stress at its
        # upper bound 1: at its lower bound instead, lambda = -1 / 1.5
        def flip_stress(basis, value):
            value[0] = -value[0]
        line = self.analyze(capsys, monkeypatch, bar_files, flip_stress)
        assert line == ("solver failure: box LP: simplex phase 2 stopped after 1 "
                        "pivots at a basis whose x_B leaves its bounds by "
                        "6.667e-01 on a 1 x 2 LP (rows x cols)")


class TestEdgeCases:
    """Loads the box LP meets at its edges: lambda unbounded, lambda = 0,
    and equilibrium rows without any entry."""

    @pytest.mark.parametrize("mode", ["elastic", "plastic"])
    def test_zero_traction_reports_zero(self, capsys, tmp_path, square_files, mode):
        zero = tmp_path / "zero.traction"
        zero.write_text(json.dumps({"facets": [[0.0, 0.0]] * 3}))
        code, out, err = run(capsys, ["analyze", square_files[0], str(zero),
                                      "--mode", mode])
        assert code == cli.EXIT_OK
        report = json.loads(out)
        assert report["sigma_opt"] == 0.0 and report["dual_value"] == 0.0
        assert report["dual_witness"] == [0.0] * 4
        assert err.startswith("sigma_opt = 0 ")

    @pytest.mark.parametrize("command", [["analyze"], ["analyze", "--mode", "plastic"],
                                         ["limit"]])
    def test_unbalanced_load_fails_cleanly(self, capsys, square_files,
                                           monkeypatch, command):
        # without the strain of velocity DOF 0 the mesh has a mechanism,
        # and the traction loads it: lambda = 0
        assemble = kin.assemble

        def mechanism(mesh, clamp=True):
            ops = assemble(mesh, clamp)
            strain_op = ops.strain_op.copy()
            strain_op[:, 0] = 0.0
            return dataclasses.replace(ops, strain_op=strain_op)
        monkeypatch.setattr(kin, "assemble", mechanism)
        code, out, err = run(capsys, [command[0], *square_files, *command[1:]])
        assert code == cli.EXIT_SOLVER and out == ""
        assert err.strip().splitlines() == [
            "solver failure: box LP: load factor 0: the traction loads a "
            "mechanism of the mesh despite the supported boundary"]

    @pytest.mark.parametrize("mode", ["elastic", "plastic"])
    def test_empty_equilibrium_rows(self, capsys, square_files, monkeypatch, mode):
        # two velocity DOFs that no element strains and no facet loads: their
        # equilibrium rows have no entry, so the crash finds no pivot in
        # them and drops them (no valid mesh has such a DOF: every node is
        # a node of an element)
        argv = ["analyze", *square_files, "--mode", mode]
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_OK, err
        plain = json.loads(out)
        assemble = kin.assemble

        def with_idle_dofs(mesh, clamp=True):
            ops = assemble(mesh, clamp)
            pad = ((0, 0), (0, 2))
            return dataclasses.replace(ops, n_dof=ops.n_dof + 2,
                                       strain_op=np.pad(ops.strain_op, pad),
                                       trace_op=np.pad(ops.trace_op, pad))
        monkeypatch.setattr(kin, "assemble", with_idle_dofs)
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_OK, err
        padded = json.loads(out)
        assert padded["sigma_opt"] == pytest.approx(plain["sigma_opt"], rel=1e-12)
        assert len(padded["dual_witness"]) == len(plain["dual_witness"]) + 2
        assert padded["dual_witness"][-2:] == [0.0, 0.0]

    @pytest.mark.parametrize("mode,shape", [("elastic", "4 x 7"), ("plastic", "6 x 11")])
    def test_box_lp_pivot_limit(self, capsys, square_files, monkeypatch, mode, shape):
        monkeypatch.setattr(lp, "_MAX_ITER", 1)
        code, out, err = run(capsys, ["analyze", *square_files, "--mode", mode])
        assert code == cli.EXIT_SOLVER and out == ""
        assert err.strip().splitlines() == [
            "solver failure: box LP: simplex phase 2 did not terminate in 1 "
            f"iterations on a {shape} LP (rows x cols)"]


def test_elastic_4x4_plate_end_tension(capsys, tmp_path):
    """The box LP and its multipliers certify sigma_opt = 1; the static LP
    of this case is checked in `test_stress.py`."""
    mesh, traction = end_tension_plate(4)
    mesh_path = tmp_path / "plate.mesh"
    msh.write_mesh(mesh, mesh_path)
    traction_path = tmp_path / "plate.traction"
    traction_path.write_text(json.dumps({"facets": traction.tolist()}))
    code, out, _ = run(capsys, ["analyze", str(mesh_path), str(traction_path)])
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["sigma_opt"] == pytest.approx(1.0, abs=1e-9)
    assert report["dual_value"] == pytest.approx(1.0, abs=1e-9)
    assert report["duality_gap"] <= 1e-9 and report["equilibrium_ok"]


def _square_doc():
    return {"dim": 2,
            "nodes": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            "elements": [{"kind": "triangle", "nodes": [0, 1, 3]},
                         {"kind": "triangle", "nodes": [0, 3, 2]}],
            "facets": [{"nodes": [0, 2], "label": "gamma0"},
                       {"nodes": [1, 3], "label": "gammaT"},
                       {"nodes": [0, 1], "label": "gammaT"},
                       {"nodes": [2, 3], "label": "gammaT"}]}


def _bar_doc():
    return {"dim": 1, "nodes": [[0.0], [1.0]],
            "elements": [{"kind": "bar", "nodes": [0, 1], "area": 1.0}],
            "facets": [{"nodes": [0], "label": "gamma0"},
                       {"nodes": [1], "label": "gammaT"}]}


def _boolean_node_ids(doc):
    doc["elements"][0]["nodes"] = [0, True, 3]
    doc["elements"][1]["nodes"] = [False, 3, 2]


def _boolean_coordinates(doc):
    doc["nodes"][3] = [True, True]


def _boolean_facet_node(doc):
    doc["facets"][1]["nodes"] = [True, 3]


def _boolean_dim(doc):
    doc["dim"] = True


def _boolean_area(doc):
    doc["elements"][0]["area"] = True


def _ragged_nodes(doc):
    doc["nodes"][1] = [1.0]


def _extra_coordinate(doc):
    doc["nodes"] = [row + [9.0] for row in doc["nodes"]]


def _string_node_id(doc):
    doc["elements"][0]["nodes"][2] = "x"


def _fractional_node_id(doc):
    doc["facets"][1]["nodes"][0] = 1.5


def _string_dim(doc):
    doc["dim"] = "x"


def _fractional_dim(doc):
    doc["dim"] = 2.7


def _elements_not_a_list(doc):
    doc["elements"] = 5


def _null_coordinate(doc):
    doc["nodes"][3] = [1.0, None]


def _null_coordinate_coincident_nodes(doc):
    # node 1 on node 0: element 0 is degenerate as well
    doc["nodes"][3] = [1.0, None]
    doc["nodes"][1] = [-0.0, 0.0]


def _loose_triangle(doc):
    # a second body beside the square, loaded but not supported
    doc["nodes"] += [[3.0, 0.0], [4.0, 0.0], [3.0, 1.0]]
    doc["elements"].append({"kind": "triangle", "nodes": [4, 5, 6]})
    doc["facets"] += [{"nodes": f, "label": "gammaT"}
                      for f in ([4, 5], [5, 6], [4, 6])]


def _bar_in_a_plate(doc):
    doc["elements"][1] = {"kind": "bar", "nodes": [0, 3], "area": 1.0}


def _four_node_triangle(doc):
    doc["elements"][1]["nodes"].append(1)


def _three_node_edge(doc):
    doc["facets"][2]["nodes"].append(3)


class TestMeshInput:
    @pytest.mark.parametrize("command", ["capacity", "verify", "analyze"])
    @pytest.mark.parametrize("mutate", [_ragged_nodes, _extra_coordinate,
                                        _string_node_id,
                                        _fractional_node_id, _string_dim,
                                        _fractional_dim, _elements_not_a_list,
                                        _loose_triangle, _null_coordinate,
                                        _null_coordinate_coincident_nodes])
    def test_bad_mesh_is_input_error(self, capsys, tmp_path, mutate, command):
        doc = _square_doc()
        mutate(doc)
        path = tmp_path / "bad.mesh"
        path.write_text(json.dumps(doc))
        traction = tmp_path / "square.traction"
        traction.write_text(json.dumps({"facets": [[1.0, 0.0]] * 3}))
        argv = [command, str(path)] + ([str(traction)] if command == "analyze" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second line
            code, out, err = run(capsys, argv)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert_one_error_line(err)

    @pytest.mark.parametrize("doc,mutate", [
        (_square_doc, _boolean_node_ids), (_square_doc, _boolean_coordinates),
        (_square_doc, _boolean_facet_node), (_bar_doc, _boolean_dim),
        (_bar_doc, _boolean_area)],
        ids=["node_ids", "coordinates", "facet_node", "dim", "area"])
    def test_boolean_is_not_a_number(self, capsys, tmp_path, doc, mutate):
        """JSON true and false would read as 1 and 0, and each of these
        meshes would run to exit 0."""
        doc = doc()
        mutate(doc)
        path = tmp_path / "bad.mesh"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["capacity", str(path)])
        assert code == cli.EXIT_INPUT and out == ""
        assert_one_error_line(err)

    @pytest.mark.parametrize("mutate,message", [
        (_bar_in_a_plate, "element 1 kind bar does not match dim 2"),
        (_four_node_triangle, "element 1: triangle needs 3 nodes, got 4"),
        (_three_node_edge, "facet 2 has 3 nodes, expected 2")],
        ids=["kind", "element_nodes", "facet_nodes"])
    def test_record_checked_when_read(self, capsys, tmp_path, mutate, message):
        """A record of the wrong kind or size is named when the file is read."""
        doc = _square_doc()
        mutate(doc)
        path = tmp_path / "bad.mesh"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["capacity", str(path)])
        assert code == cli.EXIT_INPUT and out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_readme_mesh_example(self, capsys, tmp_path):
        path = tmp_path / "readme.mesh"
        path.write_text(json.dumps(_readme_mesh()))
        code, out, _ = run(capsys, ["capacity", str(path)])
        assert code == cli.EXIT_OK
        assert json.loads(out)["K"] > 0.0

    @pytest.mark.parametrize("command", [["analyze", "T"], ["capacity"],
                                         ["limit", "T"], ["verify", "--trials", "1"]])
    def test_unused_node(self, capsys, tmp_path, square_files, command):
        # the README square with a node that no element has: unrejected, its
        # two velocity DOFs would be a rigid kernel of the clamped body
        doc = _readme_mesh()
        doc["nodes"].append([5.0, 5.0])
        path = tmp_path / "unused.mesh"
        path.write_text(json.dumps(doc))
        argv = [command[0], str(path)] + [square_files[1] if a == "T" else a
                                          for a in command[1:]]
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_INPUT and out == ""
        assert err.strip().splitlines() == [
            "error: invalid mesh: node 4 is not a node of any element"]


def _readme_mesh() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    return json.loads(next(b for b in blocks if '"elements"' in b))


def _outcome(capsys, argv):
    """Exit code, stdout and stderr but its wall-time line, of one
    `cli.main` call, with argparse's exits as codes."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, [line for line in captured.err.splitlines()
                                if not line.startswith("wall time: ")]


def test_parser_reuse_carries_no_state(capsys, square_files):
    """`cli.main` builds its parser once per process; an option given in
    one call must not become the default of the next."""
    mesh_path, traction_path = square_files
    argvs = [["analyze", mesh_path, traction_path, "--mode", "plastic"],
             ["analyze", mesh_path, traction_path],
             ["capacity", mesh_path, "--method", "heuristic"],
             ["capacity", mesh_path],
             ["verify", mesh_path, "--seed", "7", "--trials", "2"],
             ["verify", mesh_path, "--trials", "2"],
             ["capacity", mesh_path, "--method", "none"],
             ["--version"]]
    first = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        first.append(_outcome(capsys, argv))
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, 0, 2, 0]
    cli._build_parser.cache_clear()
    assert [_outcome(capsys, argv) for argv in argvs] == first
    assert cli._build_parser.cache_info().misses == 1
