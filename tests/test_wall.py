"""Smoke test of `tools/wall.py` on its smallest cases."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def wall():
    spec = importlib.util.spec_from_file_location("wall", ROOT / "tools" / "wall.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    yield tool
    sys.path.remove(str(ROOT / "bench"))


def test_graded_plate_nodes(wall):
    mesh = wall.graded_plate(0.25)
    xs = sorted({x for x, _ in mesh["nodes"]})
    ys = sorted({y for _, y in mesh["nodes"]})
    assert (xs, ys) == ([0.0, 0.25, 1.0], [0.0, 0.25, 0.75, 1.0])


def test_case_records_result_failure_and_timeout(wall, tmp_path, monkeypatch):
    jobs = dict(wall.write_inputs(tmp_path))
    assert len(jobs) == len(wall.cases())
    # exact plastic K of the graded plate at h = 1e-2 is 3 - h
    run = wall.run_case(ROOT, jobs["capacity exact plastic graded 2x3 h=0.01"],
                        tmp_path)
    assert run["exit"] == 0 and not run["timed_out"]
    assert run["result"] == pytest.approx(2.99, rel=1e-9)
    assert min(run["wall_s"], run["cpu_s"], run["peak_rss_mb"]) > 0
    # the 61 x 125 kinematic LP: 28 crash and 32 drive-out pivots, no
    # phase 1 loop, the walk's phase 2s, and one `lp.solve` for the worst
    # pattern
    assert [run[key] for key in wall.COUNTS] == [61, 125, 60, 0, 783, 1]
    # a failure is recorded with its exit code and first stderr line, and
    # counts no LP
    bad = jobs["capacity exact plastic graded 2x3 h=0.01"][:1] + \
        [str(tmp_path / "missing.mesh")]
    run = wall.run_case(ROOT, bad, tmp_path)
    assert run["exit"] == 2 and run["stderr"].startswith("error:")
    assert run["result"] is None
    assert [run[key] for key in wall.COUNTS] == [0] * len(wall.COUNTS)
    # a timeout is recorded, with no exit code; cut in its first 50 ms, the
    # process has counted no LP: it dies in its imports and writes no
    # counts, or writes zeros
    monkeypatch.setattr(wall, "TIMEOUT_S", 0.05)
    run = wall.run_case(ROOT, jobs["analyze elastic 24x24 end tension"], tmp_path)
    assert run["timed_out"] and run["exit"] is None and run["result"] is None
    counts = [run[key] for key in wall.COUNTS]
    assert counts in ([None] * len(counts), [0] * len(counts))


HANGING_CLI = """
import time
from loadcap import lp


def main(argv):
    lp.solve(lp.LPStandardForm([1.0, -1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0]))
    time.sleep(600)
"""


def test_timeout_keeps_the_counts(wall, tmp_path, monkeypatch):
    # a CLI that solves one LP and then hangs: the timeout's SIGTERM makes
    # it write what it counted (1 x 3, no crash pivot and no phase 1 loop,
    # for the slack starts basic, and 1 phase-2 pivot)
    package = tmp_path / "src" / "loadcap"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "lp.py").write_text((ROOT / "src" / "loadcap" / "lp.py").read_text())
    (package / "cli.py").write_text(HANGING_CLI)
    monkeypatch.setattr(wall, "TIMEOUT_S", 3.0)
    run = wall.run_case(tmp_path, ["analyze"], tmp_path)
    assert run["timed_out"] and run["exit"] is None and run["stderr"] == ""
    assert [run[key] for key in wall.COUNTS] == [1, 3, 0, 0, 1, 1]


def test_counts_of_a_known_solve(wall, tmp_path):
    # the plastic 16x16 plate's box LP: 1,040 crash pivots, no phase 1
    # loop, and one `lp.solve`
    jobs = dict(wall.write_inputs(tmp_path))
    run = wall.run_case(ROOT, jobs["analyze plastic 16x16 end tension"], tmp_path)
    assert run["exit"] == 0
    assert (run["crash_pivots"], run["phase1_pivots"], run["solves"]) == (1040, 0, 1)


def test_record_of_both_trees(wall, tmp_path, monkeypatch):
    # the smallest case, twice on each side: every run is recorded
    case = [c for c in wall.cases() if c[0].startswith("capacity exact elastic")][:1]
    monkeypatch.setattr(wall, "cases", lambda: case)
    monkeypatch.setattr(wall, "ROUNDS", 2)
    out = tmp_path / "wall.json"
    assert wall.main([str(ROOT), str(out)]) == 0
    doc = json.loads(out.read_text())
    (record,) = doc["cases"]
    assert record["name"] == case[0][0] and record["argv"][1] == "case0.mesh"
    for side in ("this", "reference"):
        assert [run["exit"] for run in record["runs"][side]] == [0, 0]
        assert record["median_wall_s"][side] > 0
