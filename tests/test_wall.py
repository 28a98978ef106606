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
    # a failure is recorded with its exit code and first stderr line
    bad = jobs["capacity exact plastic graded 2x3 h=0.01"][:1] + \
        [str(tmp_path / "missing.mesh")]
    run = wall.run_case(ROOT, bad, tmp_path)
    assert run["exit"] == 2 and run["stderr"].startswith("error:")
    assert run["result"] is None
    # a timeout is recorded, with no exit code
    monkeypatch.setattr(wall, "TIMEOUT_S", 0.05)
    run = wall.run_case(ROOT, jobs["analyze elastic 24x24 end tension"], tmp_path)
    assert run["timed_out"] and run["exit"] is None and run["result"] is None


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
