"""Smoke test of `tools/same_reports.py` on the warm-up jobs."""

import importlib.util
import math
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "same_reports", ROOT / "tools" / "same_reports.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_same_checkout_same_reports(tmp_path):
    tool = load_tool()
    assert tool.differing(ROOT, ROOT, tool.warmup(tmp_path)) == []


def test_each_checkout_runs_its_own_code(tmp_path):
    # a copy whose version string differs gives other stdout on every job
    tool = load_tool()
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "loadcap", other / "src" / "loadcap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = other / "src" / "loadcap" / "__init__.py"
    init.write_text(init.read_text().replace('"0.1.0"', '"0.1.0+other"'))
    jobs = tool.warmup(tmp_path / "jobs")
    assert tool.differing(ROOT, other, jobs) == [(name, ["stdout"], [])
                                                 for name, _ in jobs]


def test_moved_numbers_are_named(tmp_path):
    # a copy whose `analyze` reports sigma_opt one ulp above the optimum
    tool = load_tool()
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "loadcap", other / "src" / "loadcap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "src" / "loadcap" / "cli.py"
    text = cli.read_text()
    assert text.count('"sigma_opt": result.sigma_opt,') == 2  # analyze, limit
    cli.write_text(text.replace('"sigma_opt": result.sigma_opt,',
                                '"sigma_opt": float(np.nextafter(result.sigma_opt, np.inf)),',
                                1))
    jobs = tool.warmup(tmp_path / "jobs")
    found = tool.differing(ROOT, other, jobs)
    assert [name for name, *_ in found] == [name for name, _ in jobs
                                            if name.startswith("warm-up: analyze")]
    for _, parts, moved in found:
        assert parts == ["stdout"]
        ((field, base, new),) = moved
        assert field == "sigma_opt" and new == math.nextafter(base, math.inf)
