"""The benchmark's tracer wraps `loadcap` functions by name; a rename in
the package would break only traced benchmark runs, so check here that
every name it wraps still resolves, and that the package calls it."""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
# traced, but called only by the tests and the benchmark's own checks;
# this list may shrink, and no name may join it
BENCH_ONLY = {"stress.optimal_stress_primal", "capacity.generalized_K_dual_check",
              "capacity.kinematic_limit_check", "stress.check_equilibrium"}


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize("span,target", sorted(_traced().items()))
def test_traced_name_resolves(span, target):
    module, attr = target
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


@functools.cache
def _called_names() -> set:
    """The name of every function or method that `src/loadcap` calls."""
    names = set()
    for path in (ROOT / "src" / "loadcap").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                names.add(func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
    return names


@pytest.mark.parametrize("span,target", sorted(_traced().items()))
def test_traced_name_has_a_caller(span, target):
    called = target[1].split(".")[-1] in _called_names()
    assert called or span in BENCH_ONLY, f"{span}: no caller in src/loadcap"


def test_bench_only_names_are_traced():
    assert BENCH_ONLY <= set(_traced())
