"""The benchmark's tracer wraps `loadcap` functions by name; a rename in
the package would break only traced benchmark runs, so check here that
every name it wraps still resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
