"""Seeded fuzz corpora: mutated copies of the README mesh and traction
examples must give a report, a solver failure, or one `error:` line, never
a traceback."""

import functools
import json
import math
import operator
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from loadcap import cli

# null, booleans, negative and huge numbers, empty values, labels and
# kinds that are wrong where they land
VALUES = [None, True, False, -1, -2.5, -1e300, 1e300, 10**20, "", [], {},
          "gamma0", "gammaT", "gammaX", "bar", "tetrahedron", "quad"]
# for a traction document: null, booleans, strings, objects, non-finite
# numbers, an integer too large for a float, and rows and tables of the
# wrong length (the README mesh has 3 loaded facets in 2D)
TRACTION_VALUES = [None, True, False, "", "1.0", {}, {"facets": []},
                   math.nan, math.inf, -math.inf, 10**400, -1e300, 0.5,
                   [], [1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]] * 4]
N_DOCS = 300


def _readme_example(key: str) -> dict:
    """The README's JSON example that contains key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    return json.loads(next(b for b in blocks if key in b))


def _paths(node, prefix=()):
    """The key or index path of every field of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def mutate(doc: dict, rng: np.random.Generator, values=VALUES) -> dict:
    """Replace or delete one or two fields of doc, in place."""
    for _ in range(rng.integers(1, 3)):
        paths = list(_paths(doc))
        if not paths:  # a traction document without its one key
            break
        path = paths[rng.integers(len(paths))]
        owner = functools.reduce(operator.getitem, path[:-1], doc)
        if rng.random() < 0.25:
            del owner[path[-1]]
        else:
            owner[path[-1]] = values[rng.integers(len(values))]
    return doc


def _check_runs(capsys, argvs, doc, i):
    """Each command exits 0 or 3, or 2 with one `error:` line, and warns
    of nothing."""
    for argv in argvs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        err = capsys.readouterr().err
        where = f"document {i}, {argv[0]}: {json.dumps(doc)}"
        assert not caught, f"{where}: {caught[0].message}"
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_SOLVER), where
        if code == cli.EXIT_INPUT:
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), \
                f"{where}: {err}"


def test_mutated_meshes_fail_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(20261018)
    mesh_path, traction_path = tmp_path / "fuzz.mesh", tmp_path / "fuzz.traction"
    traction_path.write_text('{"facets": [[1.0, 0.0], [0.0, -0.5], [0.25, 0.0]]}')
    for i in range(N_DOCS):
        doc = mutate(_readme_example('"elements"'), rng)
        mesh_path.write_text(json.dumps(doc))
        _check_runs(capsys, (["capacity", str(mesh_path)],
                             ["analyze", str(mesh_path), str(traction_path)]),
                    doc, i)


def test_mutated_tractions_fail_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(20261019)
    mesh_path, traction_path = tmp_path / "fuzz.mesh", tmp_path / "fuzz.traction"
    mesh_path.write_text(json.dumps(_readme_example('"elements"')))
    for i in range(N_DOCS):
        doc = mutate(_readme_example('"facets": [['), rng, TRACTION_VALUES)
        traction_path.write_text(json.dumps(doc))
        _check_runs(capsys, (["analyze", str(mesh_path), str(traction_path)],
                             ["limit", str(mesh_path), str(traction_path)]),
                    doc, i)
