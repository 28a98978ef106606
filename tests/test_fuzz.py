"""Seeded fuzz corpus: mutated copies of the README mesh example must give
a report, a solver failure, or one `error:` line, never a traceback."""

import functools
import json
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
N_DOCS = 300


def _readme_mesh() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    return json.loads(next(b for b in blocks if '"elements"' in b))


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


def mutate(doc: dict, rng: np.random.Generator) -> dict:
    """Replace or delete one or two fields of doc, in place."""
    for _ in range(rng.integers(1, 3)):
        paths = list(_paths(doc))
        path = paths[rng.integers(len(paths))]
        owner = functools.reduce(operator.getitem, path[:-1], doc)
        if rng.random() < 0.25:
            del owner[path[-1]]
        else:
            owner[path[-1]] = VALUES[rng.integers(len(VALUES))]
    return doc


def test_mutated_meshes_fail_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(20261018)
    mesh_path, traction_path = tmp_path / "fuzz.mesh", tmp_path / "fuzz.traction"
    traction_path.write_text('{"facets": [[1.0, 0.0], [0.0, -0.5], [0.25, 0.0]]}')
    for i in range(N_DOCS):
        doc = mutate(_readme_mesh(), rng)
        mesh_path.write_text(json.dumps(doc))
        for argv in (["capacity", str(mesh_path)],
                     ["analyze", str(mesh_path), str(traction_path)]):
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
