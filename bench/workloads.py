"""Seeded inputs and job lists of the benchmark workloads.

Every mesh is generated here, as the JSON document the `loadcap` CLI reads,
without calling `loadcap`: the checkers in `checks.py` build their own
operators from the same documents.  A job is one CLI command; `make_jobs`
writes its mesh and traction files and returns the jobs of one pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np


@dataclass
class Job:
    """One CLI command and what its report must satisfy."""

    name: str
    command: str                 # analyze | capacity | limit | verify
    argv: list
    mesh: dict
    mode: str = "elastic"
    traction: np.ndarray | None = None
    y0: float | None = None
    # analytic values: "sigma_opt" (analyze, limit) or "K" (capacity)
    expect: dict = field(default_factory=dict)
    # sigma_opt / |t|_inf of the end-tension load, a lower bound on K
    end_tension_ratio: float | None = None
    # name of the analyze job with the same mesh, traction and mode
    same_as: str | None = None
    # the one job that fails today, on inputs that never depend on the seed
    expect_failure: bool = False


# ---------------------------------------------------------------- meshes

def bar_mesh(n: int, length: float = 1.0, area: float = 1.0) -> dict:
    """Chain of n bars on [0, length], clamped at x=0, loaded at x=length."""
    return {"dim": 1,
            "nodes": [[length * i / n] for i in range(n + 1)],
            "elements": [{"kind": "bar", "nodes": [i, i + 1], "area": area}
                         for i in range(n)],
            "facets": [{"nodes": [0], "label": "gamma0"},
                       {"nodes": [n], "label": "gammaT"}]}


def rect_mesh(nx: int, ny: int, width: float = 1.0, height: float = 1.0) -> dict:
    """Two triangles per cell, left edge clamped, every other edge loaded."""
    def nid(i, j):
        return j * (nx + 1) + i

    nodes = [[width * i / nx, height * j / ny]
             for j in range(ny + 1) for i in range(nx + 1)]
    elements = []
    for j in range(ny):
        for i in range(nx):
            a, b, c, d = nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)
            elements += [{"kind": "triangle", "nodes": [a, b, c]},
                         {"kind": "triangle", "nodes": [a, c, d]}]
    left = [[nid(0, j), nid(0, j + 1)] for j in range(ny)]
    loaded = ([[nid(nx, j), nid(nx, j + 1)] for j in range(ny)]
              + [[nid(i, 0), nid(i + 1, 0)] for i in range(nx)]
              + [[nid(i, ny), nid(i + 1, ny)] for i in range(nx)])
    return {"dim": 2, "nodes": nodes, "elements": elements,
            "facets": ([{"nodes": f, "label": "gamma0"} for f in left]
                       + [{"nodes": f, "label": "gammaT"} for f in loaded])}


def box_mesh(nx: int, ny: int, nz: int) -> dict:
    """Unit cubes cut into six tetrahedra each (Kuhn triangulation), face
    x=0 clamped, every other boundary face loaded."""
    def nid(i, j, k):
        return (k * (ny + 1) + j) * (nx + 1) + i

    nodes = [[float(i), float(j), float(k)] for k in range(nz + 1)
             for j in range(ny + 1) for i in range(nx + 1)]
    elements = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                for perm in permutations(range(3)):
                    corner = [i, j, k]
                    tet = [nid(*corner)]
                    for axis in perm:
                        corner[axis] += 1
                        tet.append(nid(*corner))
                    elements.append({"kind": "tetrahedron", "nodes": tet})
    faces = {}
    for el in elements:
        n = el["nodes"]
        for face in ((n[0], n[1], n[2]), (n[0], n[1], n[3]),
                     (n[0], n[2], n[3]), (n[1], n[2], n[3])):
            key = tuple(sorted(face))
            faces[key] = faces.get(key, 0) + 1
    boundary = sorted(f for f, count in faces.items() if count == 1)
    xs = np.array(nodes)[:, 0]
    return {"dim": 3, "nodes": nodes, "elements": elements,
            "facets": [{"nodes": list(f),
                        "label": "gamma0" if np.all(xs[list(f)] == 0.0) else "gammaT"}
                       for f in boundary]}


def two_tet_mesh() -> dict:
    """Two tetrahedra sharing a face; the faces around node 0 are clamped,
    the faces around node 4 loaded."""
    return {"dim": 3,
            "nodes": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
            "elements": [{"kind": "tetrahedron", "nodes": [0, 1, 2, 3]},
                         {"kind": "tetrahedron", "nodes": [1, 2, 3, 4]}],
            "facets": [{"nodes": [0, 1, 2], "label": "gamma0"},
                       {"nodes": [0, 1, 3], "label": "gamma0"},
                       {"nodes": [0, 2, 3], "label": "gamma0"},
                       {"nodes": [1, 2, 4], "label": "gammaT"},
                       {"nodes": [1, 3, 4], "label": "gammaT"},
                       {"nodes": [2, 3, 4], "label": "gammaT"}]}


def loaded_facets(mesh: dict) -> list:
    return [f["nodes"] for f in mesh["facets"] if f["label"] == "gammaT"]


def end_tension(mesh: dict) -> np.ndarray:
    """Unit x-traction on the loaded facets of the face x = max x, zero on
    the other loaded facets."""
    xs = np.array(mesh["nodes"], dtype=float)[:, 0]
    facets = loaded_facets(mesh)
    t = np.zeros((len(facets), mesh["dim"]))
    for row, nodes in zip(t, facets):
        if np.all(xs[nodes] == xs.max()):
            row[0] = 1.0
    return t


def random_traction(mesh: dict, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(len(loaded_facets(mesh)), mesh["dim"]))


# ------------------------------------------------------------ job lists

class _JobWriter:
    def __init__(self, workdir: Path):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.jobs = []

    def _write(self, name: str, doc) -> str:
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def add(self, name, command, mesh, *, mode="elastic", traction=None,
            extra=(), **fields) -> Job:
        stem = name.replace(" ", "_")
        argv = [command, self._write(stem + ".mesh", mesh)]
        if traction is not None:
            argv.append(self._write(stem + ".traction",
                                    {"facets": traction.tolist()}))
        if command in ("analyze", "capacity"):
            argv += ["--mode", mode]
        argv += list(extra)
        job = Job(name=name, command=command, argv=argv, mesh=mesh, mode=mode,
                  traction=traction, **fields)
        self.jobs.append(job)
        return job


def _ladder(w: _JobWriter, rng):
    for n in (1, 8, 64):
        mesh = bar_mesh(n)
        w.add(f"analyze bar{n}", "analyze", mesh, traction=end_tension(mesh),
              expect={"sigma_opt": 1.0})
    for mode, sizes, value in (("elastic", range(1, 5), 1.0),
                               ("plastic", range(1, 6), 0.5)):
        for n in sizes:
            mesh = rect_mesh(n, n)
            w.add(f"analyze rect{n}x{n} {mode}", "analyze", mesh, mode=mode,
                  traction=end_tension(mesh), expect={"sigma_opt": value},
                  expect_failure=(mode, n) == ("elastic", 4))
    mesh = box_mesh(2, 1, 1)
    w.add("analyze box2x1x1 elastic", "analyze", mesh,
          traction=end_tension(mesh), expect={"sigma_opt": 1.0})
    _cross_layer_jobs(w, "limit", "capacity")


def _capacity(w: _JobWriter, rng):
    # every job here takes under 2 s, so that a 30 s run repeats each one
    # several times; the 2x2 plate (4,096 LPs, about 16 s) is left out
    for name, mesh, mode, end_ratio, expect in (
            ("bar8", bar_mesh(8), "elastic", 1.0, {"K": 1.0}),
            ("rect1x1", rect_mesh(1, 1), "elastic", 1.0, {}),
            ("rect1x2", rect_mesh(1, 2), "elastic", 1.0, {}),
            ("rect2x1", rect_mesh(2, 1), "elastic", 1.0, {}),
            ("rect1x2", rect_mesh(1, 2), "plastic", 0.5, {}),
            ("twotet", two_tet_mesh(), "elastic", None, {}),
            ("twotet", two_tet_mesh(), "plastic", None, {})):
        w.add(f"capacity {name} {mode}", "capacity", mesh, mode=mode,
              end_tension_ratio=end_ratio, expect=expect)
    # 24 boundary components: past the exact-enumeration cap
    w.add("capacity rect3x3 elastic auto", "capacity", rect_mesh(3, 3),
          extra=["--method", "auto"])
    _cross_layer_jobs(w, "limit")


def _commands(w: _JobWriter, rng):
    for nx, ny in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)):
        mesh = rect_mesh(nx, ny)
        w.add(f"analyze rect{nx}x{ny} elastic", "analyze", mesh,
              traction=random_traction(mesh, rng))
    for n in (2, 3, 4):
        mesh = rect_mesh(n, n)
        t = random_traction(mesh, rng)
        plastic = w.add(f"analyze rect{n}x{n} plastic", "analyze", mesh,
                        mode="plastic", traction=t)
        y0 = float(rng.uniform(0.5, 2.0))
        w.add(f"limit rect{n}x{n}", "limit", mesh, mode="plastic", traction=t,
              y0=y0, same_as=plastic.name, extra=["--y0", repr(y0)])
    for n in (2, 3):
        w.add(f"verify rect{n}x{n}", "verify", rect_mesh(n, n),
              extra=["--trials", "5", "--seed", str(int(rng.integers(1 << 30)))])
    _cross_layer_jobs(w, "capacity")


def _cross_layer_jobs(w: _JobWriter, *commands):
    """`limit` and/or `capacity` on the 1x1 plate: small jobs that enter the
    layers a workload's own jobs leave alone, so that no per-layer time is
    a structural zero."""
    mesh = rect_mesh(1, 1)
    if "limit" in commands:
        w.add("limit rect1x1 end tension", "limit", mesh, mode="plastic",
              traction=end_tension(mesh), y0=1.0, expect={"sigma_opt": 0.5},
              extra=["--y0", "1.0"])
    if "capacity" in commands:
        w.add("capacity rect1x1 elastic", "capacity", mesh, end_tension_ratio=1.0)


_BUILDERS = {"ladder": _ladder, "capacity": _capacity, "commands": _commands}
WORKLOADS = tuple(_BUILDERS)


def make_jobs(workload: str, seed: int, workdir) -> list:
    """Write the inputs of one pass of `workload` under `workdir` and return
    its jobs.  The seed draws the random tractions, yield stresses and
    verify seeds of `commands`, and the job order of every workload; the
    meshes and the loads of `ladder` and `capacity` never depend on it."""
    rng = np.random.default_rng(seed)
    writer = _JobWriter(workdir)
    _BUILDERS[workload](writer, rng)
    jobs = writer.jobs
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def warmup_jobs(workdir) -> list:
    """Tiny jobs of every command, run before timing starts."""
    writer = _JobWriter(workdir)
    bar, square = bar_mesh(1), rect_mesh(1, 1)
    writer.add("analyze bar1", "analyze", bar, traction=end_tension(bar),
               expect={"sigma_opt": 1.0})
    for mode, value in (("elastic", 1.0), ("plastic", 0.5)):
        writer.add(f"analyze rect1x1 {mode}", "analyze", square, mode=mode,
                   traction=end_tension(square), expect={"sigma_opt": value})
    writer.add("capacity bar1 elastic", "capacity", bar, expect={"K": 1.0},
               end_tension_ratio=1.0)
    writer.add("limit rect1x1", "limit", square, mode="plastic",
               traction=end_tension(square), y0=1.0, expect={"sigma_opt": 0.5},
               extra=["--y0", "1.0"])
    writer.add("verify rect1x1", "verify", square, extra=["--trials", "1"])
    return writer.jobs
