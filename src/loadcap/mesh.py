"""Discrete body geometries: nodes, simplex elements and a labeled boundary.

The boundary facets are partitioned into a supported part (label gamma0,
displacement clamped to zero) and a loadable part (label gammaT).  Facets
with no applied load are still labeled gammaT and carry zero traction.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

GAMMA0 = "gamma0"
GAMMAT = "gammaT"

# the element kind of dim 1, 2 and 3
KINDS = ("bar", "triangle", "tetrahedron")

# for each dim, the local node numbers of a simplex's faces, and the ends
# of its edges, pairs (0, k) first
_FACES = {d: np.array(list(combinations(range(d + 1), d))) for d in (1, 2, 3)}
_EDGE_ENDS = {d: np.array(list(combinations(range(d + 1), 2))).T for d in (1, 2, 3)}


class MeshError(ValueError):
    """Invalid mesh construction or file contents."""


def is_number(value) -> bool:
    """Whether value is a real number and not a bool: JSON's true is not 1
    here, although float() and operator.index read it as 1.  JSON's
    numbers are exactly int or float, which are tested first."""
    if type(value) is float or type(value) is int:
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _node_ids(nodes) -> list:
    """Node ids as ints; 1.5, "x" or true is an error, not a conversion."""
    if all(type(n) is int for n in nodes):
        return nodes
    try:
        if all(is_number(n) for n in nodes):
            return [operator.index(n) for n in nodes]
    except TypeError:
        pass
    raise MeshError(f"node ids must be integers, got {list(nodes)!r}")


def Element(kind, nodes, area=None) -> dict:
    """An element record of the mesh file, for `Mesh`'s record form."""
    return {"kind": kind, "nodes": nodes, "area": area}


def Facet(nodes, label) -> dict:
    """A facet record of the mesh file, for `Mesh`'s record form."""
    return {"nodes": nodes, "label": label}


def _from_records(dim: int, elements, facets) -> tuple:
    """The element, facet, gamma0 and bar area arrays of the mesh file's
    element and facet records, each record checked in turn."""
    kind, conn, areas = KINDS[dim - 1], [], []
    for i, rec in enumerate(elements):
        for key in ("kind", "nodes"):
            if key not in rec:
                raise MeshError(f"element {i} missing key {key!r}")
        if rec["kind"] != kind:
            if rec["kind"] not in KINDS:
                raise MeshError(f"unknown element kind {rec['kind']!r}")
            raise MeshError(f"element {i} kind {rec['kind']} does not match dim {dim}")
        if len(rec["nodes"]) != dim + 1:
            raise MeshError(f"element {i}: {kind} needs {dim + 1} nodes, "
                            f"got {len(rec['nodes'])}")
        conn.append(_node_ids(rec["nodes"]))
        areas.append(rec.get("area"))  # read for bars only
        if dim == 1 and not is_number(areas[-1]):
            raise MeshError("bar element needs a positive, finite cross-section area")
    fnodes, gamma0 = [], []
    for i, rec in enumerate(facets):
        for key in ("nodes", "label"):
            if key not in rec:
                raise MeshError(f"facet {i} missing key {key!r}")
        if rec["label"] not in (GAMMA0, GAMMAT):
            raise MeshError(f"unknown facet label {rec['label']!r}; "
                            f"allowed: {GAMMA0}, {GAMMAT}")
        fnodes.append(_node_ids(rec["nodes"]))
        if len(fnodes[-1]) != dim:
            raise MeshError(f"facet {i} has {len(fnodes[-1])} nodes, expected {dim}")
        gamma0.append(rec["label"] == GAMMA0)
    return (np.array(conn, dtype=int).reshape(-1, dim + 1),
            np.array(fnodes, dtype=int).reshape(-1, dim), np.array(gamma0, dtype=bool),
            np.array(areas, dtype=float) if dim == 1 else None)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Nodes, simplex elements and labeled boundary facets, as arrays:
    nodes (n_nodes, dim) coordinates; elements (n_el, dim + 1) and facets
    (n_facets, dim) node ids; gamma0, which facets are supported (the
    others are gammaT); and, in 1D only, the bars' cross-section areas.

    Record form: with gamma0 left out, elements and facets are the mesh
    file's records, dicts as `Element` and `Facet` build them, each
    checked as `read_mesh` checks it, and become the arrays."""

    dim: int
    nodes: np.ndarray = field(repr=False)
    elements: np.ndarray = field(default=(), repr=False)
    facets: np.ndarray = field(default=(), repr=False)
    gamma0: np.ndarray | None = field(default=None, repr=False)
    areas: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        dim = self.dim
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != dim:
            raise MeshError(f"nodes must have shape (n, {dim})")
        bad = np.flatnonzero(~np.isfinite(nodes).all(axis=1))
        if bad.size:
            raise MeshError(f"node {bad[0]} has a non-finite coordinate")
        elements, facets, gamma0, areas = (
            _from_records(dim, self.elements, self.facets) if self.gamma0 is None
            else (self.elements, self.facets, np.asarray(self.gamma0), self.areas))
        for name, ids, width in (("elements", elements, dim + 1), ("facets", facets, dim)):
            ids = np.asarray(ids) if len(ids) else np.zeros((0, width), dtype=int)
            if ids.dtype.kind not in "iu" or ids.ndim != 2 or ids.shape[1] != width:
                raise MeshError(f"{name} must be an integer array of shape (n, {width})")
            object.__setattr__(self, name, ids.astype(int, copy=False))
        if gamma0.dtype != bool or gamma0.shape != (len(self.facets),):
            raise MeshError("gamma0 must be a boolean array, one entry per facet")
        if dim == 1:
            areas = np.asarray(areas, dtype=float)
            if areas.shape != (len(self.elements),) or not np.all(
                    (areas > 0.0) & (areas < math.inf)):
                raise MeshError("bar element needs a positive, finite cross-section area")
        elif areas is not None:
            raise MeshError("only bars have a cross-section area")
        for name, value in (("nodes", nodes), ("gamma0", gamma0), ("areas", areas)):
            object.__setattr__(self, name, value)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def element_measures(edges: np.ndarray) -> np.ndarray:
    """Length, area or volume (sign stripped) of each simplex element whose
    edge vectors from its first node are edges[e, k] = p_(k+1) - p_0, an
    (n_el, dim, dim) array; a bar's is its length, not times its area."""
    dim = edges.shape[-1]
    if dim == 1:  # det is sign * exp(log|det|), inexact even for a 1x1
        return np.abs(edges[:, 0, 0])
    return np.abs(np.linalg.det(edges)) / math.factorial(dim)


def facet_measures(mesh: Mesh, fnodes: np.ndarray) -> np.ndarray:
    """Measures of the boundary facets of a valid mesh with node ids fnodes,
    an (n_facets, dim) array.  In 1D a facet is a single node; its measure is
    the cross-section area of its bar, so boundary integrals carry force units."""
    if mesh.dim == 1:  # a boundary node of a valid mesh is in one bar only
        area_at = np.zeros(mesh.n_nodes)
        area_at[mesh.elements] = mesh.areas[:, None]
        return area_at[fnodes[:, 0]]
    pts = mesh.nodes[fnodes]
    # a facet's edge, or twice its area vector; vecdot is the dot product
    # that np.linalg.norm takes of a single vector
    normal = (pts[:, 1] - pts[:, 0] if mesh.dim == 2
              else np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]))
    return np.sqrt(np.vecdot(normal, normal)) / (mesh.dim - 1.0)


def _node_sets(rows: np.ndarray) -> np.ndarray:
    """Rows of node ids sorted, a repeated id replaced by the row's largest:
    two rows get equal keys exactly when they have the same set of nodes."""
    keys = np.sort(rows, axis=1)
    repeated = keys[:, 1:] == keys[:, :-1]
    if repeated.any():
        keys[:, 1:] = np.where(repeated, keys[:, -1:], keys[:, 1:])
    return keys


def validate(mesh: Mesh):
    """Return a list of invariant violations; empty for a valid mesh."""
    n, dim, elements, facets = mesh.n_nodes, mesh.dim, mesh.elements, mesh.facets
    n_el, n_slots = len(elements), elements.size
    inside = (elements >= 0) & (elements < n)
    out = ~inside.all(axis=1)
    good = (~out).nonzero()[0]
    pts = mesh.nodes[elements[good]]
    a, b = _EDGE_ENDS[dim]
    sides = pts[:, b] - pts[:, a]
    # |det| of the edge vectors at most 1e-14 longest^dim, a rule that
    # does not depend on the length unit; as dim-th roots and with hypot,
    # which do not overflow
    longest = np.hypot.reduce(np.abs(sides), axis=2).max(axis=1)
    size = (element_measures(sides[:, :dim]) * math.factorial(dim)) ** (1 / dim)
    flat = np.zeros(n_el, dtype=bool)
    flat[good[size <= 1e-14 ** (1 / dim) * longest]] = True
    problems = [f"element {i} references node out of range" if out[i]
                else f"element {i} has zero measure" for i in (out | flat).nonzero()[0]]
    used = np.zeros(n, dtype=bool)
    used[elements[inside]] = True  # the nodes of an element out of range too
    if not used.all():
        problems.append(f"node {np.argmin(used)} is not a node of any element")
    # the faces of every element, one slot each, then the facets, grouped
    # by node set; the stable sort puts a group's slots first, by element
    keys = _node_sets(np.concatenate([elements.take(_FACES[dim], axis=1)
                                      .reshape(-1, dim), facets]))
    order = np.lexsort(keys.T)
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    group = np.empty(len(keys), dtype=int)
    group[order] = new.cumsum() - 1
    first = new.nonzero()[0]
    owners = np.bincount(group[:n_slots], minlength=len(first))
    count = owners[group[n_slots:]]
    f_out = ((facets < 0) | (facets >= n)).any(axis=1)
    for i in (f_out | (count != 1)).nonzero()[0]:
        problems.append(f"facet {i} references node out of range" if f_out[i] else
                        f"facet {i} is a face of {count[i]} elements (must be exactly 1)")
    # a P1 element is held iff it reaches a supported element through shared faces
    owner, first, owners = (order // (dim + 1)).tolist(), first.tolist(), owners.tolist()
    faces = group[:n_slots].reshape(n_el, dim + 1).tolist()
    held, stack = [False] * n_el, []
    todo = group[n_slots:][mesh.gamma0].tolist()  # the supported faces
    while True:
        for g in todo:
            for j in owner[first[g]:first[g] + owners[g]]:
                if not held[j]:
                    held[j] = True
                    stack.append(j)
        if not stack:
            break
        todo = faces[stack.pop()]
    n_loose = held.count(False)
    if 0 < n_loose < n_el:
        problems.append(
            f"element {held.index(False)} is not connected to gamma0 through shared "
            f"faces ({n_loose} loose elements)")
    n_supported = np.count_nonzero(mesh.gamma0)
    if n_supported == 0:
        problems.append("gamma0 is empty")
    if n_supported == len(facets):
        problems.append("gammaT is empty")
    # a facet whose group has an earlier facet
    for i in np.sort(order[1:][~new[1:] & (order[:-1] >= n_slots)]):
        problems.append(f"facet {i - n_slots} duplicates another facet")
    return problems


def generate_bar(length: float, area: float, n_elements: int) -> Mesh:
    """Uniform 1D chain of bar elements, clamped left end, loaded right end."""
    if length <= 0 or area <= 0:
        raise MeshError("length and area must be positive")
    if n_elements < 1:
        raise MeshError("n_elements must be at least 1")
    xs = np.linspace(0.0, length, n_elements + 1).reshape(-1, 1)
    return Mesh(1, xs, np.arange(n_elements)[:, None] + [0, 1], [[0], [n_elements]],
                np.array([True, False]), np.full(n_elements, float(area)))


_EDGES = ("left", "right", "bottom", "top")


def generate_rectangle(width, height, nx, ny, support_edge, load_edge) -> Mesh:
    """Structured triangulation of a rectangle, two triangles per cell.

    Facets on support_edge are labeled gamma0, all other boundary facets
    gammaT (traction-free ones carry zero load).
    """
    if width <= 0 or height <= 0:
        raise MeshError("width and height must be positive")
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be at least 1")
    for name, edge in (("support_edge", support_edge), ("load_edge", load_edge)):
        if edge not in _EDGES:
            raise MeshError(f"{name} must be one of {', '.join(_EDGES)}")
    if support_edge == load_edge:
        raise MeshError("support_edge and load_edge must differ")

    grid = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)  # [j, i]
    nodes = np.column_stack([np.tile(np.arange(nx + 1) * width / nx, ny + 1),
                             np.repeat(np.arange(ny + 1) * height / ny, nx + 1)])
    # cell (i, j) with corners a, b, c, d counterclockwise from its lower left
    a, b, c, d = grid[:-1, :-1], grid[:-1, 1:], grid[1:, 1:], grid[1:, :-1]
    elements = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    sides = [grid[:, 0], grid[:, nx], grid[0], grid[ny]]  # in _EDGES's order
    facets = np.concatenate([np.stack([s[:-1], s[1:]], axis=1) for s in sides])
    gamma0 = np.repeat([edge == support_edge for edge in _EDGES],
                       [len(s) - 1 for s in sides])
    return Mesh(2, nodes, elements, facets, gamma0)


def write_mesh(mesh: Mesh, path):
    """Serialize to the textual mesh format with full binary64 precision."""
    elements = [{"kind": KINDS[mesh.dim - 1], "nodes": nodes}
                for nodes in mesh.elements.tolist()]
    for rec, area in zip(elements, [] if mesh.areas is None else mesh.areas.tolist()):
        rec["area"] = area
    doc = {
        "dim": mesh.dim,
        "nodes": mesh.nodes.tolist(),
        "elements": elements,
        "facets": [{"nodes": nodes, "label": GAMMA0 if supported else GAMMAT}
                   for nodes, supported in zip(mesh.facets.tolist(),
                                               mesh.gamma0.tolist())],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_mesh(path) -> Mesh:
    """Parse a mesh file; raises MeshError with a field diagnostic on bad input."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON's encoding
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MeshError(f"cannot parse mesh file {path}: {exc}") from exc
    try:
        return _mesh_from_doc(doc)
    except MeshError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # a field of the wrong type, such as a number where a list belongs,
        # or an integer too large for a float
        raise MeshError(f"malformed mesh file {path}: {exc}") from None


def _mesh_from_doc(doc) -> Mesh:
    for key in ("dim", "nodes", "elements", "facets"):
        if key not in doc:
            raise MeshError(f"mesh file missing required key {key!r}")
    dim = doc["dim"]
    if type(dim) is not int or dim not in (1, 2, 3):
        raise MeshError(f"dim must be 1, 2 or 3, got {dim!r}")
    for i, row in enumerate(doc["nodes"]):
        if len(row) != dim:
            raise MeshError(f"node {i} has {len(row)} coordinates; dim is {dim}")
        if not all(is_number(x) for x in row):
            raise MeshError(f"node {i} has a coordinate that is not a number: {row!r}")
    return Mesh(dim, np.array(doc["nodes"], dtype=float), doc["elements"],
                doc["facets"])
