"""Discrete body geometries: nodes, simplex elements and a labeled boundary.

The boundary facets are partitioned into a supported part (label gamma0,
displacement clamped to zero) and a loadable part (label gammaT).  Facets
with no applied load are still labeled gammaT and carry zero traction.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

GAMMA0 = "gamma0"
GAMMAT = "gammaT"
LABELS = (GAMMA0, GAMMAT)

BAR = "bar"
TRIANGLE = "triangle"
TETRAHEDRON = "tetrahedron"
KINDS = (BAR, TRIANGLE, TETRAHEDRON)

_KIND_NNODES = {BAR: 2, TRIANGLE: 3, TETRAHEDRON: 4}
_KIND_DIM = {BAR: 1, TRIANGLE: 2, TETRAHEDRON: 3}


class MeshError(ValueError):
    """Invalid mesh construction or file contents."""


def _node_ids(nodes) -> tuple:
    """Node ids as ints; 1.5 or "x" is an error, not a truncation."""
    try:
        return tuple(operator.index(n) for n in nodes)
    except TypeError:
        raise MeshError(f"node ids must be integers, got {list(nodes)!r}") from None


@dataclass(frozen=True)
class Element:
    kind: str
    nodes: tuple
    area: float | None = None  # bar cross-section only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MeshError(f"unknown element kind {self.kind!r}")
        if len(self.nodes) != _KIND_NNODES[self.kind]:
            raise MeshError(
                f"{self.kind} needs {_KIND_NNODES[self.kind]} nodes, got {len(self.nodes)}")
        object.__setattr__(self, "nodes", _node_ids(self.nodes))
        if self.kind == BAR and (self.area is None or self.area <= 0):
            raise MeshError("bar element needs a positive cross-section area")


@dataclass(frozen=True)
class Facet:
    nodes: tuple
    label: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise MeshError(
                f"unknown facet label {self.label!r}; allowed: {', '.join(LABELS)}")
        object.__setattr__(self, "nodes", _node_ids(self.nodes))


@dataclass(frozen=True)
class Mesh:
    dim: int
    nodes: np.ndarray = field(repr=False)  # (n_nodes, dim)
    elements: tuple = ()
    facets: tuple = ()

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != self.dim:
            raise MeshError(f"nodes must have shape (n, {self.dim})")
        bad = np.flatnonzero(~np.isfinite(nodes).all(axis=1))
        if bad.size:
            raise MeshError(f"node {bad[0]} has a non-finite coordinate")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "facets", tuple(self.facets))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def facets_labeled(self, label: str):
        return [f for f in self.facets if f.label == label]

    def __eq__(self, other):
        if not isinstance(other, Mesh):
            return NotImplemented
        return (self.dim == other.dim
                and self.nodes.shape == other.nodes.shape
                and bool(np.all(self.nodes == other.nodes))
                and self.elements == other.elements
                and self.facets == other.facets)


def element_measure(mesh: Mesh, elem: Element) -> float:
    """Length / area / volume of an element (sign stripped)."""
    pts = mesh.nodes[list(elem.nodes)]
    if elem.kind == BAR:
        return float(np.linalg.norm(pts[1] - pts[0]))
    edges = pts[1:] - pts[0]
    det = np.linalg.det(edges)
    if elem.kind == TRIANGLE:
        return abs(det) / 2.0
    return abs(det) / 6.0


def element_faces(elem: Element):
    """Node sets of the boundary faces of an element."""
    n = elem.nodes
    if elem.kind == BAR:
        return [frozenset([n[0]]), frozenset([n[1]])]
    if elem.kind == TRIANGLE:
        return [frozenset([n[0], n[1]]), frozenset([n[1], n[2]]),
                frozenset([n[0], n[2]])]
    return [frozenset(n[:3]), frozenset((n[0], n[1], n[3])),
            frozenset((n[1], n[2], n[3])), frozenset((n[0], n[2], n[3]))]


def facet_measure(mesh: Mesh, facet: Facet) -> float:
    """Measure of a boundary facet.

    In 1D a facet is a single node; its measure is the cross-section area
    of the incident bar, so boundary integrals carry force units.
    """
    pts = mesh.nodes[list(facet.nodes)]
    if len(facet.nodes) == 1:
        node = facet.nodes[0]
        for e in mesh.elements:
            if e.kind == BAR and node in e.nodes:
                return float(e.area)
        raise MeshError(f"facet node {node} not attached to any bar")
    if len(facet.nodes) == 2:
        return float(np.linalg.norm(pts[1] - pts[0]))
    return float(np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0])) / 2.0)


def validate(mesh: Mesh):
    """Return a list of invariant violations; empty for a valid mesh."""
    problems = []
    n = mesh.n_nodes
    coords = mesh.nodes.tolist()
    for i, e in enumerate(mesh.elements):
        if any(k < 0 or k >= n for k in e.nodes):
            problems.append(f"element {i} references node out of range")
            continue
        if _KIND_DIM[e.kind] != mesh.dim:
            problems.append(f"element {i} kind {e.kind} does not match dim {mesh.dim}")
            continue
        # |det| of the edge vectors at most 1e-14 longest^dim, a rule that
        # does not depend on the length unit; as dim-th roots, which do not
        # overflow
        longest = max(math.dist(coords[a], coords[b])
                      for a, b in combinations(e.nodes, 2))
        size = (element_measure(mesh, e) * math.factorial(mesh.dim)) ** (1 / mesh.dim)
        if size <= 1e-14 ** (1 / mesh.dim) * longest:
            problems.append(f"element {i} has zero measure")
    owners = {}  # face node set -> elements that have it as a face
    for i, e in enumerate(mesh.elements):
        for fs in element_faces(e):
            owners.setdefault(fs, []).append(i)
    for i, f in enumerate(mesh.facets):
        if any(k < 0 or k >= n for k in f.nodes):
            problems.append(f"facet {i} references node out of range")
            continue
        if len(f.nodes) != mesh.dim:
            problems.append(f"facet {i} has {len(f.nodes)} nodes, expected {mesh.dim}")
            continue
        cnt = len(owners.get(frozenset(f.nodes), ()))
        if cnt != 1:
            problems.append(
                f"facet {i} is a face of {cnt} elements (must be exactly 1)")
    # a P1 element is held iff it reaches a supported element through shared faces
    held = {i for f in mesh.facets_labeled(GAMMA0)
            for i in owners.get(frozenset(f.nodes), ())}
    stack = list(held)
    while stack:
        for fs in element_faces(mesh.elements[stack.pop()]):
            for j in owners[fs]:
                if j not in held:
                    held.add(j)
                    stack.append(j)
    loose = [i for i in range(len(mesh.elements)) if i not in held]
    if held and loose:
        problems.append(
            f"element {loose[0]} is not connected to gamma0 through shared "
            f"faces ({len(loose)} loose elements)")
    if not mesh.facets_labeled(GAMMA0):
        problems.append("gamma0 is empty")
    if not mesh.facets_labeled(GAMMAT):
        problems.append("gammaT is empty")
    seen = set()
    for i, f in enumerate(mesh.facets):
        key = frozenset(f.nodes)
        if key in seen:
            problems.append(f"facet {i} duplicates another facet")
        seen.add(key)
    return problems


def generate_bar(length: float, area: float, n_elements: int) -> Mesh:
    """Uniform 1D chain of bar elements, clamped left end, loaded right end."""
    if length <= 0 or area <= 0:
        raise MeshError("length and area must be positive")
    if n_elements < 1:
        raise MeshError("n_elements must be at least 1")
    xs = np.linspace(0.0, length, n_elements + 1).reshape(-1, 1)
    elements = [Element(BAR, (i, i + 1), area=area) for i in range(n_elements)]
    facets = [Facet((0,), GAMMA0), Facet((n_elements,), GAMMAT)]
    return Mesh(1, xs, elements, facets)


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

    def nid(i, j):
        return j * (nx + 1) + i

    nodes = np.array([[i * width / nx, j * height / ny]
                      for j in range(ny + 1) for i in range(nx + 1)])
    elements = []
    for j in range(ny):
        for i in range(nx):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            elements.append(Element(TRIANGLE, (a, b, c)))
            elements.append(Element(TRIANGLE, (a, c, d)))

    def edge_facets(edge):
        if edge == "left":
            return [(nid(0, j), nid(0, j + 1)) for j in range(ny)]
        if edge == "right":
            return [(nid(nx, j), nid(nx, j + 1)) for j in range(ny)]
        if edge == "bottom":
            return [(nid(i, 0), nid(i + 1, 0)) for i in range(nx)]
        return [(nid(i, ny), nid(i + 1, ny)) for i in range(nx)]

    facets = []
    for edge in _EDGES:
        label = GAMMA0 if edge == support_edge else GAMMAT
        facets.extend(Facet(pair, label) for pair in edge_facets(edge))
    return Mesh(2, nodes, elements, facets)


def write_mesh(mesh: Mesh, path):
    """Serialize to the textual mesh format with full binary64 precision."""
    doc = {
        "dim": mesh.dim,
        "nodes": [[float(x) for x in row] for row in mesh.nodes],
        "elements": [
            {"kind": e.kind, "nodes": list(e.nodes),
             **({"area": e.area} if e.area is not None else {})}
            for e in mesh.elements
        ],
        "facets": [{"nodes": list(f.nodes), "label": f.label} for f in mesh.facets],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_mesh(path) -> Mesh:
    """Parse a mesh file; raises MeshError with a field diagnostic on bad input."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MeshError(f"cannot parse mesh file {path}: {exc}") from exc
    try:
        return _mesh_from_doc(doc)
    except MeshError:
        raise
    except (TypeError, ValueError) as exc:
        # a field of the wrong type, such as a node id that is not an integer
        raise MeshError(f"malformed mesh file {path}: {exc}") from None


def _mesh_from_doc(doc) -> Mesh:
    for key in ("dim", "nodes", "elements", "facets"):
        if key not in doc:
            raise MeshError(f"mesh file missing required key {key!r}")
    dim = operator.index(doc["dim"])
    if dim not in (1, 2, 3):
        raise MeshError(f"dim must be 1, 2 or 3, got {dim}")
    for i, row in enumerate(doc["nodes"]):
        if len(row) != dim:
            raise MeshError(f"node {i} has {len(row)} coordinates; dim is {dim}")
    nodes = np.array(doc["nodes"], dtype=float)
    elements = []
    for i, rec in enumerate(doc["elements"]):
        for key in ("kind", "nodes"):
            if key not in rec:
                raise MeshError(f"element {i} missing key {key!r}")
        elements.append(Element(rec["kind"], tuple(rec["nodes"]),
                                area=rec.get("area")))
    facets = []
    for i, rec in enumerate(doc["facets"]):
        for key in ("nodes", "label"):
            if key not in rec:
                raise MeshError(f"facet {i} missing key {key!r}")
        facets.append(Facet(tuple(rec["nodes"]), rec["label"]))
    return Mesh(dim, nodes, elements, facets)
