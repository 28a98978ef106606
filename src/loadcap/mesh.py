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
LABELS = (GAMMA0, GAMMAT)

BAR = "bar"
TRIANGLE = "triangle"
TETRAHEDRON = "tetrahedron"
KINDS = (BAR, TRIANGLE, TETRAHEDRON)

_KIND_NNODES = {BAR: 2, TRIANGLE: 3, TETRAHEDRON: 4}
_KIND_DIM = {BAR: 1, TRIANGLE: 2, TETRAHEDRON: 3}


class MeshError(ValueError):
    """Invalid mesh construction or file contents."""


def is_number(value) -> bool:
    """Whether value is a real number and not a bool: JSON's true is not 1
    here, although float() and operator.index read it as 1.  JSON's
    numbers are exactly int or float, which are tested first."""
    if type(value) is float or type(value) is int:
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _node_ids(nodes) -> tuple:
    """Node ids as ints; 1.5, "x" or true is an error, not a conversion."""
    if all(type(n) is int for n in nodes):
        return tuple(nodes)
    try:
        if all(is_number(n) for n in nodes):
            return tuple(operator.index(n) for n in nodes)
    except TypeError:
        pass
    raise MeshError(f"node ids must be integers, got {list(nodes)!r}")


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
        if self.kind == BAR and not (is_number(self.area)
                                     and 0 < float(self.area) < math.inf):
            raise MeshError("bar element needs a positive, finite cross-section area")


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


def element_measures(edges: np.ndarray) -> np.ndarray:
    """Length, area or volume (sign stripped) of each simplex element whose
    edge vectors from its first node are edges[e, k] = p_(k+1) - p_0, an
    (n_el, dim, dim) array; a bar's is its length, not times its area."""
    dim = edges.shape[-1]
    if dim == 1:  # det is sign * exp(log|det|), inexact even for a 1x1
        return np.abs(edges[:, 0, 0])
    return np.abs(np.linalg.det(edges)) / math.factorial(dim)


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


def facet_measures(mesh: Mesh, fnodes: np.ndarray) -> np.ndarray:
    """Measures of the boundary facets of a valid mesh with node ids fnodes,
    an (n_facets, dim) array.  In 1D a facet is a single node; its measure is
    the cross-section area of its bar, so boundary integrals carry force units."""
    if mesh.dim == 1:  # a boundary node of a valid mesh is in one bar only
        area_at = np.zeros(mesh.n_nodes)
        area_at[[e.nodes for e in mesh.elements]] = [[e.area] for e in mesh.elements]
        return area_at[fnodes[:, 0]]
    pts = mesh.nodes[fnodes]
    # a facet's edge, or twice its area vector; vecdot is the dot product
    # that np.linalg.norm takes of a single vector
    normal = (pts[:, 1] - pts[:, 0] if mesh.dim == 2
              else np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]))
    return np.sqrt(np.vecdot(normal, normal)) / (mesh.dim - 1.0)


def validate(mesh: Mesh):
    """Return a list of invariant violations; empty for a valid mesh."""
    n, dim = mesh.n_nodes, mesh.dim
    found, good = {}, []  # element index -> its problem; elements to measure
    for i, e in enumerate(mesh.elements):
        if any(k < 0 or k >= n for k in e.nodes):
            found[i] = f"element {i} references node out of range"
        elif _KIND_DIM[e.kind] != dim:
            found[i] = f"element {i} kind {e.kind} does not match dim {dim}"
        else:
            good.append(i)
    pts = mesh.nodes[np.array([mesh.elements[i].nodes for i in good],
                              dtype=int).reshape(-1, dim + 1)]
    a, b = np.array(list(combinations(range(dim + 1), 2))).T  # pairs, (0, k) first
    sides = pts[:, b] - pts[:, a]
    # |det| of the edge vectors at most 1e-14 longest^dim, a rule that
    # does not depend on the length unit; as dim-th roots and with hypot,
    # which do not overflow
    longest = np.hypot.reduce(np.abs(sides), axis=2).max(axis=1)
    size = (element_measures(sides[:, :dim]) * math.factorial(dim)) ** (1 / dim)
    for i in np.array(good, dtype=int)[size <= 1e-14 ** (1 / dim) * longest]:
        found[i] = f"element {i} has zero measure"
    problems = [found[i] for i in sorted(found)]
    used = np.zeros(n, dtype=bool)
    used[[k for e in mesh.elements for k in e.nodes if 0 <= k < n]] = True
    if not used.all():
        problems.append(f"node {np.argmin(used)} is not a node of any element")
    faces = [element_faces(e) for e in mesh.elements]
    owners = {}  # face node set -> elements that have it as a face
    for i, element in enumerate(faces):
        for fs in element:
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
        for fs in faces[stack.pop()]:
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
