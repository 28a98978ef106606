import numpy as np
import pytest

from loadcap import kinematics as kin
from loadcap import matnorm as mn
from loadcap import mesh as msh

ACCEPTANCE_VERDICTS = []


def record_verdict(line: str):
    """Collect a criterion pass/fail line for the end-of-run summary."""
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def trace_norm_l1(ops: kin.DiscreteOperators, w) -> float:
    """Oracle: area-weighted boundary L1 norm of the trace over gammaT."""
    return float(ops.areas @ np.abs(kin.trace(ops, w)).sum(axis=1))


def dual_pairing(s: mn.SymMatrix, e: mn.SymMatrix) -> float:
    """Oracle: full-matrix contraction sum_ij s_ij e_ij (off-diagonals
    twice)."""
    if s.dim != e.dim:
        raise mn.NormError(f"dimension mismatch: {s.dim} vs {e.dim}")
    return float(np.sum(mn.comp_weights(s.dim) * s.comps * e.comps))


def make_two_tet_mesh() -> msh.Mesh:
    """Two tetrahedra sharing a face; the three faces around node 0 are
    supported, the three around node 4 are loaded."""
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
                     dtype=float)
    elements = [msh.Element(msh.TETRAHEDRON, (0, 1, 2, 3)),
                msh.Element(msh.TETRAHEDRON, (1, 2, 3, 4))]
    facets = [msh.Facet((0, 1, 2), msh.GAMMA0),
              msh.Facet((0, 1, 3), msh.GAMMA0),
              msh.Facet((0, 2, 3), msh.GAMMA0),
              msh.Facet((1, 2, 4), msh.GAMMAT),
              msh.Facet((1, 3, 4), msh.GAMMAT),
              msh.Facet((2, 3, 4), msh.GAMMAT)]
    return msh.Mesh(3, nodes, elements, facets)


MESH_CASES = [
    ("rect11", lambda: msh.generate_rectangle(1, 1, 1, 1, "left", "right")),
    ("rect22", lambda: msh.generate_rectangle(2, 1, 2, 2, "left", "right")),
    ("two_tet", make_two_tet_mesh),
]


def end_tension_plate(n: int):
    """The unit square in n x n cells, clamped on the left, under a unit
    x-traction on the right edge; returns (mesh, traction)."""
    mesh = msh.generate_rectangle(1, 1, n, n, "left", "right")
    loaded = [f for f in mesh.facets if f.label == msh.GAMMAT]
    traction = [[1.0, 0.0] if all(mesh.nodes[q][0] == 1.0 for q in f.nodes)
                else [0.0, 0.0] for f in loaded]
    return mesh, np.array(traction)


@pytest.fixture
def two_tet_mesh():
    return make_two_tet_mesh()


@pytest.fixture
def unit_bar():
    return msh.generate_bar(1.0, 1.0, 1)


@pytest.fixture
def unit_square():
    return msh.generate_rectangle(1.0, 1.0, 1, 1, "left", "right")
