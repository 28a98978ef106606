"""Properties the theory guarantees: `sigma_opt` does not depend on how the
nodes, elements and facets are numbered, nor on a permutation or
reflection of the axes, a translation or the unit of length.  The
simplex's pivots, and so the vertex it reaches, depend on the column order
and values; the optimum must not."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as hs  # noqa: E402

from loadcap import kinematics as kin  # noqa: E402
from loadcap import mesh as msh  # noqa: E402
from loadcap import stress as st  # noqa: E402


def renumbered(mesh: msh.Mesh, t: np.ndarray, rng):
    """The mesh with its nodes, elements and facets renumbered at random,
    and the traction rows put in the new order of the gammaT facets."""
    new_id = rng.permutation(mesh.n_nodes)
    nodes = np.empty_like(mesh.nodes)
    nodes[new_id] = mesh.nodes
    elements = [mesh.elements[i] for i in rng.permutation(len(mesh.elements))]
    elements = [msh.Element(e.kind, tuple(new_id[list(e.nodes)]), e.area)
                for e in elements]
    order = rng.permutation(len(mesh.facets))
    facets = [msh.Facet(tuple(new_id[list(mesh.facets[i].nodes)]), mesh.facets[i].label)
              for i in order]
    loaded = np.array([f.label == msh.GAMMAT for f in mesh.facets])
    row = np.cumsum(loaded) - 1  # the traction row of each loaded facet
    t_new = t[row[order][loaded[order]]]
    return msh.Mesh(mesh.dim, nodes, elements, facets), t_new


def transformed(mesh: msh.Mesh, t: np.ndarray, q: np.ndarray, scale: float,
                shift: np.ndarray):
    """The mesh under x -> scale * q x + shift, for a signed permutation
    matrix q, and the traction turned by q.  Work and strain budget both
    scale as length^(dim-1), so sigma_opt does not change."""
    nodes = scale * mesh.nodes @ q.T + shift
    return msh.Mesh(mesh.dim, nodes, mesh.elements, mesh.facets), t @ q.T


def sigma_opt(mesh, t, mode) -> float:
    return st.optimal_stress(kin.assemble(mesh), t, mode).sigma_opt


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(nx=hs.integers(1, 2), ny=hs.integers(1, 2),
       mode=hs.sampled_from(st.MODES), seed=hs.integers(0, 2**32 - 1),
       swap=hs.booleans(), signs=hs.sampled_from([(1, 1), (-1, 1), (1, -1), (-1, -1)]),
       scale=hs.floats(-4.0, 4.0).map(lambda e: 10.0 ** e),
       shift=hs.tuples(*[hs.floats(-1e3, 1e3)] * 2))
def test_sigma_opt_invariant(nx, ny, mode, seed, swap, signs, scale, shift):
    rng = np.random.default_rng(seed)
    mesh = msh.generate_rectangle(1.0, 1.0, nx, ny, "left", "right")
    t = rng.uniform(-1.0, 1.0, size=(len(mesh.facets_labeled(msh.GAMMAT)), 2))
    base = sigma_opt(mesh, t, mode)
    assert sigma_opt(*renumbered(mesh, t, rng), mode) == \
        pytest.approx(base, rel=1e-9, abs=1e-9)
    q = np.diag(signs).astype(float)
    if swap:
        q = q[::-1]
    assert sigma_opt(*transformed(mesh, t, q, scale, np.array(shift)), mode) == \
        pytest.approx(base, rel=1e-9, abs=1e-9)


def test_sigma_opt_small_units():
    # at a length unit of 1e-4 the kinematic LP's budget-row entries (about
    # 5e-9) came near the simplex's absolute pivot tolerance 1e-9, and it
    # stopped at 0.5825 where the optimum is 0.6096; the box LP's entries
    # scale as the unit itself
    rng = np.random.default_rng(2)
    mesh = msh.generate_rectangle(1.0, 1.0, 1, 1, "left", "right")
    t = rng.uniform(-1.0, 1.0, size=(len(mesh.facets_labeled(msh.GAMMAT)), 2))
    base = sigma_opt(mesh, t, st.ELASTIC)
    small = transformed(mesh, t, np.eye(2), 1e-4, np.zeros(2))
    assert sigma_opt(*small, st.ELASTIC) == pytest.approx(base, rel=1e-9)
