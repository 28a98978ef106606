"""Properties the theory guarantees: `sigma_opt` does not depend on how the
nodes, elements and facets are numbered, nor on a permutation or
reflection of the axes, a translation or the unit of length, and K does
not depend on the unit of length, in 2D and in 3D.  The simplex's pivots,
and so the vertex it reaches, depend on the column order and values; the
optimum must not."""

import dataclasses
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as hs  # noqa: E402

from conftest import (end_tension_plate, kuhn_box, make_two_tet_mesh,  # noqa: E402
                      renumbered as renumbered_mesh)
from loadcap import capacity as cap  # noqa: E402
from loadcap import cli  # noqa: E402
from loadcap import kinematics as kin  # noqa: E402
from loadcap import mesh as msh  # noqa: E402
from loadcap import stress as st  # noqa: E402


def renumbered(mesh: msh.Mesh, t: np.ndarray, rng):
    """The mesh with its nodes, elements and facets renumbered at random,
    and the traction rows put in the new order of the gammaT facets."""
    new, order = renumbered_mesh(mesh, rng)
    loaded = ~mesh.gamma0
    row = np.cumsum(loaded) - 1  # the traction row of each loaded facet
    return new, t[row[order][loaded[order]]]


def transformed(mesh: msh.Mesh, t: np.ndarray, q: np.ndarray, scale: float,
                shift: np.ndarray):
    """The mesh under x -> scale * q x + shift, for a signed permutation
    matrix q, and the traction turned by q.  Work and strain budget both
    scale as length^(dim-1), so sigma_opt does not change."""
    nodes = scale * mesh.nodes @ q.T + shift
    return dataclasses.replace(mesh, nodes=nodes), t @ q.T


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
    t = rng.uniform(-1.0, 1.0, size=(np.count_nonzero(~mesh.gamma0), 2))
    base = sigma_opt(mesh, t, mode)
    assert sigma_opt(*renumbered(mesh, t, rng), mode) == \
        pytest.approx(base, rel=1e-9, abs=1e-9)
    q = np.diag(signs).astype(float)
    if swap:
        q = q[::-1]
    assert sigma_opt(*transformed(mesh, t, q, scale, np.array(shift)), mode) == \
        pytest.approx(base, rel=1e-9, abs=1e-9)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(box=hs.booleans(), mode=hs.sampled_from(st.MODES),
       seed=hs.integers(0, 2**32 - 1), perm=hs.permutations(range(3)),
       signs=hs.tuples(*[hs.sampled_from([-1.0, 1.0])] * 3),
       scale=hs.floats(-6.0, 4.0).map(lambda e: 10.0 ** e),
       shift=hs.tuples(*[hs.floats(-1e3, 1e3)] * 3))
def test_sigma_opt_invariant_3d(box, mode, seed, perm, signs, scale, shift):
    rng = np.random.default_rng(seed)
    mesh = kuhn_box(2, 1, 1) if box else make_two_tet_mesh()
    t = rng.uniform(-1.0, 1.0, size=(np.count_nonzero(~mesh.gamma0), 3))
    base = sigma_opt(mesh, t, mode)
    assert sigma_opt(*renumbered(mesh, t, rng), mode) == \
        pytest.approx(base, rel=1e-9, abs=1e-9)
    q = np.diag(signs)[list(perm)]
    # the shift is in the new unit: a shift of 257 on a body of side 4e-6
    # would round its node coordinates at 1e-8 relative to its size
    shift = scale * np.array(shift)
    assert sigma_opt(*transformed(mesh, t, q, scale, shift), mode) == \
        pytest.approx(base, rel=1e-9, abs=1e-9)


def test_sigma_opt_small_units():
    # at a length unit of 1e-4 the kinematic LP's budget-row entries (about
    # 5e-9) came near the simplex's absolute pivot tolerance 1e-9, and it
    # stopped at 0.5825 where the optimum is 0.6096
    rng = np.random.default_rng(2)
    mesh = msh.generate_rectangle(1.0, 1.0, 1, 1, "left", "right")
    t = rng.uniform(-1.0, 1.0, size=(np.count_nonzero(~mesh.gamma0), 2))
    base = sigma_opt(mesh, t, st.ELASTIC)
    small = transformed(mesh, t, np.eye(2), 1e-4, np.zeros(2))
    assert sigma_opt(*small, st.ELASTIC) == pytest.approx(base, rel=1e-9)


def scaled(mesh: msh.Mesh, unit: float) -> msh.Mesh:
    return transformed(mesh, np.zeros((0, mesh.dim)), np.eye(mesh.dim), unit,
                       np.zeros(mesh.dim))[0]


@pytest.mark.parametrize("name,mesh", [("kuhn_box", kuhn_box(2, 2, 2)),
                                       ("two_tet", make_two_tet_mesh())],
                         ids=["kuhn_box", "two_tet"])
@pytest.mark.parametrize("mode", st.MODES)
def test_sigma_opt_units_3d(name, mesh, mode):
    # the box LP's entries scale as unit^(dim-1): on the Kuhn 2x2x2 box at
    # 1e-5 the largest was 1.7e-11, far below the crash's absolute pivot
    # tolerance, and the certificate failed ("does not balance"); the
    # crash's pivot test is now relative to each row, so the box LP is
    # posed in the mesh's own lengths
    t = np.random.default_rng(5).uniform(
        -1.0, 1.0, size=(np.count_nonzero(~mesh.gamma0), 3))
    base = sigma_opt(mesh, t, mode)
    for unit in (1e-9, 1e-6, 1e-3, 1e3, 1e6):
        assert sigma_opt(scaled(mesh, unit), t, mode) == \
            pytest.approx(base, rel=1e-9), unit


@pytest.mark.parametrize("mode", st.MODES)
def test_sigma_opt_plate_at_tiny_unit(mode):
    # the elastic 4x4 plate's box LP failed its certificate at 1e-8
    mesh, t = end_tension_plate(4)
    assert sigma_opt(scaled(mesh, 1e-10), t, mode) == \
        pytest.approx(sigma_opt(mesh, t, mode), rel=1e-9)


def test_commands_at_small_unit(tmp_path, capsys):
    # limit, verify and the heuristic K on the two-tet mesh at 1e-6; verify
    # and the heuristic share one box LP's phase 1 (`with_column`)
    mesh = make_two_tet_mesh()
    mesh_path, traction_path = tmp_path / "tet.mesh", tmp_path / "tet.traction"
    msh.write_mesh(scaled(mesh, 1e-6), mesh_path)
    traction_path.write_text(json.dumps({"facets": [[1.0, 0.5, -0.25]] * 3}))
    for argv in (["limit", str(mesh_path), str(traction_path)],
                 ["verify", str(mesh_path), "--trials", "2"]):
        assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
    for mode in st.MODES:
        K = [cap.generalized_K(kin.assemble(m), mode, cap.HEURISTIC).K
             for m in (mesh, scaled(mesh, 1e-6))]
        assert K[1] == pytest.approx(K[0], rel=1e-9)


UNITS = (1e-6, 1e-4, 3e-3, 1e-2, 1e2, 1e4)


def exact_K(nx, ny, unit, mode) -> float:
    """K of the plate of nx x ny cells of side unit, or of the two-tet mesh
    with its lengths times unit if nx is None, after checking that its
    witness has unit strain budget, as the kinematic LP's optimum of the
    mesh's own lengths has."""
    mesh = scaled(make_two_tet_mesh(), unit) if nx is None else \
        msh.generate_rectangle(unit, unit, nx, ny, "left", "right")
    ops = kin.assemble(mesh)
    res = cap.generalized_K(ops, mode)
    norm = kin.strain_norm_plastic if mode == st.PLASTIC else kin.strain_norm_l1
    assert norm(ops, res.certificate) == pytest.approx(1.0, rel=1e-9)
    return res.K


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (2, 2),
                                   pytest.param(None, None, id="two_tet")])
@pytest.mark.parametrize("mode", st.MODES)
def test_exact_K_length_unit(nx, ny, mode):
    # the kinematic LP's budget-row entries scale as unit^2: at 1e-4 they
    # came near the simplex's absolute tolerances, and the 2x1 plate gave
    # K = 3.333 where it is 4.333 (elastic) and a false "unbounded"
    # (plastic), until the LP's lengths were normalized by a power of two
    base = exact_K(nx, ny, 1.0, mode)
    for unit in UNITS:
        assert exact_K(nx, ny, unit, mode) == pytest.approx(base, rel=1e-9), unit


@pytest.mark.parametrize("mode,want", [(st.ELASTIC, 7.4), (st.PLASTIC, 8 / 3)],
                         ids=st.MODES)
def test_exact_K_length_unit_at_the_cap(mode, want):
    # the 3x2 plate has 16 sign components, the cap; at this unit its walk
    # found a false "unbounded" in both modes
    assert exact_K(3, 2, 1e-2, mode) == pytest.approx(want, rel=1e-9)
