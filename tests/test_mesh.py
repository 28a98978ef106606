import dataclasses
import json
from itertools import combinations

import numpy as np
import pytest

from loadcap import kinematics as kin
from loadcap import mesh as msh

from conftest import (MESH_CASES, element_measure_oracle, element_problems_oracle,
                      facet_measure_oracle, kuhn_box, renumbered, validate_oracle)


def facet_measures(m: msh.Mesh) -> np.ndarray:
    """`mesh.facet_measures` of every facet of m."""
    return msh.facet_measures(m, m.facets)


def same_mesh(a: msh.Mesh, b: msh.Mesh) -> bool:
    """Whether two meshes have the same dim and equal arrays, each of the
    same dtype."""
    names = ("nodes", "elements", "facets", "gamma0", "areas")
    return a.dim == b.dim and all(
        np.array_equal(getattr(a, k), getattr(b, k))
        and np.asarray(getattr(a, k)).dtype == np.asarray(getattr(b, k)).dtype
        for k in names)


def unit_bar(nodes, elements=((0, 1),), facets=((0,), (1,)), gamma0=(True, False)):
    """A 1D mesh of bars of unit cross-section."""
    return msh.Mesh(1, np.array(nodes, dtype=float), elements, facets,
                    np.array(gamma0, dtype=bool), np.ones(len(elements)))


def no_facets(dim: int, nodes, elements) -> msh.Mesh:
    """A mesh of the given elements with no boundary facets; bars of unit
    cross-section."""
    return msh.Mesh(dim, nodes, elements, np.zeros((0, dim), dtype=int),
                    np.zeros(0, dtype=bool), np.ones(len(elements)) if dim == 1 else None)


def with_facet(m: msh.Mesh, facet, supported=False) -> msh.Mesh:
    """m with one more facet."""
    return dataclasses.replace(m, facets=np.vstack([m.facets, [facet]]),
                               gamma0=np.append(m.gamma0, supported))


class TestValidate:
    def test_minimal_bar_valid(self, unit_bar):
        assert msh.validate(unit_bar) == []

    def test_zero_length_bar(self):
        m = unit_bar([[0.0], [0.0]])
        assert any("element 0 has zero measure" in p for p in msh.validate(m))

    def test_empty_gamma0(self):
        problems = msh.validate(unit_bar([[0.0], [1.0]], gamma0=(False, False)))
        assert "gamma0 is empty" in problems

    def test_out_of_range_node(self):
        m = unit_bar([[0.0], [1.0]], elements=[(0, 5)])
        assert any("out of range" in p for p in msh.validate(m))

    def test_interior_facet_rejected(self):
        bad = with_facet(msh.generate_bar(1.0, 1.0, 2), [1])
        assert any("face of 2 elements" in p for p in msh.validate(bad))

    def test_duplicate_facet_rejected(self):
        bad = with_facet(msh.generate_bar(1.0, 1.0, 1), [1])
        assert "facet 2 duplicates another facet" in msh.validate(bad)

    def test_generated_meshes_valid(self):
        for n in (1, 2, 5):
            assert msh.validate(msh.generate_bar(2.0, 0.5, n)) == []
        for nx, ny in ((1, 1), (2, 2), (3, 1)):
            assert msh.validate(
                msh.generate_rectangle(1.0, 2.0, nx, ny, "left", "right")) == []
            assert msh.validate(
                msh.generate_rectangle(1.5, 1.0, nx, ny, "bottom", "top")) == []


class TestDegenerateElements:
    """An element is degenerate relative to its longest edge, so the rule
    gives the same verdict in every length unit."""

    @pytest.mark.parametrize("unit", [1e-6, 1e-5, 1e-4, 1e-2, 1.0, 1e2, 1e4])
    @pytest.mark.parametrize("name", ["two_tet", "plate2x2"])
    def test_valid_at_every_unit(self, two_tet_mesh, name, unit):
        m = two_tet_mesh if name == "two_tet" else \
            msh.generate_rectangle(1, 1, 2, 2, "left", "right")
        scaled = dataclasses.replace(m, nodes=unit * m.nodes)
        assert msh.validate(scaled) == []
        assert kin.assemble(scaled).n_dof > 0

    @pytest.mark.parametrize("unit", [1e-6, 1e-5, 1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_sliver_rejected_at_every_unit(self, unit):
        nodes = unit * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-15]])
        m = msh.Mesh(2, nodes, [(0, 1, 2)], [(0, 1), (1, 2), (0, 2)],
                     np.array([True, False, False]))
        assert msh.validate(m) == ["element 0 has zero measure"]
        with pytest.raises(kin.KinematicsError, match="zero measure"):
            kin.assemble(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_node_rejected(self, bad):
        with pytest.raises(msh.MeshError, match="node 1 has a non-finite"):
            msh.Mesh(2, [[0.0, 0.0], [1.0, bad], [0.0, 1.0]])


class TestGenerateBar:
    def test_single_element(self):
        m = msh.generate_bar(1.0, 1.0, 1)
        assert m.n_nodes == 2
        assert len(m.elements) == 1
        assert len(m.facets) == 2

    def test_uniform_subdivision(self):
        m = msh.generate_bar(2.0, 1.0, 4)
        assert m.n_nodes == 5
        assert kin.assemble(m).volumes.tolist() == pytest.approx([0.5] * 4)

    @pytest.mark.parametrize("args", [(1, 1, 0), (0, 1, 1), (1, -1, 1)])
    def test_bad_parameters(self, args):
        with pytest.raises(msh.MeshError):
            msh.generate_bar(*args)

    def test_labels(self):
        m = msh.generate_bar(1.0, 2.0, 3)
        assert m.facets.tolist() == [[0], [3]]
        assert m.gamma0.tolist() == [True, False]


class TestGenerateRectangle:
    def test_single_cell(self):
        m = msh.generate_rectangle(1, 1, 1, 1, "left", "right")
        assert m.n_nodes == 4
        assert len(m.elements) == 2

    def test_two_by_two(self):
        m = msh.generate_rectangle(1, 1, 2, 2, "bottom", "top")
        assert m.n_nodes == 9
        assert len(m.elements) == 8

    def test_equal_edges_rejected(self):
        with pytest.raises(msh.MeshError):
            msh.generate_rectangle(1, 1, 1, 1, "left", "left")

    @pytest.mark.parametrize("args, message", [
        ((0, 1, 1, 1, "left", "right"), "width and height must be positive"),
        ((1, -1, 1, 1, "left", "right"), "width and height must be positive"),
        ((1, 1, 0, 1, "left", "right"), "nx and ny must be at least 1"),
        ((1, 1, 1, 0, "left", "right"), "nx and ny must be at least 1"),
        ((1, 1, 1, 1, "west", "right"), "support_edge must be one of left, right"),
        ((1, 1, 1, 1, "left", "east"), "load_edge must be one of left, right"),
    ])
    def test_bad_parameters(self, args, message):
        with pytest.raises(msh.MeshError, match=f"^{message}"):
            msh.generate_rectangle(*args)

    def test_unloaded_edges_are_gammat(self):
        m = msh.generate_rectangle(1, 1, 2, 3, "left", "right")
        assert np.count_nonzero(m.gamma0) == 3        # left edge only
        assert np.count_nonzero(~m.gamma0) == 3 + 2 + 2   # right, bottom, top

    def test_total_area(self):
        m = msh.generate_rectangle(2.0, 3.0, 3, 2, "left", "right")
        assert kin.assemble(m).volumes.sum() == pytest.approx(6.0, abs=1e-12)


class TestSerialization:
    def test_round_trip_bar(self, tmp_path):
        m = msh.generate_bar(1.0, 1.0, 1)
        path = tmp_path / "bar.mesh"
        msh.write_mesh(m, path)
        assert same_mesh(msh.read_mesh(path), m)

    def test_round_trip_full_precision(self, tmp_path):
        m = msh.generate_rectangle(0.1, 1.0 / 3.0, 2, 2, "left", "right")
        path = tmp_path / "rect.mesh"
        msh.write_mesh(m, path)
        m2 = msh.read_mesh(path)
        assert np.all(m2.nodes == m.nodes)  # bit-exact
        assert same_mesh(m2, m)

    def test_missing_nodes_key(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text(json.dumps({"dim": 1, "elements": [], "facets": []}))
        with pytest.raises(msh.MeshError, match="nodes"):
            msh.read_mesh(path)

    def test_bad_label(self, tmp_path):
        doc = {"dim": 1, "nodes": [[0.0], [1.0]],
               "elements": [{"kind": "bar", "nodes": [0, 1], "area": 1.0}],
               "facets": [{"nodes": [0], "label": "gamma9"}]}
        path = tmp_path / "bad.mesh"
        path.write_text(json.dumps(doc))
        with pytest.raises(msh.MeshError, match="gamma0"):
            msh.read_mesh(path)

    def test_unparseable(self, tmp_path):
        path = tmp_path / "junk.mesh"
        path.write_text("{not json")
        with pytest.raises(msh.MeshError, match="parse"):
            msh.read_mesh(path)


class TestMeasures:
    def test_two_tet_volumes(self, two_tet_mesh):
        vols = kin.assemble(two_tet_mesh).volumes
        assert vols[0] == pytest.approx(1.0 / 6.0)
        assert sum(vols) > 0

    def test_facet_measures(self, two_tet_mesh):
        assert np.all(facet_measures(two_tet_mesh) > 0)

    def test_bar_facet_measure_is_cross_section(self):
        m = msh.generate_bar(1.0, 2.5, 2)
        assert facet_measures(m).tolist() == pytest.approx([2.5, 2.5])


def _near_flat(rng, dim: int, n: int, unit: float) -> msh.Mesh:
    """n separate simplices, each with its last node moved towards the
    hull of the others, to 1e-16 to 1e-11 of its distance from it: on
    both sides of the zero-measure threshold.  Interleaved with an element
    whose node is out of range."""
    nodes, elements = [], []
    for t in np.logspace(-16, -11, n):
        pts = rng.uniform(-1.0, 1.0, size=(dim + 1, dim))
        base = (pts[1:-1] - pts[0]).T
        foot = pts[0] + base @ np.linalg.lstsq(base, pts[-1] - pts[0], rcond=None)[0]
        pts[-1] = foot + t * (pts[-1] - foot)
        first = len(nodes)
        nodes.extend(pts)
        elements.append(range(first, first + dim + 1))
    elements.insert(3, (0,) * dim + (len(nodes),))
    return no_facets(dim, unit * np.array(nodes), elements)


class TestBatchedGeometry:
    """validate, and the volumes and areas of assemble, against the
    per-element and per-facet formulas."""

    @pytest.mark.parametrize("unit", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_validate_matches_oracle(self, dim, unit):
        m = _near_flat(np.random.default_rng(dim), dim, 24, unit)
        expected = element_problems_oracle(m)
        flat = sum(p.endswith("zero measure") for p in expected)
        if dim > 1:  # a 1D element is flat only at zero length
            assert 0 < flat < 24
        assert msh.validate(m) == expected + ["gamma0 is empty", "gammaT is empty"]

    @pytest.mark.parametrize("unit", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_zero_length_bars(self, unit):
        nodes = unit * np.array([[0.0], [1e-20], [1.0], [1.0], [-2.0]])
        m = no_facets(1, nodes, [(0, 1), (2, 3), (3, 4), (1, 2)])
        assert element_problems_oracle(m) == ["element 1 has zero measure"]
        assert msh.validate(m) == ["element 1 has zero measure",
                                   "gamma0 is empty", "gammaT is empty"]

    @pytest.mark.parametrize("unit", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_measures_match_oracle_bit_for_bit(self, dim, unit):
        rng = np.random.default_rng(10 + dim)
        if dim == 1:
            m = msh.generate_bar(1.0, 1.0, 6)
            m = dataclasses.replace(m, areas=rng.uniform(0.5, 2.0, 6))
        else:
            m = (msh.generate_rectangle(1.0, 1.0, 3, 2, "left", "right")
                 if dim == 2 else kuhn_box(2, 1, 1))
        # every node moved by up to a fifth of a cell
        nodes = unit * (m.nodes + rng.uniform(-0.1, 0.1, size=m.nodes.shape))
        m = dataclasses.replace(m, nodes=nodes)
        ops = kin.assemble(m)
        assert ops.volumes.tolist() == [
            element_measure_oracle(m, i) * (m.areas[i] if dim == 1 else 1.0)
            for i in range(len(m.elements))]
        assert ops.areas.tolist() == [facet_measure_oracle(m, f)
                                      for f in ops.gammat_facets]
        assert facet_measures(m).tolist() == [facet_measure_oracle(m, f)
                                              for f in m.facets]


class TestUnusedNode:
    def test_reported(self, unit_square):
        m = dataclasses.replace(
            unit_square, nodes=np.vstack([unit_square.nodes, [[5.0, 5.0], [6.0, 5.0]]]))
        assert msh.validate(m) == ["node 4 is not a node of any element"]
        with pytest.raises(kin.KinematicsError, match="node 4 is not a node"):
            kin.assemble(m)

    def test_node_of_a_bad_element_is_used(self, unit_square):
        # elements with a node out of range still have the nodes they name
        m = dataclasses.replace(
            unit_square, nodes=np.vstack([unit_square.nodes, [[5.0, 5.0], [6.0, 5.0]]]),
            elements=np.vstack([unit_square.elements, [(4, 0, 9), (5, 0, 9)]]))
        assert msh.validate(m) == [
            "element 2 references node out of range",
            "element 3 references node out of range",
            "element 2 is not connected to gamma0 through shared faces "
            "(2 loose elements)"]


def _breaks():
    """(name, mesh) of meshes with one fault each, and the meshes they
    break."""
    bar, square = msh.generate_bar(2.0, 0.5, 3), msh.generate_rectangle(
        1, 1, 2, 2, "left", "right")
    box = kuhn_box(2, 1, 1)
    for name, m in (("bar", bar), ("square", square), ("box", box)):
        dim = m.dim
        yield f"{name}-valid", m
        boundary = {frozenset(f) for f in m.facets.tolist()}
        interior = next(f for f in combinations(m.elements[0].tolist(), dim)
                        if frozenset(f) not in boundary)
        yield f"{name}-interior_facet", with_facet(m, interior)
        yield f"{name}-duplicate_facet", with_facet(m, m.facets[-1][::-1], True)
        yield f"{name}-facet_of_no_element", with_facet(
            dataclasses.replace(m, nodes=np.vstack([m.nodes, m.nodes[:dim] + 9.0])),
            m.n_nodes + np.arange(dim))
        loose = m.n_nodes + np.arange(dim + 1)
        yield f"{name}-loose_element", dataclasses.replace(
            m, nodes=np.vstack([m.nodes, m.nodes[m.elements[0]] + 9.0]),
            elements=np.vstack([m.elements, loose]),
            areas=None if m.areas is None else np.append(m.areas, 1.0))
        yield f"{name}-element_out_of_range", dataclasses.replace(
            m, elements=np.where(np.arange(len(m.elements))[:, None] == 1,
                                 m.elements + m.n_nodes, m.elements))
        yield f"{name}-facet_out_of_range", with_facet(m, [-1] * dim)
        yield f"{name}-unused_node", dataclasses.replace(
            m, nodes=np.vstack([m.nodes, m.nodes[:1] + 0.5]))


class TestValidateMatchesOracle:
    """The array `validate` against the per-element one it replaced
    (`conftest.validate_oracle`): the same problems, in the same order."""

    @pytest.mark.parametrize("name,make", MESH_CASES)
    def test_mesh_cases(self, name, make):
        m = make()
        assert msh.validate(m) == validate_oracle(m) == []

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 1), (2, 2, 1)])
    def test_renumbered_kuhn_boxes(self, shape, seed):
        rng = np.random.default_rng(seed)
        m = renumbered(kuhn_box(*shape), rng)[0]
        m = dataclasses.replace(m, elements=rng.permuted(m.elements, axis=1),
                                facets=rng.permuted(m.facets, axis=1))
        assert msh.validate(m) == validate_oracle(m) == []

    @pytest.mark.parametrize("name,m", list(_breaks()), ids=[n for n, _ in _breaks()])
    def test_single_break(self, name, m):
        problems = msh.validate(m)
        assert problems == validate_oracle(m)
        assert (problems == []) == name.endswith("-valid")

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_node_ids(self, dim):
        # ids drawn from a few values, out of range and repeated ones too,
        # so that faces, facets and their node sets collide
        rng = np.random.default_rng(dim)
        for _ in range(200):
            n = int(rng.integers(dim + 1, dim + 4))
            n_el, n_f = rng.integers(0, 5, size=2)
            m = msh.Mesh(dim, rng.uniform(size=(n, dim)),
                         rng.integers(-1, n + 1, size=(n_el, dim + 1)),
                         rng.integers(-1, n + 1, size=(n_f, dim)),
                         rng.random(n_f) < 0.5, np.ones(n_el) if dim == 1 else None)
            assert msh.validate(m) == validate_oracle(m)


class TestArrays:
    """Mesh checks its arrays once; the file's records give the same
    arrays."""

    @pytest.mark.parametrize("field,value,message", [
        ("elements", [[0, 1]], "elements must be an integer array of shape"),
        ("elements", [[0.0, 1.0, 3.0]], "elements must be an integer array"),
        ("elements", [[True, False, True]], "elements must be an integer array"),
        ("facets", [[0, 2, 1]], "facets must be an integer array of shape"),
        ("gamma0", [1, 0, 0, 0], "gamma0 must be a boolean array"),
        ("gamma0", [True], "gamma0 must be a boolean array"),
        ("areas", [1.0, 1.0], "only bars have a cross-section area")])
    def test_bad_array(self, unit_square, field, value, message):
        with pytest.raises(msh.MeshError, match=message):
            dataclasses.replace(unit_square, **{field: np.array(value)})

    @pytest.mark.parametrize("areas", [[1.0], [1.0, 0.0], [1.0, np.inf], [1.0, np.nan]])
    def test_bad_bar_areas(self, areas):
        m = msh.generate_bar(1.0, 1.0, 2)
        with pytest.raises(msh.MeshError, match="bar element needs a positive, finite"):
            dataclasses.replace(m, areas=np.array(areas))

    @pytest.mark.parametrize("make", [lambda: msh.generate_bar(2.0, 0.5, 3),
                                      lambda: msh.generate_rectangle(
                                          1, 2, 3, 2, "bottom", "top"),
                                      lambda: kuhn_box(2, 1, 1)])
    def test_records_give_the_arrays(self, tmp_path, make):
        m = make()
        msh.write_mesh(m, tmp_path / "m.mesh")
        doc = json.loads((tmp_path / "m.mesh").read_text())
        records = msh.Mesh(doc["dim"], doc["nodes"],
                           [msh.Element(e["kind"], e["nodes"], area=e.get("area"))
                            for e in doc["elements"]],
                           [msh.Facet(f["nodes"], f["label"]) for f in doc["facets"]])
        assert same_mesh(records, m) and same_mesh(msh.read_mesh(tmp_path / "m.mesh"), m)
