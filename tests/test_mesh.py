import json

import numpy as np
import pytest

from loadcap import kinematics as kin
from loadcap import mesh as msh

from conftest import (element_measure_oracle, element_problems_oracle,
                      facet_measure_oracle, kuhn_box)


def facet_measures(m: msh.Mesh) -> np.ndarray:
    """`mesh.facet_measures` of every facet of m."""
    return msh.facet_measures(m, np.array([f.nodes for f in m.facets]))


class TestValidate:
    def test_minimal_bar_valid(self, unit_bar):
        assert msh.validate(unit_bar) == []

    def test_zero_length_bar(self):
        m = msh.Mesh(1, np.array([[0.0], [0.0]]),
                     [msh.Element(msh.BAR, (0, 1), area=1.0)],
                     [msh.Facet((0,), msh.GAMMA0), msh.Facet((1,), msh.GAMMAT)])
        assert any("element 0 has zero measure" in p for p in msh.validate(m))

    def test_empty_gamma0(self):
        m = msh.Mesh(1, np.array([[0.0], [1.0]]),
                     [msh.Element(msh.BAR, (0, 1), area=1.0)],
                     [msh.Facet((0,), msh.GAMMAT), msh.Facet((1,), msh.GAMMAT)])
        problems = msh.validate(m)
        assert "gamma0 is empty" in problems

    def test_out_of_range_node(self):
        m = msh.Mesh(1, np.array([[0.0], [1.0]]),
                     [msh.Element(msh.BAR, (0, 5), area=1.0)],
                     [msh.Facet((0,), msh.GAMMA0), msh.Facet((1,), msh.GAMMAT)])
        assert any("out of range" in p for p in msh.validate(m))

    def test_interior_facet_rejected(self):
        m = msh.generate_bar(1.0, 1.0, 2)
        bad = msh.Mesh(1, m.nodes, m.elements,
                       list(m.facets) + [msh.Facet((1,), msh.GAMMAT)])
        assert any("face of 2 elements" in p for p in msh.validate(bad))

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
        scaled = msh.Mesh(m.dim, unit * m.nodes, m.elements, m.facets)
        assert msh.validate(scaled) == []
        assert kin.assemble(scaled).n_dof > 0

    @pytest.mark.parametrize("unit", [1e-6, 1e-5, 1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_sliver_rejected_at_every_unit(self, unit):
        nodes = unit * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-15]])
        m = msh.Mesh(2, nodes, [msh.Element(msh.TRIANGLE, (0, 1, 2))],
                     [msh.Facet((0, 1), msh.GAMMA0), msh.Facet((1, 2), msh.GAMMAT),
                      msh.Facet((0, 2), msh.GAMMAT)])
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
        assert m.facets[0].label == msh.GAMMA0 and m.facets[0].nodes == (0,)
        assert m.facets[1].label == msh.GAMMAT and m.facets[1].nodes == (3,)


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

    def test_unloaded_edges_are_gammat(self):
        m = msh.generate_rectangle(1, 1, 2, 3, "left", "right")
        labels = {}
        for f in m.facets:
            labels.setdefault(f.label, 0)
            labels[f.label] += 1
        assert labels[msh.GAMMA0] == 3           # left edge only
        assert labels[msh.GAMMAT] == 3 + 2 + 2   # right, bottom, top

    def test_total_area(self):
        m = msh.generate_rectangle(2.0, 3.0, 3, 2, "left", "right")
        assert kin.assemble(m).volumes.sum() == pytest.approx(6.0, abs=1e-12)


class TestSerialization:
    def test_round_trip_bar(self, tmp_path):
        m = msh.generate_bar(1.0, 1.0, 1)
        path = tmp_path / "bar.mesh"
        msh.write_mesh(m, path)
        assert msh.read_mesh(path) == m

    def test_round_trip_full_precision(self, tmp_path):
        m = msh.generate_rectangle(0.1, 1.0 / 3.0, 2, 2, "left", "right")
        path = tmp_path / "rect.mesh"
        msh.write_mesh(m, path)
        m2 = msh.read_mesh(path)
        assert np.all(m2.nodes == m.nodes)  # bit-exact
        assert m2 == m

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
    whose node is out of range and, but in 1D, a bar of the wrong kind."""
    kind = {1: msh.BAR, 2: msh.TRIANGLE, 3: msh.TETRAHEDRON}[dim]
    nodes, elements = [], []
    for t in np.logspace(-16, -11, n):
        pts = rng.uniform(-1.0, 1.0, size=(dim + 1, dim))
        base = (pts[1:-1] - pts[0]).T
        foot = pts[0] + base @ np.linalg.lstsq(base, pts[-1] - pts[0], rcond=None)[0]
        pts[-1] = foot + t * (pts[-1] - foot)
        first = len(nodes)
        nodes.extend(pts)
        elements.append(msh.Element(kind, tuple(range(first, first + dim + 1)),
                                    area=1.0))
    elements.insert(3, msh.Element(kind, (0,) * dim + (len(nodes),), area=1.0))
    if dim > 1:
        elements.insert(7, msh.Element(msh.BAR, (0, 1), area=1.0))
    return msh.Mesh(dim, unit * np.array(nodes), elements)


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
        m = msh.Mesh(1, nodes, [msh.Element(msh.BAR, pair, area=1.0)
                                for pair in ((0, 1), (2, 3), (3, 4), (1, 2))])
        assert element_problems_oracle(m) == ["element 1 has zero measure"]
        assert msh.validate(m) == ["element 1 has zero measure",
                                   "gamma0 is empty", "gammaT is empty"]

    @pytest.mark.parametrize("unit", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_measures_match_oracle_bit_for_bit(self, dim, unit):
        rng = np.random.default_rng(10 + dim)
        if dim == 1:
            m = msh.generate_bar(1.0, 1.0, 6)
            m = msh.Mesh(1, m.nodes, [msh.Element(msh.BAR, e.nodes, area=a)
                                      for e, a in zip(m.elements,
                                                      rng.uniform(0.5, 2.0, 6))],
                         m.facets)
        else:
            m = (msh.generate_rectangle(1.0, 1.0, 3, 2, "left", "right")
                 if dim == 2 else kuhn_box(2, 1, 1))
        # every node moved by up to a fifth of a cell
        nodes = unit * (m.nodes + rng.uniform(-0.1, 0.1, size=m.nodes.shape))
        m = msh.Mesh(dim, nodes, m.elements, m.facets)
        ops = kin.assemble(m)
        assert ops.volumes.tolist() == [
            element_measure_oracle(m, e) * (e.area if dim == 1 else 1.0)
            for e in m.elements]
        assert ops.areas.tolist() == [facet_measure_oracle(m, f)
                                      for f in ops.gammat_facets]
        assert facet_measures(m).tolist() == [facet_measure_oracle(m, f)
                                              for f in m.facets]


class TestUnusedNode:
    def test_reported(self, unit_square):
        m = msh.Mesh(2, np.vstack([unit_square.nodes, [[5.0, 5.0], [6.0, 5.0]]]),
                     unit_square.elements, unit_square.facets)
        assert msh.validate(m) == ["node 4 is not a node of any element"]
        with pytest.raises(kin.KinematicsError, match="node 4 is not a node"):
            kin.assemble(m)

    def test_node_of_a_bad_element_is_used(self, unit_square):
        # an element of the wrong kind, and one with a node out of range,
        # still have the nodes they name
        m = msh.Mesh(2, np.vstack([unit_square.nodes, [[5.0, 5.0], [6.0, 5.0]]]),
                     list(unit_square.elements)
                     + [msh.Element(msh.BAR, (4, 0), area=1.0),
                        msh.Element(msh.TRIANGLE, (5, 0, 9))],
                     unit_square.facets)
        assert msh.validate(m) == [
            "element 2 kind bar does not match dim 2",
            "element 3 references node out of range",
            "element 2 is not connected to gamma0 through shared faces "
            "(2 loose elements)"]
