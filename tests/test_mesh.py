import json

import numpy as np
import pytest

from loadcap import kinematics as kin
from loadcap import mesh as msh


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
        for e in m.elements:
            assert msh.element_measure(m, e) == pytest.approx(0.5)

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
        total = sum(msh.element_measure(m, e) for e in m.elements)
        assert total == pytest.approx(6.0, abs=1e-12)


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
        vols = [msh.element_measure(two_tet_mesh, e)
                for e in two_tet_mesh.elements]
        assert vols[0] == pytest.approx(1.0 / 6.0)
        assert sum(vols) > 0

    def test_facet_measures(self, two_tet_mesh):
        for f in two_tet_mesh.facets:
            assert msh.facet_measure(two_tet_mesh, f) > 0

    def test_bar_facet_measure_is_cross_section(self):
        m = msh.generate_bar(1.0, 2.5, 2)
        for f in m.facets:
            assert msh.facet_measure(m, f) == pytest.approx(2.5)
