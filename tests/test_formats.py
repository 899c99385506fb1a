import pytest

from fanwidth import Graph, InputError, fan_certificate, path_graph
from fanwidth.formats import (
    _Lines,
    parse_certificate,
    parse_decomposition,
    parse_drawing,
    parse_graph,
    parse_product_input,
    parse_vertex_set,
    serialize_certificate,
    serialize_decomposition,
    serialize_drawing,
    serialize_graph,
    serialize_product_input,
    serialize_vertex_set,
)
from fanwidth.pipeline import Crossing, DrawnGraph
from fanwidth.treedec import minfill_decomposition

from conftest import grid_in_product, random_connected_graph


class TestGraphFormat:
    def test_round_trip(self):
        g = random_connected_graph(9, 0.3, seed=4)
        text = serialize_graph(g)
        g2 = parse_graph(text)
        assert g2.n == g.n and sorted(g2.edges()) == sorted(g.edges())
        assert serialize_graph(g2) == text

    def test_reports_line_numbers(self):
        with pytest.raises(InputError, match="line 3"):
            parse_graph("3 2\n0 1\n1 1 1\n")

    def test_rejects_unordered_edge(self):
        with pytest.raises(InputError, match="u < v"):
            parse_graph("3 1\n2 1\n")

    def test_rejects_truncated_file(self):
        with pytest.raises(InputError, match="end of file"):
            parse_graph("3 2\n0 1\n")

    @pytest.mark.parametrize("parse, text, message", [
        (parse_graph, "3 2\n0 1\n0 1\n", "graph body: duplicate edge (0,1)"),
        (parse_product_input, "[H]\n3 1\n2 1\n",
         "line 3: host edge needs 0 <= u < v < n, got 2 1"),
        (parse_product_input, "[H]\n2 1\n1 1 0\n",
         "line 3: expected 2 fields for host edge, got 3"),
        (parse_product_input, "[H]\n3 2\n0 1\n0 1\n[P]\n", "host body: duplicate edge (0,1)"),
        (parse_drawing, "[graph]\n3 1\n2 1\n",
         "line 3: graph edge needs 0 <= u < v < n, got 2 1"),
        (parse_drawing, "[graph]\n3 2\n0 1\n0 1\n", "graph body: duplicate edge (0,1)"),
    ], ids=["graph-body", "host-edge", "host-fields", "host-body", "drawing-edge",
            "drawing-body"])
    def test_one_edge_list_reader(self, parse, text, message):
        # graphs, product hosts and drawings share one reader and its messages
        with pytest.raises(InputError) as exc:
            parse(text)
        assert str(exc.value) == message

    def test_vertex_set_round_trip(self):
        text = serialize_vertex_set({4, 1, 7})
        assert parse_vertex_set(text) == [1, 4, 7]


class TestDecompositionFormat:
    def test_round_trip(self):
        g = random_connected_graph(8, 0.35, seed=5)
        td = minfill_decomposition(g)
        text = serialize_decomposition(td)
        td2 = parse_decomposition(_Lines(text))
        assert td2.bags == td.bags
        assert {tuple(sorted(e)) for e in td2.tree_edges} == {
            tuple(sorted(e)) for e in td.tree_edges
        }

    def test_bad_bag_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_decomposition(_Lines("2\n0 1 2\n1: 2 3\n0 1\n"))


class TestProductFormat:
    def test_round_trip(self):
        host, g, placements = grid_in_product(4)
        td = minfill_decomposition(host)
        text = serialize_product_input(host, td, 4, placements, g)
        host2, td2, rows, placements2, g2 = parse_product_input(text)
        assert host2.n == host.n
        assert td2.bags == td.bags
        assert rows == 4
        assert placements2 == placements
        assert sorted(g2.edges()) == sorted(g.edges())
        assert serialize_product_input(host2, td2, rows, placements2, g2) == text

    def test_column_document(self):
        text = "[H]\n1 0\n[P]\n3\n[G]\n3 2\n0 0 1\n1 0 2\n2 0 3\n0 1\n1 2\n"
        host, td, rows, placements, g = parse_product_input(text)
        assert host.n == 1 and td is None and rows == 3
        assert g.num_edges == 2

    def test_row_gap_two_rejected(self):
        text = "[H]\n1 0\n[P]\n3\n[G]\n2 1\n0 0 1\n1 0 3\n0 1\n"
        with pytest.raises(InputError, match="not a product edge"):
            parse_product_input(text)

    def test_non_host_edge_rejected(self):
        text = "[H]\n2 0\n[P]\n2\n[G]\n2 1\n0 0 1\n1 1 1\n0 1\n"
        with pytest.raises(InputError, match="not a product edge"):
            parse_product_input(text)

    def test_duplicate_cell_rejected(self):
        text = "[H]\n1 0\n[P]\n2\n[G]\n2 0\n0 0 1\n1 0 1\n"
        with pytest.raises(InputError, match="share cell"):
            parse_product_input(text)

    def test_diagonal_product_edge_accepted(self):
        text = "[H]\n2 1\n0 1\n[P]\n2\n[G]\n2 1\n0 0 1\n1 1 2\n0 1\n"
        host, td, rows, placements, g = parse_product_input(text)
        assert g.num_edges == 1


class TestCertificateFormat:
    def test_bit_exact_round_trip(self):
        g = path_graph(10)
        cert = fan_certificate(g, [0], list(range(1, 10)), 3, seed=9,
                               params={"D": "4", "mode": "certified"})
        text = serialize_certificate(cert)
        cert2 = parse_certificate(text)
        assert serialize_certificate(cert2) == text
        assert cert2.mapping == cert.mapping
        assert cert2.params == cert.params

    def test_rejects_foreign_document(self):
        with pytest.raises(InputError, match="not a fan-certificate"):
            parse_certificate("something else\n")

    def test_rejects_duplicate_mapping(self):
        g = path_graph(4)
        cert = fan_certificate(g, [0], [1, 2, 3], 2)
        text = serialize_certificate(cert)
        lines = text.splitlines()
        idx = lines.index("mapping") + 1
        lines.insert(idx, lines[idx])
        with pytest.raises(InputError, match="duplicate mapping"):
            parse_certificate("\n".join(lines) + "\n")

    def test_rejects_duplicate_param(self):
        # a repeated key would parse as its last value, and the document
        # would not round-trip
        cert = fan_certificate(path_graph(4), [0], [1, 2, 3], 2, params={"D": "8"})
        lines = serialize_certificate(cert).splitlines()
        idx = lines.index("param D 8")
        lines.insert(idx + 1, "param D 9")
        with pytest.raises(InputError, match=f"^line {idx + 2}: duplicate param D$"):
            parse_certificate("\n".join(lines) + "\n")


class TestDrawingFormat:
    def test_round_trip(self):
        g = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        dg = DrawnGraph(g, [Crossing((0, 3), (1, 2), 0.5, 0.25)])
        text = serialize_drawing(dg)
        dg2 = parse_drawing(text)
        assert dg2.graph.n == 5
        assert dg2.crossings[0].edge_a == (0, 3)
        assert dg2.crossings[0].pos_b == 0.25
        assert serialize_drawing(dg2) == text

    def test_bad_crossing_line(self):
        text = "[graph]\n3 1\n0 1\n[crossings]\n1\n0 1 2\n"
        with pytest.raises(InputError, match="6 fields"):
            parse_drawing(text)
