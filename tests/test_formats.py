import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanwidth.formats
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


# A two-vertex host (lines 1-3) and the six header lines of a certificate.
HOST = "[H]\n2 1\n0 1\n"
CERT_HEAD = "fan-certificate v1\nn 2\nb 1\nfan_size 1\nmeasured_bandwidth 0\nseed 0\n"

# (parser, document, the full message of the InputError it raises)
PARSER_MESSAGES = {
    "bad-bag-node": (parse_product_input, HOST + "[TD]\n1\nx: 0 1\n",
                     "line 6: bad bag node id 'x'"),
    "duplicate-bag-node": (parse_product_input, HOST + "[TD]\n2\n0: 0 1\n0: 1\n",
                           "line 7: duplicate bag node 0"),
    "non-integer-bag-member": (parse_product_input, HOST + "[TD]\n1\n0: 0 a\n",
                               "line 6: non-integer bag member in ' 0 a'"),
    "tree-edge-unknown-bag": (parse_product_input,
                              HOST + "[TD]\n2\n0: 0 1\n1: 1\n0 5\n",
                              "line 8: tree edge references unknown bag 5"),
    "row-count-zero": (parse_product_input, HOST + "[P]\n0\n",
                       "line 5: row count must be positive"),
    "missing-P": (parse_product_input, HOST + "[Q]\n",
                  "line 4: expected [P], got '[Q]'"),
    "missing-G": (parse_product_input, HOST + "[P]\n1\n[X]\n",
                  "line 6: expected [G], got '[X]'"),
    "duplicate-placement": (parse_product_input,
                            HOST + "[P]\n1\n[G]\n2 0\n0 0 1\n0 1 1\n",
                            "line 9: duplicate placement for vertex 0"),
    "placement-host": (parse_product_input, HOST + "[P]\n1\n[G]\n1 0\n0 5 1\n",
                       "line 8: host vertex 5 outside 0..1"),
    "placement-row": (parse_product_input, HOST + "[P]\n1\n[G]\n1 0\n0 0 3\n",
                      "line 8: row 3 outside 1..1"),
    "certificate-bad-integer": (parse_certificate, "fan-certificate v1\nn x\n",
                                "line 2: bad integer for n"),
    "certificate-ends-before-X": (parse_certificate, CERT_HEAD,
                                  "line 7: certificate ends before X"),
    "malformed-param": (parse_certificate, CERT_HEAD + "param k\n",
                        "line 7: param line needs 'param key value'"),
    "missing-X": (parse_certificate, CERT_HEAD + "Y 1\n",
                  "line 7: expected 'X <ids>', got 'Y 1'"),
    "missing-ordering": (parse_certificate, CERT_HEAD + "X\nmapping\n",
                         "line 8: expected 'ordering <ids>', got 'mapping'"),
    "missing-mapping": (parse_certificate, CERT_HEAD + "X\nordering 0 1\nend\n",
                        "line 9: expected 'mapping', got 'end'"),
    # a negative header count is an error, not zero records
    "graph-negative-vertices": (parse_graph, "-2 0\n",
                                "line 1: graph vertex count -2 is negative"),
    "graph-negative-edges": (parse_graph, "3 -1\n", "line 1: graph edge count -1 is negative"),
    "host-negative-edges": (parse_product_input, "[H]\n2 -1\n",
                            "line 2: host edge count -1 is negative"),
    "vertex-set-negative": (parse_vertex_set, "-3\n", "line 1: vertex count -3 is negative"),
    "bag-count-negative": (parse_product_input, HOST + "[TD]\n-1\n[P]\n1\n[G]\n0 0\n",
                           "line 5: bag count -1 is negative"),
    "placement-count-negative": (parse_product_input, HOST + "[P]\n1\n[G]\n-2 0\n",
                                 "line 7: placement count -2 is negative"),
    "embedded-edges-negative": (parse_product_input, HOST + "[P]\n1\n[G]\n1 -5\n0 0 1\n",
                                "line 7: embedded edge count -5 is negative"),
    "crossing-bad-fields": (parse_drawing,
                            "[graph]\n4 0\n[crossings]\n1\n0 1 2 3 x 0.5\n",
                            "line 5: bad crossing fields '0 1 2 3 x 0.5'"),
    "crossing-count-negative": (parse_drawing, "[graph]\n2 0\n[crossings]\n-1\n",
                                "line 4: crossing count -1 is negative"),
    # a line after a document's last record is an error, not ignored
    "graph-trailing": (parse_graph, "3 1\n0 1\n0 2\n",
                       "line 3: unexpected line after the graph: '0 2'"),
    "vertex-set-trailing": (parse_vertex_set, "1\n4\n5\n",
                            "line 3: unexpected line after the vertex set: '5'"),
    "product-trailing": (parse_product_input, HOST + "[P]\n1\n[G]\n1 0\n0 0 1\n[G]\n",
                         "line 9: unexpected line after the product document: '[G]'"),
    "drawing-trailing": (parse_drawing, "[graph]\n2 0\n[crossings]\n0\n0 1 2 3 0.5 0.5\n",
                         "line 5: unexpected line after the drawing: '0 1 2 3 0.5 0.5'"),
    "certificate-trailing": (parse_certificate,
                             CERT_HEAD + "X\nordering 0 1\nmapping\nend\nend\n",
                             "line 11: unexpected line after the certificate: 'end'"),
}

# The record blocks: graph and host edges, vertex ids, [G] placements and
# edges, and certificate mapping rows.  Each is split at once; a bad row is
# reported with the message and line number of a row-by-row reader, and the
# first bad row in the document wins, whatever its fault.
G_HEAD = HOST + "[P]\n1\n[G]\n"  # placements start on line 8
MAP_HEAD = CERT_HEAD + "X\nordering 0 1\nmapping\n"  # mapping rows start on line 10

RECORD_MESSAGES = {
    "graph-edge-1-field": (parse_graph, "3 2\n0 1\n2\n",
                           "line 3: expected 2 fields for graph edge, got 1"),
    "graph-edge-3-fields": (parse_graph, "3 2\n0 1\n1 2 0\n",
                            "line 3: expected 2 fields for graph edge, got 3"),
    "graph-edge-non-integer": (parse_graph, "3 1\n0 x\n",
                               "line 2: non-integer field in 'graph edge': '0 x'"),
    "graph-edge-out-of-range": (parse_graph, "3 1\n0 3\n",
                                "line 2: graph edge needs 0 <= u < v < n, got 0 3"),
    "graph-edge-negative": (parse_graph, "3 1\n-1 2\n",
                            "line 2: graph edge needs 0 <= u < v < n, got -1 2"),
    "graph-edge-u-not-below-v": (parse_graph, "3 1\n1 1\n",
                                 "line 2: graph edge needs 0 <= u < v < n, got 1 1"),
    "graph-edge-duplicate": (parse_graph, "3 3\n0 1\n1 2\n0 1\n",
                             "graph body: duplicate edge (0,1)"),
    "graph-edge-end-of-file": (parse_graph, "3 2\n0 1\n\n",
                               "line 4: expected graph edge 'u v', found end of file"),
    "graph-edge-after-blanks": (parse_graph, "3 2\n\n0 1\n \t\n0 x\n",
                                "line 5: non-integer field in 'graph edge': '0 x'"),
    "graph-edge-range-before-fields": (parse_graph, "3 2\n2 1\n0 1 2\n",
                                       "line 2: graph edge needs 0 <= u < v < n, got 2 1"),
    "graph-edge-fields-before-range": (parse_graph, "3 2\n0 1 2\n2 1\n",
                                       "line 2: expected 2 fields for graph edge, got 3"),
    "graph-edge-semicolon": (parse_graph, "3 2\n0 ;\n1 2\n",
                             "line 2: non-integer field in 'graph edge': '0 ;'"),
    "graph-edge-long-row": (parse_graph, "3 1\n0 " + "9" * 70 + "z\n",
                            "line 2: non-integer field in 'graph edge': '0 "
                            + "9" * 55 + "...'"),
    "host-edge-1-field": (parse_product_input, "[H]\n3 1\n2\n",
                          "line 3: expected 2 fields for host edge, got 1"),
    "host-edge-non-integer": (parse_product_input, "[H]\n3 1\n0 1.0\n",
                              "line 3: non-integer field in 'host edge': '0 1.0'"),
    "host-edge-out-of-range": (parse_product_input, "[H]\n3 1\n0 7\n",
                               "line 3: host edge needs 0 <= u < v < n, got 0 7"),
    "host-edge-end-of-file": (parse_product_input, "[H]\n3 1\n",
                              "line 3: expected host edge 'u v', found end of file"),
    "vertex-id-2-fields": (parse_vertex_set, "2\n4\n5 6\n",
                           "line 3: expected 1 fields for vertex id, got 2"),
    "vertex-id-non-integer": (parse_vertex_set, "2\n\nq\n7\n",
                              "line 3: non-integer field in 'vertex id': 'q'"),
    "vertex-id-end-of-file": (parse_vertex_set, "2\n4\n",
                              "line 3: expected vertex id, found end of file"),
    "placement-1-field": (parse_product_input, G_HEAD + "1 0\n0\n",
                          "line 8: expected 3 fields for placement, got 1"),
    "placement-4-fields": (parse_product_input, G_HEAD + "1 0\n0 0 1 1\n",
                           "line 8: expected 3 fields for placement, got 4"),
    "placement-non-integer": (parse_product_input, G_HEAD + "1 0\n0 0 z\n",
                              "line 8: non-integer field in 'placement': '0 0 z'"),
    "placement-id-out-of-range": (parse_product_input, G_HEAD + "1 0\n1 0 1\n",
                                  "line 8: vertex id 1 outside 0..0"),
    "placement-duplicate-after-blank": (parse_product_input,
                                        G_HEAD + "3 0\n1 0 1\n\n1 1 1\n0 0 1\n",
                                        "line 10: duplicate placement for vertex 1"),
    "placement-shared-cell": (parse_product_input, G_HEAD + "2 0\n0 1 1\n1 1 1\n",
                              "line 9: vertices 0 and 1 share cell (1,1)"),
    "placement-too-few-lines": (parse_product_input, G_HEAD + "2 0\n0 0 1\n",
                                "line 7: 2 placements but only 1 lines follow"),
    "placement-end-of-file": (parse_product_input, G_HEAD + "2 0\n0 0 1\n\n",
                              "line 10: expected placement 'id host_vertex row', "
                              "found end of file"),
    "placement-range-before-fields": (parse_product_input,
                                      G_HEAD + "2 0\n0 9 1\n1 0\n",
                                      "line 8: host vertex 9 outside 0..1"),
    "embedded-edge-1-field": (parse_product_input, G_HEAD + "2 1\n0 0 1\n1 1 1\n0\n",
                              "line 10: expected 2 fields for embedded edge, got 1"),
    "embedded-edge-3-fields": (parse_product_input,
                               G_HEAD + "2 1\n0 0 1\n1 1 1\n0 1 1\n",
                               "line 10: expected 2 fields for embedded edge, got 3"),
    "embedded-edge-non-integer": (parse_product_input,
                                  G_HEAD + "2 1\n0 0 1\n1 1 1\n0 one\n",
                                  "line 10: non-integer field in 'embedded edge': '0 one'"),
    "embedded-edge-out-of-range": (parse_product_input,
                                   G_HEAD + "2 1\n0 0 1\n1 1 1\n0 2\n",
                                   "line 10: embedded edge needs 0 <= u < v < n"),
    "embedded-edge-u-not-below-v": (parse_product_input,
                                    G_HEAD + "2 1\n0 0 1\n1 1 1\n1 0\n",
                                    "line 10: embedded edge needs 0 <= u < v < n"),
    "embedded-edge-duplicate": (parse_product_input,
                                G_HEAD + "2 2\n0 0 1\n1 1 1\n0 1\n\n0 1\n",
                                "duplicate edge (0,1)"),
    "embedded-edge-not-product": (parse_product_input,
                                  HOST + "[P]\n3\n[G]\n2 1\n0 0 1\n1 0 3\n\n0 1\n",
                                  "line 11: edge (0,1) is not a product edge: "
                                  "hosts 0,0 rows 1,3"),
    "embedded-edge-end-of-file": (parse_product_input,
                                  G_HEAD + "2 1\n0 0 1\n1 1 1\n",
                                  "line 10: expected embedded edge 'u v', found end of file"),
    "mapping-1-field": (parse_certificate, MAP_HEAD + "0\nend\n",
                        "line 10: expected 3 fields for mapping row, got 1"),
    "mapping-4-fields": (parse_certificate, MAP_HEAD + "0 1 0\n1 1 1 1\nend\n",
                         "line 11: expected 3 fields for mapping row, got 4"),
    "mapping-non-integer": (parse_certificate, MAP_HEAD + "0 1 a\nend\n",
                            "line 10: non-integer field in 'mapping row': '0 1 a'"),
    "mapping-duplicate": (parse_certificate, MAP_HEAD + "0 1 0\n\n0 1 1\nend\n",
                          "line 12: duplicate mapping for vertex 0"),
    "mapping-duplicate-before-fields": (parse_certificate,
                                        MAP_HEAD + "0 1 0\n0 1 1\n1 1\nend\n",
                                        "line 11: duplicate mapping for vertex 0"),
    "mapping-end-of-file": (parse_certificate, MAP_HEAD + "0 1 0\n1 1 1\n",
                            "line 12: expected mapping row or 'end', found end of file"),
    "mapping-end-word-in-row": (parse_certificate, MAP_HEAD + "0 1 0\nend 1 1\nend\n",
                                "line 11: non-integer field in 'mapping row': 'end 1 1'"),
    "mapping-end-with-spaces-ends": (parse_certificate, MAP_HEAD + "0 1 0\n end \n1 1 1\n",
                                     "line 12: unexpected line after the certificate: "
                                     "'1 1 1'"),
}


class TestParserMessages:
    @pytest.mark.parametrize("parse, text, message", PARSER_MESSAGES.values(),
                             ids=PARSER_MESSAGES.keys())
    def test_message(self, parse, text, message):
        with pytest.raises(InputError) as exc:
            parse(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("parse, text, message", RECORD_MESSAGES.values(),
                             ids=RECORD_MESSAGES.keys())
    def test_record_message(self, parse, text, message):
        with pytest.raises(InputError) as exc:
            parse(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("parse, text, same_as", [
        (parse_graph, "3 2\n0 1\n\n \t \n1 2\n", "3 2\n0 1\n1 2\n"),
        (parse_product_input, "[H]\n3 2\n0 1\n\n1 2\n[P]\n1\n[G]\n0 0\n",
         "[H]\n3 2\n0 1\n1 2\n[P]\n1\n[G]\n0 0\n"),
        (parse_vertex_set, "2\n4\n\n7\n", "2\n4\n7\n"),
        (parse_product_input, G_HEAD + "2 1\n0 0 1\n \n1 1 1\n\n0 1\n",
         G_HEAD + "2 1\n0 0 1\n1 1 1\n0 1\n"),
        (parse_certificate, MAP_HEAD + "0 1 0\n\n1 1 1\n\t\n  end \n",
         MAP_HEAD + "0 1 0\n1 1 1\nend\n"),
    ], ids=["graph-edges", "host-edges", "vertex-ids", "placements-and-edges",
            "mapping-rows"])
    def test_blank_row_inside_a_block(self, parse, text, same_as):
        assert repr(parse(text)) == repr(parse(same_as))

    @pytest.mark.parametrize("parse, text", [
        (parse_graph, "3 1\n0 1\n\n  \n"),
        (parse_vertex_set, "1\n4\n\n"),
        (parse_drawing, "[graph]\n2 0\n[crossings]\n0\n\n"),
        (parse_certificate, CERT_HEAD + "X\nordering 0 1\nmapping\nend\n\n"),
    ], ids=["graph", "vertex-set", "drawing", "certificate"])
    def test_blank_lines_may_follow_the_last_record(self, parse, text):
        parse(text)


BLANKS = st.sampled_from(["", " ", "\t", "  \t "])


def with_blank_rows(draw, text: str) -> str:
    """``text`` with blank rows drawn before, between and after its rows."""
    out = []
    for row in text.splitlines():
        out += draw(st.lists(BLANKS, max_size=2))
        out.append(row)
    out += draw(st.lists(BLANKS, max_size=2))
    return "\n".join(out) + "\n"


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


class TestBlankRowRoundTrip:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_graph(self, data):
        g = data.draw(small_graphs())
        text = serialize_graph(g)
        assert serialize_graph(parse_graph(with_blank_rows(data.draw, text))) == text

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_certificate(self, data):
        g = data.draw(small_graphs().filter(lambda g: g.n > 0))
        x = data.draw(st.sets(st.sampled_from(g.vertices())))
        rest = [v for v in g.vertices() if v not in x]
        ordering = data.draw(st.permutations(rest))
        b = max(len(x), *(abs(ordering.index(u) - ordering.index(v))
                          for u, v in g.edges() if u in rest and v in rest), 1)
        cert = fan_certificate(g, x, ordering, min(b, g.n), seed=data.draw(st.integers(0, 9)),
                               params=data.draw(st.dictionaries(
                                   st.sampled_from(["D", "k", "a"]), st.sampled_from(["1", "x y"]))))
        text = serialize_certificate(cert)
        cert2 = parse_certificate(with_blank_rows(data.draw, text))
        assert serialize_certificate(cert2) == text
        assert cert2.mapping == cert.mapping


def documents() -> dict:
    """A valid document for each parser that pauses the collector: the 3x3
    grid, its certificate and the grid inside path(3) x path(3)."""
    host, g, placements = grid_in_product(3)
    return {
        parse_graph: serialize_graph(g),
        parse_certificate: serialize_certificate(fan_certificate(g, [], g.vertices(), 3)),
        parse_product_input: serialize_product_input(host, None, 3, placements, g),
    }


class TestCollectorPaused:
    """A parse runs with the cyclic garbage collector paused and leaves it
    as it found it, whether the parse succeeds or raises."""

    @pytest.mark.parametrize("parse", list(documents()), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    def test_the_collector_is_restored(self, monkeypatch, parse, enabled, valid):
        split = fanwidth.formats._split_ints
        collecting = []  # the collector's state at each bulk read of records

        def recording(*args):
            collecting.append(gc.isenabled())
            return split(*args)

        monkeypatch.setattr(fanwidth.formats, "_split_ints", recording)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if valid:
                parse(documents()[parse])
                assert collecting and not any(collecting)
            else:
                with pytest.raises(InputError):
                    parse("3 1\n0 x\n")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
