import math
import re

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from fanwidth import (
    ConstraintError,
    Crossing,
    DrawnGraph,
    Graph,
    InputError,
    TreeDecomposition,
    bandwidth_of_ordering,
    blowup_to_bandwidth,
    default_blowup_factor,
    exhaustive_local_density,
    fan_certificate,
    gk_reduce,
    grid_graph,
    kplanar_reduce,
    path_graph,
    planar_pipeline,
    planarize_drawing,
    product_pipeline,
    verify_certificate,
)
from fanwidth import embedding
from fanwidth.embedding import _embedding_shape, build_embedding, projection_orders
from fanwidth.pipeline import CENTER, _best_of_orderings, sparsify_product

from conftest import (
    column_in_product,
    grid_in_product,
    reference_round_trip,
    reference_verify_certificate,
    stacked_triangulation,
    traced_peak,
)


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def k5():
    return complete_graph(5)


def k5_drawing():
    return DrawnGraph(k5(), [Crossing((0, 3), (1, 2), 0.5, 0.5)])


@st.composite
def certifiable(draw):
    """``(g, x, ordering, b)`` that ``fan_certificate`` accepts: a graph with
    some ids removed, a set X, an ordering of the rest and a b from the
    least one the two allow up to n."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, edges).delete(draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
    live = g.vertices()
    x = draw(st.lists(st.sampled_from(live), unique=True))
    ordering = draw(st.permutations([v for v in live if v not in x]))
    least = max(len(x), bandwidth_of_ordering(g.delete(x), ordering), 1)
    return g, x, ordering, draw(st.integers(least, len(live)))


class TestFanCertificate:
    def test_ten_over_three(self):
        g = path_graph(10)
        cert = fan_certificate(g, [0], list(range(1, 10)), 3)
        assert cert.fan_size == 4
        assert len(cert.x) == 3
        assert verify_certificate(g, cert) == []

    def test_b_equals_n_boundary(self):
        g = path_graph(4)
        cert = fan_certificate(g, [], [0, 1, 2, 3], 4)
        assert cert.fan_size == 2  # center plus one empty path node
        assert sorted(cert.x) == [0, 1, 2, 3]
        assert cert.ordering == []
        assert verify_certificate(g, cert) == []

    def test_padding_from_tail(self):
        g = path_graph(4)
        cert = fan_certificate(g, [], [0, 1, 2, 3], 1)
        assert cert.x == [3]
        assert cert.ordering == [0, 1, 2]
        assert cert.measured_bandwidth == 1
        assert verify_certificate(g, cert) == []

    def test_unused_slots_only_in_last_path_node(self):
        g = path_graph(10)
        cert = fan_certificate(g, [0], list(range(1, 10)), 3)
        used = {}
        for v, (node, slot) in cert.mapping.items():
            used.setdefault(node, set()).add(slot)
        p = cert.fan_size - 1
        for node in range(p):
            assert used[node] == set(range(cert.b))
        assert used[p] == set(range(len(used[p])))

    def test_rejects_oversize_x(self):
        g = path_graph(5)
        with pytest.raises(ConstraintError):
            fan_certificate(g, [0, 1, 2], [3, 4], 2)

    def test_rejects_wide_ordering(self):
        g = Graph(4, [(0, 3), (1, 2)])
        with pytest.raises(ConstraintError):
            fan_certificate(g, [], [0, 1, 2, 3], 1)

    @pytest.mark.parametrize("x, message", [
        ([999], "X vertex 999 is not in the graph"),
        ([-1], "X vertex -1 is not in the graph"),
        ([0, 0], "X lists a vertex id more than once"),
    ])
    def test_rejects_bad_x_up_front(self, x, message):
        g = path_graph(4)
        rest = [v for v in g.vertices() if v not in x]
        with pytest.raises(ConstraintError, match=message):
            fan_certificate(g, x, rest, 2)

    def test_rejects_b_above_n(self):
        g = path_graph(3)
        with pytest.raises(ConstraintError):
            fan_certificate(g, [], [0, 1, 2], 4)

    @pytest.mark.parametrize("ordering", [[1, 2], [1, 2, 3, 3], [1, 2, 9]])
    def test_rejects_an_ordering_that_is_not_the_rest(self, ordering):
        with pytest.raises(InputError) as exc:
            fan_certificate(path_graph(4), [0], ordering, 2)
        assert str(exc.value) == "ordering is not a permutation of the live vertex set"

    @given(certifiable())
    @settings(max_examples=300, deadline=None)
    def test_measured_bandwidth_is_the_width_on_g_minus_x(self, case):
        g, x, ordering, b = case
        cert = fan_certificate(g, x, ordering, b)
        assert cert.measured_bandwidth == bandwidth_of_ordering(g.delete(cert.x),
                                                                cert.ordering)
        assert verify_certificate(g, cert) == []


class TestVerifyCertificate:
    def test_fan_size_message_names_the_required_size(self):
        # at n <= b the fan still needs the center and one path node
        g = path_graph(5)
        cert = fan_certificate(g, [], list(range(5)), 5)
        cert.fan_size = 1
        assert verify_certificate(g, cert) == [
            "fan size 1 differs from max(2, ceil(n/b)) = 2"]

    def test_slot_collision_detected(self):
        g = path_graph(4)
        cert = fan_certificate(g, [0], [1, 2, 3], 2)
        victim = cert.ordering[0]
        other = cert.ordering[1]
        cert.mapping[victim] = cert.mapping[other]
        violations = verify_certificate(g, cert)
        assert any("share node" in v for v in violations)

    def test_far_nodes_detected(self):
        g = path_graph(9)
        cert = fan_certificate(g, [0], list(range(1, 9)), 2)
        # move a path vertex two fan nodes away from its neighbors
        v = cert.ordering[0]
        node, slot = cert.mapping[v]
        cert.mapping[v] = (node + 2, slot)
        violations = verify_certificate(g, cert)
        assert any("non-adjacent fan nodes" in v for v in violations)

    def test_center_membership_consistency(self):
        g = path_graph(4)
        cert = fan_certificate(g, [0], [1, 2, 3], 2)
        cert.mapping[0] = (1, 0)
        violations = verify_certificate(g, cert)
        assert any("center membership" in v for v in violations)
        assert any("share node" in v for v in violations)

    def test_dishonest_bandwidth_detected(self):
        g = path_graph(6)
        cert = fan_certificate(g, [0], list(range(1, 6)), 2)
        cert.measured_bandwidth += 1
        violations = verify_certificate(g, cert)
        assert any("declared bandwidth" in v for v in violations)

    def test_tampered_ordering_detected(self):
        g = path_graph(6)
        cert = fan_certificate(g, [0], list(range(1, 6)), 2)
        cert.ordering = cert.ordering[:-1]
        violations = verify_certificate(g, cert)
        assert any("permutation" in v for v in violations)

    def test_mapping_covers_exactly_the_live_vertices(self):
        g = path_graph(6)
        cert = fan_certificate(g, [0], list(range(1, 6)), 2)
        cert.mapping[9] = cert.mapping.pop(5)
        violations = verify_certificate(g, cert)
        assert "vertex 5 is not mapped" in violations
        assert "mapped vertex 9 is not in the graph" in violations
        # a removed vertex of a masked view is not in the graph either
        cert = fan_certificate(g, [0], list(range(1, 6)), 2)
        violations = verify_certificate(g.delete({5}), cert)
        assert "mapped vertex 5 is not in the graph" in violations


MUTATIONS = ["swap", "move", "x-drop", "x-duplicate", "x-add", "bandwidth", "node-range",
             "slot-range", "unmap", "map-non-vertex", "fan-size", "ordering", "b", "n"]


@st.composite
def mutated_certificates(draw, kinds=MUTATIONS):
    """A graph, some of its vertices deleted, and a valid certificate of it
    with up to four mutations drawn from ``kinds``."""
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    g = g.delete(draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
    live = g.vertices()
    x = draw(st.sets(st.sampled_from(live), max_size=len(live)))
    ordering = draw(st.permutations([v for v in live if v not in x]))
    width = bandwidth_of_ordering(g.delete(x), ordering)
    b = draw(st.integers(max(width, len(x), 1), len(live)))
    cert = fan_certificate(g, x, ordering, b)
    mapping = cert.mapping
    outside = st.sampled_from(sorted(set(range(-2, n + 2)) - set(live)))
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=4)):
        mapped = sorted(mapping)
        if kind == "swap" and len(mapped) > 1:
            u, v = draw(st.lists(st.sampled_from(mapped), min_size=2, max_size=2, unique=True))
            mapping[u], mapping[v] = mapping[v], mapping[u]
        elif kind == "move" and mapped:
            v = draw(st.sampled_from(mapped))
            node, slot = mapping[v]
            mapping[v] = (node + draw(st.sampled_from([-2, 2])), slot)
        elif kind == "x-drop" and cert.x:
            cert.x = [v for v in cert.x if v != draw(st.sampled_from(cert.x))]
        elif kind == "x-duplicate" and cert.x:
            cert.x = cert.x + [draw(st.sampled_from(cert.x))]
        elif kind == "x-add":
            cert.x = cert.x + [draw(st.sampled_from(live) | outside)]
        elif kind == "bandwidth":
            cert.measured_bandwidth += draw(st.sampled_from([-1, 1, 5]))
        elif kind == "node-range" and mapped:
            v = draw(st.sampled_from(mapped))
            mapping[v] = (draw(st.sampled_from([-1, cert.fan_size, cert.fan_size + 3])),
                          mapping[v][1])
        elif kind == "slot-range" and mapped:
            v = draw(st.sampled_from(mapped))
            mapping[v] = (mapping[v][0], draw(st.sampled_from([-1, cert.b])))
        elif kind == "unmap" and mapped:
            del mapping[draw(st.sampled_from(mapped))]
        elif kind == "map-non-vertex":
            mapping[draw(outside)] = (draw(st.integers(0, cert.fan_size)),
                                      draw(st.integers(0, max(cert.b, 0))))
        elif kind == "fan-size":
            cert.fan_size = draw(st.integers(1, cert.fan_size + 3))
        elif kind == "ordering" and cert.ordering:
            cert.ordering = draw(st.lists(st.sampled_from(cert.ordering) | outside,
                                          max_size=len(cert.ordering) + 1))
        elif kind == "b":
            cert.b = draw(st.sampled_from([0, 1, cert.measured_bandwidth - 1, len(live) + 1]))
        elif kind == "n":
            cert.n += draw(st.sampled_from([-1, 1]))
    return g, cert


class TestVerifyMatchesReference:
    """The one-sweep check returns the violations of the check as first
    written (``conftest.reference_verify_certificate``), string for string
    and in order, and the same block walk."""

    @given(mutated_certificates())
    @settings(max_examples=400, deadline=None)
    def test_violations_and_round_trip(self, case):
        g, cert = case
        for strict in (True, False):
            violations = verify_certificate(g, cert, strict_shape=strict)
            assert violations == reference_verify_certificate(g, cert, strict_shape=strict)
            if violations:
                assert violations.walk is None
            else:
                assert violations.walk == reference_round_trip(g, cert)

    @pytest.mark.parametrize("kind, shape", [
        ("n", "certificate n=# but graph has # vertices"),
        ("b", "blowup factor # out of range"),
        ("fan-size", "fan size # differs from max(#, ceil(n/b)) = #"),
        ("unmap", "vertex # is not mapped"),
        ("map-non-vertex", "mapped vertex # is not in the graph"),
        ("node-range", "vertex # mapped to missing fan node #"),
        ("slot-range", "vertex # mapped to slot # outside #..#"),
        ("move", "vertices # and # share node # slot #"),
        ("x-duplicate", "X lists a vertex id more than once"),
        ("x-add", "X vertex # is not in the graph"),
        ("x-drop", "vertex #: center membership disagrees with X"),
        ("ordering", "ordering is not a permutation of the non-center vertices"),
        ("bandwidth", "declared bandwidth # but ordering has #"),
        ("b", "ordering width # exceeds b = #"),
        ("move", "edge (#,#) spans non-adjacent fan nodes # and #"),
    ])
    def test_the_mutations_reach_every_violation(self, kind, shape):
        def shapes(case):
            return {re.sub(r"-?\d+", "#", line)
                    for line in reference_verify_certificate(*case)}

        quick = settings(max_examples=2000, database=None, derandomize=True,
                         phases=[Phase.generate])
        g, cert = find(mutated_certificates([kind]), lambda case: shape in shapes(case),
                       settings=quick)
        for strict in (True, False):
            assert (verify_certificate(g, cert, strict_shape=strict)
                    == reference_verify_certificate(g, cert, strict_shape=strict))


class TestBlowupToBandwidth:
    def test_fan_itself(self):
        # map each fan vertex to itself in the 1-blowup
        from fanwidth import build_fan

        fan = build_fan(4)
        mapping = {v: (v + 1, 0) for v in range(4)}
        mapping[4] = (CENTER, 0)
        from fanwidth.pipeline import FanCertificate

        cert = FanCertificate(5, 1, 5, [4], [0, 1, 2, 3], mapping, 1)
        x, ordering, bw = blowup_to_bandwidth(fan, cert)
        assert x == {4}
        assert bw <= 1

    def test_round_trip(self):
        g, _ = grid_graph(5, 5)
        res = planar_pipeline(g, D=12, seed=2, a=2, k=3, restarts=2)
        b = default_blowup_factor(res)
        cert = fan_certificate(g, res.x, res.ordering, b)
        x, ordering, bw = blowup_to_bandwidth(g, cert)
        assert bw <= 2 * b - 1

    def test_empty_blocks_skipped(self):
        from fanwidth.pipeline import FanCertificate

        g = Graph(3, [(0, 1)])
        mapping = {0: (1, 0), 1: (1, 1), 2: (4, 0)}
        cert = FanCertificate(3, 2, 5, [], [], mapping, 0)
        cert.x = []
        x, ordering, bw = blowup_to_bandwidth(g, cert)
        assert ordering == [0, 1, 2]

    def test_invalid_mapping_rejected(self):
        g = path_graph(4)
        cert = fan_certificate(g, [0], [1, 2, 3], 2)
        cert.mapping[1] = (3, 0)
        with pytest.raises(InputError):
            blowup_to_bandwidth(g, cert)


class TestPlanarPipeline:
    def test_path_with_full_budget(self):
        g = path_graph(4)
        res = planar_pipeline(g, D=4, seed=0, a=5, k=3, restarts=5)
        assert res.x == set()
        assert res.bandwidth == 1  # best-of-R recovers a path order here

    @pytest.mark.parametrize("D", [0, 5])
    def test_density_outside_the_vertex_range_rejected(self, D):
        # baker_sparsify holds the check
        with pytest.raises(InputError, match=rf"^D={D} outside \[1, 4\]$"):
            planar_pipeline(path_graph(4), D=D, seed=0)

    def test_single_vertex(self):
        res = planar_pipeline(Graph(1, []), D=1, seed=0)
        assert res.x == set() and res.bandwidth == 0

    def test_grid_density_contract(self):
        g, _ = grid_graph(16, 16)
        res = planar_pipeline(g, D=4, seed=1, a=2, k=3, restarts=2)
        gp = g.delete(res.x)
        if gp.num_vertices:
            assert exhaustive_local_density(gp) <= 4

    def test_stacked_triangulation_certifies(self):
        g = stacked_triangulation(40, seed=6)
        res = planar_pipeline(g, D=10, seed=3, a=2, k=3, restarts=2)
        cert = fan_certificate(g, res.x, res.ordering, default_blowup_factor(res))
        assert verify_certificate(g, cert) == []


class TestProductPipeline:
    def test_column_best_of_restarts_reaches_width_one(self):
        host, td, g, placements = column_in_product(4)
        res = product_pipeline(host, td, g, placements, D=8, seed=1, a=5,
                               k=3, restarts=5)
        assert res.x == set()
        assert res.bandwidth == 1
        assert res.bandwidth_median >= res.bandwidth

    def test_single_vertex(self):
        host, td, g, placements = column_in_product(1)
        res = product_pipeline(host, td, g, placements, D=2, seed=0)
        assert res.x == set() and res.bandwidth == 0

    def test_grid_certificate_verifies(self):
        host, g, placements = grid_in_product(8)
        res = product_pipeline(host, None, g, placements, D=4, seed=7, a=2,
                               k=3, restarts=2)
        # 18 (w + 1) n scales / D for the path host, 64 points and 7 scales
        assert res.info["x_bound"] == 18 * 2 * 64 * 7 / 4
        assert res.info["x_cylinder_size"] <= res.info["x_bound"]
        b = default_blowup_factor(res)
        cert = fan_certificate(g, res.x, res.ordering, b, seed=7)
        assert verify_certificate(g, cert) == []
        x, ordering, bw = blowup_to_bandwidth(g, cert)
        assert bw <= 2 * b - 1

    def test_row_compression_handles_sparse_rows(self):
        from fanwidth import ProductVertex

        host = Graph(1, [])
        td = TreeDecomposition({0: frozenset([0])}, frozenset())
        g = Graph(2, [])
        placements = [ProductVertex(0, 1), ProductVertex(0, 40)]
        res = product_pipeline(host, td, g, placements, D=2, seed=0, a=2, k=2,
                               restarts=1)
        assert res.bandwidth == 0

    def test_orders_without_the_coordinate_matrix(self):
        # the n x L float64 matrix would take 12 MB here; the orderings come
        # from per-instance sums, so the whole run allocates less than that
        host, g, placements = grid_in_product(12)
        res, peak = traced_peak(
            lambda: product_pipeline(host, None, g, placements, D=32, seed=3, a=100))
        n = len(res.ordering)
        scales, reps = _embedding_shape(n, max(2, math.ceil(math.log2(n))), 100)
        assert n * scales * reps * 8 > 10**7
        assert peak < n * scales * reps * 8


class TestKPlanarReduce:
    def test_zero_crossings_matches_planar(self):
        g, _ = grid_graph(4, 4)
        dg = DrawnGraph(g, [])
        a = kplanar_reduce(dg, k=1, D=8, seed=5, a=2, restarts=2)
        b = planar_pipeline(g, D=8, seed=5, a=2, restarts=2)
        assert a.x == b.x and a.ordering == b.ordering

    def test_k5_planarization(self):
        gp, dummy_edges = planarize_drawing(k5_drawing())
        assert gp.n == 6
        assert gp.degree(5) == 4
        assert dummy_edges == [((0, 3), (1, 2))]

    def test_k5_reduction_certifies(self):
        dg = k5_drawing()
        res = kplanar_reduce(dg, k=1, D=5, seed=3, a=2, restarts=2)
        assert len(res.x) <= 4 * res.info["planar_x_size"]
        cert = fan_certificate(k5(), res.x, res.ordering,
                               default_blowup_factor(res))
        assert verify_certificate(k5(), cert) == []

    def test_edge_paths_short(self):
        dg = k5_drawing()
        res = kplanar_reduce(dg, k=1, D=5, seed=3, a=2, restarts=2)
        # each surviving edge of the original graph is a path of length
        # at most k+1 = 2 in the planarization (structural)
        assert res.info["dummies"] == 1

    def test_dense_input_rejected(self):
        n = 18
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        dg = DrawnGraph(g, [])
        with pytest.raises(InputError):
            kplanar_reduce(dg, k=1, D=10, seed=0)

    def test_adjacent_edge_crossing_rejected(self):
        g = path_graph(3)
        dg = DrawnGraph(g, [Crossing((0, 1), (1, 2), 0.5, 0.5)])
        with pytest.raises(InputError):
            kplanar_reduce(dg, k=1, D=2, seed=0)


class TestGkReduce:
    def test_genus_zero_delegates(self):
        dg = k5_drawing()
        a = gk_reduce(dg, genus=0, k=1, D=5, seed=3, a=2, restarts=2)
        b = kplanar_reduce(dg, k=1, D=5, seed=3, a=2, restarts=2)
        assert a.x == b.x and a.ordering == b.ordering

    @pytest.mark.parametrize("planarizing", [[999], []])
    def test_genus_zero_rejects_a_planarizing_set(self, planarizing):
        # genus 0 never reads the set, so it neither records nor checks it
        with pytest.raises(InputError, match="^a planarizing set is used only at "
                                             "positive genus$"):
            gk_reduce(k5_drawing(), genus=0, k=1, D=5, seed=3,
                      planarizing_set=planarizing, a=2, restarts=2)

    def test_genus_one_with_planarizer(self):
        dg = DrawnGraph(k5(), [])
        res = gk_reduce(dg, genus=1, k=0, D=4, seed=2, planarizing_set=[4],
                        a=2, restarts=2)
        assert 4 in res.x
        gp = k5().delete(res.x)
        if gp.num_vertices:
            assert exhaustive_local_density(gp) <= 4
        cert = fan_certificate(k5(), res.x, res.ordering,
                               default_blowup_factor(res))
        assert verify_certificate(k5(), cert) == []

    def test_missing_planarizer_rejected(self):
        dg = DrawnGraph(k5(), [])
        with pytest.raises(InputError):
            gk_reduce(dg, genus=1, k=0, D=4, seed=2)

    def test_genus_with_crossings(self):
        # dummy-augmented K5 is already planar, so an empty planarizing set
        # is legitimate for a claimed genus-1 drawing with one crossing
        dg = k5_drawing()
        res = gk_reduce(dg, genus=1, k=1, D=5, seed=4, planarizing_set=[],
                        a=2, restarts=2)
        assert res.info["dummies"] == 1
        cert = fan_certificate(k5(), res.x, res.ordering,
                               default_blowup_factor(res))
        assert verify_certificate(k5(), cert) == []

    # K_129 has 8256 = 64n edges, so one crossing reaches the dense branch
    @pytest.mark.parametrize("genus, k, message", [
        (3, 1, "8256 edges exceed the genus-3 crossing budget"),
        (1, 1, "8256 edges exceed the k-planar budget on any surface"),
    ], ids=["genus-budget", "k-planar-budget"])
    def test_dense_drawing_over_budget_rejected(self, genus, k, message):
        dg = DrawnGraph(complete_graph(129), [Crossing((0, 1), (2, 3), 0.5, 0.5)])
        with pytest.raises(InputError) as exc:
            gk_reduce(dg, genus=genus, k=k, D=4, seed=0)
        assert str(exc.value) == message

    def test_dense_genus_short_circuit(self):
        dg = DrawnGraph(complete_graph(129), [Crossing((0, 1), (2, 3), 0.5, 0.5)])
        res = gk_reduce(dg, genus=6, k=22, D=4, seed=0)
        assert res.x == set(range(129))
        assert res.info == {"short_circuit": "dense genus case"}

    def test_short_circuit_when_k_huge(self):
        g = path_graph(6)
        dg = DrawnGraph(g, [Crossing((0, 1), (2, 3), 0.5, 0.5)])
        res = gk_reduce(dg, genus=1, k=6, D=3, seed=0, planarizing_set=[0])
        assert res.x == set(range(6))
        assert res.info["short_circuit"]


def path3_drawing():
    return DrawnGraph(path_graph(3), [])


# A call that checks a drawing, and the full message of the InputError it
# raises.  ``gk_reduce`` checks k before the drawing, at every genus, and
# ``kplanar_reduce`` is its genus 0.
DRAWING_MESSAGES = {
    "edge-crossing-itself": (
        lambda: DrawnGraph(k5(), [Crossing((0, 1), (1, 0), 0.5, 0.5)]).validate(),
        "crossing 0 has an edge crossing itself"),
    "duplicate-position": (
        lambda: DrawnGraph(k5(), [Crossing((0, 3), (1, 2), 0.5, 0.5),
                                  Crossing((0, 3), (1, 4), 0.5, 0.25)]).validate(),
        "crossing 1: duplicate position 0.5 on edge (0, 3)"),
    "crossings-over-k": (lambda: kplanar_reduce(k5_drawing(), 0, 5, 0),
                         "edge (0, 3) has 1 crossings, more than k=0"),
    "genus-negative": (lambda: gk_reduce(path3_drawing(), -1, 0, 1, 0),
                       "genus must be non-negative"),
    "k-negative-kplanar": (lambda: kplanar_reduce(path3_drawing(), -1, 1, 0),
                           "k must be non-negative"),
    "k-negative-genus-0": (lambda: gk_reduce(path3_drawing(), 0, -1, 1, 0),
                           "k must be non-negative"),
    "k-negative-genus-1": (lambda: gk_reduce(path3_drawing(), 1, -1, 1, 0,
                                             planarizing_set=[0]),
                           "k must be non-negative"),
    "k-negative-before-crossings": (lambda: gk_reduce(k5_drawing(), 1, -1, 5, 0,
                                                      planarizing_set=[]),
                                    "k must be non-negative"),
    "planarizing-vertex-outside": (lambda: gk_reduce(path3_drawing(), 1, 0, 1, 0,
                                                     planarizing_set=[3]),
                                   "planarizing vertex 3 is not in the augmented graph"),
    "planarizing-vertex-removed": (
        lambda: gk_reduce(DrawnGraph(path_graph(3).delete({1}), []), 1, 0, 1, 0,
                          planarizing_set=[1]),
        "planarizing vertex 1 is not in the augmented graph"),
}


class TestDrawingMessages:
    @pytest.mark.parametrize("check, message", DRAWING_MESSAGES.values(),
                             ids=DRAWING_MESSAGES.keys())
    def test_message(self, check, message):
        with pytest.raises(InputError) as exc:
            check()
        assert str(exc.value) == message


# Each bad value of an ordering parameter and the one message that rejects it
BAD_ORDERING_PARAMS = [
    ("k", 1, "embedding needs k >= 2"),
    ("a", 0, "--a 0 is not a finite positive number"),
    ("a", -1, "--a -1 is not a finite positive number"),
    ("a", math.nan, "--a nan is not a finite positive number"),
    ("a", math.inf, "--a inf is not a finite positive number"),
    ("restarts", 0, "--restarts must be at least 1"),
    ("restarts", -1, "--restarts must be at least 1"),
    ("dims_cap", 0, "--dims-cap must be at least 1"),
    ("dims_cap", -2, "--dims-cap must be at least 1"),
]
GOOD_ORDERING_PARAMS = {"k": 2, "a": 1, "restarts": 1, "dims_cap": None}


def grid(side):
    return grid_graph(side, side)[0]


def product_grid(D):
    host, g, placements = grid_in_product(4)
    return host, None, g, placements, D


def points(survive):
    """The survivors of the 4 x 4 grid product at D = 8 (4 of 16), or none."""
    host, g, placements = grid_in_product(4)
    _, sp, placed, removed = sparsify_product(host, None, g, placements, 8)
    ids = [v for v in placed if v not in removed] if survive else []
    return ids, [placed[v] for v in ids], sp


def one_crossing_path():
    # k = 6 > 6^(2/3) crossings per edge short-circuits to X = V(G)
    return DrawnGraph(path_graph(6), [Crossing((0, 1), (2, 3), 0.5, 0.5)])


PIPELINE = ("k", "a", "restarts", "dims_cap")
REDUCTION = ("a", "restarts", "dims_cap")  # their k counts crossings
EMBEDDING = ("k", "a", "dims_cap")  # no ordering restarts
# entry point -> (the ordering parameters it takes, input -> a call with
# them); on "none" no vertex survives the sparsifier (or there is no point to
# embed), on "some" survivors are ordered
ORDERING_ENTRY_POINTS = {
    "planar_pipeline": (PIPELINE, {
        "none": lambda **p: planar_pipeline(grid(6), 4, 0, **p),
        "some": lambda **p: planar_pipeline(grid(8), 32, 0, **p)}),
    "product_pipeline": (PIPELINE, {
        "none": lambda **p: product_pipeline(*product_grid(2), **p),
        "some": lambda **p: product_pipeline(*product_grid(8), **p)}),
    "kplanar_reduce": (REDUCTION, {
        "none": lambda **p: kplanar_reduce(DrawnGraph(grid(6), []), 0, 4, 0, **p),
        "some": lambda **p: kplanar_reduce(DrawnGraph(grid(8), []), 0, 32, 0, **p)}),
    "gk_reduce": (REDUCTION, {
        "short-circuit": lambda **p: gk_reduce(one_crossing_path(), 1, 6, 3, 0,
                                               planarizing_set=[0], **p),
        "none": lambda **p: gk_reduce(DrawnGraph(grid(6), []), 0, 0, 4, 0, **p),
        "some": lambda **p: gk_reduce(DrawnGraph(grid(8), []), 1, 0, 32, 0,
                                      planarizing_set=[], **p)}),
    "build_embedding": (EMBEDDING, {
        "none": lambda **p: build_embedding(*points(False), seed=0, **p),
        "some": lambda **p: build_embedding(*points(True), seed=0, **p)}),
    "projection_orders": (PIPELINE, {
        "none": lambda **p: projection_orders(*points(False), seed=0, **p),
        "some": lambda **p: projection_orders(*points(True), seed=0, **p)}),
}


def ordering_cases():
    for entry, (takes, inputs) in ORDERING_ENTRY_POINTS.items():
        for kind in inputs:
            for name, value, message in BAD_ORDERING_PARAMS:
                if name in takes:
                    yield pytest.param(entry, kind, name, value, message,
                                       id=f"{entry}-{kind}-{name}={value}")


class TestOrderingParams:
    """``pipeline.check_ordering_params`` runs before any work at every
    entry point, so a bad value gets the same message whatever the input."""

    @pytest.mark.parametrize("entry, kind, name, value, message", ordering_cases())
    def test_bad_value_rejected_before_any_work(self, entry, kind, name, value,
                                                message):
        takes, inputs = ORDERING_ENTRY_POINTS[entry]
        params = {p: GOOD_ORDERING_PARAMS[p] for p in takes} | {name: value}
        with pytest.raises(InputError) as exc:
            inputs[kind](**params)
        assert str(exc.value) == message

    @pytest.mark.parametrize("entry", ["planar_pipeline", "product_pipeline",
                                       "kplanar_reduce", "gk_reduce"])
    def test_the_inputs_keep_none_or_some(self, entry):
        takes, inputs = ORDERING_ENTRY_POINTS[entry]
        good = {p: GOOD_ORDERING_PARAMS[p] for p in takes}
        assert inputs["none"](**good).ordering == []
        assert len(inputs["some"](**good).ordering) >= 2
        if "short-circuit" in inputs:
            assert inputs["short-circuit"](**good).info["short_circuit"]

    @pytest.mark.parametrize("restarts, error, message", [
        (374495, LookupError, "the first restart seed"),
        (374496, InputError, "--restarts 374496 needs 374496 x (8 + 20) direction "
                             "and height entries, more than the supported "
                             "5 x (2097152 + 20)"),
    ])
    def test_restarts_bound_the_direction_matrix(self, monkeypatch, restarts, error,
                                                 message):
        # the 5 x 5 grid at D = 20 orders its 20 survivors in 8 capped
        # dimensions: restarts x (8 + 20) entries may reach the default
        # 5 x (MAX_COLUMNS + 20), and one more restart is rejected before the
        # first restart's label is hashed
        label_states = embedding.label_states

        def first_seed(prefix, items, tail=""):
            if prefix.endswith("order/restart="):
                raise LookupError("the first restart seed")
            return label_states(prefix, items, tail)

        monkeypatch.setattr(embedding, "label_states", first_seed)
        with pytest.raises(error) as exc:
            planar_pipeline(grid(5), 20, 0, restarts=restarts, dims_cap=8)
        assert str(exc.value) == message

    def test_the_embedding_inputs_have_no_point_or_some(self):
        assert points(False)[0] == [] and len(points(True)[0]) >= 2


class TestRestartFold:
    """``projection_orders`` owns the columns and the restarts;
    ``_best_of_orderings`` only folds the bandwidths of its orders."""

    @pytest.mark.parametrize("run", [
        lambda **p: planar_pipeline(grid(8), 32, 3, **p),
        lambda **p: product_pipeline(*product_grid(8), seed=3, **p)],
        ids=["planar_pipeline", "product_pipeline"])
    def test_one_columns_and_one_dims_cap_draw_per_ordering(self, monkeypatch, run):
        calls = {"columns": 0, "dims-cap": 0}
        init, stream = embedding._Columns.__init__, embedding.stream

        def counted_init(self, *args):
            calls["columns"] += 1
            init(self, *args)

        def counted_stream(seed, label):
            calls["dims-cap"] += label == "dims-cap"
            return stream(seed, label)

        monkeypatch.setattr(embedding._Columns, "__init__", counted_init)
        monkeypatch.setattr(embedding, "stream", counted_stream)
        assert len(run(k=2, a=1, restarts=3, dims_cap=4).ordering) >= 2
        assert calls == {"columns": 1, "dims-cap": 1}

    def test_first_least_bandwidth_order_and_median(self, monkeypatch):
        gp = path_graph(6)
        orders = [[0, 2, 4, 1, 3, 5], [0, 2, 1, 3, 5, 4], [1, 0, 2, 4, 3, 5],
                  [0, 2, 3, 4, 5, 1]]
        assert [bandwidth_of_ordering(gp, o) for o in orders] == [3, 2, 2, 5]
        monkeypatch.setattr(embedding, "projection_orders",
                            lambda *args: (list(o) for o in orders))
        best = _best_of_orderings(gp, None, None, None, 2, 1, 0, len(orders), None)
        assert best == (orders[1], 2, 2.5)
