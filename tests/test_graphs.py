import math
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanwidth import (
    Graph,
    InputError,
    bandwidth_of_ordering,
    bfs_distances,
    bfs_layering,
    build_blowup,
    build_fan,
    graph_local_density,
    grid_graph,
    path_graph,
    product_distance,
    strong_product,
    validate_decomposition,
)
from fanwidth.graphs import bfs, component_labels
from fanwidth.treedec import TreeDecomposition

from conftest import (
    random_connected_graph,
    random_graph,
    reference_bandwidth,
    reference_edge_error,
)

INF = math.inf


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n - 1)] + [(0, n - 1)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestConstructorMessages:
    """A bad edge list is checked in bulk, and the first bad edge in input
    order is reported as one edge at a time would report it."""

    @pytest.mark.parametrize("n, edges, message", [
        (3, [(0, 1), (0, 3)], "edge (0,3) has endpoint outside 0..2"),
        (3, [(-1, 2)], "edge (-1,2) has endpoint outside 0..2"),
        (0, [(0, 0)], "edge (0,0) has endpoint outside 0..-1"),
        (3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
        (3, [(0, 1), (1, 2), (1, 0)], "duplicate edge (0,1)"),
        (3, [(2, 1), (1, 2)], "duplicate edge (1,2)"),
        (4, [(0, 1), (1, 1), (0, 9), (1, 0)], "self-loop at vertex 1"),
        (4, [(0, 1), (0, 9), (1, 1)], "edge (0,9) has endpoint outside 0..3"),
        (4, [(0, 1), (1, 0), (3, 3)], "duplicate edge (0,1)"),
        (-1, [], "vertex count must be non-negative"),
    ], ids=["range", "negative", "empty-graph", "self-loop", "duplicate",
            "duplicate-reversed", "loop-first", "range-first", "duplicate-first",
            "vertex-count"])
    def test_message(self, n, edges, message):
        with pytest.raises(InputError) as exc:
            Graph(n, edges)
        assert str(exc.value) == message

    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)),
                             max_size=12))))
    @settings(max_examples=400, deadline=None)
    def test_matches_one_edge_at_a_time(self, case):
        n, edges = case
        want = reference_edge_error(n, edges)
        if want is None:
            g = Graph(n, edges)
            assert sorted(g.edges()) == sorted({(min(e), max(e)) for e in edges})
            assert all(list(g.neighbors(v)) == sorted(g.neighbors(v)) for v in range(n))
        else:
            with pytest.raises(InputError) as exc:
                Graph(n, edges)
            assert str(exc.value) == want

    def test_edges_may_be_any_iterable(self):
        g = Graph(4, ((v, v + 1) for v in range(3)))
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]


class TestBfs:
    def test_line_graph(self):
        g = path_graph(3)
        assert bfs_distances(g, 0) == {0: 0, 1: 1, 2: 2}

    def test_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        d = bfs_distances(g, 0)
        assert d[1] == 1 and d[2] == INF and d[3] == INF

    def test_grid_corner_to_corner(self):
        g, idx = grid_graph(4, 4)
        assert bfs_distances(g, idx[(0, 0)])[idx[(3, 3)]] == 6

    def test_invalid_source(self):
        with pytest.raises(InputError):
            bfs_distances(path_graph(3), 5)

    def test_kernel_multi_source_from_start(self):
        g = path_graph(6)
        dist = [INF] * 6
        assert bfs(g, [4, 1, 4], dist, start=1) == [4, 1, 3, 5, 0, 2]
        assert dist == [2, 1, 2, 2, 1, 2]

    def test_kernel_skips_reached_vertices(self):
        g = path_graph(5)
        dist = [INF] * 5
        dist[2] = 7  # reached before: neither relabelled nor expanded
        assert bfs(g, [0, 2], dist) == [0, 1]
        assert dist == [0, 1, 7, INF, INF]

    def test_component_labels(self):
        g = Graph(6, [(1, 4), (4, 5), (0, 3)]).delete({3})
        assert component_labels(g) == [0, 1, 2, -1, 1, 1]
        assert g.components() == [[0], [1, 4, 5], [2]]

    def test_within_keeps_same_label_edges(self):
        g = path_graph(5).delete({4})
        h = g.within([0, 0, 1, 1, 0])
        assert h.edges() == [(0, 1), (2, 3)]
        assert h.removed == g.removed == {4} and h.n == 5


class TestProductDistance:
    def test_max_rule(self):
        assert product_distance(2, 3) == 3

    def test_identity(self):
        assert product_distance(0, 0) == 0

    def test_infinity_absorbs(self):
        assert product_distance(INF, 1) == INF

    def test_matches_materialized_product(self):
        a = random_connected_graph(6, 0.3, seed=1)
        b = path_graph(5)
        prod, idx = strong_product(a, b)
        da = {v: bfs_distances(a, v) for v in range(a.n)}
        db = {v: bfs_distances(b, v) for v in range(b.n)}
        for (va, vb), i in idx.items():
            dp = bfs_distances(prod, i)
            for (wa, wb), j in idx.items():
                assert dp[j] == product_distance(da[va][wa], db[vb][wb])


class TestFanAndBlowup:
    def test_fan_six_vertices(self):
        fan = build_fan(5)
        assert fan.n == 6
        assert fan.num_edges == 9  # 4 path edges + 5 spokes

    def test_fan_single_edge(self):
        fan = build_fan(1)
        assert fan.n == 2 and fan.num_edges == 1

    def test_fan_rejects_zero(self):
        with pytest.raises(InputError):
            build_fan(0)

    def test_blowup_sizes(self):
        fan = build_fan(5)
        bl, slot_of = build_blowup(fan, 5)
        assert bl.n == 30
        assert bl.num_edges == 285  # 6*C(5,2) clique edges + 9*25 cross edges
        assert len(slot_of) == 30

    def test_blowup_identity(self):
        g = cycle(5)
        bl, slot_of = build_blowup(g, 1)
        assert bl.n == g.n and sorted(bl.edges()) == sorted(g.edges())

    def test_blowup_rejects_zero(self):
        with pytest.raises(InputError):
            build_blowup(path_graph(2), 0)

    def test_blowup_cliques_and_joins(self):
        g = path_graph(2)
        bl, slot_of = build_blowup(g, 3)
        for v in range(2):
            members = [slot_of[(v, s)] for s in range(3)]
            for a in members:
                for b in members:
                    if a != b:
                        assert bl.has_edge(a, b)
        for s in range(3):
            for t in range(3):
                assert bl.has_edge(slot_of[(0, s)], slot_of[(1, t)])

    def test_blowup_treewidth_witness(self):
        # blowing up each bag of a width-t decomposition gives a valid
        # decomposition of the blowup with bags of size b(t+1)
        g = cycle(6)
        from fanwidth import minfill_decomposition

        td = minfill_decomposition(g)
        b = 3
        bl, slot_of = build_blowup(g, b)
        big_bags = {
            x: frozenset(slot_of[(v, s)] for v in bag for s in range(b))
            for x, bag in td.bags.items()
        }
        big = TreeDecomposition(big_bags, td.tree_edges)
        assert validate_decomposition(bl, big) == []
        assert big.width + 1 <= b * (td.width + 1)


class TestLayering:
    def test_path_layers(self):
        g = path_graph(4)
        lay = bfs_layering(g, 0)
        assert lay.layer_of == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_star_layers(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        lay = bfs_layering(g, 0)
        assert lay.layer_of[0] == 0
        assert all(lay.layer_of[v] == 1 for v in (1, 2, 3))

    def test_grid_layer_sizes(self):
        g, idx = grid_graph(4, 4)
        lay = bfs_layering(g, idx[(0, 0)])
        sizes = {}
        for v, s in lay.layer_of.items():
            sizes[s] = sizes.get(s, 0) + 1
        assert [sizes[s] for s in range(7)] == [1, 2, 3, 4, 3, 2, 1]

    @given(st.integers(0, 400))
    @settings(max_examples=25, deadline=None)
    def test_layering_invariant_random(self, seed):
        g = random_connected_graph(10, 0.25, seed)
        lay = bfs_layering(g, 0)
        lay.validate(g)  # raises on violation


def _reference_layering(g, root):
    """bfs_layering as first written: a full ``bfs_distances`` dict over
    every live vertex for each component, O(components x n)."""
    layer = {}
    for s in [root] + [v for v in g.vertices() if v != root]:
        if s in layer:
            continue
        for v, d in bfs_distances(g, s).items():
            if d is not INF and v not in layer:
                layer[v] = d
    return layer


@st.composite
def many_component_graphs(draw):
    """Sparse graphs on up to 40 vertices with a deletion mask, so most
    draws fall apart into many components, and a live root."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    removed = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    g = Graph(n, sorted(edges)).delete(removed)
    return g, draw(st.sampled_from(g.vertices()))


class TestLayeringMatchesReference:
    @given(many_component_graphs())
    @settings(max_examples=200, deadline=None)
    def test_masked_graphs_with_many_components(self, case):
        g, root = case
        assert bfs_layering(g, root).layer_of == _reference_layering(g, root)


class TestBandwidth:
    def test_path_order(self):
        g = path_graph(5)
        assert bandwidth_of_ordering(g, [0, 1, 2, 3, 4]) == 1

    def test_triangle_any_order(self):
        assert bandwidth_of_ordering(complete(3), [1, 2, 0]) == 2

    def test_c4_cycle_order(self):
        g = cycle(4)
        assert bandwidth_of_ordering(g, [0, 1, 2, 3]) == 3
        # optimum is 2, witnessed by interleaving the antipodal pair
        assert bandwidth_of_ordering(g, [0, 1, 3, 2]) == 2

    def test_rejects_non_permutation(self):
        with pytest.raises(InputError):
            bandwidth_of_ordering(path_graph(3), [0, 1, 1])

    def test_edgeless(self):
        assert bandwidth_of_ordering(Graph(3, []), [2, 0, 1]) == 0

    @given(many_component_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_edge_loop(self, case, rng):
        # the one edge sweep gives the width of the position-dict loop
        g, _ = case
        ordering = g.vertices()
        rng.shuffle(ordering)
        assert bandwidth_of_ordering(g, ordering) == reference_bandwidth(g, ordering)


class TestLocalDensity:
    def test_odd_cycle_is_two(self):
        for k in (1, 2, 3, 5):
            assert graph_local_density(cycle(2 * k + 1)) == 2

    def test_complete_graph(self):
        assert graph_local_density(complete(6)) == 5

    def test_grid_4x4(self):
        g, _ = grid_graph(4, 4)
        # radius-2 balls at the four center vertices hold 11 vertices
        assert graph_local_density(g) == Fraction(5)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            graph_local_density(Graph(0, []))

    def test_agrees_with_ball_enumeration(self):
        g = random_connected_graph(12, 0.3, seed=3)
        best = Fraction(0)
        for v in g.vertices():
            dist = bfs_distances(g, v)
            for r in range(1, 13):
                ball = sum(1 for d in dist.values() if d <= r)
                best = max(best, Fraction(ball - 1, r))
        assert graph_local_density(g) == best

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_density_at_most_twice_bandwidth(self, seed):
        g = random_graph(7, 0.35, seed)
        if g.num_edges == 0:
            return
        rng_order = sorted(g.vertices(), key=lambda v: (v * 2654435761) % 97)
        bw = bandwidth_of_ordering(g, rng_order)
        assert graph_local_density(g) <= 2 * bw


class TestMaskedViews:
    def test_delete_preserves_ids(self):
        g = path_graph(5)
        gp = g.delete({2})
        assert gp.vertices() == [0, 1, 3, 4]
        assert gp.neighbors(1) == (0,)
        assert not gp.has_edge(1, 2)
        assert gp.num_edges == 2

    def test_delete_is_stackable(self):
        g = path_graph(5).delete({0}).delete({4})
        assert g.vertices() == [1, 2, 3]

    def test_delete_ignores_ids_that_are_not_live(self):
        g = path_graph(3).delete({7, -1})
        assert g.num_vertices == len(g.vertices()) == 3
        assert g.removed == frozenset()
        assert repr(g) == "Graph(n=3, m=2, removed=0)"
        gp = g.delete([1, 1]).delete({1, 5})
        assert gp.num_vertices == len(gp.vertices()) == 2
        assert gp.removed == {1}
        assert gp.edges() == []

    def test_has_edge_outside_the_graph(self):
        g = path_graph(3)
        assert [g.has_edge(u, 1) for u in (-3, -1, 0, 2, 3, 5)] == [
            False, False, True, True, False, False]
        assert not g.has_edge(1, 5) and not g.has_edge(1, -1)
        gp = g.delete({2})
        assert not gp.has_edge(2, 1) and not gp.has_edge(-1, 1)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_queries_match_the_mask_reference(self, data):
        n = data.draw(st.integers(0, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph(n, edges)
        ref = MaskReference(n, edges, frozenset())
        # ids repeat, fall outside 0..n-1 and name vertices deleted before
        ids = st.lists(st.integers(-3, n + 3), max_size=n + 4)
        for xs in data.draw(st.lists(ids, min_size=1, max_size=4)):
            g, ref = g.delete(xs), ref.delete(xs)
            assert g.removed == ref.removed
            assert g.vertices() == ref.vertices()
            assert g.num_vertices == len(ref.vertices())
            assert g.edges() == ref.edges()
            assert g.num_edges == len(ref.edges())
            assert g.components() == ref.components()
            for u in range(-3, n + 3):
                assert [g.has_edge(u, v) for v in range(-3, n + 3)] == [
                    ref.has_edge(u, v) for v in range(-3, n + 3)]
            for v in ref.vertices():
                assert g.neighbors(v) == ref.neighbors(v)
                assert bfs_distances(g, v) == ref.bfs_distances(v)


class MaskReference:
    """The semantics of deletion kept as a reference: the edge list of the
    graph before any deletion plus a mask of deleted ids, filtered on every
    query.  Only ids in 0..n-1 enter the mask."""

    def __init__(self, n, all_edges, removed):
        self.n, self.all_edges, self.removed = n, all_edges, removed

    def delete(self, xs):
        return MaskReference(self.n, self.all_edges,
                             self.removed | {v for v in xs if 0 <= v < self.n})

    def vertices(self):
        return [v for v in range(self.n) if v not in self.removed]

    def edges(self):
        return sorted(e for e in self.all_edges if not self.removed & set(e))

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges()

    def neighbors(self, v):
        return tuple(sorted({*(b for a, b in self.edges() if a == v),
                             *(a for a, b in self.edges() if b == v)}))

    def bfs_distances(self, source):
        dist = {v: INF for v in self.vertices()}
        dist[source], frontier, d = 0, [source], 0
        while frontier:
            d += 1
            frontier = [w for u in frontier for w in self.neighbors(u) if dist[w] == INF]
            for w in frontier:
                dist[w] = d
        return dist

    def components(self):
        comps = []
        for s in self.vertices():
            if not any(s in comp for comp in comps):
                dist = self.bfs_distances(s)
                comps.append(sorted(v for v, d in dist.items() if d != INF))
        return comps


# The breadth-first walks as written before ``graphs.bfs``, kept verbatim
# (``components`` was a method of ``Graph``).
def _reference_components(self) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by minimum id."""
    seen = set()
    comps = []
    for s in self.vertices():
        if s in seen:
            continue
        comp = []
        queue = deque([s])
        seen.add(s)
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in self._adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _reference_bfs_distances(g: Graph, source: int) -> dict:
    """Exact hop distances from ``source``; unreachable vertices map to inf."""
    g._check_vertex(source)
    dist = {v: INF for v in g.vertices()}
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in g._adj[u]:
            if dist[w] is INF:
                dist[w] = du
                queue.append(w)
    return dist


def _reference_bfs_layering(g: Graph, root: int) -> dict:
    """BFS layering from ``root``; other components get fresh lowest-id roots
    and restart at layer 0.  One BFS per component fills one shared dict, so
    the cost is O(n + m) however many components there are."""
    g._check_vertex(root)
    layer = {}
    for s in [root, *g.vertices()]:
        if s in layer:
            continue
        layer[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = layer[u] + 1
            for w in g._adj[u]:
                if w not in layer:
                    layer[w] = du
                    queue.append(w)
    return layer


class TestBfsKernelMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_chained_deletes(self, data):
        n = data.draw(st.integers(1, 30))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)), max_size=2 * n))
        g = Graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
        deletes = data.draw(st.lists(st.sets(st.integers(0, n - 1), max_size=n // 3),
                                     max_size=4))
        for xs in [(), *deletes]:
            g = g.delete(xs)
            comps = _reference_components(g)
            assert g.components() == comps
            labels = [-1] * n
            for comp in comps:
                for v in comp:
                    labels[v] = comp[0]
            assert component_labels(g) == labels
            for v in g.vertices():
                assert list(bfs_distances(g, v).items()) == list(
                    _reference_bfs_distances(g, v).items())
                assert list(bfs_layering(g, v).layer_of.items()) == list(
                    _reference_bfs_layering(g, v).items())
