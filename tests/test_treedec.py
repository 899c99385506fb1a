from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanwidth.sparsify
import fanwidth.treedec
from fanwidth import (
    Graph,
    InputError,
    ProductVertex,
    TreeDecomposition,
    baker_sparsify,
    bfs_layering,
    grid_graph,
    minfill_decomposition,
    path_graph,
    product_sparsify,
    separator_bag_union,
    ttree_complete,
    validate_decomposition,
    weighted_separator,
)
from fanwidth.pipeline import sparsify_product

from conftest import random_connected_graph, random_tree


def path_decomposition(n):
    bags = {i: frozenset({i, i + 1}) for i in range(n - 1)}
    edges = frozenset((i, i + 1) for i in range(n - 2))
    return TreeDecomposition(bags, edges)


class TestValidate:
    def test_path_bags_ok(self):
        g = path_graph(5)
        td = path_decomposition(5)
        assert validate_decomposition(g, td) == []
        assert td.width == 1

    def test_missing_bag_uncovers_edge(self):
        g = path_graph(5)
        bags = {i: frozenset({i, i + 1}) for i in range(4) if i != 2}
        td = TreeDecomposition(bags, frozenset([(0, 1), (1, 3)]))
        violations = validate_decomposition(g, td)
        assert any("(2,3)" in v and "covered" in v for v in violations)

    def test_disconnected_trace(self):
        g = path_graph(4)
        bags = {
            0: frozenset({0, 1}),
            1: frozenset({1, 2}),
            2: frozenset({2, 3, 0}),
        }
        td = TreeDecomposition(bags, frozenset([(0, 1), (1, 2)]))
        violations = validate_decomposition(g, td)
        assert any("vertex 0" in v and "disconnected" in v for v in violations)

    def test_wrong_width_reported(self):
        g = path_graph(3)
        td = TreeDecomposition(
            {0: frozenset({0, 1}), 1: frozenset({1, 2})},
            frozenset([(0, 1)]),
            width=7,
        )
        violations = validate_decomposition(g, td)
        assert any("width" in v for v in violations)

    def test_non_tree_rejected(self):
        g = path_graph(3)
        bags = {0: frozenset({0, 1}), 1: frozenset({1, 2}), 2: frozenset({1})}
        td = TreeDecomposition(bags, frozenset([(0, 1), (1, 2), (0, 2)]))
        violations = validate_decomposition(g, td)
        assert any("tree" in v for v in violations)


def _reference_validate(g, td):
    """The validator as first written: a tree BFS, a scan of every bag for
    every edge and one BFS per vertex over its trace.
    ``validate_decomposition`` must return the same violations, in the same
    order, and raise the same messages."""
    violations = []
    live = set(g.vertices())
    for x, bag in td.bags.items():
        for v in bag:
            if v not in live:
                raise InputError(f"bag {x} references vertex {v} not in the graph")

    nodes = set(td.bags)
    for x, y in td.tree_edges:
        if x not in nodes or y not in nodes:
            raise InputError(f"tree edge ({x},{y}) references unknown node")
    if nodes:
        adj = td.adjacency()
        seen = set()
        root = min(nodes)
        queue = deque([root])
        seen.add(root)
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if len(seen) != len(nodes) or len(td.tree_edges) != len(nodes) - 1:
            violations.append("tree edges do not form a tree over the bag nodes")
            return violations

    for u, v in g.edges():
        if not any(u in bag and v in bag for bag in td.bags.values()):
            violations.append(f"edge ({u},{v}) is covered by no bag")

    trace: dict = {v: [] for v in live}
    for x, bag in td.bags.items():
        for v in bag:
            trace[v].append(x)
    adj = td.adjacency()
    for v in sorted(live):
        nodes_v = trace[v]
        if not nodes_v:
            violations.append(f"vertex {v} appears in no bag")
            continue
        node_set = set(nodes_v)
        seen = {nodes_v[0]}
        queue = deque([nodes_v[0]])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y in node_set and y not in seen:
                    seen.add(y)
                    queue.append(y)
        if len(seen) != len(node_set):
            violations.append(f"bags containing vertex {v} induce a disconnected subtree")

    actual = td.computed_width()
    if td.width != actual:
        violations.append(f"declared width {td.width} but bags give width {actual}")
    return violations


def _outcome(validate, g, td):
    """The violation list, or the type and message of the raised error."""
    try:
        return validate(g, td)
    except InputError as e:
        return type(e).__name__, str(e)


@st.composite
def corrupted_decompositions(draw):
    """A min-fill decomposition of a masked graph with bag members dropped or
    added (ids outside the graph and deleted ids included), tree edges
    dropped, added (to unknown nodes too) or rewired, and a declared width."""
    g = draw(masked_graphs())
    td = minfill_decomposition(g)
    bags, edges = dict(td.bags), set(td.tree_edges)
    nodes = sorted(bags)
    kinds = ["drop-member", "add-member", "drop-edge", "add-edge", "rewire-edge"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=4)):
        x = draw(st.sampled_from(nodes))
        if kind == "drop-member" and bags[x]:
            bags[x] = bags[x] - {draw(st.sampled_from(sorted(bags[x])))}
        elif kind == "add-member":
            bags[x] = bags[x] | {draw(st.integers(0, g.n))}
        elif kind == "drop-edge" and edges:
            edges.discard(draw(st.sampled_from(sorted(edges))))
        elif kind == "add-edge":
            edges.add((x, draw(st.integers(0, len(nodes)))))
        elif kind == "rewire-edge" and edges:
            a, b = draw(st.sampled_from(sorted(edges)))
            edges.discard((a, b))
            edges.add((a, x))
    width = draw(st.sampled_from([-1, 0, td.width, td.width + 1]))
    return g, TreeDecomposition(bags, frozenset(edges), width)


class TestValidateMatchesReference:
    @given(corrupted_decompositions())
    @settings(max_examples=300, deadline=None)
    def test_corrupted_minfill_decompositions(self, case):
        g, td = case
        assert _outcome(validate_decomposition, g, td) == _outcome(_reference_validate, g, td)

    def test_bags_are_read_a_constant_number_of_times(self):
        # an edge check that scans the bags reads them once per edge
        class CountingBags(dict):
            reads = 0

            def _read(self):
                CountingBags.reads += 1

            def __getitem__(self, x):
                self._read()
                return super().__getitem__(x)

            def __iter__(self):
                self._read()
                return super().__iter__()

            def get(self, *args):
                self._read()
                return super().get(*args)

            def keys(self):
                self._read()
                return super().keys()

            def values(self):
                self._read()
                return super().values()

            def items(self):
                self._read()
                return super().items()

        g, _ = grid_graph(24, 24)
        td = minfill_decomposition(g)
        h = ttree_complete(g, td)
        counted = TreeDecomposition(CountingBags(td.bags), td.tree_edges)
        CountingBags.reads = 0
        assert validate_decomposition(h, counted) == []
        assert h.num_edges > 2000
        assert CountingBags.reads <= 10


def _reference_minfill(g):
    """Min-fill on a dense k x k boolean matrix, recomputing each touched
    vertex's fill count from scratch: the definition the incremental
    ``minfill_decomposition`` must reproduce bag for bag."""
    live = g.vertices()
    k = len(live)
    local = {v: i for i, v in enumerate(live)}
    A = np.zeros((k, k), dtype=bool)
    for u, v in g.edges():
        A[local[u], local[v]] = True
        A[local[v], local[u]] = True

    def fill_count(i):
        nb = np.flatnonzero(A[i])
        d = len(nb)
        present = int(A[np.ix_(nb, nb)].sum()) // 2
        return d * (d - 1) // 2 - present

    fills = np.array([fill_count(i) for i in range(k)], dtype=np.int64)
    alive = np.ones(k, dtype=bool)
    order = []
    bags = []
    for _ in range(k):
        cand = np.flatnonzero(alive)
        i = cand[int(np.argmin(fills[cand]))]  # ties: lowest local = lowest id
        nb = np.flatnonzero(A[i])
        order.append(live[i])
        bags.append(frozenset([live[i]] + [live[j] for j in nb]))
        A[np.ix_(nb, nb)] = True
        A[nb, nb] = False
        A[i, :] = False
        A[:, i] = False
        alive[i] = False
        touched = A[:, nb].any(axis=1)
        touched[nb] = True
        for j in np.flatnonzero(touched & alive):
            fills[j] = fill_count(j)

    pos = {v: t for t, v in enumerate(order)}
    tree_edges = set()
    for t, bag in enumerate(bags):
        later = [pos[v] for v in bag if pos[v] > t]
        if later:
            tree_edges.add((t, min(later)))
        elif t + 1 < k:
            tree_edges.add((t, t + 1))
    return TreeDecomposition(dict(enumerate(bags)), frozenset(tree_edges))


def assert_same_as_reference(g):
    td = minfill_decomposition(g)
    ref = _reference_minfill(g)
    assert td.bags == ref.bags
    assert td.tree_edges == ref.tree_edges
    assert td.width == ref.width


@st.composite
def masked_graphs(draw):
    """Graphs of up to 18 vertices with a deletion mask that keeps at least
    one vertex; low densities give isolated vertices and several components."""
    n = draw(st.integers(1, 18))
    p = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0]))
    bits = draw(st.lists(st.floats(0, 1), min_size=n * n, max_size=n * n))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if bits[u * n + v] < p]
    removed = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return Graph(n, edges).delete(removed)


class TestMinFill:
    def test_tree_width_one(self):
        g = random_tree(15, seed=2)
        td = minfill_decomposition(g)
        assert td.width == 1
        assert validate_decomposition(g, td) == []

    def test_cycle_width_two(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        td = minfill_decomposition(g)
        assert td.width == 2
        assert validate_decomposition(g, td) == []

    def test_clique_width(self):
        g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        td = minfill_decomposition(g)
        assert td.width == 3

    def test_deterministic(self):
        g = random_connected_graph(14, 0.3, seed=9)
        a = minfill_decomposition(g)
        b = minfill_decomposition(g)
        assert a.bags == b.bags and a.tree_edges == b.tree_edges

    def test_masked_graph(self):
        g = path_graph(8).delete({3})
        td = minfill_decomposition(g)
        assert validate_decomposition(g, td) == []

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_valid_on_random_graphs(self, seed):
        g = random_connected_graph(11, 0.3, seed)
        assert validate_decomposition(g, minfill_decomposition(g)) == []

    def test_empty_masked_view_rejected(self):
        with pytest.raises(InputError):
            minfill_decomposition(path_graph(3).delete({0, 1, 2}))

    @pytest.mark.parametrize("side, width", [(8, 10), (16, 23)])
    def test_grid_width_is_pinned(self, side, width):
        # min-fill widths depend on the tie-break, so a drift shows here
        g, _ = grid_graph(side, side)
        assert minfill_decomposition(g).width == width


class TestMinFillMatchesReference:
    @given(masked_graphs())
    @settings(max_examples=150, deadline=None)
    def test_random_masked_graphs(self, g):
        assert_same_as_reference(g)

    @pytest.mark.parametrize(
        "g",
        [
            Graph(1, []),
            Graph(5, []),
            Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),
            Graph(7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)]),
            Graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9)]).delete({0, 4}),
            path_graph(10).delete({2, 3, 7}),
        ],
        ids=["one-vertex", "isolated", "clique", "disconnected",
             "masked-clique", "masked-path"],
    )
    def test_small_cases(self, g):
        assert_same_as_reference(g)

    def test_every_baker_slab_on_a_grid(self, monkeypatch):
        g, _ = grid_graph(12, 12)
        slabs = []

        def recording(sub):
            slabs.append(sub)
            return minfill_decomposition(sub)

        monkeypatch.setattr(fanwidth.sparsify, "minfill_decomposition", recording)
        baker_sparsify(g, 8, bfs_layering(g, 0))
        assert len(slabs) > 20
        for sub in slabs:
            assert_same_as_reference(sub)


class TestTtreeComplete:
    def test_tree_unchanged(self):
        g = random_tree(10, seed=4)
        td = minfill_decomposition(g)
        h = ttree_complete(g, td)
        assert sorted(h.edges()) == sorted(g.edges())

    def test_c4_gains_one_chord(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        td = minfill_decomposition(g)
        h = ttree_complete(g, td)
        assert h.num_edges == 5

    def test_k4_unchanged(self):
        g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        td = minfill_decomposition(g)
        h = ttree_complete(g, td)
        assert h.num_edges == 6

    def test_rejects_invalid_decomposition(self):
        g = path_graph(4)
        td = TreeDecomposition({0: frozenset({0, 1})}, frozenset())
        with pytest.raises(InputError):
            ttree_complete(g, td)

    def test_layer_components_have_clique_down_neighborhoods(self):
        # the property the block-diameter bound relies on
        for seed in range(6):
            g = random_connected_graph(12, 0.25, seed)
            h = ttree_complete(g, minfill_decomposition(g))
            for root in (0, 5):
                lay = bfs_layering(h, root).layer_of
                by_layer = {}
                for v, s in lay.items():
                    by_layer.setdefault(s, set()).add(v)
                for s in sorted(by_layer):
                    if s == 0 or s - 1 not in by_layer:
                        continue
                    upper = by_layer[s]
                    comps = h.delete(set(h.vertices()) - upper).components()
                    for comp in comps:
                        down = {
                            w
                            for v in comp
                            for w in h.neighbors(v)
                            if lay[w] == s - 1
                        }
                        down = sorted(down)
                        for i in range(len(down)):
                            for j in range(i + 1, len(down)):
                                assert h.has_edge(down[i], down[j])


def _reference_separator(h, td, xi, c):
    """The heavy-subtree separator as first written: every round recomputes
    all subtree weights and picks the deepest heavy node among those with
    no heavy child.  ``weighted_separator`` must select the same nodes."""
    live = h.vertices()
    total_original = sum(xi.get(v, 0) for v in live)
    selected = set()
    if c == 1:
        return selected

    adj = td.adjacency()
    root = min(td.bags)
    parent, order = {root: None}, [root]
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    children = {x: [] for x in td.bags}
    for x in order[1:]:
        children[parent[x]].append(x)
    depth = {root: 0}
    for x in order[1:]:
        depth[x] = depth[parent[x]] + 1

    bags_of = {v: [] for v in live}
    for x, bag in td.bags.items():
        for v in bag:
            bags_of[v].append(x)
    top = {v: min(bags_of[v], key=lambda x: (depth[x], x)) for v in live if bags_of[v]}
    residual = set(top)
    nodes = td.nodes()

    for cc in range(c, 1, -1):
        total = sum(xi.get(v, 0) for v in residual)
        if total * c <= total_original:
            break
        top_acc = {x: 0 for x in nodes}
        on_trace = {x: 0 for x in nodes}
        for v in residual:
            w = xi.get(v, 0)
            top_acc[top[v]] += w
            for x in bags_of[v]:
                if x != top[v]:
                    on_trace[x] += w
        subtree = dict(top_acc)
        for x in reversed(order):
            for y in children[x]:
                subtree[x] += subtree[y]
        weight = {x: subtree[x] + on_trace[x] for x in nodes}

        heavy = {x for x in nodes if weight[x] * cc >= total}
        if not heavy:
            break
        cands = [x for x in heavy if not any(y in heavy for y in children[x])]
        y = min(cands, key=lambda x: (-depth[x], x))
        selected.add(y)

        stack = [y]
        while stack:
            x = stack.pop()
            residual.difference_update(td.bags[x])
            stack.extend(children[x])
    return selected


def check_separator(g, td, xi, c):
    sel = weighted_separator(g, td, xi, c)
    assert len(sel) <= c - 1
    total = sum(xi.get(v, 0) for v in g.vertices())
    cut = separator_bag_union(td, sel)
    for comp in g.delete(cut).components():
        assert sum(xi.get(v, 0) for v in comp) * c <= total
    return sel


class TestWeightedSeparator:
    def test_c_one_is_empty(self):
        g = path_graph(6)
        td = path_decomposition(6)
        assert weighted_separator(g, td, {v: 1 for v in range(6)}, 1) == set()

    def test_star_c_two(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        td = TreeDecomposition(
            {i: frozenset({0, i + 1}) for i in range(3)},
            frozenset([(0, 1), (1, 2)]),
        )
        sel = check_separator(g, td, {v: 1 for v in range(4)}, 2)
        assert len(sel) == 1

    def test_path_nine_c_three(self):
        g = path_graph(9)
        td = path_decomposition(9)
        xi = {v: 1 for v in range(9)}
        sel = check_separator(g, td, xi, 3)
        cut = separator_bag_union(td, sel)
        for comp in g.delete(cut).components():
            assert len(comp) <= 3

    def test_zero_weights(self):
        g = path_graph(5)
        td = path_decomposition(5)
        assert weighted_separator(g, td, {}, 4) == set()

    def test_rejects_negative_weight(self):
        g = path_graph(3)
        td = path_decomposition(3)
        with pytest.raises(InputError):
            weighted_separator(g, td, {0: -1}, 2)

    def test_negative_weight_names_the_lowest_live_vertex(self):
        # weights at ids the graph lacks or has removed are never read
        g = path_graph(6).delete({1})
        td = minfill_decomposition(g)
        xi = {5: -2, 1: -1, 9: -1, -3: -1, 3: -1, 0: 1}
        with pytest.raises(InputError, match="^negative weight at vertex 3$"):
            weighted_separator(g, td, xi, 2)
        xi = {1: -1, 9: -1, 0: 1}
        assert weighted_separator(g, td, xi, 2) == _reference_separator(g, td, xi, 2)

    @pytest.mark.parametrize("g", [path_graph(3).delete({2}), path_graph(2)],
                             ids=["deleted", "missing"])
    def test_rejects_bag_vertex_not_in_graph(self, g):
        with pytest.raises(InputError, match="references vertex 2 not in the graph"):
            weighted_separator(g, path_decomposition(3), {0: 1, 1: 1}, 2)

    def test_rejects_empty_decomposition(self):
        td = TreeDecomposition({}, frozenset())
        with pytest.raises(InputError, match="empty tree decomposition"):
            weighted_separator(path_graph(3), td, {v: 1 for v in range(3)}, 2)

    def test_rejects_tree_edges_missing_a_bag(self):
        td = TreeDecomposition(path_decomposition(3).bags, frozenset())
        with pytest.raises(InputError, match="do not form a tree"):
            weighted_separator(path_graph(3), td, {v: 1 for v in range(3)}, 2)

    def test_fractional_weights_exact(self):
        g = path_graph(8)
        td = path_decomposition(8)
        xi = {v: Fraction(1, v + 1) for v in range(8)}
        for c in (2, 3, 5):
            check_separator(g, td, xi, c)

    @given(st.integers(0, 400), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_postcondition_random(self, seed, c):
        g = random_connected_graph(12, 0.25, seed)
        td = minfill_decomposition(g)
        xi = {v: (v * 7) % 4 for v in g.vertices()}
        check_separator(g, td, xi, c)


@st.composite
def sparse_weighted_hosts(draw):
    """A k-tree (a tree for k = 1) of a few hundred vertices and weights that
    are 0 at all but a few of its vertices, as ints or as Fractions."""
    n = draw(st.integers(200, 400))
    k = draw(st.integers(1, 4))
    rng = draw(st.randoms(use_true_random=False))
    # a (k+1)-clique, then each new vertex joined to a k-clique already there
    edges = [(u, v) for v in range(k + 1) for u in range(v)]
    cliques = [tuple(w for w in range(k + 1) if w != u) for u in range(k + 1)]
    for v in range(k + 1, n):
        clique = rng.choice(cliques)
        edges += [(u, v) for u in clique]
        cliques += [tuple(w for w in clique if w != u) + (v,) for u in clique]
    weighted = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 5),
                                    max_size=8))
    xi = {v: weighted.get(v, 0) for v in range(n)}
    if draw(st.booleans()):
        xi = {v: Fraction(w, v + 1) for v, w in xi.items()}
    return Graph(n, edges), xi


class TestSeparatorMatchesReference:
    @given(masked_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_decompositions(self, g, data):
        td = minfill_decomposition(g)
        live = g.vertices()
        weights = data.draw(st.lists(st.integers(0, 5), min_size=len(live),
                                     max_size=len(live)))
        xi = dict(zip(live, weights))
        if data.draw(st.booleans()):
            xi = {v: Fraction(w, v + 1) for v, w in xi.items()}
        c = data.draw(st.integers(1, 8))
        assert weighted_separator(g, td, xi, c) == _reference_separator(g, td, xi, c)

    @given(sparse_weighted_hosts(), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_sparse_weights_on_large_hosts(self, case, c):
        h, xi = case
        td = minfill_decomposition(h)
        assert weighted_separator(h, td, xi, c) == _reference_separator(h, td, xi, c)

    def test_every_baker_slab_on_a_grid(self, monkeypatch):
        g, _ = grid_graph(12, 12)
        calls = []

        def recording(sub, td, xi, c):
            selected = weighted_separator(sub, td, xi, c)
            calls.append(selected == _reference_separator(sub, td, xi, c))
            return selected

        monkeypatch.setattr(fanwidth.sparsify, "weighted_separator", recording)
        baker_sparsify(g, 8, bfs_layering(g, 0))
        assert len(calls) > 20
        assert all(calls)

    def test_every_product_strip_on_a_branching_host(self, monkeypatch):
        # a tree host branches its decomposition; columns hold 1..4 rows, so
        # the strip weights are not all 1
        host = random_tree(24, seed=5)
        td = minfill_decomposition(host)
        assert max(len(ys) for ys in td.adjacency().values()) >= 3
        placements = [ProductVertex(h, p) for h in range(host.n)
                      for p in range(1, 2 + (h * 7) % 4)]
        calls = []

        def recording(sub, td, xi, c):
            selected = weighted_separator(sub, td, xi, c)
            calls.append((max(xi.values()), c,
                          selected == _reference_separator(sub, td, xi, c)))
            return selected

        monkeypatch.setattr(fanwidth.sparsify, "weighted_separator", recording)
        product_sparsify(ttree_complete(host, td), td, placements, 4)
        assert len(calls) > 10
        assert max(w for w, _, _ in calls) > 1
        assert max(c for _, c, _ in calls) > 2
        assert all(same for _, _, same in calls)


class TestOneWalkPerDecomposition:
    def test_a_product_run_walks_and_validates_its_decomposition_once(
            self, monkeypatch):
        # D=2 cuts every occupied strip, about 2N separator calls on one td
        n = 256
        host = random_tree(n, seed=7)
        td = minfill_decomposition(host)
        walked, validated, separated = [], [], []
        adjacency = TreeDecomposition.adjacency
        validate = fanwidth.treedec.validate_decomposition
        separate = fanwidth.sparsify.weighted_separator

        def counting_adjacency(self):
            walked.append(self)
            return adjacency(self)

        def counting_validate(g, td):
            validated.append(td)
            return validate(g, td)

        def counting_separator(h, td, xi, c):
            separated.append(td)
            return separate(h, td, xi, c)

        monkeypatch.setattr(TreeDecomposition, "adjacency", counting_adjacency)
        monkeypatch.setattr(fanwidth.treedec, "validate_decomposition",
                            counting_validate)
        monkeypatch.setattr(fanwidth.sparsify, "weighted_separator",
                            counting_separator)
        placements = [ProductVertex(h, h + 1) for h in range(n)]
        sparsify_product(host, td, Graph(n, []), placements, 2)
        assert len(separated) > n
        assert all(x is td for x in separated)
        assert len(walked) == 1 and walked[0] is td
        assert len(validated) == 1 and validated[0] is td
