"""Tree decompositions: validation, the min-fill heuristic, bag-clique
completion, and the weighted separator procedure.

Separator weights are exact (ints or Fractions); no floating point enters any
separator inequality.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

from .errors import InputError
from .graphs import Graph


class RootedWalk:
    """A decomposition's tree in depth-first preorder from its lowest node
    id, children by id: the subtree at ``order[i]`` is ``order[i:end[i]]``.

    ``trace[v]`` lists the nodes whose bags hold ``v``, and ``top[v]`` is the
    shallowest of them, lowest id on a tie.  ``tree`` says whether the edges
    form a tree over the bag nodes, and ``top`` is filled only then.
    """

    def __init__(self, td: TreeDecomposition):
        nodes = td.bags
        for x, y in td.tree_edges:
            if x not in nodes or y not in nodes:
                raise InputError(f"tree edge ({x},{y}) references unknown node")
        self.trace: dict = {}
        for x, bag in nodes.items():
            for v in bag:
                self.trace.setdefault(v, []).append(x)
        order, parent, depth = self.order, self.parent, self.depth = [], {}, {}
        if nodes:
            adj = td.adjacency()
            root = min(nodes)
            parent[root], depth[root] = None, 0
            stack = [root]
            while stack:
                x = stack.pop()
                order.append(x)
                for y in reversed(adj[x]):
                    if y not in parent:
                        parent[y] = x
                        depth[y] = depth[x] + 1
                        stack.append(y)
        k = len(order)
        self.tree = k == len(nodes) and len(td.tree_edges) == max(k - 1, 0)
        pos = self.pos = {x: i for i, x in enumerate(order)}
        end = self.end = list(range(1, k + 1))
        for i in range(k - 1, 0, -1):
            p = pos[parent[order[i]]]
            end[p] = max(end[p], end[i])
        self.top = {v: min(xs, key=lambda x: (depth[x], x))
                    for v, xs in self.trace.items()} if self.tree else {}


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by tree nodes plus the tree edges.

    ``width`` is the declared width; ``validate_decomposition`` checks it
    against the bags.  The bags and tree edges must not change once ``walk``
    or ``members`` has been read.
    """

    bags: dict
    tree_edges: frozenset
    width: int = field(default=-1)

    def __post_init__(self):
        if self.width == -1:
            object.__setattr__(self, "width", self.computed_width())

    def computed_width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0) - 1

    def nodes(self):
        return sorted(self.bags)

    def adjacency(self) -> dict:
        adj = {x: [] for x in self.bags}
        for x, y in self.tree_edges:
            adj[x].append(y)
            adj[y].append(x)
        return {x: sorted(ys) for x, ys in adj.items()}

    walk = cached_property(RootedWalk)  # built on first read, then kept

    @cached_property
    def members(self) -> frozenset:
        """Every vertex some bag holds."""
        return frozenset().union(*self.bags.values())


def _walk(g: Graph, td: TreeDecomposition) -> RootedWalk:
    """``td.walk``, once every bag member is a live vertex of ``g``: an id
    in ``0..n-1`` that ``g`` has not removed."""
    n, removed, members = g.n, g.removed, td.members
    if members and (min(members) < 0 or max(members) >= n
                    or not removed.isdisjoint(members)):
        x, v = next((x, v) for x, bag in td.bags.items() for v in bag
                    if not 0 <= v < n or v in removed)
        raise InputError(f"bag {x} references vertex {v} not in the graph")
    return td.walk


def validate_decomposition(g: Graph, td: TreeDecomposition) -> list[str]:
    """All violated decomposition conditions; an empty list means ok.

    Linear in the bags and edges: an edge is covered when the traces of its
    ends meet, and a trace is connected when exactly one of its nodes is the
    root or has its parent outside the trace.
    """
    walk = _walk(g, td)
    if not walk.tree:
        return ["tree edges do not form a tree over the bag nodes"]
    trace = {v: set(walk.trace.get(v, ())) for v in g.vertices()}

    violations = []
    for u, v in g.edges():
        if trace[u].isdisjoint(trace[v]):
            violations.append(f"edge ({u},{v}) is covered by no bag")

    for v, nodes_v in sorted(trace.items()):
        if not nodes_v:
            violations.append(f"vertex {v} appears in no bag")
        elif sum(walk.parent[x] not in nodes_v for x in nodes_v) != 1:
            violations.append(f"bags containing vertex {v} induce a disconnected subtree")

    actual = td.computed_width()
    if td.width != actual:
        violations.append(f"declared width {td.width} but bags give width {actual}")
    return violations


def minfill_decomposition(g: Graph) -> TreeDecomposition:
    """Tree decomposition from min-fill elimination, lowest-id tie-break.

    Deterministic; the width is a heuristic upper bound on the treewidth.
    Adjacency sets of the live vertices hold the eliminated graph, so memory
    is O(n + fill edges).  Fill counts (non-adjacent neighbor pairs) change
    by delta as edges come and go, and a lazy heap of ``(fill, local index)``
    picks the next vertex; ``live`` is ascending, so ties go to the lowest id.
    """
    live = g.vertices()
    if not live:
        raise InputError("cannot decompose an empty graph")
    k = len(live)
    local = {v: i for i, v in enumerate(live)}

    adj = [{local[w] for w in g.neighbors(v)} for v in live]

    fills = []
    for nb in adj:
        d = len(nb)
        present = sum(len(adj[x] & nb) for x in nb) // 2
        fills.append(d * (d - 1) // 2 - present)
    heap = [(f, i) for i, f in enumerate(fills)]
    heapq.heapify(heap)
    alive = [True] * k
    order = []
    bags = []

    while len(order) < k:
        f, i = heapq.heappop(heap)
        if not alive[i] or f != fills[i]:
            continue  # eliminated, or its fill changed since this entry
        nb = adj[i]
        ordered = sorted(nb)
        order.append(live[i])
        bags.append(frozenset([live[i]] + [live[j] for j in ordered]))
        alive[i] = False

        # removing i drops the pairs (i, w) with w not adjacent to i
        for j in ordered:
            nj = adj[j]
            nj.discard(i)
            fills[j] -= len(nj) - len(nj & nb)
        # completing N(i) to a clique: each fill edge (x, y) closes one pair
        # at every common neighbor and opens new pairs at x and at y
        touched = set(nb)
        for t, x in enumerate(ordered):
            nx = adj[x]
            for y in ordered[t + 1:]:
                if y in nx:
                    continue
                ny = adj[y]
                common = nx & ny
                for z in common:
                    fills[z] -= 1
                touched |= common
                fills[x] += len(nx) - len(common)
                fills[y] += len(ny) - len(common)
                nx.add(y)
                ny.add(x)
        for j in touched:
            heapq.heappush(heap, (fills[j], j))

    pos = {v: t for t, v in enumerate(order)}
    tree_edges = set()
    for t, bag in enumerate(bags):
        later = [pos[v] for v in bag if pos[v] > t]
        if later:
            tree_edges.add((t, min(later)))
        elif t + 1 < k:
            tree_edges.add((t, t + 1))
    return TreeDecomposition({t: bag for t, bag in enumerate(bags)}, frozenset(tree_edges))


def ttree_complete(h: Graph, td: TreeDecomposition) -> Graph:
    """Supergraph of ``h`` in which every bag of ``td`` is a clique.

    The result is chordal with clique number at most width+1, so BFS layer
    components have clique down-neighborhoods, and ``td`` remains a valid
    decomposition witnessing the same width.
    """
    violations = validate_decomposition(h, td)
    if violations:
        raise InputError("invalid tree decomposition: " + "; ".join(violations))
    edges = set(h.edges())
    for bag in td.bags.values():
        members = sorted(bag)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                edges.add((members[a], members[b]))
    return Graph(h.n, sorted(edges)).delete(h.removed)


def weighted_separator(h: Graph, td: TreeDecomposition, xi: dict, c: int) -> set:
    """Tree nodes S, |S| <= c-1, such that every component of
    ``h - union of selected bags`` has weight at most ``xi(h) / c``.

    Follows the inductive heavy-subtree procedure: repeatedly pick a deepest
    heavy node, remove its subtree's vertices from the residual instance, and
    recurse with c-1.  Weights must be non-negative ints or Fractions.

    Each vertex's weight is booked once per call, not per round: at its top
    bag, the shallowest of its trace, and at each of its other bags.  A
    vertex is in ``H_x`` (the residual vertices in the bags of the subtree at
    x) when its top bag lies in x's subtree, a contiguous run of the
    preorder, or x is one of its other bags (traces are connected); so the
    weight of ``H_x`` is a prefix-sum difference plus one entry.  A removed
    vertex is unbooked, and a vertex of weight 0 is never booked.  Before the
    first round the call reads ``xi`` and the bags, never ``h``'s vertex list.
    """
    if c < 1:
        raise InputError("separator parameter c must be a positive integer")
    n, removed = h.n, h.removed
    live = [(v, w) for v, w in xi.items() if 0 <= v < n and v not in removed]
    negative = [v for v, w in live if w < 0]
    if negative:
        raise InputError(f"negative weight at vertex {min(negative)}")
    total_original = sum(w for _, w in live)
    selected: set = set()
    if c == 1:
        return selected

    if not td.bags:
        raise InputError("cannot separate with an empty tree decomposition")
    walk = _walk(h, td)
    if not walk.tree:
        raise InputError("tree edges do not form a tree over the bag nodes")
    order, pos, end, trace, top = walk.order, walk.pos, walk.end, walk.trace, walk.top
    at_top = [0] * len(order)
    on_trace = [0] * len(order)

    def book(v, w):
        at_top[pos[top[v]]] += w
        for x in trace[v]:
            if x != top[v]:
                on_trace[pos[x]] += w

    residual = {v for v, w in xi.items() if w and v in top}
    for v in residual:
        book(v, xi[v])
    total = sum(xi[v] for v in residual)

    for cc in range(c, 1, -1):
        if total * c <= total_original:
            break
        prefix = [0, *accumulate(at_top)]
        heavy = [x for i, x in enumerate(order)
                 if (prefix[end[i]] - prefix[i] + on_trace[i]) * cc >= total]
        if not heavy:
            break
        # a node weighs at least as much as its child, so the deepest heavy
        # node has no heavy child
        y = min(heavy, key=lambda x: (-walk.depth[x], x))
        selected.add(y)

        i, bag = pos[y], td.bags[y]  # H_y, by the rule above
        for v in [v for v in residual if i <= pos[top[v]] < end[i] or v in bag]:
            residual.remove(v)
            total -= xi[v]
            book(v, -xi[v])

    return selected


def separator_bag_union(td: TreeDecomposition, selected) -> set:
    """Vertices covered by the selected separator bags."""
    out: set = set()
    for x in selected:
        out |= set(td.bags[x])
    return out
