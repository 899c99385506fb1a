"""Tree decompositions: validation, the min-fill heuristic, bag-clique
completion, and the weighted separator procedure.

Separator weights are exact (ints or Fractions); no floating point enters any
separator inequality.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from .errors import InputError
from .graphs import Graph


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by tree nodes plus the tree edges.

    ``width`` is the declared width; ``validate_decomposition`` checks it
    against the bags.
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


def validate_decomposition(g: Graph, td: TreeDecomposition) -> list[str]:
    """All violated decomposition conditions; an empty list means ok."""
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


def _rooted(td: TreeDecomposition):
    """Root at the lowest node id; returns (root, parent, children, order)
    with ``order`` a list of nodes, parents before children."""
    adj = td.adjacency()
    root = min(td.bags)
    parent = {root: None}
    order = [root]
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
                queue.append(y)
    children = {x: [] for x in td.bags}
    for x in order[1:]:
        children[parent[x]].append(x)
    return root, parent, children, order


def weighted_separator(h: Graph, td: TreeDecomposition, xi: dict, c: int) -> set:
    """Tree nodes S, |S| <= c-1, such that every component of
    ``h - union of selected bags`` has weight at most ``xi(h) / c``.

    Follows the inductive heavy-subtree procedure: repeatedly pick a deepest
    heavy node, remove its subtree's vertices from the residual instance, and
    recurse with c-1.  Weights must be non-negative ints or Fractions.
    """
    if c < 1:
        raise InputError("separator parameter c must be a positive integer")
    live = h.vertices()
    for v in live:
        if xi.get(v, 0) < 0:
            raise InputError(f"negative weight at vertex {v}")
    total_original = sum(xi.get(v, 0) for v in live)
    selected: set = set()
    if c == 1:
        return selected

    root, parent, children, order = _rooted(td)
    depth = {root: 0}
    for x in order[1:]:
        depth[x] = depth[parent[x]] + 1

    bags_of: dict = {v: [] for v in live}
    for x, bag in td.bags.items():
        for v in bag:
            bags_of[v].append(x)
    # trace of v is a connected subtree, so its unique shallowest node exists
    top = {}
    for v in live:
        if bags_of[v]:
            top[v] = min(bags_of[v], key=lambda x: (depth[x], x))

    residual = set(v for v in live if bags_of[v])
    nodes = td.nodes()

    for cc in range(c, 1, -1):
        total = sum(xi.get(v, 0) for v in residual)
        if total * c <= total_original:
            break
        # subtree weight of x = sum over v in residual of xi(v) for every x
        # that is an ancestor-or-self of top[v] or lies on v's trace
        top_acc = {x: 0 for x in nodes}
        on_trace = {x: 0 for x in nodes}
        for v in residual:
            w = xi.get(v, 0)
            tv = top[v]
            top_acc[tv] += w
            for x in bags_of[v]:
                if x != tv:
                    on_trace[x] += w
        subtree = dict(top_acc)
        for x in reversed(order):
            for y in children[x]:
                subtree[x] += subtree[y]
        weight_Hx = {x: subtree[x] + on_trace[x] for x in nodes}

        heavy = [x for x in nodes if weight_Hx[x] * cc >= total]
        if not heavy:
            break
        # a node weighs at least as much as its child, so the deepest heavy
        # node has no heavy child
        y = min(heavy, key=lambda x: (-depth[x], x))
        selected.add(y)

        in_Ty = {y}
        stack = [y]
        while stack:
            x = stack.pop()
            for z in children[x]:
                in_Ty.add(z)
                stack.append(z)
        for x in in_Ty:
            for v in td.bags[x]:
                residual.discard(v)

    return selected


def separator_bag_union(td: TreeDecomposition, selected) -> set:
    """Vertices covered by the selected separator bags."""
    out: set = set()
    for x in selected:
        out |= set(td.bags[x])
    return out
