"""Immutable graphs, BFS machinery, strong products, fans, blowups and
the bandwidth / local-density measures.

Vertices are dense integers ``0..n-1``.  Removing vertices never re-indexes:
a deleted vertex keeps its id, listed in ``removed``, and loses its edges, so
that downstream artifacts (orderings, certificates) always refer to original
ids.  Distances are non-negative integers with ``math.inf`` as the
unreachable sentinel, which absorbs correctly under ``max`` and ``+``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

INF = math.inf


class Graph:
    """Undirected simple graph on vertex ids ``0..n-1``, of which those in
    ``removed`` are deleted.

    Instances are immutable.  ``delete`` returns a new graph whose adjacency
    already holds only live vertices, so queries read it without filtering.
    """

    __slots__ = ("n", "_adj", "removed")

    def __init__(self, n: int, edges):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        # the ends in two lists, so that no pair outlives the loop
        us: list = []
        vs: list = []
        for u, v in edges:
            us.append(u)
            vs.append(v)
        adj = None
        if not us or (min(us) >= 0 and min(vs) >= 0 and max(us) < n and max(vs) < n):
            adj = [[] for _ in range(n)]
            for u, v in zip(us, vs):
                adj[u].append(v)
                adj[v].append(u)
        # a self-loop or a repeated edge repeats a neighbor, which a set drops
        if adj is None or sum(map(len, map(set, adj))) != 2 * len(us):
            raise InputError(_first_bad_edge(n, zip(us, vs)))
        for nbrs in adj:
            nbrs.sort()
        self.n = n
        self._adj = tuple(map(tuple, adj))
        self.removed = frozenset()

    # -- basic queries ----------------------------------------------------

    def vertices(self):
        removed = self.removed
        return [v for v in range(self.n) if v not in removed]

    @property
    def num_vertices(self) -> int:
        return self.n - len(self.removed)

    def neighbors(self, v: int):
        """Live neighbors of a live vertex ``v``."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self):
        return [(u, v) for u, nbrs in enumerate(self._adj) for v in nbrs if v > u]

    @property
    def num_edges(self) -> int:
        return len(self.edges())

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are live and adjacent; False for any
        other pair of ints, ids outside ``0..n-1`` included."""
        return 0 <= u < self.n and v in self._adj[u]

    def delete(self, xs) -> "Graph":
        """This graph without the live vertices in ``xs``; ids are kept, and
        ids in ``xs`` that are not live are ignored.  The adjacency is
        filtered here, once."""
        gone = set(xs).intersection(range(self.n)) - self.removed
        g = object.__new__(Graph)
        g.n = self.n
        g.removed = self.removed | gone
        g._adj = tuple(() if v in gone else nbrs if gone.isdisjoint(nbrs)
                       else tuple(w for w in nbrs if w not in gone)
                       for v, nbrs in enumerate(self._adj))
        return g

    def _check_vertex(self, v):
        if not isinstance(v, int) or not (0 <= v < self.n) or v in self.removed:
            raise InputError(f"invalid vertex id {v!r}")

    def within(self, labels) -> "Graph":
        """This graph with only the edges whose ends share a label, for an
        id-indexed sequence ``labels``; ids and ``removed`` are kept."""
        g = object.__new__(Graph)
        g.n, g.removed = self.n, self.removed
        adj = []
        for v, nbrs in enumerate(self._adj):
            kept = [w for w in nbrs if labels[w] == labels[v]]
            adj.append(nbrs if len(kept) == len(nbrs) else tuple(kept))
        g._adj = tuple(adj)
        return g

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by minimum id."""
        comps: dict = {}
        for v, label in enumerate(component_labels(self)):
            if label >= 0:
                comps.setdefault(label, []).append(v)
        return list(comps.values())

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges}, removed={len(self.removed)})"


def _first_bad_edge(n: int, edges) -> str:
    """The message of the first edge in ``edges`` that has an end outside
    ``0..n-1``, is a self-loop or repeats an edge before it."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) has endpoint outside 0..{n - 1}"
        if u == v:
            return f"self-loop at vertex {u}"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return f"duplicate edge ({key[0]},{key[1]})"
        seen.add(key)
    raise AssertionError("no bad edge in an edge list that failed its check")


@dataclass(frozen=True)
class ProductVertex:
    """Vertex of a strong product of a host graph and a path: a host vertex
    ``h`` plus an integer row index ``p``."""

    h: int
    p: int


@dataclass(frozen=True)
class Layering:
    """Map vertex -> integer layer with adjacent vertices at most one layer
    apart."""

    layer_of: dict

    def validate(self, g: Graph):
        for v in g.vertices():
            if v not in self.layer_of:
                raise InputError(f"vertex {v} has no layer")
        for u, v in g.edges():
            if abs(self.layer_of[u] - self.layer_of[v]) > 1:
                raise InputError(f"edge ({u},{v}) spans more than one layer")

    def normalized(self) -> "Layering":
        """Shift layers so the minimum is 0."""
        if not self.layer_of:
            return self
        lo = min(self.layer_of.values())
        return Layering({v: s - lo for v, s in self.layer_of.items()})


def bfs(g: Graph, sources, dist: list, start=0) -> list:
    """Multi-source BFS over the id-indexed list ``dist``, in which ``INF``
    marks a vertex not yet reached.  Each source not yet reached gets
    ``start``, and each vertex reached from them ``start`` plus its hop
    distance; vertices reached before are neither relabelled nor expanded.
    Returns the vertices reached, in visit order."""
    adj = g._adj
    order = []
    for s in sources:
        if dist[s] is INF:
            dist[s] = start
            order.append(s)
    for u in order:  # the list is the queue: the loop reads what it appends
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] is INF:
                dist[w] = du
                order.append(w)
    return order


def bfs_distances(g: Graph, source: int) -> dict:
    """Exact hop distances from ``source``; unreachable vertices map to inf."""
    g._check_vertex(source)
    dist = [INF] * g.n
    bfs(g, (source,), dist)
    return {v: dist[v] for v in g.vertices()}


def component_labels(g: Graph) -> list:
    """Id-indexed list of the least id of each live vertex's component; -1
    for ids that are not live."""
    dist = [INF] * g.n
    labels = [-1] * g.n
    for s in g.vertices():
        if dist[s] is INF:
            for v in bfs(g, (s,), dist):
                labels[v] = s
    return labels


def all_pairs_distances(g: Graph) -> dict:
    """BFS from every live vertex; returns ``{v: {w: d}}``."""
    return {v: bfs_distances(g, v) for v in g.vertices()}


def product_distance(dh, dp):
    """Distance in a strong product: the max of the factor distances."""
    if dh < 0 or dp < 0:
        raise InputError("factor distances must be non-negative")
    return max(dh, dp)


def build_fan(path_len: int) -> Graph:
    """Fan graph: a path on vertices ``0..path_len-1`` plus a center vertex
    ``path_len`` adjacent to every path vertex."""
    if path_len < 1:
        raise InputError("fan needs a path of at least one vertex")
    edges = [(i, i + 1) for i in range(path_len - 1)]
    edges += [(i, path_len) for i in range(path_len)]
    return Graph(path_len + 1, edges)


def build_blowup(h: Graph, b: int):
    """Replace each vertex of ``h`` by a b-clique and each edge by a complete
    bipartite join.

    Returns ``(graph, slot_of)`` where ``slot_of[(v, s)]`` is the blowup vertex
    for slot ``s`` of host vertex ``v``.
    """
    if b < 1:
        raise InputError("blowup factor must be at least 1")
    if h.removed:
        raise InputError("blowup host must not have removed vertices")
    slot_of = {}
    for v in range(h.n):
        for s in range(b):
            slot_of[(v, s)] = v * b + s
    edges = []
    for v in range(h.n):
        for s in range(b):
            for t in range(s + 1, b):
                edges.append((v * b + s, v * b + t))
    for u, v in h.edges():
        for s in range(b):
            for t in range(b):
                edges.append((u * b + s, v * b + t))
    return Graph(h.n * b, edges), slot_of


def strong_product(a: Graph, b: Graph):
    """Materialized strong product of two graphs without deleted vertices.

    Returns ``(graph, index_of)`` with ``index_of[(va, vb)] = va * b.n + vb``.
    Intended for desk-scale oracles; quadratic in the factor sizes.
    """
    if a.removed or b.removed:
        raise InputError("strong product factors must not have removed vertices")
    index_of = {(va, vb): va * b.n + vb for va in range(a.n) for vb in range(b.n)}
    edges = []
    for va in range(a.n):
        for vb in range(b.n):
            base = va * b.n + vb
            for wb in b._adj[vb]:
                if wb > vb:
                    edges.append((base, va * b.n + wb))
            for wa in a._adj[va]:
                if wa > va:
                    edges.append((base, wa * b.n + vb))
                    for wb in b._adj[vb]:
                        edges.append((base, wa * b.n + wb))
    return Graph(a.n * b.n, edges), index_of


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def grid_graph(rows: int, cols: int):
    """Grid graph plus the ``(r, c) -> id`` map (row-major ids)."""
    idx = {(r, c): r * cols + c for r in range(rows) for c in range(cols)}
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx[(r, c)], idx[(r, c + 1)]))
            if r + 1 < rows:
                edges.append((idx[(r, c)], idx[(r + 1, c)]))
    return Graph(rows * cols, edges), idx


def bfs_layering(g: Graph, root: int) -> Layering:
    """BFS layering from ``root``; other components get fresh lowest-id roots
    and restart at layer 0.  The layers are keyed in visit order."""
    g._check_vertex(root)
    layer = [INF] * g.n
    order = [v for s in (root, *g.vertices()) for v in bfs(g, (s,), layer)]
    return Layering({v: layer[v] for v in order})


def positions(n: int, ordering) -> list:
    """Id-indexed index of each vertex in ``ordering``; None for the ids
    ``0..n-1`` it leaves out."""
    pos = [None] * n
    for t, v in enumerate(ordering):
        pos[v] = t
    return pos


def edge_spans(g: Graph, *keys) -> list:
    """For each id-indexed list ``key``, the largest ``|key[u] - key[w]|``
    over the edges ``uw`` of ``g`` whose ends both have a key (are not
    None); 0 when no edge has.  The span of ``positions(g.n, ordering)`` is
    the width of ``ordering`` on the subgraph its vertices induce."""
    spans = []
    for key in keys:
        best = 0
        # every edge is met from both ends, so the positive difference covers it
        for ku, nbrs in zip(key, g._adj):
            if ku is not None:
                for w in nbrs:
                    kw = key[w]
                    if kw is not None and kw - ku > best:
                        best = kw - ku
        spans.append(best)
    return spans


def bandwidth_of_ordering(g: Graph, ordering) -> int:
    """Maximum index gap across an edge of ``g`` under ``ordering``."""
    if sorted(ordering) != g.vertices():
        raise InputError("ordering is not a permutation of the live vertex set")
    return edge_spans(g, positions(g.n, ordering))[0]


def graph_local_density(g: Graph) -> Fraction:
    """Exact local density: max over vertices v and realized radii r of
    ``(|B(v, r)| - 1) / r``.

    The maximum over real radii is attained at a realized distance, so only
    the distinct finite BFS distances from each source are scanned.
    """
    live = g.vertices()
    if not live:
        raise InputError("local density of an empty graph is undefined")
    return ball_density(bfs_distances(g, v).values() for v in live)


def all_rational(values) -> bool:
    """True when every value is a ``numbers.Rational`` (int, numpy integer,
    Fraction): the values whose arithmetic is kept exact."""
    return all(issubclass(kind, numbers.Rational) for kind in set(map(type, values)))


def as_fraction(x) -> Fraction:
    """A rational ``x`` as a Fraction of Python ints; a numpy integer left in
    Fraction arithmetic would turn the result into a numpy float."""
    return Fraction(int(x.numerator), int(x.denominator))


def ball_density(rows):
    """Max over centers and realized radii r of ``(|B(r)| - 1) / r``, given
    one row of distances per center (``INF`` where unreachable).

    The result is a Fraction when every finite distance is a
    ``numbers.Rational`` (int, numpy integer, Fraction), else a float.  Rows
    are read one at a time, so they may come from a generator.
    """
    exact = True
    best, best_float = Fraction(0), 0.0
    for row in rows:
        finite = sorted(d for d in row if d != INF)
        exact = exact and all_rational(finite)
        # finite is sorted, so |B(r)| is the index past the last d <= r
        t, total = 0, len(finite)
        while t < total:
            r = finite[t]
            while t < total and finite[t] == r:
                t += 1
            if r > 0:
                best_float = max(best_float, (t - 1) / r)
                if exact:
                    best = max(best, (t - 1) / as_fraction(r))
    return best if exact else best_float
