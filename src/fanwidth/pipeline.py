"""End-to-end pipelines and fan-blowup certificates.

A certificate witnesses that a graph embeds in the b-blowup of a fan: the
deleted set X goes to the center clique, and consecutive b-sized chunks of a
bandwidth-b ordering go to consecutive path nodes.  The converse direction
recovers a deleted set and an ordering of width at most 2b-1 from any such
embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConstraintError, InputError
from .graphs import (
    Graph,
    ProductVertex,
    bandwidth_of_ordering,
    bfs_layering,
    edge_spans,
    positions,
)

CENTER = 0  # fan node id of the center; path nodes are 1..fan_size-1

# The defaults of the ordering parameters: Feige's constant a and the number
# of projection restarts.  The pipelines and the CLI take them from here.
DEFAULT_A = 193.0
DEFAULT_RESTARTS = 5


def check_ordering_params(k=None, a=DEFAULT_A, restarts=DEFAULT_RESTARTS,
                          dims_cap=None):
    """Raise InputError unless the parameters of the projection ordering are
    usable: ``restarts >= 1``, ``k`` None (the default) or ``>= 2``, ``a``
    finite and positive, ``dims_cap`` None (certified) or ``>= 1``, checked
    in that order.  Every entry point calls this before any work, so a bad
    value is rejected whatever the input; ``embedding`` imports it."""
    if restarts < 1:
        raise InputError("--restarts must be at least 1")
    if k is not None and k < 2:
        raise InputError("embedding needs k >= 2")
    if not (math.isfinite(a) and a > 0):
        raise InputError(f"--a {a!r} is not a finite positive number")
    if dims_cap is not None and dims_cap < 1:
        raise InputError("--dims-cap must be at least 1")


@dataclass
class FanCertificate:
    n: int
    b: int
    fan_size: int
    x: list
    ordering: list
    mapping: dict  # vertex -> (node, slot)
    measured_bandwidth: int
    seed: int = 0
    params: dict = field(default_factory=dict)


class Violations(list):
    """The violations ``verify_certificate`` found, one line each.  With
    none, ``walk`` is ``(X, ordering, width)``: the center and then the
    vertices of the path blocks in (node, slot) order, which is an ordering
    of G - X of width at most 2b-1; otherwise ``walk`` is None."""

    walk = None


@dataclass
class PipelineResult:
    x: set
    ordering: list
    bandwidth: int
    bandwidth_median: float
    info: dict = field(default_factory=dict)


def _fan_size(n: int, b: int) -> int:
    """The fan size a certificate of n vertices at blowup b must have:
    ceil(n/b) nodes, and at least the center and one path node."""
    return max(2, -(-n // b))


def fan_certificate(g: Graph, x, ordering, b: int, seed: int = 0,
                    params: dict | None = None) -> FanCertificate:
    """Certificate mapping g into the b-blowup of a fan on max(2, ceil(n/b))
    nodes.

    X is padded to exactly b vertices from the tail of the ordering, which
    cannot increase the ordering's width.  One sweep over the edges
    (``edge_spans``) measures the ordering before and after the padding; the
    vertices of X have no position, so their edges drop out.
    """
    n = g.num_vertices
    if n == 0:
        raise ConstraintError("cannot certify the empty graph")
    if not (1 <= b <= n):
        raise ConstraintError(f"blowup factor b={b} outside 1..{n}")
    x = sorted(x)
    if len(set(x)) != len(x):
        raise ConstraintError("X lists a vertex id more than once")
    live = set(g.vertices())
    missing = sorted(set(x) - live)
    if missing:
        raise ConstraintError(f"X vertex {missing[0]} is not in the graph")
    if len(x) > b:
        raise ConstraintError(f"|X| = {len(x)} exceeds b = {b}")
    ordering = list(ordering)
    if sorted(ordering) != sorted(live.difference(x)):
        raise InputError("ordering is not a permutation of the live vertex set")
    before = positions(g.n, ordering)

    pad = b - len(x)
    if pad:
        x = x + ordering[len(ordering) - pad:]
        ordering = ordering[: len(ordering) - pad]
    bw, measured = edge_spans(g, before, positions(g.n, ordering))
    if bw > b:
        raise ConstraintError(f"ordering width {bw} exceeds b = {b}")

    fan_size = _fan_size(n, b)
    p = fan_size - 1
    mapping = {}
    for slot, v in enumerate(x):
        mapping[v] = (CENTER, slot)
    for t, v in enumerate(ordering):
        node = 1 + t // b
        if node > p:
            raise AssertionError("chunking overflowed the fan path")
        mapping[v] = (node, t % b)
    return FanCertificate(
        n=n,
        b=b,
        fan_size=fan_size,
        x=x,
        ordering=ordering,
        mapping=mapping,
        measured_bandwidth=measured,
        seed=seed,
        params=dict(params or {}),
    )


def verify_certificate(g: Graph, cert: FanCertificate,
                       strict_shape: bool = True) -> Violations:
    """Check the containment claim edge by edge; violations are data.

    With ``strict_shape`` the fan must have the canonical max(2, ceil(n/b))
    nodes that ``fan_certificate`` produces; without it any fan size is
    accepted (used for round-tripping foreign embeddings, where path blocks
    may be empty).

    One pass over the mapping, in vertex order, checks each vertex's node
    and slot and fills the (node, slot) cells; one sweep over the edges
    (``edge_spans``) measures the ordering's width on G - X, the fan-node
    span of each edge and the width of the block walk, read from the cells
    in order (the ``walk`` of the result).  A permutation is checked with
    sets, and X is never deleted from ``g``.
    """
    violations = Violations()
    live = g.vertices()
    n = len(live)
    if cert.n != n:
        violations.append(f"certificate n={cert.n} but graph has {n} vertices")
    if not (1 <= cert.b <= max(n, 1)):
        violations.append(f"blowup factor {cert.b} out of range")
        return violations
    required = _fan_size(cert.n, cert.b)
    if strict_shape and cert.fan_size != required:
        violations.append(
            f"fan size {cert.fan_size} differs from max(2, ceil(n/b)) = {required}"
        )

    mapping = cert.mapping
    live_set = set(live)
    if mapping.keys() == live_set:
        order = live
    else:
        for v in live:
            if v not in mapping:
                violations.append(f"vertex {v} is not mapped")
        for v in set(mapping):
            if v not in live_set:
                violations.append(f"mapped vertex {v} is not in the graph")
        order = sorted(mapping)

    b, fan_size = cert.b, cert.fan_size
    centered = set()
    node_of = [None] * g.n  # the fan node of each mapped live vertex off the center
    cells: dict = {}  # node * b + slot -> the last vertex put there
    for v in order:
        node, slot = mapping[v]
        if node == CENTER:
            centered.add(v)
        elif v in live_set:
            node_of[v] = node
        if not (0 <= node < fan_size):
            violations.append(f"vertex {v} mapped to missing fan node {node}")
            continue
        if not (0 <= slot < b):
            violations.append(f"vertex {v} mapped to slot {slot} outside 0..{b - 1}")
            continue
        cell = node * b + slot
        if cell in cells:
            violations.append(f"vertices {cells[cell]} and {v} share node {node} slot {slot}")
        cells[cell] = v

    x_set = set(cert.x)
    if len(x_set) != len(cert.x):
        violations.append("X lists a vertex id more than once")
    for v in sorted(x_set - live_set):
        violations.append(f"X vertex {v} is not in the graph")
    for v in sorted(x_set ^ centered):
        violations.append(f"vertex {v}: center membership disagrees with X")

    keys = [node_of]
    if strict_shape:
        rest = live_set - x_set
        if len(cert.ordering) == len(rest) and set(cert.ordering) == rest:
            keys.append(positions(g.n, cert.ordering))
        else:
            violations.append("ordering is not a permutation of the non-center vertices")
    walk = None
    if not violations:
        # every vertex has a cell of its own and the center's come first
        walk = [cells[cell] for cell in sorted(cells)[len(centered):]]
        if not (strict_shape and walk == cert.ordering):  # as fan_certificate maps it
            keys.append(positions(g.n, walk))
    span, *widths = edge_spans(g, *keys)
    if strict_shape and widths:
        if widths[0] != cert.measured_bandwidth:
            violations.append(
                f"declared bandwidth {cert.measured_bandwidth} but ordering has {widths[0]}"
            )
        elif widths[0] > cert.b:
            violations.append(f"ordering width {widths[0]} exceeds b = {cert.b}")

    if span > 1:
        for u, v in g.edges():
            nu, nv = node_of[u], node_of[v]
            if nu is not None and nv is not None and abs(nu - nv) > 1:
                violations.append(
                    f"edge ({u},{v}) spans non-adjacent fan nodes {nu} and {nv}"
                )
    if walk is not None and not violations:
        bw = widths[-1]
        if bw > 2 * cert.b - 1:
            raise AssertionError(f"round-trip width {bw} exceeds 2b-1 = {2 * cert.b - 1}")
        violations.walk = centered, walk, bw
    return violations


def blowup_to_bandwidth(g: Graph, cert: FanCertificate):
    """Recover (X, ordering) from a fan-blowup embedding; the ordering walks
    the path blocks in order and has width at most 2b-1."""
    violations = verify_certificate(g, cert, strict_shape=False)
    if violations:
        raise InputError("invalid fan mapping: " + "; ".join(violations))
    return violations.walk


# ---------------------------------------------------------------------------
# pipelines


def _best_of_orderings(gp: Graph, survivors: list, placements: list,
                       sp: StructuredSparsifier, k, a, seed: int, restarts: int,
                       dims_cap):
    """The least-bandwidth projection order of the survivors (the first
    such restart on a tie) and the median bandwidth over the restarts."""
    import statistics

    # the one place the certificate pipeline loads the embedding (and numpy)
    from .embedding import projection_orders

    best, best_bw, bws = None, math.inf, []
    for ordering in projection_orders(survivors, placements, sp, k, a, seed, restarts,
                                      dims_cap):
        bws.append(bandwidth_of_ordering(gp, ordering))
        if bws[-1] < best_bw:
            best, best_bw = ordering, bws[-1]
    return best, best_bw, float(statistics.median(bws))


def _compressed_rows(vertices, row_of) -> dict:
    """Each vertex's row renumbered 1, 2, ... over the occupied rows."""
    values = sorted({row_of[v] for v in vertices})
    rank = {s: t + 1 for t, s in enumerate(values)}
    return {v: rank[row_of[v]] for v in vertices}


def planar_pipeline(g: Graph, D, seed: int, k: int | None = None, a=DEFAULT_A,
                    restarts: int = DEFAULT_RESTARTS,
                    dims_cap: int | None = None) -> PipelineResult:
    """Sparsify with the layered Baker cut, then order the survivors by
    random projections of the product-style embedding.

    The survivors are treated as a subgraph of (bag-completed survivors) x
    (path of compressed BFS layers), with an empty structured sparsifier, so
    one embedding engine serves both this and the product pipeline.
    """
    from .sparsify import StructuredSparsifier, baker_sparsify
    from .treedec import minfill_decomposition, ttree_complete

    check_ordering_params(k, a, restarts, dims_cap)
    if g.num_vertices == 0:
        return PipelineResult(set(), [], 0, 0.0)

    layering = bfs_layering(g, min(g.vertices()))
    baker = baker_sparsify(g, D, layering)
    gp = g.delete(baker.x)
    survivors = gp.vertices()
    info = {
        "baker_scales": baker.num_scales,
        "baker_w_eff": baker.w_eff,
        "x_size": len(baker.x),
        "x_bound": baker.size_bound,
    }
    if len(survivors) < 2:
        return PipelineResult(set(baker.x), survivors, 0, 0.0, info)

    td = minfill_decomposition(gp)
    host = ttree_complete(gp, td)
    rows = _compressed_rows(survivors, layering.layer_of)
    placements = [ProductVertex(v, rows[v]) for v in survivors]
    sp = StructuredSparsifier(host, len(survivors), max(D, 2), {})
    ordering, bw, bw_med = _best_of_orderings(gp, survivors, placements, sp, k, a,
                                              seed, restarts, dims_cap)
    info["host_width"] = td.width
    return PipelineResult(set(baker.x), ordering, bw, bw_med, info)


def sparsify_product(host: Graph, td: TreeDecomposition | None, g: Graph,
                     placements, D):
    """The front half of every product command: renumber the occupied rows
    1, 2, ... and cut the strips, which completes the host (along a min-fill
    decomposition when ``td`` is None).

    Returns ``(td, sp, placed, removed)``: the host decomposition, the
    sparsifier, each live vertex's renumbered placement (in vertex order)
    and the live vertices that lie in X.
    """
    from .sparsify import product_sparsify
    from .treedec import minfill_decomposition

    placements = list(placements)
    if len(placements) != g.n:
        raise InputError("one placement per vertex is required")
    if td is None:
        td = minfill_decomposition(host)

    # compress empty rows; product edges span at most one row either way
    live_ids = g.vertices()
    rows = _compressed_rows(live_ids, {v: placements[v].p for v in live_ids})
    placed = {v: ProductVertex(placements[v].h, rows[v]) for v in live_ids}

    sp = product_sparsify(host, td, list(placed.values()), D)
    removed = {v for v in live_ids if sp.in_x(placed[v])}
    return td, sp, placed, removed


def product_pipeline(host: Graph, td: TreeDecomposition | None, g: Graph,
                     placements, D, k: int | None = None, a=DEFAULT_A,
                     seed: int = 0, restarts: int = DEFAULT_RESTARTS,
                     dims_cap: int | None = None) -> PipelineResult:
    """Full product run: complete the host, cut the strips, embed the
    survivors, and keep the best of R projections."""
    check_ordering_params(k, a, restarts, dims_cap)
    if g.num_vertices == 0:
        return PipelineResult(set(), [], 0, 0.0)
    td, sp, placed, removed = sparsify_product(host, td, g, placements, D)
    gp = g.delete(removed)
    survivors = gp.vertices()
    info = {
        "host_width": td.width,
        "x_size": len(removed),
        "x_cylinder_size": sp.x_size(),
        "x_bound": sp.size_bound,
    }
    if len(survivors) < 2:
        return PipelineResult(removed, survivors, 0, 0.0, info)

    surv_pvs = [placed[v] for v in survivors]
    ordering, bw, bw_med = _best_of_orderings(gp, survivors, surv_pvs, sp, k, a,
                                              seed, restarts, dims_cap)
    return PipelineResult(removed, ordering, bw, bw_med, info)


# ---------------------------------------------------------------------------
# drawings and reductions


@dataclass(frozen=True)
class Crossing:
    edge_a: tuple
    edge_b: tuple
    pos_a: float
    pos_b: float


@dataclass
class DrawnGraph:
    """A graph plus its crossing records.  Each crossing names the two edges
    involved and its position along each; no three edges meet at a point."""

    graph: Graph
    crossings: list

    def validate(self, k: int | None = None):
        edge_set = {tuple(sorted(e)) for e in self.graph.edges()}
        per_edge: dict = {}
        for t, cr in enumerate(self.crossings):
            ea, eb = tuple(sorted(cr.edge_a)), tuple(sorted(cr.edge_b))
            for e in (ea, eb):
                if e not in edge_set:
                    raise InputError(f"crossing {t} references missing edge {e}")
            if ea == eb:
                raise InputError(f"crossing {t} has an edge crossing itself")
            if set(ea) & set(eb):
                raise InputError(
                    f"crossing {t}: edges {ea} and {eb} share an endpoint"
                )
            for e, pos in ((ea, cr.pos_a), (eb, cr.pos_b)):
                if not (0.0 < pos < 1.0):
                    raise InputError(f"crossing {t}: position {pos} outside (0,1)")
                if pos in per_edge.setdefault(e, set()):
                    raise InputError(
                        f"crossing {t}: duplicate position {pos} on edge {e}"
                    )
                per_edge[e].add(pos)
        if k is not None:
            for e, spots in per_edge.items():
                if len(spots) > k:
                    raise InputError(
                        f"edge {e} has {len(spots)} crossings, more than k={k}"
                    )


def planarize_drawing(dg: DrawnGraph):
    """Replace each crossing by a degree-4 dummy vertex.

    Returns ``(g_prime, dummy_edges)`` where dummy ``n + t`` stands for
    crossing ``t`` and ``dummy_edges[t]`` is the pair of original edges
    meeting there.
    """
    g = dg.graph
    n = g.n
    chains: dict = {tuple(sorted(e)): [] for e in g.edges()}
    dummy_edges = []
    for t, cr in enumerate(dg.crossings):
        d = n + t
        chains[tuple(sorted(cr.edge_a))].append((cr.pos_a, d))
        chains[tuple(sorted(cr.edge_b))].append((cr.pos_b, d))
        dummy_edges.append((tuple(sorted(cr.edge_a)), tuple(sorted(cr.edge_b))))
    segments = set()
    for (u, v), stops in chains.items():
        path = [u] + [d for _, d in sorted(stops)] + [v]
        for s in range(len(path) - 1):
            a, b = path[s], path[s + 1]
            segments.add((min(a, b), max(a, b)))
    g_prime = Graph(n + len(dg.crossings), sorted(segments)).delete(g.removed)
    return g_prime, dummy_edges


def _lift_deleted(x_prime, n: int, dummy_edges) -> set:
    """Replace each deleted dummy by the endpoints of its two crossing
    edges; original vertices pass through."""
    lifted: set = set()
    for v in x_prime:
        if v < n:
            lifted.add(v)
        else:
            ea, eb = dummy_edges[v - n]
            lifted.update(ea)
            lifted.update(eb)
    return lifted


def _reduce_drawing(dg: DrawnGraph, planarizing: set, D, seed: int, a,
                    restarts: int, dims_cap: int | None) -> PipelineResult:
    """Planarize ``dg``, delete ``planarizing`` from the planarization, run
    the planar pipeline on the rest and lift the deleted set back: each
    deleted dummy costs the four endpoints of its crossing edges."""
    g = dg.graph
    n = g.num_vertices
    # D is the user's density, so it is checked against the input, not the
    # planarization; the planar pipeline then runs on what is left
    if not (1 <= D <= n):
        raise InputError(f"D={D} outside [1, {n}]")
    left = n + len(dg.crossings) - len(planarizing)
    if 0 < left < D:
        raise InputError(
            f"D={D} exceeds the {left} vertices left once the planarizing set "
            f"(size {len(planarizing)}) is removed"
        )
    g_prime, dummy_edges = planarize_drawing(dg)
    inner = planar_pipeline(g_prime.delete(planarizing), D, seed, a=a,
                            restarts=restarts, dims_cap=dims_cap)
    deleted = planarizing | inner.x
    x = _lift_deleted(deleted, g.n, dummy_edges)
    if len(x) > 4 * len(deleted):
        raise AssertionError("lifted set exceeds four times the deleted set")

    ordering = [v for v in inner.ordering if v < g.n and v not in x]
    bw = bandwidth_of_ordering(g.delete(x), ordering)
    info = dict(inner.info)
    info.update({
        "dummies": len(dg.crossings),
        "planar_x_size": len(inner.x),
        "planar_bandwidth": inner.bandwidth,
        "planarizing_size": len(planarizing),
        "lifted_x_size": len(x),
    })
    return PipelineResult(x, ordering, bw, inner.bandwidth_median, info)


def kplanar_reduce(dg: DrawnGraph, k: int, D, seed: int, a=DEFAULT_A,
                   restarts: int = DEFAULT_RESTARTS,
                   dims_cap: int | None = None) -> PipelineResult:
    """Planarize a k-planar drawing, sparsify and order the planarization,
    then lift the deleted set back (each dummy costs its four endpoints):
    ``gk_reduce`` at genus 0."""
    return gk_reduce(dg, 0, k, D, seed, a=a, restarts=restarts, dims_cap=dims_cap)


def gk_reduce(dg: DrawnGraph, genus: int, k: int, D, seed: int,
              planarizing_set=None, a=DEFAULT_A, restarts: int = DEFAULT_RESTARTS,
              dims_cap: int | None = None) -> PipelineResult:
    """Reduction for drawings on a genus-g surface with at most k crossings
    per edge: planarize crossings, remove a planarizing set (none at genus
    0, externally supplied above it), run the planar pipeline, and lift
    everything back.  It checks every drawing, in this order: the ordering
    parameters, ``genus >= 0``, no planarizing set at genus 0, ``k >= 0``
    and ``dg.validate(k)``, then the edge budgets.

    Genus 0 rejects more than ``8 sqrt(k) n`` edges (classic crossing-lemma
    constant 1/64), or at k = 0 the planar bound ``3n - 6`` (n >= 3).  Above
    it, short-circuit branches (documented constants): when k > n^(2/3) or
    g > n, the guarantee bound already exceeds n, so X = V(G) is returned.
    With m >= 64n edges, the surface crossing bounds (adopted constants
    m^3 / (64 n^2) and m^2 / (64 g)) either force the same short-circuit or
    expose an inconsistent input.
    """
    check_ordering_params(a=a, restarts=restarts, dims_cap=dims_cap)
    g = dg.graph
    n = g.num_vertices
    m = g.num_edges
    if genus < 0:
        raise InputError("genus must be non-negative")
    if genus == 0 and planarizing_set is not None:
        raise InputError("a planarizing set is used only at positive genus")
    if k < 0:
        raise InputError("k must be non-negative")
    dg.validate(k=k)

    if genus == 0:
        if k > 0 and m > 8.0 * math.sqrt(k) * n:
            raise InputError(
                f"{m} edges exceed the k-planar budget 8*sqrt(k)*n = "
                f"{8.0 * math.sqrt(k) * n:.0f}; input is not {k}-planar"
            )
        if k == 0 and n >= 3 and m > 3 * n - 6:
            raise InputError(
                f"{m} edges exceed the planar bound 3n-6 = {3 * n - 6}; "
                "input is not planar"
            )
        return _reduce_drawing(dg, set(), D, seed, a, restarts, dims_cap)

    if dg.crossings:
        if k > n ** (2.0 / 3.0) or genus > n:
            return PipelineResult(set(g.vertices()), [], 0, 0.0,
                                  {"short_circuit": "k or g too large"})
        if m >= 64 * n and m > 8.0 * math.sqrt(k) * n:
            if genus * m >= n * n:
                if m <= 64 * k * genus:
                    return PipelineResult(set(g.vertices()), [], 0, 0.0,
                                          {"short_circuit": "dense genus case"})
                raise InputError(
                    f"{m} edges exceed the genus-{genus} crossing budget"
                )
            raise InputError(
                f"{m} edges exceed the k-planar budget on any surface"
            )

    if planarizing_set is None:
        raise InputError(
            "positive genus needs an externally supplied planarizing set"
        )
    planarizing = set(planarizing_set)
    for v in planarizing:
        if not (0 <= v < g.n + len(dg.crossings)) or v in g.removed:
            raise InputError(f"planarizing vertex {v} is not in the augmented graph")
    return _reduce_drawing(dg, planarizing, D, seed, a, restarts, dims_cap)


def default_blowup_factor(result: PipelineResult) -> int:
    return max(len(result.x), result.bandwidth, 1)
