"""Shared corpus builders for the test suite."""

from __future__ import annotations

import itertools
import os
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from fanwidth import (
    DecompInstance,
    Graph,
    ProductVertex,
    InputError,
    TreeDecomposition,
    bfs_layering,
    path_graph,
)
from fanwidth.embedding import _containing_cut, _deleted_point, _row_geometry
from fanwidth.randomness import stream


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps each process it starts: none is left, running or
    exited, when it ends."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def traced_peak(fn):
    """``(fn(), peak)``: what ``fn`` returns, and the most memory that
    ``tracemalloc`` saw allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Random graph with a spanning path forced in, so it is connected."""
    rng = stream(seed, f"corpus/gnp/{n}/{p}")
    edges = {(i, i + 1) for i in range(n - 1)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = stream(seed, f"corpus/raw/{n}/{p}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def stacked_triangulation(n: int, seed: int) -> Graph:
    """Planar triangulation grown by repeatedly splitting a random face of an
    initial triangle (an Apollonian-network construction)."""
    if n < 3:
        raise ValueError("needs at least 3 vertices")
    rng = stream(seed, f"corpus/stacked/{n}")
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        t = int(rng.integers(0, len(faces)))
        a, b, c = faces.pop(t)
        edges |= {tuple(sorted((v, a))), tuple(sorted((v, b))), tuple(sorted((v, c)))}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return Graph(n, sorted(edges))


def random_tree(n: int, seed: int) -> Graph:
    rng = stream(seed, f"corpus/tree/{n}")
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    return Graph(n, edges)


def grid_in_product(size: int):
    """size x size grid as a subgraph of path(size) x path(size):
    vertex v=(row*size+col) sits at host col, row+1."""
    from fanwidth import grid_graph

    host = path_graph(size)
    g, _ = grid_graph(size, size)
    placements = [ProductVertex(v % size, v // size + 1) for v in range(size * size)]
    return host, g, placements


def column_in_product(n: int):
    """Path of n vertices as a single column over a one-vertex host."""
    host = Graph(1, [])
    td = TreeDecomposition({0: frozenset([0])}, frozenset())
    g = path_graph(n)
    placements = [ProductVertex(0, v + 1) for v in range(n)]
    return host, td, g, placements


class ReferenceGeometry:
    """The per-partition geometry of one scale as first written: one
    instance at a time, each looked up by its offsets ``(r_h, r_p)``.
    ``embedding._ScaleGeometry.instances`` must give the same instances in
    the same order, and the lemma tests read ``points``.

    The host part depends only on the host partition of ``r_h`` and the row
    part only on ``r_p``; each is cached, and an instance is computed once
    per partition, the pair of both keys.
    """

    def __init__(self, host, layering, sp, delta, hosts, rows):
        self.host = host
        self.layering = layering
        self.sp = sp
        self.delta = delta
        self.hosts = hosts
        self.rows = rows
        layers = [layering.layer_of[v] for v in host.vertices()]
        self._low, self._high = min(layers), max(layers)
        self._b_span = int(rows.max() - rows.min()) // delta + 2
        self._host_parts: dict = {}
        self._row_parts: dict = {}
        self._instances: dict = {}
        self.instances: list = []

    def _host_key(self, r_h: int):
        """The first layer above the lowest live layer that starts a block,
        or None."""
        first = self._low + 1 + (r_h - self._low - 1) % self.delta
        return first if first <= self._high else None

    def _base(self, r_h: int) -> int:
        return (self._low - r_h) // self.delta

    def _host_part(self, r_h: int):
        key = self._host_key(r_h)
        part = self._host_parts.get(key)
        if part is None:
            inst = DecompInstance(self.host, self.layering, self.delta, r_h)
            part = self._host_parts[key] = (
                inst, inst.block[self.hosts] - self._base(r_h), inst.exit[self.hosts])
        return part

    def _row_part(self, r_p: int):
        part = self._row_parts.get(r_p)
        if part is None:
            b, lo, hi, row_exit = _row_geometry(self.rows, self.delta, r_p,
                                                *self.sp.pad_range())
            _, first, cell_of = np.unique(b, return_index=True, return_inverse=True)
            cells = list(zip(lo[first].tolist(), hi[first].tolist()))
            cuts = [_containing_cut(self.sp, lo_t, hi_t) for lo_t, hi_t in cells]
            part = self._row_parts[r_p] = (b, row_exit, cell_of, cuts, tuple(cells))
        return part

    def points(self, r_h: int, r_p: int):
        """``(bdist, a, b, jroot)`` of the instance with offsets ``(r_h, r_p)``."""
        inst, a_rel, host_exit = self._host_part(r_h)
        b, row_exit, cell_of, cuts, _ = self._row_part(r_p)
        labels = np.stack([inst.trim_labels(cut) for cut in cuts])
        jroot = labels[cell_of, self.hosts]
        deleted = np.flatnonzero(jroot < 0)
        if deleted.size:
            t = int(deleted[0])
            raise _deleted_point(ProductVertex(int(self.hosts[t]), int(self.rows[t])))
        return np.minimum(row_exit, host_exit), a_rel + self._base(r_h), b, jroot

    def partition(self, r_h: int, r_p: int):
        """The host partition and the occupied row cells of ``(r_h, r_p)``."""
        return self._host_key(r_h), self._row_part(r_p)[-1]

    def instance_index(self, r_h: int, r_p: int) -> int:
        """Index in ``instances`` of ``(bdist, jidx, components)`` of the
        instance with offsets ``(r_h, r_p)``."""
        key = self.partition(r_h, r_p)
        index = self._instances.get(key)
        if index is None:
            bdist, a, b, jroot = self.points(r_h, r_p)
            order = (a * self._b_span + b) * self.host.n + jroot
            keys, jidx = np.unique(order, return_inverse=True)
            index = self._instances[key] = len(self.instances)
            self.instances.append((bdist, jidx, len(keys)))
        return index

    def instances_of(self, r_h, r_p):
        """``(instances, inst_of)`` of columns with offsets ``r_h``, ``r_p``:
        the distinct offsets are looked up in sorted order."""
        pairs, pair_of = np.unique(np.asarray(r_h) * self.delta + np.asarray(r_p),
                                   return_inverse=True)
        index = np.array([self.instance_index(*divmod(int(pair), self.delta))
                          for pair in pairs], dtype=np.int64)
        return self.instances, index[pair_of]


def point_arrays(pvs):
    """The host and row of each point, as ``build_embedding`` holds them."""
    return (np.array([pv.h for pv in pvs], dtype=np.int64),
            np.array([pv.p for pv in pvs], dtype=np.int64))


def scale_geometry(host: Graph, sp, delta: int, pvs) -> ReferenceGeometry:
    """The reference geometry of the points ``pvs`` at block size ``delta``."""
    return ReferenceGeometry(host, bfs_layering(host, min(host.vertices())), sp, delta,
                             *point_arrays(pvs))


def instance_offsets(seed: int, i: int, jr: int) -> tuple[int, int]:
    """Offsets ``(r_h, r_p)`` that ``build_embedding`` draws for repetition
    ``jr`` at scale ``i``."""
    rng = stream(seed, f"inst/i={i}/j={jr}/offsets")
    return int(rng.integers(0, 1 << i)), int(rng.integers(0, 1 << i))


def component_groups(keys) -> list[list[int]]:
    """Point indices grouped by component key.  ``keys`` holds the parts of
    the key, one per-point array each, such as ``(a, b, root)``."""
    groups = defaultdict(list)
    for t, key in enumerate(zip(*(np.asarray(part).tolist() for part in keys))):
        groups[key].append(t)
    return list(groups.values())


def assert_component_diameters(keys, distance, bound):
    """Every two points with one component key are at ``distance(s, t)``
    at most ``bound``."""
    for members in component_groups(keys):
        for s in members:
            for t in members:
                assert distance(s, t) <= bound, (s, t)


def brute_force_bandwidth(g: Graph) -> int:
    """Independent exhaustive minimum over all orderings, with early abort."""
    live = g.vertices()
    edges = g.edges()
    best = max(len(live) - 1, 0)
    for perm in itertools.permutations(live):
        pos = {v: i for i, v in enumerate(perm)}
        width = 0
        for u, v in edges:
            gap = abs(pos[u] - pos[v])
            if gap > width:
                width = gap
            if width >= best:
                break
        if width < best:
            best = width
        if best == 0:
            break
    return best


def reference_edge_error(n: int, edges):
    """The message of the first bad edge of ``edges`` for ``Graph(n, edges)``,
    checked one edge at a time as the constructor first did, or None."""
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
    return None


def reference_bandwidth(g: Graph, ordering) -> int:
    """``graphs.bandwidth_of_ordering`` as first written: a position dict and
    a loop over ``g.edges()``."""
    if sorted(ordering) != g.vertices():
        raise InputError("ordering is not a permutation of the live vertex set")
    pos = {v: i for i, v in enumerate(ordering)}
    width = 0
    for u, v in g.edges():
        width = max(width, abs(pos[u] - pos[v]))
    return width


def reference_verify_certificate(g: Graph, cert, strict_shape: bool = True) -> list[str]:
    """``pipeline.verify_certificate`` as first written: one check at a
    time, with ``g.delete(X)`` and sorted permutation checks.  The one-sweep
    version must return the same violations in the same order."""
    violations = []
    live = g.vertices()
    n = len(live)
    if cert.n != n:
        violations.append(f"certificate n={cert.n} but graph has {n} vertices")
    if not (1 <= cert.b <= max(n, 1)):
        violations.append(f"blowup factor {cert.b} out of range")
        return violations
    if strict_shape and cert.fan_size != max(2, -(-cert.n // cert.b)):
        violations.append(
            f"fan size {cert.fan_size} differs from max(2, ceil(n/b)) = "
            f"{max(2, -(-cert.n // cert.b))}"
        )

    mapped = set(cert.mapping)
    live_set = set(live)
    for v in live:
        if v not in mapped:
            violations.append(f"vertex {v} is not mapped")
    for v in mapped:
        if v not in live_set:
            violations.append(f"mapped vertex {v} is not in the graph")

    seen_slots = {}
    for v, (node, slot) in sorted(cert.mapping.items()):
        if not (0 <= node < cert.fan_size):
            violations.append(f"vertex {v} mapped to missing fan node {node}")
            continue
        if not (0 <= slot < cert.b):
            violations.append(f"vertex {v} mapped to slot {slot} outside 0..{cert.b - 1}")
            continue
        if (node, slot) in seen_slots:
            violations.append(
                f"vertices {seen_slots[(node, slot)]} and {v} share node {node} slot {slot}"
            )
        seen_slots[(node, slot)] = v

    x_set = set(cert.x)
    if len(x_set) != len(cert.x):
        violations.append("X lists a vertex id more than once")
    for v in sorted(x_set - live_set):
        violations.append(f"X vertex {v} is not in the graph")
    centered = {v for v, (node, _) in cert.mapping.items() if node == 0}
    for v in sorted(x_set ^ centered):
        violations.append(f"vertex {v}: center membership disagrees with X")

    if strict_shape:
        if sorted(cert.ordering) != sorted(live_set - x_set):
            violations.append("ordering is not a permutation of the non-center vertices")
        else:
            width = reference_bandwidth(g.delete(x_set), cert.ordering)
            if width != cert.measured_bandwidth:
                violations.append(
                    f"declared bandwidth {cert.measured_bandwidth} but ordering has {width}"
                )
            elif width > cert.b:
                violations.append(f"ordering width {width} exceeds b = {cert.b}")

    for u, v in g.edges():
        if u not in cert.mapping or v not in cert.mapping:
            continue
        nu, nv = cert.mapping[u][0], cert.mapping[v][0]
        if nu != 0 and nv != 0 and abs(nu - nv) > 1:
            violations.append(
                f"edge ({u},{v}) spans non-adjacent fan nodes {nu} and {nv}"
            )
    return violations


def reference_round_trip(g: Graph, cert):
    """``blowup_to_bandwidth`` as first written: X, the block walk and its
    width on ``g.delete(X)``."""
    x = {v for v, (node, _) in cert.mapping.items() if node == 0}
    blocks: dict = {}
    for v, (node, slot) in cert.mapping.items():
        if node != 0:
            blocks.setdefault(node, []).append((slot, v))
    ordering = []
    for node in sorted(blocks):
        for _, v in sorted(blocks[node]):
            ordering.append(v)
    bw = reference_bandwidth(g.delete(x), ordering)
    if bw > 2 * cert.b - 1:
        raise AssertionError(f"round-trip width {bw} exceeds 2b-1 = {2 * cert.b - 1}")
    return x, ordering, bw
