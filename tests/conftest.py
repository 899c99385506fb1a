"""Shared corpus builders for the test suite."""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

from fanwidth import Graph, ProductVertex, TreeDecomposition, bfs_layering, path_graph
from fanwidth.embedding import _ScaleGeometry
from fanwidth.randomness import stream


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


def scale_geometry(host: Graph, sp, delta: int, pvs) -> _ScaleGeometry:
    """The geometry ``build_embedding`` computes for the points ``pvs`` at
    block size ``delta``."""
    return _ScaleGeometry(host, bfs_layering(host, min(host.vertices())), sp, delta,
                          np.array([pv.h for pv in pvs], dtype=np.int64),
                          np.array([pv.p for pv in pvs], dtype=np.int64))


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
