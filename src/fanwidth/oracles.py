"""Independent brute-force ground truth used by the acceptance suite."""

from __future__ import annotations

from .errors import InputError
from .graphs import Graph, graph_local_density


def exact_bandwidth(g: Graph, max_vertices: int = 12) -> int:
    """Exact bandwidth by depth-first search over feasibility of each target
    width, placing vertices left to right.

    A partial placement is pruned when a placed edge already exceeds the
    target, or when a vertex placed more than ``target`` positions back still
    has an unplaced neighbor.
    """
    live = g.vertices()
    n = len(live)
    if n > max_vertices:
        raise InputError(f"exact bandwidth is limited to {max_vertices} vertices")
    if n == 0:
        return 0
    adjacency = {v: set(g.neighbors(v)) for v in live}
    if not any(adjacency.values()):
        return 0

    lower = max((len(nb) + 1) // 2 for nb in adjacency.values())

    def feasible(target: int) -> bool:
        placed_pos: dict = {}
        order: list = []

        def extend() -> bool:
            i = len(order)
            if i == n:
                return True
            frontier = i - target - 1
            if frontier >= 0:
                w = order[frontier]
                if any(x not in placed_pos for x in adjacency[w]):
                    return False
            for v in live:
                if v in placed_pos:
                    continue
                ok = all(
                    i - placed_pos[x] <= target
                    for x in adjacency[v]
                    if x in placed_pos
                )
                if not ok:
                    continue
                placed_pos[v] = i
                order.append(v)
                if extend():
                    return True
                order.pop()
                del placed_pos[v]
            return False

        return extend()

    target = lower
    while not feasible(target):
        target += 1
    return target


# The most vertices the exact local density is computed for.
DENSITY_LIMIT = 5000


def exhaustive_local_density(g: Graph):
    """Exact local density of a graph."""
    if g.num_vertices > DENSITY_LIMIT:
        raise InputError(f"density oracle is limited to {DENSITY_LIMIT} points")
    return graph_local_density(g)
