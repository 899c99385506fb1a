"""Local-density sparsifiers.

Two variants share one mechanism: cut dyadic slabs with weighted separators
so that every surviving ball of radius r contains O(D * r) vertices.

* ``baker_sparsify`` works on a layered graph directly (slabs are runs of
  consecutive layers, separators come from per-slab tree decompositions).
* ``product_sparsify`` works on a subgraph of ``host x path``: each scale-i
  strip of 3 * 2^i rows is cut by a full vertical cylinder ``Y x rows``, so
  strip components are host components times the strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .graphs import Graph, Layering, ProductVertex
from .treedec import (
    TreeDecomposition,
    minfill_decomposition,
    separator_bag_union,
    ttree_complete,
    weighted_separator,
)


def _ceil_div(numer, denom) -> int:
    """Exact ceiling of numer / denom for int or Fraction operands."""
    return math.ceil(Fraction(numer) / Fraction(denom))


@dataclass
class BakerResult:
    """Sparsifying set plus the per-run accounting used by the size bound."""

    x: set
    num_scales: int
    w_eff: Fraction
    size_bound: Fraction


def baker_sparsify(g: Graph, D, layering: Layering) -> BakerResult:
    """Sparsify a layered graph so ``g - X`` has local density at most D.

    Scales i cover every dyadic radius class with 2^i >= r for the radii
    r < n/D that the density bound must control.  At scale i, slab j is the
    union of layers ``j*2^i .. (j+1)*2^i - 1`` widened by one slab on each
    side; the widened slab is cut with unit weights and
    ``c = ceil(|slab| / (D * 2^(i-1)))``, so surviving slab components have
    at most ``D * 2^(i-1)`` vertices.
    """
    n = g.num_vertices
    if n == 0:
        return BakerResult(set(), 0, Fraction(0), Fraction(0))
    if not (1 <= D <= n):
        raise InputError(f"D={D} outside [1, {n}]")
    layering.validate(g)
    layer = layering.normalized().layer_of

    by_layer: dict = {}
    for v in g.vertices():
        by_layer.setdefault(layer[v], []).append(v)

    r_max = _ceil_div(n, D) - 1
    if r_max < 1:
        return BakerResult(set(), 0, Fraction(0), Fraction(0))
    top = max(0, (r_max - 1).bit_length())

    live = set(g.vertices())
    decomps: dict = {}
    max_layer = max(by_layer)
    x: set = set()
    w_eff = Fraction(0)
    for i in range(top + 1):
        span = 1 << i
        threshold = Fraction(D) * Fraction(span, 2)
        for j in range(0, max_layer // span + 1):
            slab = []
            for s in range((j - 1) * span, (j + 2) * span):
                slab.extend(by_layer.get(s, ()))
            if not slab:
                continue
            c = max(1, _ceil_div(len(slab), threshold))
            if c == 1:
                continue
            key = frozenset(slab)
            td = decomps.get(key)
            sub = g.delete(live - key)
            if td is None:
                td = minfill_decomposition(sub)
                if (j + 2) * span > max_layer:  # only these windows repeat
                    decomps[key] = td
            w_eff = max(w_eff, Fraction(td.width + 1, 3 * span))
            sep = weighted_separator(sub, td, {v: 1 for v in slab}, c)
            x |= separator_bag_union(td, sep)

    num_scales = top + 1
    size_bound = Fraction(18) * w_eff * n * num_scales / Fraction(D)
    if len(x) > size_bound:
        raise AssertionError(
            f"sparsifier size {len(x)} exceeds bound {float(size_bound):.1f}"
        )
    return BakerResult(x, num_scales, w_eff, size_bound)


class StructuredSparsifier:
    """The family of vertical cuts ``X[i][j] = Y[i][j] x rows(strip+)`` over a
    ``host x path`` product, plus their union X.

    Rows 1..N hold the target subgraph; the path is conceptually padded to
    rows ``-N+1 .. 2N`` so every strip has a detour row on each side except
    the full-width top strip.  ``size_bound`` is the bound on ``x_size()``
    that ``product_sparsify`` checks, or None for one it did not build.
    """

    def __init__(self, host: Graph, n_points: int, D, cells: dict):
        self.host = host
        self.size_bound = None
        self.n_points = n_points
        self.D = D
        if n_points < 0:
            raise InputError("negative point count")
        self.N = 1 << max(0, (max(1, n_points) - 1).bit_length())
        self.cells = cells  # (i, j) -> frozenset Y

    # -- geometry ----------------------------------------------------------

    @property
    def num_scales(self) -> int:
        return self.N.bit_length()  # scales 0 .. log2(N)

    def strip_of(self, row: int, i: int) -> int:
        return (row - 1) >> i

    def strips_at(self, i: int) -> int:
        return self.N >> i

    def plus_interval(self, i: int, j: int):
        """Row interval of the widened strip (i, j), before padding clip."""
        return (j - 1) * (1 << i) + 1, (j + 2) * (1 << i)

    def pad_range(self):
        return -self.N + 1, 2 * self.N

    def widened_strips(self, lo: int, hi: int):
        """Each strip (i, j) whose widened rows ``plus_interval(i, j)``
        contain all of rows ``lo..hi``: at most three per scale."""
        for i in range(self.num_scales):
            first = max(0, self.strip_of(hi, i) - 1)
            last = min(self.strips_at(i) - 1, self.strip_of(lo, i) + 1)
            for j in range(first, last + 1):
                yield i, j

    # -- membership and size ------------------------------------------------

    def in_x(self, pv: ProductVertex) -> bool:
        cells = self.cells
        return any(pv.h in cells.get(ij, ()) for ij in self.widened_strips(pv.p, pv.p))

    def x_size(self) -> int:
        """Exact size of the union of cylinders, clipped to the padded path."""
        pad_lo, pad_hi = self.pad_range()
        by_host: dict = {}
        for (i, j), y in self.cells.items():
            if not y:
                continue
            lo, hi = self.plus_interval(i, j)
            lo, hi = max(lo, pad_lo), min(hi, pad_hi)
            for h in y:
                by_host.setdefault(h, []).append((lo, hi))
        total = 0
        for intervals in by_host.values():
            intervals.sort()
            cur_lo, cur_hi = intervals[0]
            for lo, hi in intervals[1:]:
                if lo > cur_hi + 1:
                    total += cur_hi - cur_lo + 1
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            total += cur_hi - cur_lo + 1
        return total

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"N {self.N} n {self.n_points} D {self.D}"]
        for i in range(self.num_scales):
            for j in range(self.strips_at(i)):
                y = sorted(self.cells.get((i, j), ()))
                lines.append(f"{i} {j} | " + " ".join(str(v) for v in y))
        return "\n".join(lines) + "\n"


def _strip_weights(placements, i: int, N: int):
    """Yield the column weights ``{h: count}`` of each scale-``i`` strip
    ``j`` in order: the placements in column ``h`` with rows in strips
    ``j - 1..j + 1``, the widened strip."""
    per_strip: dict = {}
    for pv in placements:
        column = per_strip.setdefault((pv.p - 1) >> i, {})
        column[pv.h] = column.get(pv.h, 0) + 1
    for j in range(N >> i):
        xi: dict = {}
        for s in (j - 1, j, j + 1):
            for h, w in per_strip.get(s, {}).items():
                xi[h] = xi.get(h, 0) + w
        yield xi


def product_sparsify(
    host: Graph,
    td: TreeDecomposition,
    g_vertices,
    D,
) -> StructuredSparsifier:
    """Structured sparsifier for a subgraph placed in ``host x path``.

    ``host`` is completed along ``td`` first, which validates ``td``.
    ``g_vertices`` are the placements (host vertex, row); rows must lie in
    1..N for N the smallest power of two at least the placement count.  Each
    scale-i strip is cut with column weights
    ``xi(h) = #(G vertices in column h with rows in the widened strip)`` and
    ``c = ceil(xi(host) / (2^(i-1) D))``, so every component of host - Y
    carries at most ``2^(i-1) D`` G-vertices.
    """
    host = ttree_complete(host, td)
    if D < 2:
        raise InputError(f"product sparsifier needs D >= 2, got {D}")
    placements = list(g_vertices)
    n = len(placements)
    if len(set(placements)) != n:
        raise InputError("duplicate product placements")

    sp = StructuredSparsifier(host, n, D, {})
    N = sp.N
    for pv in placements:
        if not (1 <= pv.p <= N):
            raise InputError(f"placement row {pv.p} outside 1..{N}")
        if pv.h in host.removed or not (0 <= pv.h < host.n):
            raise InputError(f"placement host vertex {pv.h} invalid")

    cells = sp.cells
    for i in range(sp.num_scales):
        threshold = Fraction(D) * Fraction(1 << i, 2)
        for j, xi in enumerate(_strip_weights(placements, i, N)):
            total = sum(xi.values())
            if total == 0:
                cells[(i, j)] = frozenset()
                continue
            c = max(1, _ceil_div(total, threshold))
            if c == 1:
                cells[(i, j)] = frozenset()
                continue
            sep = weighted_separator(host, td, xi, c)
            y = frozenset(separator_bag_union(td, sep))
            cells[(i, j)] = y
            # recheck the separator guarantee on this strip
            for comp in host.delete(y).components():
                cw = sum(xi.get(v, 0) for v in comp)
                if cw > threshold:
                    raise AssertionError(
                        f"strip ({i},{j}): component weight {cw} exceeds {threshold}"
                    )

    sp.size_bound = Fraction(18) * (td.width + 1) * n * sp.num_scales / Fraction(D)
    size = sp.x_size()
    if size > sp.size_bound:
        raise AssertionError(f"|X| = {size} exceeds bound {float(sp.size_bound):.1f}")
    return sp
