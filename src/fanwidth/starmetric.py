"""The strip-detour distance over a sparsified product.

For points u, v of the product that survive the sparsifier, the distance is
the max of the plain product distance and, for every strip whose vertical cut
separates them, the shortest walk in the path factor that leaves the widened
strip and comes back.  This contracts the post-deletion graph metric while
keeping the surviving point set locally sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .graphs import ProductVertex, all_pairs_distances, ball_density
from .randomness import stream
from .sparsify import StructuredSparsifier

INF = math.inf


def interval_detour(up: int, vp: int, lo: int, hi: int):
    """Shortest walk in the path that starts at row ``up``, leaves the
    interval [lo, hi], and ends at row ``vp``.

    Both detour rows lo-1 and hi+1 are assumed to exist.
    """
    if not (lo <= up <= hi and lo <= vp <= hi):
        raise InputError(f"rows {up},{vp} not inside [{lo},{hi}]")
    below = (up - lo + 1) + (vp - lo + 1)
    above = (hi + 1 - up) + (hi + 1 - vp)
    return min(below, above)


class StarMetric:
    """Distance oracle over the surviving points of a sparsified product."""

    def __init__(self, sp: StructuredSparsifier, points):
        self.sp = sp
        self.host = sp.host
        self.points = list(points)
        for pv in self.points:
            if sp.in_x(pv):
                raise InputError(f"point {pv} lies in the sparsifying set")
        self._point_set = frozenset(self.points)
        self._dh = all_pairs_distances(self.host)
        self._strip_labels: dict = {}

    # -- distances ----------------------------------------------------------

    def product_distance(self, u: ProductVertex, v: ProductVertex):
        return max(self._dh[u.h].get(v.h, INF), abs(u.p - v.p))

    def _detour(self, up, vp, lo, hi):
        pad_lo, pad_hi = self.sp.pad_range()
        below = (up - lo + 1) + (vp - lo + 1) if lo - 1 >= pad_lo else INF
        above = (hi + 1 - up) + (hi + 1 - vp) if hi + 1 <= pad_hi else INF
        return min(below, above)

    def strip_labels(self, i: int, j: int) -> dict | None:
        """Labels of the components of ``host - Y[i][j]`` (the least id of
        each vertex's component), built on first use; None when the
        sparsifier has no cut for strip (i, j)."""
        y = self.sp.cells.get((i, j))
        if y is None:
            return None
        labels = self._strip_labels.get((i, j))
        if labels is None:
            labels = self._strip_labels[(i, j)] = {
                v: comp[0] for comp in self.host.delete(y).components() for v in comp
            }
        return labels

    def d_ij(self, i: int, j: int, u: ProductVertex, v: ProductVertex):
        """Detour distance of strip (i, j); 0 unless the strip's cut separates
        u from v inside the widened strip."""
        if not (0 <= j < self.sp.strips_at(i)):
            return 0
        lo, hi = self.sp.plus_interval(i, j)
        if not (lo <= u.p <= hi and lo <= v.p <= hi):
            return 0
        labels = self.strip_labels(i, j)
        if labels is None:
            return 0
        cu, cv = labels.get(u.h), labels.get(v.h)
        if cu is None or cv is None or cu == cv:
            return 0
        return self._detour(u.p, v.p, lo, hi)

    def d_star(self, u: ProductVertex, v: ProductVertex):
        """Max of the product distance and all strip detours.

        Only the strips whose widened rows hold both rows can be positive,
        at most three per scale, so the scan is O(log N).
        """
        for pv in (u, v):
            if pv not in self._point_set and self.sp.in_x(pv):
                raise InputError(f"vertex {pv} lies in the sparsifying set")
        best = self.product_distance(u, v)
        for i, j in self.sp.widened_strips(min(u.p, v.p), max(u.p, v.p)):
            d = self.d_ij(i, j, u, v)
            if d > best:
                best = d
        return best

    def matrix(self) -> np.ndarray:
        """Full pairwise distance matrix over the point list (inf for
        disconnected pairs)."""
        n = len(self.points)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                d = self.d_star(self.points[i], self.points[j])
                out[i, j] = out[j, i] = d
        return out


@dataclass
class MetricReport:
    points: int
    pairs_checked: int
    triples_checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_metric_axioms(sm: StarMetric, mode: str = "exhaustive",
                         sample_size: int = 20000, seed: int = 0) -> MetricReport:
    """Check symmetry, identity and the triangle inequality over the point
    set.  Violations are returned as data, never raised."""
    pts = sm.points
    n = len(pts)
    if n == 0:
        raise InputError("empty point set")
    report = MetricReport(points=n, pairs_checked=0, triples_checked=0)

    for i in range(n):
        if sm.d_star(pts[i], pts[i]) != 0:
            report.violations.append(f"d(p{i},p{i}) != 0")
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dij = sm.d_star(pts[i], pts[j])
            dji = sm.d_star(pts[j], pts[i])
            report.pairs_checked += 1
            if dij != dji:
                report.violations.append(f"asymmetry on (p{i},p{j}): {dij} vs {dji}")
            if dij < 0:
                report.violations.append(f"negative distance on (p{i},p{j})")
            dmat[i, j] = dmat[j, i] = dij

    if mode == "exhaustive":
        for k in range(n):
            # D[i,j] <= D[i,k] + D[k,j] for all i, j at once
            slack = dmat[:, k, None] + dmat[None, k, :]
            bad = np.argwhere(dmat > slack + 1e-12)
            for i, j in bad:
                if i < j:
                    report.violations.append(
                        f"triangle fails on (p{i},p{j}) via p{k}"
                    )
            report.triples_checked += n * n
    elif mode == "sampled":
        rng = stream(seed, "metric-axioms")
        for _ in range(sample_size):
            i, j, k = rng.integers(0, n, size=3)
            report.triples_checked += 1
            if dmat[i, j] > dmat[i, k] + dmat[k, j] + 1e-12:
                report.violations.append(f"triangle fails on (p{i},p{j}) via p{k}")
    else:
        raise InputError(f"unknown mode {mode!r}")
    return report


def metric_local_density(points, dist):
    """Exact local density of a finite metric: max over centers and realized
    radii of (ball size - 1) / r (see ``graphs.ball_density``).

    ``dist`` is either a callable on point pairs or a square matrix aligned
    with ``points``.  Returns a Fraction when all distances are rational,
    else a float.  A single point yields 0.
    """
    pts = list(points)
    n = len(pts)
    if n == 0:
        raise InputError("empty point set")
    if callable(dist):
        return ball_density([dist(u, v) for v in pts] for u in pts)
    return ball_density([dist[i][j] for j in range(n)] for i in range(n))
