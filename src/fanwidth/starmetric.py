"""The strip-detour distance over a sparsified product, and the checks made
against it.

For points u, v of the product that survive the sparsifier, the distance is
the max of the plain product distance and, for every strip whose vertical cut
separates them, the shortest walk in the path factor that leaves the widened
strip and comes back.  This contracts the post-deletion graph metric while
keeping the surviving point set locally sparse.

``StarMetric`` is a verification oracle: the pipelines never build one.  Its
``matrix()`` is the one table of d* that the metric-axiom check, the metric
local density and the distortion report read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .embedding import Embedding, _embedding_shape
from .errors import InputError
from .graphs import ProductVertex, all_pairs_distances, ball_density, component_labels
from .randomness import stream
from .sparsify import StructuredSparsifier
from .volumes import FiniteMetric, euclidean_volume, tree_volume

INF = math.inf


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
        self._matrix: tuple | None = None

    # -- distances ----------------------------------------------------------

    def product_distance(self, u: ProductVertex, v: ProductVertex):
        return max(self._dh[u.h].get(v.h, INF), abs(u.p - v.p))

    def _detour(self, up, vp, lo, hi):
        """Shortest walk in the padded path from row ``up`` out of rows
        ``lo..hi`` and back to row ``vp``; inf when neither exit row exists."""
        pad_lo, pad_hi = self.sp.pad_range()
        below = (up - lo + 1) + (vp - lo + 1) if lo - 1 >= pad_lo else INF
        above = (hi + 1 - up) + (hi + 1 - vp) if hi + 1 <= pad_hi else INF
        return min(below, above)

    def strip_labels(self, i: int, j: int) -> list | None:
        """Labels of the components of ``host - Y[i][j]``, host-sized (the
        least id of each vertex's component, -1 for a deleted vertex), built
        on first use; None when the sparsifier has no cut for strip (i, j)."""
        y = self.sp.cells.get((i, j))
        if y is None:
            return None
        labels = self._strip_labels.get((i, j))
        if labels is None:
            labels = self._strip_labels[(i, j)] = component_labels(self.host.delete(y))
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
        cu, cv = labels[u.h], labels[v.h]
        if cu < 0 or cv < 0 or cu == cv:
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

    def matrix(self) -> tuple:
        """d* of every ordered pair of the point list, as a tuple of rows.

        Entries are exact: ints, and inf for points in different host
        components.  The table is built once, with one ``d_star`` call per
        ordered pair, and every check of the metric reads it.
        """
        if self._matrix is None:
            pts = self.points
            self._matrix = tuple(tuple(self.d_star(u, v) for v in pts) for u in pts)
        return self._matrix


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
    n = len(sm.points)
    if n == 0:
        raise InputError("empty point set")
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"unknown mode {mode!r}")
    d = sm.matrix()
    report = MetricReport(points=n, pairs_checked=n * (n - 1) // 2, triples_checked=0)

    for i in range(n):
        if d[i][i] != 0:
            report.violations.append(f"d(p{i},p{i}) != 0")
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                report.violations.append(
                    f"asymmetry on (p{i},p{j}): {d[i][j]} vs {d[j][i]}")
            if d[i][j] < 0:
                report.violations.append(f"negative distance on (p{i},p{j})")

    # the entries are ints (exact as floats) and inf
    dmat = np.array(d, dtype=float)
    if mode == "exhaustive":
        for k in range(n):
            # D[i,j] <= D[i,k] + D[k,j] for all i, j at once
            bad = np.argwhere(dmat > dmat[:, k, None] + dmat[None, k, :])
            for i, j in bad:
                if i < j:
                    report.violations.append(
                        f"triangle fails on (p{i},p{j}) via p{k}"
                    )
            report.triples_checked += n * n
    else:
        rng = stream(seed, "metric-axioms")
        for _ in range(sample_size):
            i, j, k = rng.integers(0, n, size=3)
            report.triples_checked += 1
            if dmat[i, j] > dmat[i, k] + dmat[k, j]:
                report.violations.append(f"triangle fails on (p{i},p{j}) via p{k}")
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


@dataclass
class DistortionReport:
    pairs: int
    contraction_violations: int
    max_distortion: float
    distortion_bound: float
    sampled_subsets: int
    skipped_subsets: int
    volume_pass_fraction: float


def theoretical_distortion_bound(n: int) -> float:
    """Distortion guarantee of the scaled embedding at full dimension."""
    return 1920.0 * math.sqrt(2.0 * math.floor(1 + math.log2(n)))


def distortion_volume_report(emb: Embedding, sm: StarMetric,
                             sample_size: int = 1000, subset_size: int = 3,
                             seed: int = 0, dstar_matrix=None) -> DistortionReport:
    """Contraction, worst pairwise distortion, and the sampled subset-volume
    threshold of the embedding against the strip-detour metric.

    ``dstar_matrix`` holds d* over the embedding's points; by default it is
    the ``matrix()`` of ``sm``'s sparsifier over the embedding's placements.
    """
    n = len(emb.point_ids)
    if dstar_matrix is None:
        if sm.points != emb.placements:
            sm = StarMetric(sm.sp, emb.placements)
        dstar_matrix = sm.matrix()
    dstar = np.array(dstar_matrix, dtype=float)

    scaled = emb.scaled()
    sq = np.sum(scaled * scaled, axis=1)
    d2sq = sq[:, None] + sq[None, :] - 2.0 * (scaled @ scaled.T)
    np.maximum(d2sq, 0.0, out=d2sq)
    d2 = np.sqrt(d2sq)

    iu = np.triu_indices(n, k=1)
    emb_d = d2[iu]
    star_d = dstar[iu]
    finite = np.isfinite(star_d)
    violations = int(np.sum(emb_d[finite] > star_d[finite] * (1 + 1e-9) + 1e-12))
    with np.errstate(divide="ignore"):
        ratios = np.where(emb_d > 0, star_d / np.maximum(emb_d, 1e-300), np.inf)
        ratios = np.where(star_d > 0, ratios, 1.0)
    max_distortion = float(np.max(ratios[finite])) if finite.any() else 1.0

    _, reps = _embedding_shape(n, emb.k, emb.a)
    zeta = math.sqrt(reps) / (640.0 * math.sqrt(2.0))
    rng = stream(seed, "report/subsets")
    passed = skipped = total = 0
    ksub = subset_size
    if n > ksub:
        for _ in range(sample_size):
            sel = sorted(rng.choice(n, size=ksub, replace=False))
            sub = dstar[np.ix_(sel, sel)]
            if not np.isfinite(sub).all():
                skipped += 1
                continue
            total += 1
            tvol = tree_volume(FiniteMetric(sub.tolist()))
            evol = euclidean_volume(emb.coords[sel])
            lhs = evol * math.factorial(ksub - 1)
            rhs = tvol * (2.0 * zeta / 3.0) ** (ksub - 1)
            if lhs >= rhs:
                passed += 1
    frac = passed / total if total else 1.0
    return DistortionReport(
        pairs=int(finite.sum()),
        contraction_violations=violations,
        max_distortion=max_distortion,
        distortion_bound=theoretical_distortion_bound(max(n, 2)),
        sampled_subsets=total,
        skipped_subsets=skipped,
        volume_pass_fraction=frac,
    )
