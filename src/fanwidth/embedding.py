"""Randomized Euclidean embedding of the sparsified product metric.

Each coordinate comes from one randomly shifted block decomposition of the
product: the value of a point is its product distance to the complement of
its block component, stretched by a per-component uniform factor in [1, 2).
Components are trimmed first so that no vertical cut of the sparsifier runs
through them, which caps their detour-metric diameter at 5 * block size.

Block components are never materialized in the product: a block component is
(host component) x (row range), so all work happens on the host graph.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import Graph, Layering, ProductVertex, bfs_layering
from .randomness import stream
from .sparsify import StructuredSparsifier
from .starmetric import StarMetric
from .volumes import FiniteMetric, euclidean_volume, tree_volume

INF = math.inf


class DecompInstance:
    """One random block decomposition of ``host x path`` with block size
    ``delta`` (a power of two) and offsets ``r_h`` (host layers) and ``r_p``
    (rows)."""

    def __init__(self, host: Graph, layering: Layering, n_rows: int,
                 delta: int, r_h: int, r_p: int):
        if delta < 1 or delta & (delta - 1):
            raise InputError(f"block size {delta} is not a positive power of two")
        if not (0 <= r_h < delta and 0 <= r_p < delta):
            raise InputError(f"offsets ({r_h},{r_p}) outside 0..{delta - 1}")
        self.host = host
        self.layer_of = layering.layer_of
        self.N = n_rows
        self.delta = delta
        self.r_h = r_h
        self.r_p = r_p
        self.pad_lo = -n_rows + 1
        self.pad_hi = 2 * n_rows
        self._blocks: dict = {}

    def cell(self, pv: ProductVertex):
        a = (self.layer_of[pv.h] - self.r_h) // self.delta
        b = (pv.p - self.r_p) // self.delta
        return a, b

    def cell_rows(self, b: int):
        lo = self.r_p + b * self.delta
        return max(lo, self.pad_lo), min(lo + self.delta - 1, self.pad_hi)

    def block_data(self, a: int):
        """Component labels and host exit distances for layer block ``a``.

        Returns ``(labels, exit_dist)`` where labels maps block vertices to
        their component root and exit_dist[h] is the host distance from h to
        the nearest vertex outside its component (inf if none).
        """
        if a in self._blocks:
            return self._blocks[a]
        lo = self.r_h + a * self.delta
        hi = lo + self.delta - 1
        members = [v for v in self.host.vertices() if lo <= self.layer_of[v] <= hi]
        member_set = set(members)
        labels = {}
        for comp in self.host.delete(set(self.host.vertices()) - member_set).components():
            root = comp[0]
            for v in comp:
                labels[v] = root
        exit_dist = {}
        by_root: dict = {}
        for v, r in labels.items():
            by_root.setdefault(r, []).append(v)
        for root, comp in by_root.items():
            comp_set = set(comp)
            dist = {v: 0 for v in self.host.vertices() if v not in comp_set}
            queue = deque(dist)
            while queue:
                u = queue.popleft()
                du = dist[u] + 1
                for w in self.host.neighbors(u):
                    if w not in dist:
                        dist[w] = du
                        queue.append(w)
            for v in comp:
                exit_dist[v] = dist.get(v, INF)
        self._blocks[a] = (labels, exit_dist)
        return self._blocks[a]

    def icomp_key(self, pv: ProductVertex):
        a, b = self.cell(pv)
        labels, _ = self.block_data(a)
        return a, b, labels[pv.h]

    def boundary_distance(self, pv: ProductVertex):
        """Product distance from ``pv`` to the complement of its block
        component: the cheaper of exiting through the rows or through the
        host graph."""
        a, b = self.cell(pv)
        _, exit_dist = self.block_data(a)
        lo, hi = self.cell_rows(b)
        below = pv.p - lo + 1 if lo > self.pad_lo else INF
        above = hi + 1 - pv.p if hi < self.pad_hi else INF
        return min(below, above, exit_dist[pv.h])


class TrimmedInstance:
    """A block decomposition with every component trimmed by the vertical
    cuts of strips that fully contain it."""

    def __init__(self, inst: DecompInstance, sp: StructuredSparsifier):
        self.inst = inst
        self.sp = sp
        self._trimmed: dict = {}

    def trimmed_component(self, a: int, b: int, root: int):
        """Removed host vertices and post-trim component labels for the block
        component ``(a, b, root)``."""
        key = (a, b, root)
        if key in self._trimmed:
            return self._trimmed[key]
        labels, _ = self.inst.block_data(a)
        members = {v for v, r in labels.items() if r == root}
        lo_c, hi_c = self.inst.cell_rows(b)
        removed: set = set()
        sp = self.sp
        for i in range(sp.num_scales):
            slo = sp.strip_of(lo_c, i)
            shi = sp.strip_of(hi_c, i)
            for j in range(max(0, shi - 1), min(sp.strips_at(i) - 1, slo + 1) + 1):
                if slo >= j - 1 and shi <= j + 1:
                    y = sp.cells.get((i, j))
                    if y:
                        removed |= y & members
        jlabels = {}
        survivors = members - removed
        if survivors:
            masked = self.inst.host.delete(set(self.inst.host.vertices()) - survivors)
            for comp in masked.components():
                jroot = comp[0]
                for v in comp:
                    jlabels[v] = jroot
        self._trimmed[key] = (removed, jlabels)
        return self._trimmed[key]

    def jcomp_key(self, pv: ProductVertex):
        a, b, root = self.inst.icomp_key(pv)
        removed, jlabels = self.trimmed_component(a, b, root)
        if pv.h in removed:
            raise RuntimeError(
                f"embedded point {pv} was deleted by a trim cut; it should be "
                "in the sparsifying set"
            )
        return a, b, jlabels[pv.h]


@dataclass
class Embedding:
    point_ids: list
    placements: list
    coords: np.ndarray
    k: int
    a: float
    seed: int
    L_full: int
    capped: bool

    @property
    def L(self) -> int:
        return self.coords.shape[1]

    @property
    def scale(self) -> float:
        """Factor turning the raw coordinates into a contraction."""
        return 1.0 / (2.0 * math.sqrt(self.L)) if self.L else 1.0

    def scaled(self) -> np.ndarray:
        return self.coords * self.scale


def _embedding_shape(n: int, k: int, a) -> tuple[int, int]:
    """(number of scales, repetitions per scale) for an n-point embedding."""
    scales = n.bit_length()  # 0 .. floor(log2 n)
    reps = math.ceil(a * k * math.log(n)) if n >= 2 else 0
    return scales, reps


def build_embedding(point_ids, placements, sp: StructuredSparsifier,
                    k: int | None, a, seed: int,
                    dims_cap: int | None = None) -> Embedding:
    """Random coordinate matrix for the surviving points of ``sp``'s product.

    One coordinate per (scale i, repetition j): an independent block
    decomposition with block size 2^i and fresh offsets, trimmed, with fresh
    per-component stretches.  ``k`` defaults to ``max(2, ceil(log2 n))``.
    ``dims_cap`` subsamples the coordinate set uniformly for exploratory
    runs; certified use keeps the full dimension
    ``floor(1 + log2 n) * ceil(a k ln n)``.
    """
    ids = list(point_ids)
    pvs = list(placements)
    if len(ids) != len(pvs) or not ids:
        raise InputError("point ids and placements must align and be nonempty")
    n = len(ids)
    if k is None:
        k = max(2, math.ceil(math.log2(n)))
    if k < 2:
        raise InputError("embedding needs k >= 2")
    if a <= 0:
        raise InputError("embedding needs a > 0")
    host = sp.host
    layering = bfs_layering(host, min(host.vertices()))

    scales, reps = _embedding_shape(n, k, a)
    L_full = scales * reps
    if dims_cap is not None and dims_cap < L_full:
        chosen = stream(seed, "dims-cap").choice(L_full, size=dims_cap, replace=False)
        selected = np.zeros(L_full, dtype=bool)
        selected[chosen] = True
        capped = True
    else:
        selected = np.ones(L_full, dtype=bool)
        capped = False

    coords = np.empty((n, int(selected.sum())), dtype=np.float64)
    col = 0
    for i in range(scales):
        delta = 1 << i
        memoize = delta * delta <= reps
        geom_memo: dict = {}
        for jr in range(1, reps + 1):
            if not selected[i * reps + (jr - 1)]:
                continue
            rng = stream(seed, f"inst/i={i}/j={jr}/offsets")
            r_h = int(rng.integers(0, delta))
            r_p = int(rng.integers(0, delta))
            key = (r_h, r_p)
            geom = geom_memo.get(key)
            if geom is None:
                geom = _instance_geometry(host, layering, sp, delta, r_h, r_p, pvs)
                if memoize:
                    geom_memo[key] = geom
            bdist, jidx, jkeys = geom
            alphas = stream(seed, f"inst/i={i}/j={jr}/alpha").random(len(jkeys))
            coords[:, col] = (1.0 + alphas[jidx]) * bdist
            col += 1
    return Embedding(ids, pvs, coords, k, a, seed, L_full, capped)


def _instance_geometry(host, layering, sp, delta, r_h, r_p, pvs):
    """Per-point boundary distances and component indices for one instance.

    Returns ``(bdist, jidx, jkeys)``: for each point its boundary distance
    and the index of its post-trim component in the sorted key list.
    """
    inst = DecompInstance(host, layering, sp.N, delta, r_h, r_p)
    trimmed = TrimmedInstance(inst, sp)
    n = len(pvs)
    bdist = np.empty(n, dtype=np.float64)
    keys = []
    for t, pv in enumerate(pvs):
        bdist[t] = inst.boundary_distance(pv)
        keys.append(trimmed.jcomp_key(pv))
    jkeys = sorted(set(keys))
    index = {key: t for t, key in enumerate(jkeys)}
    jidx = np.array([index[key] for key in keys], dtype=np.int64)
    return bdist, jidx, jkeys


def project_order(emb: Embedding, seed: int) -> list:
    """Order the points by inner product with a random unit direction,
    ties broken by point id."""
    n = len(emb.point_ids)
    if n == 0:
        raise InputError("empty embedding")
    ids = np.asarray(emb.point_ids)
    if emb.L == 0:
        h = np.zeros(n)
    else:
        r = stream(seed, "projection").standard_normal(emb.L)
        norm = float(np.linalg.norm(r))
        if norm > 0:
            r = r / norm
        h = emb.coords @ r
    order = np.lexsort((ids, h))
    return [int(ids[t]) for t in order]


@dataclass
class DistortionReport:
    pairs: int
    contraction_violations: int
    max_distortion: float
    distortion_bound: float
    sampled_subsets: int
    skipped_subsets: int
    volume_pass_fraction: float

    @property
    def ok(self) -> bool:
        return self.contraction_violations == 0


def theoretical_distortion_bound(n: int) -> float:
    """Distortion guarantee of the scaled embedding at full dimension."""
    return 1920.0 * math.sqrt(2.0 * math.floor(1 + math.log2(n)))


def distortion_volume_report(emb: Embedding, sm: StarMetric,
                             sample_size: int = 1000, subset_size: int = 3,
                             seed: int = 0,
                             dstar_matrix: np.ndarray | None = None) -> DistortionReport:
    """Contraction, worst pairwise distortion, and the sampled subset-volume
    threshold of the embedding against the strip-detour metric."""
    n = len(emb.point_ids)
    if dstar_matrix is None:
        pairs = {pv: t for t, pv in enumerate(sm.points)}
        if all(pv in pairs for pv in emb.placements):
            full = sm.matrix()
            sel = [pairs[pv] for pv in emb.placements]
            dstar_matrix = full[np.ix_(sel, sel)]
        else:
            dstar_matrix = np.zeros((n, n))
            for s in range(n):
                for t in range(s + 1, n):
                    d = sm.d_star(emb.placements[s], emb.placements[t])
                    dstar_matrix[s, t] = dstar_matrix[t, s] = d

    scaled = emb.scaled()
    sq = np.sum(scaled * scaled, axis=1)
    d2sq = sq[:, None] + sq[None, :] - 2.0 * (scaled @ scaled.T)
    np.maximum(d2sq, 0.0, out=d2sq)
    d2 = np.sqrt(d2sq)

    iu = np.triu_indices(n, k=1)
    emb_d = d2[iu]
    star_d = dstar_matrix[iu]
    finite = np.isfinite(star_d)
    violations = int(np.sum(emb_d[finite] > star_d[finite] * (1 + 1e-9) + 1e-12))
    with np.errstate(divide="ignore"):
        ratios = np.where(emb_d > 0, star_d / np.maximum(emb_d, 1e-300), np.inf)
        ratios = np.where(star_d > 0, ratios, 1.0)
    max_distortion = float(np.max(ratios[finite])) if finite.any() else 1.0

    reps = math.ceil(emb.a * emb.k * math.log(n)) if n >= 2 else 1
    zeta = math.sqrt(reps) / (640.0 * math.sqrt(2.0))
    rng = stream(seed, "report/subsets")
    passed = 0
    skipped = 0
    total = 0
    ksub = subset_size
    if n > ksub:
        for _ in range(sample_size):
            sel = sorted(rng.choice(n, size=ksub, replace=False))
            sub = dstar_matrix[np.ix_(sel, sel)]
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
