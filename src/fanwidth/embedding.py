"""Randomized Euclidean embedding of the sparsified product metric.

Each coordinate comes from one randomly shifted block decomposition of the
product: the value of a point is its product distance to the complement of
its block component, stretched by a per-component uniform factor in [1, 2).
Components are trimmed first so that no vertical cut of the sparsifier runs
through them, which caps their detour-metric diameter at 5 * block size.

Block components are never materialized in the product: a block component is
(host component) x (row range), so all work happens on the host graph.  Nor
do the pipelines materialize the coordinate matrix: they order the points by
random projections summed per decomposition instance (``projection_orders``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import Graph, Layering, ProductVertex, bfs, bfs_layering, component_labels
from .randomness import PCG64Batch, label_states, stream
from .sparsify import StructuredSparsifier

INF = math.inf

# Columns of a scale drawn and written together: the stretch draws and the
# gathered per-point arrays of one block are ``_COLUMN_CHUNK x n``
_COLUMN_CHUNK = 512

# Largest embedding dimension (columns over all scales) that ``_Columns``
# accepts; it raises InputError above it, before allocating.  The defaults
# k = ceil(log2 n) and a = 193 need 1,791,840 columns for n = 10^7 points.
MAX_COLUMNS = 1 << 21


def _row_geometry(rows: np.ndarray, delta: int, r_p: int, n_rows: int):
    """Row cell ``b`` of each row, the cell's rows ``lo..hi`` clipped to the
    padded path ``-N+1..2N``, and the row exit distance: the rows to the
    nearer end of the cell that is not an end of the padded path."""
    b = (rows - r_p) // delta
    start = r_p + b * delta
    lo = np.maximum(start, 1 - n_rows)
    hi = np.minimum(start + delta - 1, 2 * n_rows)
    below = np.where(lo > 1 - n_rows, rows - lo + 1, INF)
    above = np.where(hi < 2 * n_rows, hi + 1 - rows, INF)
    return b, lo, hi, np.minimum(below, above)


def _containing_cut(sp: StructuredSparsifier, lo: int, hi: int) -> frozenset:
    """Host vertices of the vertical cuts whose strips fully contain rows
    ``lo..hi``: they trim every block component in those rows."""
    cuts = (sp.cells.get(ij, ()) for ij in sp.widened_strips(lo, hi))
    return frozenset().union(*cuts)


def _deleted_point(pv: ProductVertex) -> RuntimeError:
    return RuntimeError(
        f"embedded point {pv} was deleted by a trim cut; it should be in the "
        "sparsifying set"
    )


class DecompInstance:
    """The host part of one random block decomposition of ``host x path``
    with block size ``delta`` (a power of two) and host-layer offset ``r_h``.

    Host-sized arrays: ``block`` is the layer block ``a`` of each host vertex
    and ``exit`` its host distance to the nearest live vertex outside its
    block component (inf if none); ``trim_labels(frozenset())`` gives the
    least id of its block component.

    One multi-source BFS gives every exit distance.  Distinct components of
    a block are not adjacent, so a shortest exit path leaves its component
    through a vertex outside the block; the vertex before that has a neighbor
    in another block, so its degree drops in the same-block graph, and lies
    in the same block as the path's start.  Seeding the BFS with those
    vertices at distance 1 thus gives each vertex its own block's exit
    distance.
    """

    def __init__(self, host: Graph, layering: Layering, delta: int, r_h: int):
        if delta < 1 or delta & (delta - 1):
            raise InputError(f"block size {delta} is not a positive power of two")
        if not 0 <= r_h < delta:
            raise InputError(f"offset {r_h} outside 0..{delta - 1}")
        live = host.vertices()
        block = [0] * host.n
        for v in live:
            block[v] = (layering.layer_of[v] - r_h) // delta
        self._within = host.within(block)  # the same-block edges only
        seeds = [v for v in live if self._within.degree(v) < host.degree(v)]
        exit_dist = [INF] * host.n
        bfs(host, seeds, exit_dist, start=1)
        self.block = np.array(block, dtype=np.int64)
        self.exit = np.array(exit_dist, dtype=np.float64)
        self._trims: dict = {}

    def trim_labels(self, cut: frozenset) -> np.ndarray:
        """Host-sized post-trim component labels: the least id of each
        vertex's component in its block with ``cut`` deleted, -1 for a
        deleted vertex."""
        labels = self._trims.get(cut)
        if labels is None:
            labels = self._trims[cut] = np.array(
                component_labels(self._within.delete(cut)), dtype=np.int64)
        return labels


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
    """(number of scales, repetitions per scale) for an n-point embedding;
    raises InputError when their product exceeds ``MAX_COLUMNS``."""
    scales = n.bit_length()  # 0 .. floor(log2 n)
    try:
        reps = a * k * math.log(n) if n >= 2 else 0
    except OverflowError:  # k too large to be a float
        reps = math.inf
    if not reps <= MAX_COLUMNS or scales * math.ceil(reps) > MAX_COLUMNS:
        raise InputError(f"embedding dimension {scales} scales x {reps:.6g} "
                         f"repetitions exceeds the supported {MAX_COLUMNS} columns")
    return scales, math.ceil(reps)


class _Columns:
    """The one path from points, sparsifier and seed to coordinate columns.

    One column per (scale i, repetition j): an independent block
    decomposition with block size 2^i and fresh offsets, trimmed, with fresh
    per-component stretches.  ``k`` defaults to ``max(2, ceil(log2 n))``.
    ``dims_cap`` subsamples the columns uniformly for exploratory runs;
    certified use keeps the full dimension
    ``floor(1 + log2 n) * ceil(a k ln n)``.  The checks run on construction;
    ``scales`` draws the columns.
    """

    def __init__(self, point_ids, placements, sp: StructuredSparsifier,
                 k: int | None, a, seed: int, dims_cap: int | None):
        self.ids = list(point_ids)
        self.pvs = list(placements)
        if len(self.ids) != len(self.pvs) or not self.ids:
            raise InputError("point ids and placements must align and be nonempty")
        n = len(self.ids)
        if k is None:
            k = max(2, math.ceil(math.log2(n)))
        if k < 2:
            raise InputError("embedding needs k >= 2")
        if a <= 0:
            raise InputError("embedding needs a > 0")
        self.k, self.sp, self.seed = k, sp, seed
        self.num_scales, self.reps = _embedding_shape(n, k, a)
        self.L_full = self.num_scales * self.reps
        self.capped = dims_cap is not None and dims_cap < self.L_full
        if self.capped:
            chosen = stream(seed, "dims-cap").choice(self.L_full, size=dims_cap,
                                                     replace=False)
            self.selected = np.zeros(self.L_full, dtype=bool)
            self.selected[chosen] = True
        else:
            self.selected = np.ones(self.L_full, dtype=bool)
        self.L = int(self.selected.sum())

    def scales(self):
        """Yield ``(instances, chunks)`` per scale, in column order.
        ``instances`` lists the scale's distinct ``(bdist, jidx, components)``
        (see ``_ScaleGeometry.instance_index``).  ``chunks`` yields
        ``(inst_of, alpha)`` per run of at most ``_COLUMN_CHUNK`` columns:
        each column's index in ``instances`` and its stretch draws, one row
        per column.  Column ``t`` is ``(1 + alpha[t, jidx]) * bdist`` of its
        instance."""
        host = self.sp.host
        layering = bfs_layering(host, min(host.vertices()))
        hosts = np.array([pv.h for pv in self.pvs], dtype=np.int64)
        rows = np.array([pv.p for pv in self.pvs], dtype=np.int64)
        for i in range(self.num_scales):
            delta = 1 << i
            jrs = [jr for jr in range(1, self.reps + 1)
                   if self.selected[i * self.reps + jr - 1]]
            if not jrs:
                continue
            # column t takes its offsets from the stream of states[2t] and
            # its stretches, random(components), from states[2t + 1]
            labels = (f"inst/i={i}/j={jr}/{use}" for jr in jrs
                      for use in ("offsets", "alpha"))
            states = label_states(self.seed, labels)
            geometry = _ScaleGeometry(host, layering, self.sp, delta, hosts, rows)
            r_h, r_p = PCG64Batch(states[0::2]).offsets(delta)
            pairs, pair_of = np.unique(r_h * delta + r_p, return_inverse=True)
            index = np.array([geometry.instance_index(*divmod(int(pair), delta))
                              for pair in pairs])
            yield geometry.instances, _chunks(states[1::2], index[pair_of],
                                              geometry.instances)


def _chunks(alpha_states: np.ndarray, inst_of: np.ndarray, instances: list):
    components = np.array([count for _, _, count in instances])[inst_of]
    for start in range(0, len(inst_of), _COLUMN_CHUNK):
        stop = min(start + _COLUMN_CHUNK, len(inst_of))
        alpha = PCG64Batch(alpha_states[start:stop]).random(
            int(components[start:stop].max()))
        yield inst_of[start:stop], alpha


def build_embedding(point_ids, placements, sp: StructuredSparsifier,
                    k: int | None, a, seed: int,
                    dims_cap: int | None = None) -> Embedding:
    """The coordinate matrix of ``_Columns`` for the surviving points of
    ``sp``'s product.  Only ``embed`` and the checks of the embedding need
    it; the pipelines order by ``projection_orders``."""
    columns = _Columns(point_ids, placements, sp, k, a, seed, dims_cap)
    coords = np.empty((len(columns.ids), columns.L), dtype=np.float64)
    col = 0
    for instances, chunks in columns.scales():
        for inst_of, alpha in chunks:
            used, local = np.unique(inst_of, return_inverse=True)
            jidx = np.stack([instances[u][1] for u in used])[local]
            block = np.take_along_axis(alpha, jidx, axis=1)
            block += 1.0
            block *= np.stack([instances[u][0] for u in used])[local]
            coords[:, col:col + len(inst_of)] = block.T
            col += len(inst_of)
    return Embedding(columns.ids, columns.pvs, coords, columns.k, a, seed,
                     columns.L_full, columns.capped)


class _ScaleGeometry:
    """Geometry of the points' coordinates at block size ``delta``: the only
    path from an instance's offsets to per-point geometry.

    An instance's geometry is a host part that depends only on the host
    partition of ``r_h`` (the block ``a``, block component and host exit
    distance of each point) and a row part that depends only on ``r_p`` (the
    row cell ``b``, the row exit distance and the trimming cut of each
    point).  Each part is computed once; an instance combines them with
    array operations.

    Offsets that cut the live host layers and the points' rows alike give
    the same partition of the points: ``a`` and ``b`` differ by constants,
    which keep the ``(a, b, jroot)`` order, so an instance is computed once
    per partition.
    """

    def __init__(self, host: Graph, layering: Layering, sp: StructuredSparsifier,
                 delta: int, hosts: np.ndarray, rows: np.ndarray):
        self.host = host
        self.layering = layering
        self.sp = sp
        self.delta = delta
        self.hosts = hosts
        self.rows = rows
        layers = [layering.layer_of[v] for v in host.vertices()]
        self._low, self._high = min(layers), max(layers)
        # the points of one instance lie in fewer row cells than this, so
        # (a * span + b) * host.n + jroot orders them like (a, b, jroot)
        self._b_span = int(rows.max() - rows.min()) // delta + 2
        self._host_parts: dict = {}
        self._row_parts: dict = {}
        self._instances: dict = {}
        self.instances: list = []

    def _host_key(self, r_h: int):
        """The host partition of ``r_h``: the first layer above the lowest
        live layer that starts a block, or None.  It fixes every later block
        start in the live layer range (they are ``delta`` apart), and so each
        live vertex's ``a - _base(r_h)``, its number of block starts from the
        lowest layer up to its own."""
        first = self._low + 1 + (r_h - self._low - 1) % self.delta
        return first if first <= self._high else None

    def _base(self, r_h: int) -> int:
        """Block ``a`` of the lowest live layer."""
        return (self._low - r_h) // self.delta

    def _host_part(self, r_h: int):
        """``(inst, a - _base(r_h), host exit)`` of the host partition of
        ``r_h``; the trim labels of ``inst`` do not depend on ``r_p``."""
        key = self._host_key(r_h)
        part = self._host_parts.get(key)
        if part is None:
            inst = DecompInstance(self.host, self.layering, self.delta, r_h)
            part = self._host_parts[key] = (
                inst, inst.block[self.hosts] - self._base(r_h), inst.exit[self.hosts])
        return part

    def _row_part(self, r_p: int):
        """``(b, row exit, cell_of, cuts, key)`` of ``r_p``; the key holds the
        clipped rows ``(lo, hi)`` of each occupied row cell."""
        part = self._row_parts.get(r_p)
        if part is None:
            b, lo, hi, row_exit = _row_geometry(self.rows, self.delta, r_p, self.sp.N)
            # cell_of ranks the points' row cells in the order of b
            _, first, cell_of = np.unique(b, return_index=True, return_inverse=True)
            cells = list(zip(lo[first].tolist(), hi[first].tolist()))
            cuts = [_containing_cut(self.sp, lo_t, hi_t) for lo_t, hi_t in cells]
            part = self._row_parts[r_p] = (b, row_exit, cell_of, cuts, tuple(cells))
        return part

    def points(self, r_h: int, r_p: int):
        """``(bdist, a, b, jroot)`` of the instance with offsets ``(r_h, r_p)``:
        each point's boundary distance (the cheaper of exiting its block
        component through the rows or through the host), layer block, row
        cell, and the least host id of its trimmed component."""
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
        """Key of the points' partition under offsets ``(r_h, r_p)``: the
        host partition and the occupied row cells."""
        return self._host_key(r_h), self._row_part(r_p)[-1]

    def instance_index(self, r_h: int, r_p: int) -> int:
        """Index in ``instances`` of the instance with offsets ``(r_h, r_p)``:
        ``(bdist, jidx, components)``, each point's boundary distance and the
        index of its trimmed component among the instance's ``components``
        trimmed components, in sorted ``(a, b, jroot)`` order."""
        key = self.partition(r_h, r_p)
        index = self._instances.get(key)
        if index is None:
            bdist, a, b, jroot = self.points(r_h, r_p)
            order = (a * self._b_span + b) * self.host.n + jroot
            keys, jidx = np.unique(order, return_inverse=True)
            index = self._instances[key] = len(self.instances)
            self.instances.append((bdist, jidx, len(keys)))
        return index


def _direction(seed: int, L: int) -> np.ndarray:
    """The random unit direction of ``seed`` in ``L`` dimensions."""
    r = stream(seed, "projection").standard_normal(L)
    norm = float(np.linalg.norm(r))
    return r / norm if norm > 0 else r


def _order(ids: np.ndarray, h: np.ndarray) -> list:
    """The ids by ``h``, ties broken by id."""
    return ids[np.lexsort((ids, h))].tolist()


def project_order(emb: Embedding, seed: int) -> list:
    """Order the points by inner product with a random unit direction,
    ties broken by point id.  The products are row sums in a fixed order,
    so identical rows get identical values."""
    if len(emb.point_ids) == 0:
        raise InputError("empty embedding")
    h = (emb.coords * _direction(seed, emb.L)).sum(axis=1)
    return _order(np.asarray(emb.point_ids), h)


def _heights(columns: _Columns, directions: np.ndarray) -> np.ndarray:
    """``coords @ directions.T`` without ``coords``: row ``r`` holds
    ``h[p] = sum_i bdist_i[p] * S_i[jidx_i[p]]`` over the instances ``i``,
    where ``S_i[j] = sum_{c in i} directions[r, c] * (1 + alpha_c[j])``.

    The sums run in a fixed order with no BLAS call: per chunk, columns
    sorted by instance and added along the column axis, chunk after chunk,
    then the instances scale by scale in ``instances`` order.  Each value
    depends only on its own direction, and points with equal
    ``(bdist_i, jidx_i)`` in every instance get equal sums.
    """
    R = len(directions)
    h = np.zeros((R, len(columns.ids)))
    col = 0
    for instances, chunks in columns.scales():
        sums = [np.zeros((R, count)) for _, _, count in instances]
        for inst_of, alpha in chunks:
            order = np.argsort(inst_of, kind="stable")
            used, starts = np.unique(inst_of[order], return_index=True)
            alpha += 1.0
            terms = directions[:, col + order, None] * alpha[order]
            block = np.add.reduceat(terms, starts, axis=1)
            for t, u in enumerate(used.tolist()):
                sums[u] += block[:, t, :sums[u].shape[1]]
            col += len(inst_of)
        for (bdist, jidx, _), s in zip(instances, sums):
            h += bdist * s[:, jidx]
    return h


def projection_orders(point_ids, placements, sp: StructuredSparsifier,
                      k: int | None, a, seed: int, direction_seeds,
                      dims_cap: int | None = None) -> list:
    """For each of ``direction_seeds``, the order of ``project_order`` on
    ``build_embedding(point_ids, placements, sp, k, a, seed, dims_cap)``,
    computed from per-instance sums (``_heights``) in O(R * components +
    instances * n) memory instead of the ``n x L`` matrix."""
    columns = _Columns(point_ids, placements, sp, k, a, seed, dims_cap)
    directions = np.array([_direction(s, columns.L) for s in direction_seeds]
                          ).reshape(len(direction_seeds), columns.L)
    ids = np.asarray(columns.ids)
    return [_order(ids, h) for h in _heights(columns, directions)]
