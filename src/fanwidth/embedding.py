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
from itertools import chain

import numpy as np

from .errors import InputError
from .graphs import Graph, Layering, ProductVertex, bfs, bfs_layering, component_labels
from .pipeline import DEFAULT_RESTARTS, check_ordering_params
from .randomness import PCG64Batch, numbered_states, stream
from .sparsify import StructuredSparsifier

INF = math.inf

# Columns of a scale drawn and summed together: one chunk's stretch draws come
# in closed-form tiles of ``_COLUMN_CHUNK x PCG64Batch.TILE``, ``_heights``
# takes the restarts' directions ``restarts x _COLUMN_CHUNK`` at a time and
# builds their terms for blocks of restarts of at most ``DEFAULT_RESTARTS x
# _COLUMN_CHUNK x PCG64Batch.TILE`` cells, and ``build_embedding`` gathers
# ``_COLUMN_CHUNK x n``
_COLUMN_CHUNK = 512

# Partitions of a scale whose per-point keys are gathered and ranked together
# as ``_PARTITION_BLOCK x n`` arrays
_PARTITION_BLOCK = 64

# Largest embedding dimension (columns over all scales) that ``_Columns``
# accepts; it raises InputError above it, before allocating.  The defaults
# k = ceil(log2 n) and a = 193 need 1,791,840 columns for n = 10^7 points.
MAX_COLUMNS = 1 << 21


def _row_geometry(rows: np.ndarray, delta: int, r_p: int, pad_lo: int, pad_hi: int):
    """Row cell ``b`` of each row, the cell's rows ``lo..hi`` clipped to the
    padded path ``sp.pad_range()``, and the row exit distance: the rows to the
    nearer end of the cell that is not an end of the padded path."""
    b = (rows - r_p) // delta
    start = r_p + b * delta
    lo = np.maximum(start, pad_lo)
    hi = np.minimum(start + delta - 1, pad_hi)
    below = np.where(lo > pad_lo, rows - lo + 1, INF)
    above = np.where(hi < pad_hi, hi + 1 - rows, INF)
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
    ``floor(1 + log2 n) * ceil(a k ln n)``.  Its callers check the
    parameters (``pipeline.check_ordering_params``) first; the points and the
    dimension are checked on construction, and ``scales`` draws the columns.
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
        (see ``_ScaleGeometry.instances``).  ``chunks`` yields
        ``(inst_of, alpha, count)`` per run of at most ``_COLUMN_CHUNK``
        columns: each column's index in ``instances``, and the
        ``PCG64Batch`` of their stretch draws, ``count`` of them per column
        (``alpha.random(count)``, or in tiles by ``alpha.tiles(count)``).
        Column ``t`` is ``(1 + alpha[t, jidx]) * bdist`` of its instance."""
        host = self.sp.host
        layering = bfs_layering(host, min(host.vertices()))
        hosts = np.array([pv.h for pv in self.pvs], dtype=np.int64)
        rows = np.array([pv.p for pv in self.pvs], dtype=np.int64)
        for i in range(self.num_scales):
            delta = 1 << i
            chosen = self.selected[i * self.reps:(i + 1) * self.reps]
            jrs = (np.flatnonzero(chosen) + 1).tolist()
            if not jrs:
                continue
            # column jr takes its offsets from stream f"inst/i={i}/j={jr}/offsets"
            # and its stretches, random(components), from ".../alpha"; at
            # delta = 1 the offsets are 0 and draw nothing
            head = f"inst/i={i}/j="
            if delta == 1:
                r_h = r_p = np.zeros(len(jrs), dtype=np.int64)
            else:
                r_h, r_p = PCG64Batch(numbered_states(self.seed, head, jrs, "/offsets")
                                      ).offsets(delta)
            alpha_states = numbered_states(self.seed, head, jrs, "/alpha")
            geometry = _ScaleGeometry(host, layering, self.sp, delta, hosts, rows)
            instances, inst_of = geometry.instances(r_h, r_p)
            yield instances, _chunks(alpha_states, inst_of, instances)
            # the next scale's geometry is built without this one's
            del instances, inst_of


def _chunks(alpha_states: np.ndarray, inst_of: np.ndarray, instances: list):
    components = np.array([count for _, _, count in instances])[inst_of]
    for start in range(0, len(inst_of), _COLUMN_CHUNK):
        stop = min(start + _COLUMN_CHUNK, len(inst_of))
        yield (inst_of[start:stop], PCG64Batch(alpha_states[start:stop]),
               int(components[start:stop].max()))


def build_embedding(point_ids, placements, sp: StructuredSparsifier,
                    k: int | None, a, seed: int,
                    dims_cap: int | None = None) -> Embedding:
    """The coordinate matrix of ``_Columns`` for the surviving points of
    ``sp``'s product.  Only ``embed`` and the checks of the embedding need
    it; the pipelines order by ``projection_orders``."""
    check_ordering_params(k=k, a=a, dims_cap=dims_cap)
    columns = _Columns(point_ids, placements, sp, k, a, seed, dims_cap)
    coords = np.empty((len(columns.ids), columns.L), dtype=np.float64)
    col = 0
    for instances, chunks in columns.scales():
        for inst_of, batch, count in chunks:
            alpha = batch.random(count)
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
    path from the offsets of a scale's columns to per-point geometry.

    An instance's geometry is a host part that depends only on the host
    partition of ``r_h`` (the block ``a``, block component and host exit
    distance of each point) and a row part that depends only on ``r_p`` (the
    row cell ``b``, the row exit distance and the trimming cut of each
    point).  Each part is computed once per scale.

    Offsets that cut the live host layers and the points' rows alike give
    the same partition of the points: ``a`` and ``b`` differ by constants,
    which keep the ``(a, b, jroot)`` order, so an instance is computed once
    per partition, all of a scale's partitions array-at-a-time.
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

    def _host_keys(self, r_h: np.ndarray) -> np.ndarray:
        """The host partition of each ``r_h``: how far above the lowest live
        layer's successor the first block start lies, or ``delta`` when that
        start is above the highest live layer.  It fixes every later block
        start in the live layer range (they are ``delta`` apart), so offsets
        with one key give live vertices the same blocks, up to a constant."""
        first = (r_h - self._low - 1) % self.delta
        return np.where(self._low + 1 + first <= self._high, first, self.delta)

    def _row_parts(self, r_ps: list):
        """``(b, row exit, cut id)`` of each point, one row per ``r_p`` in
        ``r_ps``; the key id of each ``r_p``, equal for equal clipped rows
        ``(lo, hi)`` of the occupied row cells; and the cuts by id."""
        shape = (len(r_ps), len(self.rows))
        b_of, row_exit = np.empty(shape, dtype=np.int64), np.empty(shape)
        cut_of = np.empty(shape, dtype=np.int64)
        row_keys, cell_cuts, cut_ids = {}, {}, {}
        key_of = []
        for t, r_p in enumerate(r_ps):
            b_of[t], lo, hi, row_exit[t] = _row_geometry(self.rows, self.delta, r_p,
                                                         *self.sp.pad_range())
            _, first, cell_of = np.unique(b_of[t], return_index=True, return_inverse=True)
            cells = tuple(zip(lo[first].tolist(), hi[first].tolist()))
            for cell in cells:
                if cell not in cell_cuts:
                    cut = _containing_cut(self.sp, *cell)
                    cell_cuts[cell] = cut_ids.setdefault(cut, len(cut_ids))
            cut_of[t] = np.array([cell_cuts[cell] for cell in cells])[cell_of]
            key_of.append(row_keys.setdefault(cells, len(row_keys)))
        return b_of, row_exit, cut_of, np.array(key_of), list(cut_ids)

    def instances(self, r_h: np.ndarray, r_p: np.ndarray):
        """``(instances, inst_of)`` of the columns with offsets ``r_h``,
        ``r_p``: ``instances`` lists ``(bdist, jidx, components)`` per
        partition, in first-encounter order over the sorted distinct
        offsets, and ``inst_of`` is each column's index in it.  ``bdist`` is
        each point's boundary distance (the cheaper of exiting its block
        component through the rows or through the host), and ``jidx`` the
        index of its trimmed component among the instance's ``components``
        trimmed components, in sorted ``(a, b, jroot)`` order; ``jroot`` is
        the least host id of the component."""
        delta, hosts = self.delta, self.hosts
        pairs, pair_of = np.unique(r_h * delta + r_p, return_inverse=True)
        pair_h, pair_p = np.divmod(pairs, delta)
        host_key = self._host_keys(pair_h)
        r_ps, rp_of = np.unique(pair_p, return_inverse=True)
        b_of, row_exit, cut_of, row_key, cuts = self._row_parts(r_ps.tolist())
        _, first, part_of = np.unique(host_key * len(r_ps) + row_key[rp_of],
                                      return_index=True, return_inverse=True)
        ranked = np.argsort(first)
        index = np.empty_like(ranked)
        index[ranked] = np.arange(len(ranked))
        lead = first[ranked]  # the first pair of each instance
        # one DecompInstance per host partition, from its first pair
        _, key_lead, key_of = np.unique(host_key[lead], return_index=True,
                                        return_inverse=True)
        decomps = [DecompInstance(self.host, self.layering, delta, r)
                   for r in pair_h[lead[key_lead]].tolist()]
        block = np.array([inst.block[hosts] for inst in decomps])
        host_exit = np.array([inst.exit[hosts] for inst in decomps])
        instances = []
        for start in range(0, len(lead), _PARTITION_BLOCK):
            k = key_of[start:start + _PARTITION_BLOCK]
            t = rp_of[lead[start:start + _PARTITION_BLOCK]]
            # the trim labels of each distinct (host partition, cut) pair
            pair_cut, labels_of = np.unique(k[:, None] * len(cuts) + cut_of[t],
                                            return_inverse=True)
            labels = np.array([decomps[x // len(cuts)].trim_labels(cuts[x % len(cuts)])
                               for x in pair_cut.tolist()])
            jroot = labels[labels_of.reshape(len(k), -1), hosts]
            deleted = jroot < 0
            if deleted.any():
                p = int(np.flatnonzero(deleted.any(axis=1))[0])
                q = int(np.flatnonzero(deleted[p])[0])
                raise _deleted_point(ProductVertex(int(hosts[q]), int(self.rows[q])))
            # a row's a and b may be off by constants, which keep its order
            order = (block[k] * self._b_span + b_of[t]) * self.host.n + jroot
            # rank each row's keys, as np.unique(row, return_inverse=True)
            by_key = np.argsort(order, axis=1)
            ordered = np.take_along_axis(order, by_key, axis=1)
            ranks = np.zeros(order.shape, dtype=np.int64)
            np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=ranks[:, 1:])
            jidx = np.empty_like(ranks)
            np.put_along_axis(jidx, by_key, ranks, axis=1)
            bdist = np.minimum(row_exit[t], host_exit[k])
            instances += zip(bdist, jidx, (ranks[:, -1] + 1).tolist())
        return instances, index[part_of][pair_of]


class _Directions:
    """The unit directions ``_direction(seed, L)`` of many seeds, taken
    together ``count`` columns at a time, so that no ``seeds x L`` matrix
    is held.

    Each seed's ``stream(seed, "projection")`` normals are drawn twice, in
    ``_COLUMN_CHUNK`` blocks: first for the norm, the correctly rounded root
    of an exact sum (``math.fsum``) with no BLAS call, and then block by
    block as ``take`` reaches them, divided by the norm.  numpy's
    ``standard_normal`` drawn in blocks equals one call, bit for bit.
    Between blocks a seed's generator is parked as its PCG64 state and
    increment, two ints, so no generator per seed is held either; after its
    last block it is dropped."""

    def __init__(self, seeds, L: int):
        self._states, self._incs, norms = [], [], []
        for seed in seeds:
            self._rng = stream(seed, "projection")
            state = self._rng.bit_generator.state["state"]
            self._states.append(state["state"])
            self._incs.append(state["inc"])
            blocks = (self._rng.standard_normal(min(_COLUMN_CHUNK, L - c))
                      for c in range(0, L, _COLUMN_CHUNK))
            norms.append(math.sqrt(math.fsum(chain.from_iterable(
                (r * r).tolist() for r in blocks))))
        # a zero direction stays as it is
        self._norms = np.array([norm if norm > 0 else 1.0 for norm in norms])[:, None]
        self._left = L  # entries not drawn yet
        self._block = np.empty((len(self), 0))  # drawn, and taken from ``_at`` on
        self._at = 0

    def __len__(self) -> int:
        return len(self._norms)

    def _draw(self):
        """Each direction's next block of up to ``_COLUMN_CHUNK`` entries."""
        self._block = np.empty((len(self), min(_COLUMN_CHUNK, self._left)))
        self._left -= self._block.shape[1]
        self._at = 0
        # the last seed's generator, set to each parked state in turn
        for r, (state, inc) in enumerate(zip(self._states, self._incs)):
            bits = self._rng.bit_generator
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            self._rng.standard_normal(out=self._block[r])
            if self._left:
                self._states[r] = bits.state["state"]["state"]
        if not self._left:
            self._states = self._incs = ()
        self._block /= self._norms

    def take(self, count: int) -> np.ndarray:
        """``(len(self), count)`` array of each direction's next ``count``
        entries."""
        if count > self._left + self._block.shape[1] - self._at:
            raise ValueError(f"take({count}) runs past the directions' end")
        out = np.empty((len(self), count))
        done = 0
        while done < count:
            if self._at == self._block.shape[1]:
                self._draw()
            step = min(count - done, self._block.shape[1] - self._at)
            out[:, done:done + step] = self._block[:, self._at:self._at + step]
            done += step
            self._at += step
        return out


def _direction(seed: int, L: int) -> np.ndarray:
    """The random unit direction of ``seed`` in ``L`` dimensions.  Its norm
    is the correctly rounded root of an exact sum, with no BLAS call, so its
    bits do not depend on the BLAS build or thread count."""
    return _Directions([seed], L).take(L)[0]


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


def _restart_block(cells: int) -> int:
    """Restarts whose terms ``_heights`` builds together when each restart
    has ``cells`` (columns x components) of them: the default restarts' cells
    at a full chunk and tile."""
    return max(1, DEFAULT_RESTARTS * _COLUMN_CHUNK * PCG64Batch.TILE // cells)


def _heights(columns: _Columns, seeds) -> np.ndarray:
    """``coords @ directions.T`` without ``coords``, for the directions
    ``_direction(seed, L)`` of ``seeds``: row ``r`` holds
    ``h[p] = sum_i bdist_i[p] * S_i[jidx_i[p]]`` over the instances ``i``,
    where ``S_i[j] = sum_{c in i} directions[r, c] * (1 + alpha_c[j])``.

    The sums run in a fixed order with no BLAS call: per chunk, columns
    sorted by instance and added along the column axis, chunk after chunk,
    then the instances scale by scale in ``instances`` order.  The component
    axis is taken a tile at a time and the restarts in blocks
    (``_restart_block``); neither changes a sum's order.  Each value depends
    only on its own direction, and points with equal ``(bdist_i, jidx_i)``
    in every instance get equal sums.  Nothing on the ordering path calls
    BLAS, so the bits do not depend on its threads.
    """
    directions = _Directions(seeds, columns.L)
    R = len(directions)
    h = np.zeros((R, len(columns.ids)))
    for instances, chunks in columns.scales():
        # S_i of the scale's instances side by side, S_i[j] at offsets[i] + j
        counts = np.array([count for _, _, count in instances])
        offsets = np.cumsum(counts) - counts
        sums = np.zeros((R, int(counts.sum())))
        for inst_of, alpha, count in chunks:
            order = np.argsort(inst_of, kind="stable")
            used, starts = np.unique(inst_of[order], return_index=True)
            chunk = directions.take(len(inst_of))[:, order, None]
            k0 = 0
            for tile in alpha.tiles(count):
                tile += 1.0
                tile, width = tile[order], tile.shape[1]
                # the tile's components k0 + j that instance used[t] has
                t, j = np.nonzero(k0 + np.arange(width) < counts[used, None])
                cells = offsets[used[t]] + k0 + j
                block = _restart_block(len(order) * width)
                for r0 in range(0, R, block):
                    summed = np.add.reduceat(chunk[r0:r0 + block] * tile, starts, axis=1)
                    sums[r0:r0 + block, cells] += summed[:, t, j]
                k0 += width
        block = _restart_block(h.shape[1])
        for (bdist, jidx, _), offset in zip(instances, offsets.tolist()):
            for r0 in range(0, R, block):
                s = sums[r0:r0 + block, offset + jidx]
                s *= bdist
                h[r0:r0 + block] += s
        # the next scale's geometry is built without this one's
        del instances, sums
    return h


def projection_orders(point_ids, placements, sp: StructuredSparsifier,
                      k: int | None, a, seed: int, restarts: int,
                      dims_cap: int | None = None):
    """Lazily, restart ``r``'s ``project_order`` on ``build_embedding(...)``
    with the seed drawn from stream ``f"order/restart={r}"``, from per-instance
    sums (``_heights``).  The ``restarts x (L + n)`` directions and heights may
    not outnumber the default restarts' at ``MAX_COLUMNS``: more restarts are
    rejected, like every bad input, at the call and before any restart seed."""
    check_ordering_params(k, a, restarts, dims_cap)
    columns = _Columns(point_ids, placements, sp, k, a, seed, dims_cap)
    L, n = columns.L, len(columns.ids)
    if restarts * (L + n) > DEFAULT_RESTARTS * (MAX_COLUMNS + n):
        raise InputError(f"--restarts {restarts} needs {restarts} x ({L} + {n}) "
                         "direction and height entries, more than the supported "
                         f"{DEFAULT_RESTARTS} x ({MAX_COLUMNS} + {n})")
    seeds = (int(stream(seed, f"order/restart={r}").integers(0, 2**63 - 1))
             for r in range(restarts))
    ids = np.asarray(columns.ids)
    return (_order(ids, h) for h in _heights(columns, seeds))
