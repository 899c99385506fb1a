"""Local-density sparsifiers.

Two variants share one mechanism, ``_windows``: cut dyadic windows of layers
or rows with weighted separators so that every surviving ball of radius r
contains O(D * r) vertices.

* ``baker_sparsify`` works on a layered graph directly (slabs are runs of
  consecutive layers, separators come from per-slab tree decompositions).
* ``product_sparsify`` works on a subgraph of ``host x path``: each scale-i
  strip of 3 * 2^i rows is cut by a full vertical cylinder ``Y x rows``, so
  strip components are host components times the strip.
"""

from __future__ import annotations

import math
import os
from collections import Counter
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


def _windows(units, counts, D):
    """The windows of the ``(unit, key)`` pairs ``units``, sorted by unit,
    at each scale ``i < len(counts)``: for each ``j < counts[i]``,
    ``(i, j, keys, c, threshold)`` with the key of every pair whose unit
    lies in blocks j-1..j+1 of 2^i units, ``threshold = D * 2^(i-1)``, and
    the parts ``c = max(1, ceil(len(keys) / threshold))`` that keep each
    within it.  A window is a contiguous run of ``units``, so its keys are a
    slice, in the order of ``units``."""
    keys = [key for _, key in units]
    first: list[int] = []  # first[u]: the index of the first pair with unit >= u
    for t, (unit, _) in enumerate(units):
        while len(first) <= unit:
            first.append(t)
    first.append(len(units))

    def bound(u: int) -> int:
        return first[min(max(u, 0), len(first) - 1)]

    for i, count in enumerate(counts):
        threshold = Fraction(D) * Fraction(1 << i, 2)
        for j in range(count):
            run = keys[bound((j - 1) << i):bound((j + 2) << i)]
            yield i, j, run, max(1, _ceil_div(len(run), threshold)), threshold


@dataclass
class BakerResult:
    """Sparsifying set plus the per-run accounting used by the size bound."""

    x: set
    num_scales: int
    w_eff: Fraction
    size_bound: Fraction


# Slab vertices, summed over the distinct slabs, from which baker_sparsify
# forks children to cut slabs beside this process.  On a 2-vCPU VM, in
# fresh processes and alternating order, forking cut grids at D=8 faster in
# 4 of 50 pairs at 4388 slab vertices (18x18), 22 of 60 at 6916 (22x22),
# 28 of 42 at 8286 (24x24) and 21 of 24 at 16,030 (32x32); the second
# vCPU's speed varied between batches.
PARALLEL_MIN_WORK = 8000


def baker_sparsify(g: Graph, D, layering: Layering) -> BakerResult:
    """Sparsify a layered graph so ``g - X`` has local density at most D.

    Scales i cover every dyadic radius class with 2^i >= r for the radii
    r < n/D that the density bound must control.  At scale i, slab j is the
    union of layers ``j*2^i .. (j+1)*2^i - 1`` widened by one slab on each
    side (a ``_windows`` window of the layers); it is cut with unit weights
    into c parts, so surviving slab components have at most
    ``D * 2^(i-1)`` vertices.

    A slab that several windows share is decomposed once and cut once per
    window.  The distinct slabs are independent, so from
    ``PARALLEL_MIN_WORK`` slab vertices on, this process and forked
    children share them; X and ``w_eff`` are a union and a maximum, folded
    in task order.
    """
    n = g.num_vertices
    if n == 0:
        return BakerResult(set(), 0, Fraction(0), Fraction(0))
    if not (1 <= D <= n):
        raise InputError(f"D={D} outside [1, {n}]")
    layering.validate(g)
    layer = layering.normalized().layer_of

    r_max = _ceil_div(n, D) - 1
    if r_max < 1:
        return BakerResult(set(), 0, Fraction(0), Fraction(0))
    top = max(0, (r_max - 1).bit_length())
    units = sorted((layer[v], v) for v in g.vertices())

    counts = [(units[-1][0] >> i) + 1 for i in range(top + 1)]
    # a slab is a run of distinct vertices, so its first vertex and its size
    # name it: -> (slab, [(span, c), ...] of the windows that cut it)
    windows: dict = {}
    for i, _, slab, c, _ in _windows(units, counts, D):
        if c > 1:
            windows.setdefault((slab[0], len(slab)), (slab, []))[1].append((1 << i, c))

    # largest first, so that the last slab a process takes is a small one
    tasks = sorted(windows.values(), key=lambda task: -len(task[0]))
    work = sum(len(slab) for slab, _ in tasks)
    workers = 1  # where the platform cannot fork or name its CPUs, too
    if (work >= PARALLEL_MIN_WORK and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")):
        workers = min(len(os.sched_getaffinity(0)), len(tasks))
    x: set = set()
    w_eff = Fraction(0)
    for (_, cuts), (width, part) in zip(tasks, _cut_slabs(g, tasks, workers)):
        w_eff = max(w_eff, *(Fraction(width + 1, 3 * span) for span, _ in cuts))
        x |= part

    num_scales = top + 1
    size_bound = Fraction(18) * w_eff * n * num_scales / Fraction(D)
    if len(x) > size_bound:
        raise AssertionError(
            f"sparsifier size {len(x)} exceeds bound {float(size_bound):.1f}"
        )
    return BakerResult(x, num_scales, w_eff, size_bound)


def _cut_slab(g: Graph, task) -> tuple:
    """Decompose one slab of ``g`` (a list of its vertices) and cut it with
    unit weights once per window ``(span, c)``; returns the decomposition's
    width and the union of the separator bags."""
    slab, cuts = task
    sub = g.delete(set(range(g.n)).difference(slab))
    td = minfill_decomposition(sub)
    unit = dict.fromkeys(slab, 1)
    part: set = set()
    for _, c in cuts:
        part |= separator_bag_union(td, weighted_separator(sub, td, unit, c))
    return td.width, part


def _cut_claimed(g: Graph, tasks: list, claim) -> tuple:
    """Cut the tasks that ``claim()`` hands out until none is left or one
    raises.  Returns the ``(index, width, part)`` of each task cut and the
    ``(index, error)`` of the one that raised, or None; a task that raises
    stops every process's claims."""
    done = []
    while (t := claim()) < len(tasks):
        try:
            done.append((t, *_cut_slab(g, tasks[t])))
        except Exception as exc:  # sent to the parent, which raises it
            claim(stop=True)
            return done, (t, exc)
    return done, None


def _cut_slabs(g: Graph, tasks: list, workers: int) -> list:
    """``_cut_slab`` of every task, in task order, on ``workers`` processes.

    This process cuts too, beside ``workers - 1`` forked children that
    inherit the graph; on one process it runs the same claim loop and fold
    with no child.  Each process claims the next task, largest first:
    the next index is the one token in a pipe, so a claim never waits on
    pipe capacity, whatever the number of tasks.  A child sends what it cut,
    or the error that stopped it, through a pipe of its own.  Every task
    before the first that raised was cut, so that task's error is raised,
    with its type and message, whatever the number of processes; a child
    that exits without its results is a RuntimeError.  Every child is
    reaped before this returns or raises.
    """
    if workers > 1:  # only a forked cut pickles results and kills children
        import pickle
        import signal

    token_r, token_w = os.pipe()
    os.write(token_w, bytes(8))

    def claim(stop: bool = False) -> int:
        t = int.from_bytes(os.read(token_r, 8), "little")
        os.write(token_w, (len(tasks) if stop else t + 1).to_bytes(8, "little"))
        return t

    children: dict = {}  # pid -> the read end of its result pipe, until reaped
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: cut with those forked
                os.close(r)
                os.close(w)
                break
            if pid == 0:  # the child reports once and exits, whatever happens
                code = 1
                try:
                    for fd in (r, *children.values()):  # read ends: the parent's
                        os.close(fd)
                    with open(w, "wb") as pipe:
                        pickle.dump(_cut_claimed(g, tasks, claim), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children[pid] = r
        reports = [_cut_claimed(g, tasks, claim)]
        for pid, r in list(children.items()):
            with open(r, "rb", closefd=False) as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if code:
                raise RuntimeError(f"slab worker {pid} exited with status {code} "
                                   "without its results")
            reports.append(pickle.loads(payload))
    finally:
        for pid, r in children.items():
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(token_r)
        os.close(token_w)

    results = [None] * len(tasks)
    failures = []
    for done, failure in reports:
        for t, width, part in done:
            results[t] = width, part
        if failure:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


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
    scale-i strip (a ``_windows`` window of the rows) is cut with column
    weights ``xi(h) = #(G vertices in column h with rows in the widened
    strip)`` into c parts, so every component of host - Y carries at most
    ``2^(i-1) D`` G-vertices.
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
    # sorted by row; a strip's weights are a Counter, which ignores the order
    units = sorted((pv.p - 1, pv.h) for pv in placements)
    counts = [N >> i for i in range(sp.num_scales)]
    for i, j, keys, c, threshold in _windows(units, counts, D):
        if c == 1:
            cells[(i, j)] = frozenset()
            continue
        xi = Counter(keys)
        y = cells[(i, j)] = frozenset(
            separator_bag_union(td, weighted_separator(host, td, xi, c)))
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
