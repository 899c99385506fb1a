import math
import os
import re
import select
import time
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanwidth import (
    Graph,
    InputError,
    ProductVertex,
    StarMetric,
    StructuredSparsifier,
    baker_sparsify,
    bfs_distances,
    bfs_layering,
    exhaustive_local_density,
    grid_graph,
    minfill_decomposition,
    path_graph,
    product_sparsify,
    separator_bag_union,
    ttree_complete,
    weighted_separator,
)

import fanwidth.sparsify
from fanwidth.cli import main
from fanwidth.formats import serialize_graph, serialize_product_input
from fanwidth.randomness import stream
from fanwidth.sparsify import _cut_slabs, _windows

from conftest import column_in_product, grid_in_product, stacked_triangulation


class TestBakerSparsify:
    def test_path_full_density_budget_is_empty(self):
        g = path_graph(12)
        lay = bfs_layering(g, 0)
        res = baker_sparsify(g, 12, lay)
        assert res.x == set()

    def test_single_vertex(self):
        g = Graph(1, [])
        res = baker_sparsify(g, 1, bfs_layering(g, 0))
        assert res.x == set()

    def test_grid_density_bound(self):
        g, _ = grid_graph(16, 16)
        lay = bfs_layering(g, 0)
        res = baker_sparsify(g, 4, lay)
        assert res.x
        gp = g.delete(res.x)
        if gp.num_vertices:
            assert exhaustive_local_density(gp) <= 4

    def test_grid_survivors_at_generous_density(self):
        g, _ = grid_graph(16, 16)
        lay = bfs_layering(g, 0)
        res = baker_sparsify(g, 64, lay)
        gp = g.delete(res.x)
        assert gp.num_vertices > 0
        assert exhaustive_local_density(gp) <= 64

    def test_rejects_bad_density(self):
        g = path_graph(5)
        with pytest.raises(InputError):
            baker_sparsify(g, 0.5, bfs_layering(g, 0))
        with pytest.raises(InputError):
            baker_sparsify(g, 9, bfs_layering(g, 0))

    def test_ball_size_property(self):
        # every surviving ball of radius r < n/D has at most D*2^(ceil(lg r)-1) points
        g, _ = grid_graph(12, 12)
        n = g.n
        D = 16
        lay = bfs_layering(g, 0)
        res = baker_sparsify(g, D, lay)
        gp = g.delete(res.x)
        for v in gp.vertices():
            dist = bfs_distances(gp, v)
            r = 1
            while r < n / D:
                ball = sum(1 for d in dist.values() if d <= r)
                i = max(0, math.ceil(math.log2(r)))
                assert ball <= D * 2 ** (i - 1)
                assert ball <= D * r
                r += 1

    def test_size_bound_recorded(self):
        g, _ = grid_graph(10, 10)
        res = baker_sparsify(g, 8, bfs_layering(g, 0))
        assert len(res.x) <= res.size_bound


@st.composite
def planar_graphs(draw):
    """A stacked triangulation of up to 90 vertices with some vertices
    deleted (a subgraph of a planar graph is planar), and a density."""
    n = draw(st.integers(3, 90))
    g = stacked_triangulation(n, draw(st.integers(0, 10**6)))
    g = g.delete(draw(st.sets(st.integers(0, n - 1), max_size=n // 3)))
    return g, draw(st.integers(1, max(1, g.num_vertices // 4)))


def _reference_baker(g, D, layering):
    """``baker_sparsify``'s cut as first written, without validation: every
    window ``(i, j)`` decomposes and cuts its slab in turn.  Returns ``(x,
    w_eff)``."""
    n = g.num_vertices
    layer = layering.normalized().layer_of
    by_layer = {}
    for v in g.vertices():
        by_layer.setdefault(layer[v], []).append(v)
    r_max = math.ceil(Fraction(n) / Fraction(D)) - 1
    x, w_eff = set(), Fraction(0)
    if r_max < 1:
        return x, w_eff
    live = set(g.vertices())
    for i in range(max(0, (r_max - 1).bit_length()) + 1):
        span = 1 << i
        threshold = Fraction(D) * Fraction(span, 2)
        for j in range(0, max(by_layer) // span + 1):
            slab = []
            for s in range((j - 1) * span, (j + 2) * span):
                slab.extend(by_layer.get(s, ()))
            c = max(1, math.ceil(Fraction(len(slab)) / threshold))
            if not slab or c == 1:
                continue
            sub = g.delete(live - set(slab))
            td = minfill_decomposition(sub)
            w_eff = max(w_eff, Fraction(td.width + 1, 3 * span))
            sep = weighted_separator(sub, td, {v: 1 for v in slab}, c)
            x |= separator_bag_union(td, sep)
    return x, w_eff


class TestBakerMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(planar_graphs())
    def test_planar_graphs(self, case):
        g, D = case
        layering = bfs_layering(g, min(g.vertices()))
        res = baker_sparsify(g, D, layering)
        assert (res.x, res.w_eff) == _reference_baker(g, D, layering)

    @pytest.mark.parametrize("g,D", [
        (grid_graph(12, 12)[0], 8), (grid_graph(9, 14)[0], 3), (path_graph(40), 2),
        (stacked_triangulation(150, 2), 4)], ids=["grid12", "grid9x14", "path", "stacked"])
    def test_fixed_graphs(self, g, D):
        layering = bfs_layering(g, 0)
        res = baker_sparsify(g, D, layering)
        assert (res.x, res.w_eff) == _reference_baker(g, D, layering)


def slab_tasks(g, D) -> list:
    """The ``(slab, [(span, c), ...])`` tasks that ``baker_sparsify`` hands
    to ``_cut_slabs`` on ``g`` at density ``D``, largest slab first."""
    seen = []

    def capture(g, tasks, workers):
        seen.append(tasks)
        return _cut_slabs(g, tasks, 1)

    with mock.patch.object(fanwidth.sparsify, "_cut_slabs", capture):
        baker_sparsify(g, D, bfs_layering(g, min(g.vertices())))
    return seen[0] if seen else []


def assert_same_cut_on_one_and_two_workers(g, D):
    tasks = slab_tasks(g, D)
    assert _cut_slabs(g, tasks, 2) == _cut_slabs(g, tasks, 1)
    return tasks


def spy_workers(monkeypatch) -> list:
    """Record the worker count of every ``_cut_slabs`` call."""
    calls = []

    def spy(g, tasks, workers):
        calls.append(workers)
        return cut(g, tasks, workers)

    cut = fanwidth.sparsify._cut_slabs
    monkeypatch.setattr(fanwidth.sparsify, "_cut_slabs", spy)
    return calls


def fork_two_workers(monkeypatch):
    """Make ``baker_sparsify`` fork two slab workers, whatever the work and
    the machine's CPU count."""
    if not hasattr(os, "fork"):
        pytest.skip("the platform cannot fork")
    monkeypatch.setattr(fanwidth.sparsify, "PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture(params=["serial", "parallel"])
def cut_path(request, monkeypatch):
    """Send ``baker_sparsify``'s slabs to one worker in this process, or to
    two forked workers; the list it returns records the worker count of
    each cut."""
    if request.param == "parallel":
        fork_two_workers(monkeypatch)
    else:
        monkeypatch.setattr(fanwidth.sparsify, "PARALLEL_MIN_WORK", math.inf)
    calls = spy_workers(monkeypatch)
    yield calls
    assert calls == [2 if request.param == "parallel" else 1]


class TestParallelSlabCut:
    @pytest.mark.parametrize("side,D", [(8, 4), (12, 8), (16, 4)])
    def test_grids_cut_alike_on_one_and_two_workers(self, side, D):
        g, _ = grid_graph(side, side)
        assert len(assert_same_cut_on_one_and_two_workers(g, D)) > 20

    @pytest.mark.parametrize("n,seed", [(60, 1), (150, 2)])
    def test_stacked_triangulations_cut_alike(self, n, seed):
        tasks = assert_same_cut_on_one_and_two_workers(stacked_triangulation(n, seed), 4)
        assert len(tasks) >= 2

    @settings(max_examples=8, deadline=None)
    @given(planar_graphs())
    def test_planar_graphs_cut_alike(self, case):
        assert_same_cut_on_one_and_two_workers(*case)

    def test_both_paths_give_the_same_result(self, cut_path):
        g, _ = grid_graph(12, 12)
        res = baker_sparsify(g, 8, bfs_layering(g, 0))
        assert len(res.x) == 141
        assert (res.w_eff, res.size_bound) == (1, 1944)

    @pytest.mark.parametrize("error", [AssertionError, InputError])
    def test_a_worker_error_keeps_its_type_and_message(self, cut_path, monkeypatch,
                                                        error):
        def broken(*args):
            raise error("slab separator broke at vertex 7")

        monkeypatch.setattr(fanwidth.sparsify, "weighted_separator", broken)
        g, _ = grid_graph(12, 12)
        with pytest.raises(error) as caught:
            baker_sparsify(g, 8, bfs_layering(g, 0))
        assert type(caught.value) is error
        assert str(caught.value) == "slab separator broke at vertex 7"

    @pytest.mark.parametrize("error,code", [(AssertionError, 3), (InputError, 2)])
    def test_a_worker_error_sets_the_exit_code(self, cut_path, monkeypatch, capsys,
                                               tmp_path, error, code):
        def broken(*args):
            raise error("slab separator broke at vertex 7")

        monkeypatch.setattr(fanwidth.sparsify, "weighted_separator", broken)
        (tmp_path / "g.txt").write_text(serialize_graph(grid_graph(12, 12)[0]))
        assert main(["sparsify", "--graph", str(tmp_path / "g.txt"), "--D", "8",
                     "--out", str(tmp_path / "x.txt")]) == code
        prefix = "error" if code == 2 else "internal invariant failed"
        assert capsys.readouterr().err == f"{prefix}: slab separator broke at vertex 7\n"

    def test_a_dead_worker_is_a_broken_invariant(self, monkeypatch, capsys, tmp_path):
        # a child that exits in the middle of a slab sends no results: a
        # RuntimeError, so the CLI exits 3; this process waits in its first
        # cut until the child has claimed a slab and died
        fork_two_workers(monkeypatch)
        parent = os.getpid()
        separator = fanwidth.sparsify.weighted_separator
        died_r, died_w = os.pipe()
        waited = []

        def dying(*args):
            if os.getpid() != parent:
                os.write(died_w, b"!")
                os._exit(1)
            if not waited:
                waited.append(select.select([died_r], [], [], 60)[0])
            return separator(*args)

        monkeypatch.setattr(fanwidth.sparsify, "weighted_separator", dying)
        (tmp_path / "g.txt").write_text(serialize_graph(grid_graph(12, 12)[0]))
        try:
            assert main(["sparsify", "--graph", str(tmp_path / "g.txt"), "--D", "8",
                         "--out", str(tmp_path / "x.txt")]) == 3
        finally:
            os.close(died_r)
            os.close(died_w)
        assert waited == [[died_r]]
        assert re.fullmatch(r"internal invariant failed: slab worker \d+ exited with "
                            r"status 1 without its results\n", capsys.readouterr().err)
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("error", [AssertionError, InputError])
    def test_a_child_error_keeps_its_type_and_message(self, monkeypatch, error):
        # only the child fails, so its error crosses the pipe; this process
        # waits in its first cut until the child has failed
        parent = os.getpid()
        failed_r, failed_w = os.pipe()

        def cut(g, task):
            if os.getpid() != parent:
                os.write(failed_w, b"!")
                raise error(f"task {task} broke in a child")
            select.select([failed_r], [], [], 60)
            return task, set()

        monkeypatch.setattr(fanwidth.sparsify, "_cut_slab", cut)
        try:
            with pytest.raises(error) as caught:
                _cut_slabs(path_graph(4), list(range(8)), 2)
        finally:
            os.close(failed_r)
            os.close(failed_w)
        assert type(caught.value) is error
        assert re.fullmatch(r"task \d broke in a child", str(caught.value))

    def test_the_first_failing_slab_raises_on_any_worker_count(self, monkeypatch):
        # task 0 is cut, and every later task fails with its own message;
        # on two or more processes task 1 fails after a later task has
        # failed and stopped the claims, but its error is the one that the
        # one-process cut raises
        def cut(g, task):
            if task == 0:
                return 0, set()
            if task == 1:
                time.sleep(0.1)
            raise InputError(f"task {task} broke")

        monkeypatch.setattr(fanwidth.sparsify, "_cut_slab", cut)
        # which process claims task 1 varies, so each count runs thrice
        for workers in (1, 2, 2, 2, 3, 3, 3):
            with pytest.raises(InputError, match="^task 1 broke$"):
                _cut_slabs(path_graph(4), list(range(8)), workers)

    def test_every_task_is_claimed_once(self, monkeypatch, tmp_path):
        # 20,000 tasks on more processes than CPUs: more indices than a pipe
        # holds, and a child's results larger than its pipe's buffer; each
        # cut appends its task to a log, so a task claimed twice shows
        log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def cut(g, task):
            os.write(log, b"%d\n" % task)
            return task, {task}

        monkeypatch.setattr(fanwidth.sparsify, "_cut_slab", cut)
        tasks = list(range(20_000))
        try:
            assert _cut_slabs(path_graph(4), tasks, 4) == [(t, {t}) for t in tasks]
        finally:
            os.close(log)
        assert sorted(map(int, (tmp_path / "log").read_text().split())) == tasks

    def test_small_grid_stays_serial_and_large_grid_forks(self, monkeypatch):
        calls = spy_workers(monkeypatch)
        g, _ = grid_graph(12, 12)
        baker_sparsify(g, 8, bfs_layering(g, 0))
        assert calls == [1]
        g, _ = grid_graph(32, 32)
        tasks = slab_tasks(g, 8)
        assert sum(len(slab) for slab, _ in tasks) >= fanwidth.sparsify.PARALLEL_MIN_WORK
        calls.clear()
        baker_sparsify(g, 8, bfs_layering(g, 0))
        forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
        cpus = len(os.sched_getaffinity(0)) if forks else 1
        assert calls == [min(cpus, len(tasks))]

    def test_workers_never_outnumber_the_slabs(self, monkeypatch):
        # 64 CPUs and 5 distinct slabs: 5 workers, recorded; the cut runs here
        g = stacked_triangulation(60, 1)
        assert len(slab_tasks(g, 4)) == 5
        calls = []

        def record(g, tasks, workers):
            calls.append(workers)
            return _cut_slabs(g, tasks, 1)

        monkeypatch.setattr(fanwidth.sparsify, "PARALLEL_MIN_WORK", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        monkeypatch.setattr(fanwidth.sparsify, "_cut_slabs", record)
        baker_sparsify(g, 4, bfs_layering(g, 0))
        assert calls == [5]

    def test_each_distinct_slab_is_decomposed_once(self, monkeypatch):
        # the 32x32 grid at D=8 cuts 124 windows, which cover 121 distinct slabs
        decomposed = []

        def recording(sub):
            decomposed.append(frozenset(sub.vertices()))
            return minfill_decomposition(sub)

        monkeypatch.setattr(fanwidth.sparsify, "minfill_decomposition", recording)
        g, _ = grid_graph(32, 32)
        tasks = slab_tasks(g, 8)  # cuts in this process, so every call is seen
        assert len(decomposed) == len(set(decomposed)) == len(tasks) == 121
        assert sum(len(cuts) for _, cuts in tasks) == 124
        sizes = [len(slab) for slab, _ in tasks]
        assert sizes == sorted(sizes, reverse=True) and sum(sizes) == 16030


# A sparsify run on two processes whose forked child SIGKILLs itself right
# after its first successful claim; this process cuts its first slab only
# once the child has claimed.  It prints the CLI's exit code.
KILLED_CLAIMER = """
import io, os, select, signal, sys, tempfile
import fanwidth.sparsify as sparsify
from fanwidth import grid_graph
from fanwidth.cli import main
from fanwidth.formats import serialize_graph

parent = os.getpid()
claimed_r, claimed_w = os.pipe()
make_file, cut = tempfile.TemporaryFile, sparsify._cut_slab


class Claims(io.FileIO):
    def read(self, size):
        record = super().read(size)
        if record and os.getpid() != parent:
            os.write(claimed_w, b"!")
            os.kill(os.getpid(), signal.SIGKILL)
        return record


def claim_file(**kwargs):
    with make_file(**kwargs) as file:
        return Claims(os.dup(file.fileno()), "r+")


def cut_after_the_child_claims(g, task):
    select.select([claimed_r], [], [], 60)
    return cut(g, task)


tempfile.TemporaryFile = claim_file
sparsify._cut_slab = cut_after_the_child_claims
sparsify.PARALLEL_MIN_WORK = 0
os.sched_getaffinity = lambda pid: {0, 1}
work = sys.argv[1]
with open(f"{work}/g.txt", "w") as file:
    file.write(serialize_graph(grid_graph(12, 12)[0]))
print(main(["sparsify", "--graph", f"{work}/g.txt", "--D", "8",
            "--out", f"{work}/x.txt"]))
"""


class TestClaimFile:
    def test_a_child_killed_after_its_claim_ends_the_cut(self, tmp_path):
        # a claim is never written back, so the dead child holds none: the
        # cut ends with the dead worker's RuntimeError (exit 3) instead of
        # waiting for a claim; the subprocess's timeout turns a hang into a
        # failure
        import pathlib
        import subprocess
        import sys

        if not hasattr(os, "fork"):
            pytest.skip("the platform cannot fork")
        src = str(pathlib.Path(fanwidth.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", KILLED_CLAIMER, str(tmp_path)],
                              capture_output=True, text=True, timeout=30,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout == "3\n"
        assert re.fullmatch(r"internal invariant failed: slab worker \d+ exited with "
                            r"status -9 without its results\n", proc.stderr)
        assert not (tmp_path / "x.txt").exists()

    def test_without_a_claim_file_this_process_cuts_alone(self, monkeypatch):
        import tempfile

        def no_file(**kwargs):
            raise OSError(24, "Too many open files")

        def no_fork():
            raise AssertionError("a cut without a claim file forked")

        g, _ = grid_graph(12, 12)
        tasks = slab_tasks(g, 8)
        expected = _cut_slabs(g, tasks, 1)
        monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
        monkeypatch.setattr(os, "fork", no_fork)
        assert _cut_slabs(g, tasks, 2) == expected

    @pytest.mark.parametrize("side", [20, 32])
    def test_grid_slabs_cut_alike_on_one_to_three_processes(self, side):
        g, _ = grid_graph(side, side)
        tasks = slab_tasks(g, 8)
        expected = _cut_slabs(g, tasks, 1)
        assert _cut_slabs(g, tasks, 2) == _cut_slabs(g, tasks, 3) == expected


def small_product(D):
    host, g, placements = grid_in_product(8)
    td = minfill_decomposition(host)
    completed = ttree_complete(host, td)
    sp = product_sparsify(completed, td, placements, D)
    return completed, g, placements, sp


class TestProductSparsify:
    def test_single_column_generous_density_empty(self):
        host, td, g, placements = column_in_product(20)
        sp = product_sparsify(host, td, placements, 6)
        assert all(not y for y in sp.cells.values())
        assert sp.x_size() == 0

    def test_single_point(self):
        host, td, g, placements = column_in_product(1)
        sp = product_sparsify(host, td, placements, 2)
        assert sp.x_size() == 0
        assert sp.N == 1

    def test_rejects_small_density(self):
        host, td, g, placements = column_in_product(4)
        with pytest.raises(InputError):
            product_sparsify(host, td, placements, 1.5)

    def test_rejects_duplicate_placements(self):
        host, td, g, placements = column_in_product(4)
        with pytest.raises(InputError) as exc:
            product_sparsify(host, td, placements + placements[:1], 2)
        assert str(exc.value) == "duplicate product placements"

    def test_rejects_out_of_range_row(self):
        host, td, g, placements = column_in_product(4)
        bad = placements[:3] + [ProductVertex(0, 9)]
        with pytest.raises(InputError):
            product_sparsify(host, td, bad, 2)

    def test_grid_size_and_component_bounds(self):
        completed, g, placements, sp = small_product(4)
        n = len(placements)
        width = 1  # path host
        bound = Fraction(18) * (width + 1) * n * sp.num_scales / 4
        assert sp.size_bound == bound
        assert sp.x_size() <= bound
        # per-strip component weights are rechecked inside product_sparsify;
        # recompute every scale here independently
        for i in range(sp.num_scales):
            span = 1 << i
            for j in range(sp.strips_at(i)):
                y = sp.cells[(i, j)]
                lo, hi = sp.plus_interval(i, j)
                weights = {}
                for pv in placements:
                    if lo <= pv.p <= hi:
                        weights[pv.h] = weights.get(pv.h, 0) + 1
                for comp in completed.delete(y).components():
                    w = sum(weights.get(v, 0) for v in comp)
                    assert w <= Fraction(span, 2) * 4

    def test_failed_separator_trips_the_strip_recheck(self, monkeypatch):
        # a separator that selects nothing leaves the whole host as one
        # component, heavier than the strip's threshold wherever c > 1
        monkeypatch.setattr(fanwidth.sparsify, "weighted_separator",
                            lambda *args: set())
        with pytest.raises(AssertionError) as exc:
            small_product(8)
        assert str(exc.value) == "strip (0,0): component weight 16 exceeds 4"

    def test_failed_separator_exits_3(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(fanwidth.sparsify, "weighted_separator",
                            lambda *args: set())
        host, g, placements = grid_in_product(5)
        (tmp_path / "p.txt").write_text(
            serialize_product_input(host, None, 5, placements, g))
        assert main(["certify", "--product", str(tmp_path / "p.txt"), "--D", "8",
                     "--out", str(tmp_path / "c.txt")]) == 3
        assert capsys.readouterr().err == (
            "internal invariant failed: strip (0,0): component weight 10 exceeds 4\n")

    def test_strip_components_are_host_components_times_strip(self):
        completed, g, placements, sp = small_product(8)
        i, j = 1, 2
        y = sp.cells[(i, j)]
        labels = StarMetric(sp, [pv for pv in placements if not sp.in_x(pv)]).strip_labels(i, j)
        lo, hi = sp.plus_interval(i, j)
        # survivors of the widened strip with equal host labels must be
        # connected inside the strip cylinder, and never across labels
        for pu in placements:
            if sp.in_x(pu) or not (lo <= pu.p <= hi):
                continue
            assert pu.h not in y
            assert labels[pu.h] >= 0

    def test_text_lists_every_cell(self):
        completed, g, placements, sp = small_product(8)
        header, *rows = sp.to_text().splitlines()
        assert header == f"N {sp.N} n {sp.n_points} D {sp.D}"
        keys = [(i, j) for i in range(sp.num_scales) for j in range(sp.strips_at(i))]
        assert sorted(sp.cells) == keys
        assert rows == [f"{i} {j} | " + " ".join(str(v) for v in sorted(sp.cells[(i, j)]))
                        for i, j in keys]

    def test_strip_cylinder_components_factor(self):
        # components of (widened strip minus its cut) are exactly
        # (host components minus Y) x (strip rows)
        from fanwidth import strong_product

        completed, g, placements, sp = small_product(8)
        i, j = 1, 1
        y = sp.cells[(i, j)]
        lo, hi = sp.plus_interval(i, j)
        pad_lo, pad_hi = sp.pad_range()
        lo, hi = max(lo, pad_lo), min(hi, pad_hi)
        rows = hi - lo + 1
        cyl, idx = strong_product(completed, path_graph(rows))
        cut = {idx[(h, r)] for h in y for r in range(rows)}
        got = {frozenset(c) for c in cyl.delete(cut).components()}
        expected = {
            frozenset(idx[(h, r)] for h in comp for r in range(rows))
            for comp in completed.delete(y).components()
        }
        assert got == expected

    def test_x_membership_matches_cells(self):
        completed, g, placements, sp = small_product(8)
        for pv in placements:
            member = any(
                pv.h in sp.cells[(i, j)]
                and sp.plus_interval(i, j)[0] <= pv.p <= sp.plus_interval(i, j)[1]
                for i in range(sp.num_scales)
                for j in range(sp.strips_at(i))
            )
            assert sp.in_x(pv) == member


def _reference_strip_weights(host, placements, i, N) -> list:
    """The column weights of every scale-``i`` strip as ``product_sparsify``
    computed them before ``_strip_weights``: a scan of every host vertex for
    each of a strip's three strips (the loop kept verbatim)."""
    weights = []
    strip_w: dict = {}
    for pv in placements:
        key = (pv.h, (pv.p - 1) >> i)
        strip_w[key] = strip_w.get(key, 0) + 1
    for j in range(N >> i):
        xi = {}
        for s in (j - 1, j, j + 1):
            for pv_h in range(host.n):
                w = strip_w.get((pv_h, s))
                if w:
                    xi[pv_h] = xi.get(pv_h, 0) + w
        weights.append(xi)
    return weights


class TestStripWeights:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_reference_loop(self, data):
        width, N = data.draw(st.integers(1, 8)), 1 << data.draw(st.integers(0, 5))
        cells = st.tuples(st.integers(0, width - 1), st.integers(1, N))
        placements = [ProductVertex(h, p)
                      for h, p in data.draw(st.sets(cells, max_size=width * N))]
        host = path_graph(width)
        units = sorted((pv.p - 1, pv.h) for pv in placements)
        counts = [N >> i for i in range(N.bit_length())]
        weights: dict = {}
        for i, _, keys, _, _ in _windows(units, counts, 2):
            weights.setdefault(i, []).append(dict(Counter(keys)))
        for i in range(N.bit_length()):
            assert weights[i] == _reference_strip_weights(host, placements, i, N)


def _reference_windows(units, i: int, count: int, D):
    """The scale-``i`` windows as first listed: every unit bucketed by its
    block again at each scale, and each window the keys of three buckets."""
    blocks: dict = {}
    for unit, key in units:
        blocks.setdefault(unit >> i, []).append(key)
    threshold = Fraction(D) * Fraction(1 << i, 2)
    for j in range(count):
        keys = [*blocks.get(j - 1, ()), *blocks.get(j, ()), *blocks.get(j + 1, ())]
        yield keys, max(1, math.ceil(Fraction(len(keys)) / threshold)), threshold


class TestWindowsAreRuns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 99)), max_size=60),
           st.integers(0, 7), st.sampled_from([1, 2, 3, Fraction(5, 2), 8]))
    def test_matches_the_rebucketing_reference(self, pairs, extra, D):
        units = sorted(pairs)
        top = units[-1][0] if units else 0
        counts = [(top >> i) + 1 + extra for i in range(top.bit_length() + 2)]
        got = [(keys, c, threshold) for _, _, keys, c, threshold in _windows(units, counts, D)]
        want = [w for i, count in enumerate(counts)
                for w in _reference_windows(units, i, count, D)]
        assert got == want


def _reference_in_x(sp, pv) -> bool:
    """Membership as written before ``widened_strips``: the three strips per
    scale around the row, each checked for the row inside its widened
    interval."""
    for i in range(sp.num_scales):
        s = sp.strip_of(pv.p, i)
        for j in (s - 1, s, s + 1):
            if 0 <= j < sp.strips_at(i) and pv.h in sp.cells.get((i, j), ()):
                lo, hi = sp.plus_interval(i, j)
                if lo <= pv.p <= hi:
                    return True
    return False


class TestWidenedStrips:
    def test_equals_the_strips_whose_interval_holds_the_rows(self):
        for n_points in (1, 2, 4, 8, 16, 32, 64):
            sp = StructuredSparsifier(path_graph(1), n_points, 2, {})
            assert sp.N == n_points
            intervals = [(i, j, *sp.plus_interval(i, j))
                         for i in range(sp.num_scales) for j in range(sp.strips_at(i))]
            pad_lo, pad_hi = sp.pad_range()
            for lo in range(pad_lo, pad_hi + 1):
                for hi in range(lo, pad_hi + 1):
                    brute = [(i, j) for i, j, slo, shi in intervals
                             if slo <= lo and hi <= shi]
                    assert list(sp.widened_strips(lo, hi)) == brute, (n_points, lo, hi)

    @pytest.mark.parametrize("seed", range(12))
    def test_in_x_matches_the_reference_loop(self, seed):
        rng = stream(seed, "test/in_x")
        width = int(rng.integers(1, 6))
        sp = StructuredSparsifier(path_graph(width), int(rng.integers(1, 70)), 2, {})
        for i in range(sp.num_scales):
            for j in range(sp.strips_at(i)):
                if rng.random() < 0.7:  # a strip may have no entry at all
                    sp.cells[(i, j)] = frozenset(
                        h for h in range(width) if rng.random() < 0.15)
        pad_lo, pad_hi = sp.pad_range()
        for h in range(width):
            for p in range(pad_lo, pad_hi + 1):
                pv = ProductVertex(h, p)
                assert sp.in_x(pv) == _reference_in_x(sp, pv), pv
