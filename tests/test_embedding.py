import hashlib
import itertools
import math
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fanwidth import (
    DecompInstance,
    Graph,
    InputError,
    ProductVertex,
    StarMetric,
    StructuredSparsifier,
    bfs_distances,
    bfs_layering,
    build_embedding,
    distortion_volume_report,
    minfill_decomposition,
    path_graph,
    product_sparsify,
    project_order,
    ttree_complete,
)
from fanwidth import embedding
from fanwidth.embedding import Embedding, _embedding_shape, projection_orders
from fanwidth.pipeline import DEFAULT_RESTARTS
from fanwidth.randomness import PCG64Batch, stream

from conftest import (
    ReferenceGeometry,
    assert_component_diameters,
    column_in_product,
    component_groups,
    grid_in_product,
    instance_offsets,
    point_arrays,
    random_connected_graph,
    scale_geometry,
    traced_peak,
)

INF = math.inf


def sparsified_instance(size=16, D=16):
    host, g, placements = grid_in_product(size)
    td = minfill_decomposition(host)
    completed = ttree_complete(host, td)
    sp = product_sparsify(completed, td, placements, D)
    surv = [v for v in range(g.n) if not sp.in_x(placements[v])]
    pvs = [placements[v] for v in surv]
    sm = StarMetric(sp, pvs)
    return completed, sp, surv, pvs, sm


class TestDecompose:
    def test_block_ids_follow_offsets(self):
        # a 4-block decomposition with host offset 2 and row offset 3
        host, g, placements = grid_in_product(8)
        td = minfill_decomposition(host)
        completed = ttree_complete(host, td)
        sp = StructuredSparsifier(completed, 8, 4, {})
        geometry = scale_geometry(completed, sp, 4, placements)
        _, a, b, _ = geometry.points(2, 3)
        for pv, a_cell, b_cell in zip(placements, a.tolist(), b.tolist()):
            s = geometry.layering.layer_of[pv.h]
            assert 2 + 4 * a_cell <= s <= 2 + 4 * (a_cell + 1) - 1
            assert 3 + 4 * b_cell <= pv.p <= 3 + 4 * (b_cell + 1) - 1

    def test_one_cell_when_delta_dominates(self):
        host, g, placements = grid_in_product(4)
        td = minfill_decomposition(host)
        completed = ttree_complete(host, td)
        sp = StructuredSparsifier(completed, 4, 4, {})
        _, a, b, _ = scale_geometry(completed, sp, 16, placements).points(0, 0)
        assert len(set(zip(a.tolist(), b.tolist()))) == 1

    def test_component_diameter_bound(self):
        completed, sp, surv, pvs, sm = sparsified_instance(8, 8)
        for delta in (4, 8):
            geometry = scale_geometry(completed, sp, delta, pvs)
            rng = stream(21, f"diam/{delta}")
            for _ in range(4):
                rh, rp = int(rng.integers(0, delta)), int(rng.integers(0, delta))
                _, a, b, _ = geometry.points(rh, rp)
                inst = DecompInstance(completed, geometry.layering, delta, rh)
                assert_component_diameters(
                    (a, b, inst.trim_labels(frozenset())[geometry.hosts]),
                    lambda s, t: sm.product_distance(pvs[s], pvs[t]), 2 * delta + 1)

    def test_rejects_bad_delta(self):
        host, g, placements = grid_in_product(4)
        completed = ttree_complete(host, minfill_decomposition(host))
        layering = bfs_layering(completed, 0)
        with pytest.raises(InputError):
            DecompInstance(completed, layering, 3, 0)
        with pytest.raises(InputError):
            DecompInstance(completed, layering, 4, 4)


class TestTrim:
    def test_no_cuts_keeps_components(self):
        host, g, placements = grid_in_product(6)
        td = minfill_decomposition(host)
        completed = ttree_complete(host, td)
        sp = StructuredSparsifier(completed, 36, 4, {})
        geometry = scale_geometry(completed, sp, 4, placements)
        _, _, _, jroot = geometry.points(1, 2)
        inst = DecompInstance(completed, geometry.layering, 4, 1)
        assert np.array_equal(jroot, inst.trim_labels(frozenset())[geometry.hosts])

    def test_survivors_never_meet_containing_cuts(self):
        completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        geometry = scale_geometry(completed, sp, 4, pvs)
        _, _, _, jroot = geometry.points(2, 1)
        inst = DecompInstance(completed, geometry.layering, 4, 2)
        root = inst.trim_labels(frozenset())
        assert (jroot >= 0).all()  # surviving points are never trimmed
        # a trimmed component lies inside its block component
        assert np.array_equal(root[jroot], root[geometry.hosts])

    def test_jcomponent_dstar_diameter(self):
        completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        for delta in (2, 4, 8):
            geometry = scale_geometry(completed, sp, delta, pvs)
            rng = stream(33, f"jdiam/{delta}")
            for _ in range(3):
                rh, rp = int(rng.integers(0, delta)), int(rng.integers(0, delta))
                _, a, b, jroot = geometry.points(rh, rp)
                assert_component_diameters(
                    (a, b, jroot), lambda s, t: sm.d_star(pvs[s], pvs[t]), 5 * delta)

    def test_point_inside_cut_fails_loudly(self):
        # a point sitting inside a cut cylinder cannot get a coordinate;
        # reaching it without the membership check is a hard error
        host = path_graph(3)
        sp = StructuredSparsifier(host, 16, 4, {(2, 0): frozenset({1})})
        geometry = scale_geometry(host, sp, 4, [ProductVertex(1, 5)])
        with pytest.raises(RuntimeError, match="deleted by a trim cut"):
            geometry.points(0, 0)

    def test_alpha_uniform_and_order_independent(self):
        # the stretches build_embedding draws: permuting the input points
        # permutes the coordinate rows, and in every column all points of one
        # trimmed component share one alpha in [0, 1)
        completed, sp, surv, pvs, sm = sparsified_instance(8, 8)
        emb = build_embedding(surv, pvs, sp, k=2, a=1, seed=8)
        assert not emb.capped
        perm = stream(8, "test/permutation").permutation(len(surv))
        shuffled = build_embedding([surv[t] for t in perm], [pvs[t] for t in perm],
                                   sp, k=2, a=1, seed=8)
        assert np.array_equal(shuffled.coords, emb.coords[perm])

        scales, reps = _embedding_shape(len(surv), 2, 1)
        col = 0
        for i in range(scales):
            geometry = scale_geometry(completed, sp, 1 << i, pvs)
            for jr in range(1, reps + 1):
                bdist, a, b, jroot = geometry.points(*instance_offsets(8, i, jr))
                for members in component_groups((a, b, jroot)):
                    coords = emb.coords[members, col]
                    d = bdist[members]
                    assert (coords[d == 0] == 0).all()
                    if (d > 0).any():
                        t0 = int(np.argmax(d > 0))
                        alpha = coords[t0] / d[t0] - 1.0
                        assert 0.0 <= alpha < 1.0
                        assert np.allclose(coords, (1.0 + alpha) * d,
                                           rtol=1e-12, atol=0.0)
                col += 1
        assert col == emb.L


class TestBuildEmbedding:
    def test_dimension_formula(self):
        scales, reps = _embedding_shape(16, 4, 193)
        assert scales * reps == 5 * 2141 == 10705

    def test_coordinate_formula_endpoints(self):
        # coordinate = (1 + alpha) * boundary distance, alpha in [0, 1)
        completed, sp, surv, pvs, sm = sparsified_instance(8, 8)
        emb = build_embedding(surv, pvs, sp, k=2, a=1, seed=3)
        scales, reps = _embedding_shape(len(surv), 2, 1)
        col = 0
        for i in range(scales):
            geometry = scale_geometry(completed, sp, 1 << i, pvs)
            for jr in range(1, reps + 1):
                d = geometry.points(*instance_offsets(3, i, jr))[0]
                c = emb.coords[:, col]
                assert (((d <= c) & (c < 2 * d)) | (d == 0)).all()
                col += 1

    def test_raw_coordinates_in_range(self):
        completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        emb = build_embedding(surv, pvs, sp, k=3, a=2, seed=9)
        n = len(surv)
        assert emb.coords.min() >= 0.0
        assert emb.coords.max() <= 2 * (n - 1)

    def test_contraction_and_lipschitz(self):
        completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        emb = build_embedding(surv, pvs, sp, k=3, a=2, seed=10)
        n = len(surv)
        dstar = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                dstar[i, j] = dstar[j, i] = sm.d_star(pvs[i], pvs[j])
        scaled = emb.scaled()
        for i in range(n):
            d2 = np.linalg.norm(scaled - scaled[i], axis=1)
            assert (d2 <= dstar[i] * (1 + 1e-9) + 1e-12).all()
            coord_gap = np.abs(emb.coords - emb.coords[i]).max(axis=1)
            assert (coord_gap <= 2 * dstar[i] + 1e-9).all()

    def test_deterministic(self):
        completed, sp, surv, pvs, sm = sparsified_instance(8, 8)
        e1 = build_embedding(surv, pvs, sp, k=2, a=1, seed=12)
        e2 = build_embedding(surv, pvs, sp, k=2, a=1, seed=12)
        assert np.array_equal(e1.coords, e2.coords)

    def test_dims_cap_subsamples(self):
        completed, sp, surv, pvs, sm = sparsified_instance(8, 8)
        full = build_embedding(surv, pvs, sp, k=2, a=1, seed=13)
        capped = build_embedding(surv, pvs, sp, k=2, a=1, seed=13, dims_cap=7)
        assert capped.L == 7 and capped.capped
        assert full.L == full.L_full and not full.capped
        # capped columns are a subset of the full matrix's columns
        full_cols = {tuple(full.coords[:, c]) for c in range(full.L)}
        for c in range(7):
            assert tuple(capped.coords[:, c]) in full_cols

    def test_rejects_bad_parameters(self):
        # both consumers of the one column path check their input alike
        completed, sp, surv, pvs, sm = sparsified_instance(8, 8)
        for run in (build_embedding,
                    lambda *args: projection_orders(*args, restarts=1)):
            for ids, points, k, a, message in [
                    (surv, pvs, 1, 1, "k >= 2"),
                    (surv, pvs, 2, 0, "--a 0 is not a finite positive number"),
                    (surv, pvs, 2, -1, "--a -1 is not a finite positive number"),
                    (surv[1:], pvs, 2, 1, "must align"),
                    ([], [], 2, 1, "nonempty")]:
                with pytest.raises(InputError, match=message):
                    run(ids, points, sp, k, a, 0)


def reference_coords(host, sp, pvs, k, a, seed):
    """Coordinate matrix of ``build_embedding`` written from the definitions,
    one point and one component at a time, and each column's per-point
    ``(a, b, jroot)`` trimmed-component keys."""
    layer = bfs_layering(host, min(host.vertices())).layer_of
    live = set(host.vertices())
    pad_lo, pad_hi = sp.pad_range()
    scales, reps = _embedding_shape(len(pvs), k, a)
    columns, column_keys = [], []
    for i in range(scales):
        delta = 1 << i
        for jr in range(1, reps + 1):
            r_h, r_p = instance_offsets(seed, i, jr)
            bdist, keys = [], []
            for pv in pvs:
                a_cell = (layer[pv.h] - r_h) // delta
                b_cell = (pv.p - r_p) // delta
                block = {v for v in live if (layer[v] - r_h) // delta == a_cell}
                comp = next(set(c) for c in host.delete(live - block).components()
                            if pv.h in c)
                # host exit: plain BFS to the nearest vertex off the component
                dist = bfs_distances(host, pv.h)
                host_exit = min((dist[v] for v in live - comp), default=math.inf)
                lo = max(r_p + b_cell * delta, pad_lo)
                hi = min(r_p + (b_cell + 1) * delta - 1, pad_hi)
                below = pv.p - lo + 1 if lo > pad_lo else math.inf
                above = hi + 1 - pv.p if hi < pad_hi else math.inf
                bdist.append(min(below, above, host_exit))
                # trim by the cuts of every widened strip holding rows lo..hi
                cut = set()
                for si in range(sp.num_scales):
                    for sj in range(sp.strips_at(si)):
                        slo, shi = sp.plus_interval(si, sj)
                        if slo <= lo and hi <= shi:
                            cut |= sp.cells.get((si, sj), set())
                assert pv.h not in cut
                jcomp = next(c for c in host.delete(live - (comp - cut)).components()
                             if pv.h in c)
                keys.append((a_cell, b_cell, min(jcomp)))
            jkeys = sorted(set(keys))
            alphas = stream(seed, f"inst/i={i}/j={jr}/alpha").random(len(jkeys))
            columns.append([(1.0 + alphas[jkeys.index(key)]) * d
                            for key, d in zip(keys, bdist)])
            column_keys.append(keys)
    return np.array(columns, dtype=np.float64).T, column_keys


def spider_instance(legs=3, length=3, rows=8, D=16):
    """Every row of a spider host (legs joined at vertex 0): a layer block
    holds one component per leg, joined only through vertices outside it."""
    edges = []
    for leg in range(legs):
        prev = 0
        for t in range(length):
            v = 1 + leg * length + t
            edges.append((prev, v))
            prev = v
    host = Graph(1 + legs * length, edges)
    placements = [ProductVertex(h, p) for p in range(1, rows + 1)
                  for h in range(host.n)]
    td = minfill_decomposition(host)
    sp = product_sparsify(ttree_complete(host, td), td, placements, D)
    pvs = [pv for pv in placements if not sp.in_x(pv)]
    return sp.host, sp, list(range(len(pvs))), pvs


class TestGeometryDefinition:
    @pytest.mark.parametrize("dims_cap", [None, 25])
    @pytest.mark.parametrize("shape", ["grid", "spider"])
    def test_coords_equal_reference(self, shape, dims_cap):
        if shape == "grid":
            completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        else:
            completed, sp, surv, pvs = spider_instance()
        emb = build_embedding(surv, pvs, sp, k=2, a=1, seed=5, dims_cap=dims_cap)
        scales, reps = _embedding_shape(len(surv), 2, 1)
        assert reps < 16 and scales > 3
        expected, expected_keys = reference_coords(completed, sp, pvs, 2, 1, 5)
        # the per-point arrays the lemma tests read are the definitions' keys
        col = 0
        collapsed = replay_collapsed = 0
        for i in range(scales):
            geometry = scale_geometry(completed, sp, 1 << i, pvs)
            replayed = [instance_offsets(5, i, jr) for jr in range(1, reps + 1)]
            for offsets in replayed:
                _, a, b, jroot = geometry.points(*offsets)
                keys = list(zip(a.tolist(), b.tolist(), jroot.tolist()))
                assert keys == expected_keys[col]
                col += 1
            replay_keys = [geometry.partition(*o) for o in set(replayed)]
            replay_collapsed += len(replay_keys) - len(set(replay_keys))
            # offsets of one partition share bdist and jroot, and their a and
            # b differ by constants, which keeps the (a, b, jroot) order; the
            # sweep of r_h finds such offsets where the replay has none
            sweep = [(r_h, replayed[0][1]) for r_h in range(1 << i)]
            first = {}
            for offsets in dict.fromkeys(replayed + sweep):
                bdist, a, b, jroot = geometry.points(*offsets)
                seen = first.setdefault(geometry.partition(*offsets),
                                        (bdist, a, b, jroot))
                if seen[0] is not bdist:
                    collapsed += 1
                    assert np.array_equal(bdist, seen[0])
                    assert np.array_equal(jroot, seen[3])
                    assert len(set((a - seen[1]).tolist())) == 1
                    assert len(set((b - seen[2]).tolist())) == 1
        assert collapsed > 0
        # on the spider, build_embedding reuses one partition's geometry for
        # other offsets; the grid's padding (N = 256) gives each r_p its own
        # row cells, so there only the sweep collapses
        assert replay_collapsed > 0 or shape == "grid"
        if dims_cap is not None:
            chosen = stream(5, "dims-cap").choice(emb.L_full, size=dims_cap,
                                                  replace=False)
            expected = expected[:, np.sort(chosen)]
        assert np.array_equal(emb.coords, expected)

    @pytest.mark.parametrize("dims_cap", [None, 25])
    def test_column_chunks_equal_reference(self, monkeypatch, dims_cap):
        # three columns per chunk: every scale spans several chunks, and the
        # capped columns are scattered over the repetitions
        monkeypatch.setattr(embedding, "_COLUMN_CHUNK", 3)
        completed, sp, surv, pvs = spider_instance()
        emb = build_embedding(surv, pvs, sp, k=2, a=1, seed=5, dims_cap=dims_cap)
        scales, reps = _embedding_shape(len(surv), 2, 1)
        expected, _ = reference_coords(completed, sp, pvs, 2, 1, 5)
        if dims_cap is not None:
            chosen = np.sort(stream(5, "dims-cap").choice(emb.L_full, size=dims_cap,
                                                          replace=False))
            assert np.any(np.diff(chosen) > 1)
            expected = expected[:, chosen]
        assert reps > 3 and emb.L > 3
        assert np.array_equal(emb.coords, expected)

    def test_point_of_x_is_rejected(self):
        # at block size 1 every point of X lies inside a trim cut
        host, g, placements = grid_in_product(16)
        completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        inside = next(v for v in range(g.n) if sp.in_x(placements[v]))
        args = (surv + [inside], pvs + [placements[inside]], sp, 2, 1, 5)
        with pytest.raises(RuntimeError, match="deleted by a trim cut"):
            build_embedding(*args)
        with pytest.raises(RuntimeError, match="deleted by a trim cut"):
            projection_orders(*args, restarts=1)


class TestProjectOrder:
    def test_one_dimensional_order(self):
        emb = Embedding([0, 1, 2], [None] * 3,
                        np.array([[0.1], [3.2], [2.0]]), 2, 1.0, 0, 1, False)
        rng = stream(99, "projection")
        r = rng.standard_normal(1)
        expected = [0, 2, 1] if r[0] > 0 else [1, 2, 0]
        assert project_order(emb, 99) == expected

    def test_identical_points_fall_back_to_id_order(self):
        emb = Embedding([2, 0, 1], [None] * 3,
                        np.ones((3, 4)), 2, 1.0, 0, 4, False)
        assert project_order(emb, 5) == [0, 1, 2]

    def test_fixed_seed_reproducible(self):
        completed, sp, surv, pvs, sm = sparsified_instance(8, 8)
        emb = build_embedding(surv, pvs, sp, k=2, a=1, seed=14)
        assert project_order(emb, 7) == project_order(emb, 7)


class TestDirection:
    def test_unit_norm(self):
        for seed in range(3):
            d = embedding._direction(seed, 1000)
            assert abs(math.fsum((d * d).tolist()) - 1.0) < 1e-12

    def test_bits_do_not_depend_on_blas_threads(self):
        # product-certified has 62,696 columns; a threaded BLAS norm of that
        # many floats changed its last bit with the thread count
        import os
        import subprocess
        import sys

        script = ("import hashlib\n"
                  "from fanwidth.embedding import _direction\n"
                  "for s in range(5):\n"
                  "    print(hashlib.sha256(_direction(s, 62_696).tobytes()).hexdigest())\n")
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split())
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("chunk", [3, 512])
    def test_streamed_directions_equal_one_call(self, monkeypatch, chunk):
        # the directions are drawn a column chunk at a time, twice: for the
        # norm and as taken; both give one standard_normal(L) call's bits
        monkeypatch.setattr(embedding, "_COLUMN_CHUNK", chunk)
        seeds = DIRECTION_SEEDS[:3]
        for L in (1, 511, 512, 513, 62_696):
            want = []
            for s in seeds:
                r = stream(s, "projection").standard_normal(L)
                want.append(r / math.sqrt(math.fsum((r * r).tolist())))
            directions = embedding._Directions(seeds, L)
            got, taken = [], 0
            for size in itertools.cycle([1, 2, 7, 600, 3]):
                size = min(size, L - taken)
                got.append(directions.take(size))
                taken += size
                if taken == L:
                    break
            assert np.hstack(got).tobytes() == np.array(want).tobytes()
            with pytest.raises(ValueError, match="past the directions' end"):
                directions.take(1)
            for s, row in zip(seeds, want):
                assert embedding._direction(s, L).tobytes() == row.tobytes()


@st.composite
def product_instances(draw):
    """Survivors of a random host x path product after the strip cut, with
    their ids in random order."""
    width = draw(st.integers(1, 7))
    host = random_connected_graph(width, draw(st.sampled_from([0.0, 0.3, 0.8])),
                                  draw(st.integers(0, 999)))
    cells = [ProductVertex(h, p) for p in range(1, draw(st.integers(1, 6)) + 1)
             for h in range(width)]
    placements = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    assume(len(placements) >= 2)
    # occupied rows renumbered 1, 2, ... as the product front end does
    rank = {p: t + 1 for t, p in enumerate(sorted({pv.p for pv in placements}))}
    placements = [ProductVertex(pv.h, rank[pv.p]) for pv in placements]
    td = minfill_decomposition(host)
    sp = product_sparsify(ttree_complete(host, td), td, placements,
                          draw(st.integers(2, 32)))
    pvs = [pv for pv in placements if not sp.in_x(pv)]
    assume(len(pvs) >= 2)
    return sp, draw(st.permutations(range(len(pvs)))), pvs


def twins_instance():
    """Two rows of a clique host: BFS from vertex 0 puts the others in one
    layer, so in each row they share every trimmed component and boundary
    distance, and their coordinate rows are equal."""
    host = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    placements = [ProductVertex(h, p) for p in (1, 2) for h in range(5)]
    td = minfill_decomposition(host)
    sp = product_sparsify(ttree_complete(host, td), td, placements, 64)
    pvs = [pv for pv in placements if not sp.in_x(pv)]
    # ids against the placement order, so id order is not row order
    ids = [40 - 3 * t for t in range(len(pvs))]
    return sp, ids, pvs


DIRECTION_SEEDS = [101, 7, 2**40 + 3, 0, 55]


def restart_seeds(seed: int, restarts: int) -> list:
    """The direction seed of each restart of ``projection_orders``."""
    return [int(stream(seed, f"order/restart={r}").integers(0, 2**63 - 1))
            for r in range(restarts)]


class TestProjectionOrders:
    @settings(max_examples=40, deadline=None)
    @given(instance=product_instances(), seed=st.integers(0, 2**32),
           capped=st.booleans())
    def test_sums_equal_the_dense_products(self, instance, seed, capped):
        sp, ids, pvs = instance
        scales, reps = _embedding_shape(len(pvs), 2, 1)
        dims_cap = max(1, scales * reps // 3) if capped else None
        for chunk in (512, 3):
            with mock.patch.object(embedding, "_COLUMN_CHUNK", chunk):
                emb = build_embedding(ids, pvs, sp, 2, 1, seed, dims_cap)
                columns = embedding._Columns(ids, pvs, sp, 2, 1, seed, dims_cap)
                directions = np.array([embedding._direction(s, emb.L)
                                       for s in DIRECTION_SEEDS])
                h = embedding._heights(columns, DIRECTION_SEEDS)
                dense = emb.coords @ directions.T
                assert np.abs(h - dense.T).max() <= 1e-12 * np.abs(dense).max()
                # the batch sums each direction on its own
                for r, s in enumerate(DIRECTION_SEEDS):
                    alone = embedding._heights(columns, [s])
                    assert np.array_equal(alone[0], h[r])
                orders = projection_orders(ids, pvs, sp, 2, 1, seed, 5, dims_cap)
                assert list(orders) == [project_order(emb, s)
                                        for s in restart_seeds(seed, 5)]

    def test_identical_rows_tie_and_fall_back_to_id_order(self):
        sp, ids, pvs = twins_instance()
        emb = build_embedding(ids, pvs, sp, 2, 1, 4)
        groups = {}
        for t, row in enumerate(emb.coords):
            groups.setdefault(row.tobytes(), []).append(t)
        groups = [members for members in groups.values() if len(members) > 1]
        assert sum(len(members) for members in groups) >= 8  # not vacuous
        columns = embedding._Columns(ids, pvs, sp, 2, 1, 4, None)
        h = embedding._heights(columns, restart_seeds(4, 5))
        orders = projection_orders(ids, pvs, sp, 2, 1, 4, 5)
        for heights, order in zip(h, orders):
            position = {v: t for t, v in enumerate(order)}
            for members in groups:
                assert len({heights[t] for t in members}) == 1
                places = sorted(position[ids[t]] for t in members)
                assert places == list(range(places[0], places[0] + len(members)))
                assert [order[t] for t in places] == sorted(ids[t] for t in members)

    @pytest.mark.parametrize("chunk", [512, 7])
    def test_restart_blocks_do_not_change_the_bits(self, monkeypatch, chunk):
        monkeypatch.setattr(embedding, "_COLUMN_CHUNK", chunk)
        completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        columns = embedding._Columns(surv, pvs, sp, None, 1, 3, None)
        # scale 0's stretches span two tiles, the second one ragged
        counts = [count for instances, _ in columns.scales()
                  for count in instances.counts.tolist()]
        assert max(counts) > PCG64Batch.TILE and len(set(counts)) > 5
        seeds = restart_seeds(3, 5)
        h = embedding._heights(columns, seeds)
        for block in (1, 2, 5):
            monkeypatch.setattr(embedding, "_restart_block", lambda cells: block)
            assert embedding._heights(columns, seeds).tobytes() == h.tobytes()


def numpy_stream(label: str) -> np.random.Generator:
    """numpy's own generator for the stream whose whole hashed label, seed
    included, is ``label``: the reference that the batch seeding matches."""
    digest = hashlib.sha256(label.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


class TestRestartSeeding:
    """The restarts' seeds and directions are seeded ``_COLUMN_CHUNK``
    restarts at a time, with no numpy ``SeedSequence``."""

    @staticmethod
    def handed_seeds(monkeypatch, seed: int, restarts: int) -> list:
        """The direction seeds ``projection_orders`` hands to ``_heights``."""
        handed = []
        monkeypatch.setattr(embedding, "_heights",
                            lambda columns, seeds: handed.append(list(seeds)) or [])
        completed, sp, surv, pvs, sm = sparsified_instance(8, 8)
        list(projection_orders(surv, pvs, sp, 2, 1, seed, restarts, dims_cap=8))
        return handed[0]

    @pytest.mark.parametrize("seed", [0, 7, -5, 2**70])
    def test_seeds_and_directions_equal_numpy_at_scale(self, monkeypatch, seed):
        # three blocks, the last one ragged; the CLI takes any integer
        # --seed, so a negative one and one past 64 bits are checked too
        restarts = 2 * embedding._COLUMN_CHUNK + 3
        seeds = self.handed_seeds(monkeypatch, seed, restarts)
        assert seeds == [
            int(numpy_stream(f"{seed}\x1forder/restart={r}").integers(0, 2**63 - 1))
            for r in range(restarts)]
        directions = embedding._Directions(seeds, 3)
        parked = list(zip(directions._states, directions._incs))
        assert len(parked) == restarts
        for s, (state, inc) in zip(seeds, parked):
            want = numpy_stream(f"{s}\x1fprojection").bit_generator.state["state"]
            assert {"state": state, "inc": inc} == want

    def test_labels_are_hashed_in_blocks(self, monkeypatch):
        chunk = embedding._COLUMN_CHUNK
        restarts = 3 * chunk + 1
        label_states, sizes = embedding.label_states, []

        def recorded(prefix, items, tail=""):
            items = list(items)
            sizes.append((tail or prefix.rpartition("\x1f")[2], len(items)))
            return label_states(prefix, items, tail)

        monkeypatch.setattr(embedding, "label_states", recorded)
        completed, sp, surv, pvs, sm = sparsified_instance(8, 8)
        orders = list(projection_orders(surv, pvs, sp, 2, 1, 3, restarts, dims_cap=8))
        assert len(orders) == restarts
        assert max(size for _, size in sizes) <= chunk
        for kind in ("order/restart=", "\x1fprojection"):
            assert [size for k, size in sizes if k == kind] == [chunk] * 3 + [1]


class TestOrderingMemory:
    """The ordering holds a chunk of each direction and builds the terms of
    a tile for a block of restarts at a time: no ``restarts x L``
    directions and no ``restarts x columns x components`` terms."""

    def test_heights_stay_within_the_restart_rule(self):
        # the restart rule with 2^15 columns in place of MAX_COLUMNS admits
        # 214 restarts here; the terms of a 100-column chunk with 64
        # components would take 11 MB for all of them at once
        completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        columns = embedding._Columns(surv, pvs, sp, None, 4, 3, None)
        n, L = len(surv), columns.L
        restarts = DEFAULT_RESTARTS * ((1 << 15) + n) // (L + n)
        seeds = restart_seeds(3, restarts)
        _, peak = traced_peak(lambda: embedding._heights(columns, seeds))
        budget = 8 * (restarts * (L + n)
                      + DEFAULT_RESTARTS * embedding._COLUMN_CHUNK * PCG64Batch.TILE)
        assert restarts == 214 and budget < 2 * 10**6
        assert peak < 3 * budget

    def test_orders_hold_no_direction_matrix(self):
        # 40 restarts in L = 12,480 dimensions: their directions alone would
        # take 4.0 MB
        completed, sp, surv, pvs, sm = sparsified_instance(8, 8)
        restarts, L = 40, embedding._Columns(surv, pvs, sp, None, 500, 3, None).L
        orders, peak = traced_peak(
            lambda: list(projection_orders(surv, pvs, sp, None, 500, 3, restarts)))
        assert len(orders) == restarts and L == 12_480
        assert peak < restarts * L * 8

    def test_instances_share_the_scale_tables(self, monkeypatch):
        # at the last scale of the certified a = 193, 721 instances share
        # 64 row parts and 16 host partitions: the instances keep less than
        # 8 bytes per point each, where a float64 bdist and an int64 jidx
        # per instance would keep 16
        completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        original, kept = embedding._ScaleGeometry.instances, []

        def traced(geometry, r_h, r_p):
            before = tracemalloc.get_traced_memory()[0]
            out = original(geometry, r_h, r_p)
            kept.append((len(out[0].counts), tracemalloc.get_traced_memory()[0] - before))
            return out

        monkeypatch.setattr(embedding._ScaleGeometry, "instances", traced)
        columns = embedding._Columns(surv, pvs, sp, None, 193, 3, None)
        traced_peak(lambda: list(columns.scales()))
        count, size = kept[-1]
        assert count > 700
        assert size < 8 * len(surv) * count

    def test_narrow_indices_give_the_wide_sums(self, monkeypatch):
        # the components of a scale's instances run past 255 in ``sums``
        # while each instance's indices fit uint8; the heights equal those of
        # the same instances with int64 indices, bit for bit
        completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        columns = embedding._Columns(surv, pvs, sp, None, 8, 3, None)
        seeds = restart_seeds(3, 5)
        narrow = [instances for instances, _ in columns.scales()
                  if instances.jidx.dtype == np.uint8 and instances.counts.sum() > 256]
        assert len(narrow) >= 3
        h = embedding._heights(columns, seeds)
        original = embedding._ScaleGeometry.instances

        def widened(geometry, r_h, r_p):
            out, inst_of = original(geometry, r_h, r_p)
            out.jidx = out.jidx.astype(np.int64)
            return out, inst_of

        monkeypatch.setattr(embedding._ScaleGeometry, "instances", widened)
        assert embedding._heights(columns, seeds).tobytes() == h.tobytes()


def random_offsets(seed: int, delta: int, columns: int):
    rng = stream(seed, f"test/offsets/{delta}")
    return rng.integers(0, delta, size=columns), rng.integers(0, delta, size=columns)


def assert_instances_match_reference(sp, pvs, delta, r_h, r_p) -> int:
    """``_ScaleGeometry.instances`` gives the reference's instances, in its
    order, and the same column map; or it raises the reference's error.
    Returns the number of instances."""
    host = sp.host
    layering = bfs_layering(host, min(host.vertices()))
    args = (host, layering, sp, delta, *point_arrays(pvs))
    try:
        want, want_of = ReferenceGeometry(*args).instances_of(r_h, r_p)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError) as raised:
            embedding._ScaleGeometry(*args).instances(r_h, r_p)
        assert str(raised.value) == str(exc)
        return 0
    got, got_of = embedding._ScaleGeometry(*args).instances(r_h, r_p)
    assert got_of.tolist() == want_of.tolist()
    assert len(got.counts) == len(want)
    for i, (want_bdist, want_jidx, want_count) in enumerate(want):
        bdist = got.bdist(i)
        assert bdist.dtype == want_bdist.dtype == np.float64
        assert bdist.tobytes() == want_bdist.tobytes()
        # indices are kept in the narrowest unsigned type of the scale
        assert np.array_equal(got.jidx[i], want_jidx)
        assert got.counts[i] == want_count
    assert got.jidx.dtype == np.min_scalar_type(int(got.counts.max()) - 1)
    return len(want)


class TestBatchedGeometryMatchesReference:
    @pytest.mark.parametrize("block", [64, 3])
    def test_product_grid(self, monkeypatch, block):
        monkeypatch.setattr(embedding, "_PARTITION_BLOCK", block)
        completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        found = 0
        for i in range(8):
            delta = 1 << i
            found += assert_instances_match_reference(
                sp, pvs, delta, *random_offsets(i, delta, 300))
        assert found > 2 * 64  # more than one full block at the default size

    def test_column(self):
        host, td, g, placements = column_in_product(64)
        sp = product_sparsify(host, td, placements, 8)
        pvs = [pv for pv in placements if not sp.in_x(pv)]
        for i in range(7):
            assert assert_instances_match_reference(
                sp, pvs, 1 << i, *random_offsets(10 + i, 1 << i, 100)) >= 1

    @settings(max_examples=40, deadline=None)
    @given(instance=product_instances(), i=st.integers(0, 5),
           columns=st.integers(1, 40), seed=st.integers(0, 99),
           block=st.sampled_from([1, 2, 64]))
    def test_hypothesis_products(self, instance, i, columns, seed, block):
        sp, _, pvs = instance
        with mock.patch.object(embedding, "_PARTITION_BLOCK", block):
            assert assert_instances_match_reference(
                sp, pvs, 1 << i, *random_offsets(seed, 1 << i, columns)) >= 1

    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_deleted_point_error(self, i):
        # points of X among the survivors: the first bad partition names its
        # first deleted point, as the reference does
        host, g, placements = grid_in_product(16)
        completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        inside = [placements[v] for v in range(g.n) if sp.in_x(placements[v])]
        mixed = pvs[:40] + inside[::7] + pvs[40:]
        with pytest.raises(RuntimeError, match="deleted by a trim cut"):
            embedding._ScaleGeometry(
                completed, bfs_layering(completed, min(completed.vertices())), sp,
                1 << i, *point_arrays(mixed)).instances(*random_offsets(i, 1 << i, 50))
        assert assert_instances_match_reference(
            sp, mixed, 1 << i, *random_offsets(i, 1 << i, 50)) == 0


class TestBoundaryProbability:
    def test_quarter_margin_frequency(self):
        host, g, placements = grid_in_product(16)
        completed = ttree_complete(host, minfill_decomposition(host))
        sp = StructuredSparsifier(completed, 256, 16, {})
        v = ProductVertex(7, 100)
        trials = 1200
        for delta in (4, 8):
            geometry = scale_geometry(completed, sp, delta, [v])
            rng = stream(17, f"prob/{delta}")
            hits = 0
            for _ in range(trials):
                rh, rp = int(rng.integers(0, delta)), int(rng.integers(0, delta))
                if geometry.points(rh, rp)[0][0] >= delta / 4:
                    hits += 1
            sigma = math.sqrt(0.25 * 0.75 / trials)
            assert hits / trials >= 0.25 - 3 * sigma


class TestDistortionReport:
    def test_contraction_never_violated(self):
        completed, sp, surv, pvs, sm = sparsified_instance(16, 16)
        emb = build_embedding(surv, pvs, sp, k=3, a=2, seed=15)
        rep = distortion_volume_report(emb, sm, sample_size=150, seed=1)
        assert rep.contraction_violations == 0
        assert rep.max_distortion >= 1.0

    def test_d_star_defaults_to_the_placements(self):
        # a metric over other points gives way to d* over the placements
        completed, sp, surv, pvs, sm = sparsified_instance(8, 8)
        emb = build_embedding(surv, pvs, sp, k=3, a=2, seed=15)
        rep = distortion_volume_report(emb, sm, sample_size=50, seed=1)
        assert rep == distortion_volume_report(emb, StarMetric(sp, pvs[1:] + pvs[:1]),
                                               sample_size=50, seed=1)
        assert rep == distortion_volume_report(emb, StarMetric(sp, pvs[:1]),
                                               sample_size=50, seed=1,
                                               dstar_matrix=sm.matrix())


# The host BFS of the embedding as written before ``graphs.bfs``, kept
# verbatim: ``_block_components`` and the exit BFS of ``DecompInstance``.


def _reference_block_components(host: Graph, block: list, cut) -> np.ndarray:
    """Host-sized array of the least id of each vertex's component in the
    graph of same-block edges with ``cut`` deleted; -1 for the vertices of
    ``cut`` and for removed vertices."""
    root = [-1] * host.n
    for s in host.vertices():
        if root[s] >= 0 or s in cut:
            continue
        root[s] = s
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in host.neighbors(u):
                if root[w] < 0 and block[w] == block[u] and w not in cut:
                    root[w] = s
                    queue.append(w)
    return np.array(root, dtype=np.int64)


def _reference_exit(host, layering, delta, r_h):
    """``(block, exit)`` lists of ``DecompInstance``."""
    live = host.vertices()
    block = [0] * host.n
    for v in live:
        block[v] = (layering.layer_of[v] - r_h) // delta
    exit_dist = [INF] * host.n
    queue = deque()
    for v in live:
        if any(block[w] != block[v] for w in host.neighbors(v)):
            exit_dist[v] = 1
            queue.append(v)
    while queue:
        u = queue.popleft()
        for w in host.neighbors(u):
            if exit_dist[w] is INF:
                exit_dist[w] = exit_dist[u] + 1
                queue.append(w)
    return block, exit_dist


class TestHostBfsMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_exit_and_trim_labels(self, data):
        n = data.draw(st.integers(1, 30))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)), max_size=2 * n))
        host = Graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
        ids = st.sets(st.integers(-2, n + 1), max_size=n // 2)
        for xs in [(), *data.draw(st.lists(ids, max_size=3))]:
            host = host.delete(xs)
            if not host.vertices():
                break
            layering = bfs_layering(host, min(host.vertices()))
            delta = 1 << data.draw(st.integers(0, 4))
            r_h = data.draw(st.integers(0, delta - 1))
            inst = DecompInstance(host, layering, delta, r_h)
            block, exit_dist = _reference_exit(host, layering, delta, r_h)
            assert inst.block.tolist() == block
            assert np.array_equal(inst.exit, np.array(exit_dist, dtype=np.float64))
            for cut in [frozenset(), *map(frozenset, data.draw(st.lists(ids, max_size=3)))]:
                assert np.array_equal(inst.trim_labels(cut),
                                      _reference_block_components(host, block, cut))
