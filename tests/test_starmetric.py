import math
from fractions import Fraction

import numpy as np
import pytest

from fanwidth import (
    Graph,
    InputError,
    ProductVertex,
    StarMetric,
    StructuredSparsifier,
    bfs_distances,
    graph_local_density,
    metric_local_density,
    minfill_decomposition,
    path_graph,
    product_sparsify,
    strong_product,
    ttree_complete,
    verify_metric_axioms,
)

from fanwidth.randomness import stream

from conftest import grid_in_product, random_connected_graph

INF = math.inf


def detour_strip():
    """StarMetric over path(5) x path(16) whose only cut, host vertex 2, is
    in strip (2, 1): its widened rows are 1..12, so rows 0 and 13 exist
    for the detour and host columns 0 and 4 are separated."""
    sp = StructuredSparsifier(path_graph(5), 16, 4, {(2, 1): frozenset({2})})
    assert sp.plus_interval(2, 1) == (1, 12)
    return StarMetric(sp, [])


class TestIntervalDetour:
    def test_exit_below(self):
        sm = detour_strip()
        assert sm.d_ij(2, 1, ProductVertex(0, 3), ProductVertex(4, 5)) == 8

    def test_step_out_and_back_low(self):
        sm = detour_strip()
        assert sm.d_ij(2, 1, ProductVertex(0, 1), ProductVertex(4, 1)) == 2

    def test_step_out_and_back_high(self):
        sm = detour_strip()
        assert sm.d_ij(2, 1, ProductVertex(0, 12), ProductVertex(4, 12)) == 2

    def test_matches_enumeration(self):
        sm = detour_strip()
        lo, hi = 1, 12
        for up in range(lo, hi + 1):
            for vp in range(lo, hi + 1):
                best = min(
                    abs(up - x) + abs(x - vp)
                    for x in (lo - 1, hi + 1)
                )
                assert sm.d_ij(2, 1, ProductVertex(0, up), ProductVertex(4, vp)) == best

    def test_rows_outside_the_strip_give_zero(self):
        sm = detour_strip()
        assert sm.d_ij(2, 1, ProductVertex(0, 0), ProductVertex(4, 3)) == 0
        assert sm.d_ij(2, 1, ProductVertex(0, 3), ProductVertex(4, 13)) == 0


def sparsified_grid(D=16, size=16):
    host, g, placements = grid_in_product(size)
    td = minfill_decomposition(host)
    completed = ttree_complete(host, td)
    sp = product_sparsify(completed, td, placements, D)
    surv = [v for v in range(g.n) if not sp.in_x(placements[v])]
    pvs = [placements[v] for v in surv]
    return completed, g, placements, sp, surv, pvs


class TestDij:
    def test_outside_strip_is_zero(self):
        completed, g, placements, sp, surv, pvs = sparsified_grid()
        sm = StarMetric(sp, pvs)
        u = pvs[0]
        i = 1
        far_j = sp.strip_of(u.p, i) + 5
        if far_j < sp.strips_at(i):
            v = pvs[-1]
            assert sm.d_ij(i, far_j, u, u) == 0

    def test_same_component_is_zero(self):
        completed, g, placements, sp, surv, pvs = sparsified_grid()
        sm = StarMetric(sp, pvs)
        assert sm.d_ij(0, sp.strip_of(pvs[0].p, 0), pvs[0], pvs[0]) == 0

    def test_strip_one_scale_two_matches_worked_numbers(self):
        # hosts at distance 4 on a path, rows 3 and 5: product distance 4,
        # detour 8, so d* = 8
        sm = detour_strip()
        u, v = ProductVertex(0, 3), ProductVertex(4, 5)
        assert sm.product_distance(u, v) == 4
        assert sm.d_ij(2, 1, u, v) == 8
        assert sm.d_star(u, v) == 8

    def test_separated_pair_detour(self):
        # hand-built: host path of 3 columns, cut the middle column at scale 2
        host = path_graph(3)
        cells = {(2, 0): frozenset({1})}
        sp = StructuredSparsifier(host, 16, 4, cells)
        sm = StarMetric(sp, [])
        u, v = ProductVertex(0, 3), ProductVertex(2, 5)
        lo, hi = sp.plus_interval(2, 0)
        assert (lo, hi) == (-3, 8)
        # exits: below through row -4 (exists, pad is -15..32), above via 9
        assert sm.d_ij(2, 0, u, v) == min((3 + 4) + (5 + 4), (9 - 3) + (9 - 5))
        assert sm.d_star(u, v) == max(2, sm.d_ij(2, 0, u, v))


class TestDStar:
    def test_identity(self):
        completed, g, placements, sp, surv, pvs = sparsified_grid()
        sm = StarMetric(sp, pvs)
        assert sm.d_star(pvs[0], pvs[0]) == 0

    def test_unseparated_pairs_equal_product_distance(self):
        # empty sparsifier: d* is exactly the product distance
        host, g, placements = grid_in_product(6)
        td = minfill_decomposition(host)
        completed = ttree_complete(host, td)
        sp = StructuredSparsifier(completed, 36, 4, {})
        sm = StarMetric(sp, placements)
        for u in placements[:8]:
            for v in placements[-8:]:
                assert sm.d_star(u, v) == sm.product_distance(u, v)

    @pytest.mark.parametrize("cut_prob", [0.02, 0.05, 0.1])
    def test_matches_the_three_strip_scan(self, cut_prob):
        # the scan as written before widened_strips: the three strips per
        # scale around u's row, each d_ij guarding its own rows
        rng = stream(5, f"test/d_star/{cut_prob}")
        sp = StructuredSparsifier(path_graph(5), 16, 4, {})
        for i in range(sp.num_scales):
            for j in range(sp.strips_at(i)):
                sp.cells[(i, j)] = frozenset(h for h in range(5) if rng.random() < cut_prob)
        pvs = [ProductVertex(h, p) for h in range(5) for p in range(1, 17)
               if not sp.in_x(ProductVertex(h, p))]
        sm = StarMetric(sp, pvs)
        separated = 0
        for u in pvs:
            for v in pvs:
                best = sm.product_distance(u, v)
                for i in range(sp.num_scales):
                    s = sp.strip_of(u.p, i)
                    best = max([best] + [sm.d_ij(i, j, u, v) for j in (s - 1, s, s + 1)])
                assert sm.d_star(u, v) == best, (u, v)
                separated += best > sm.product_distance(u, v)
        assert separated  # some pair takes a detour

    def test_matrix_is_exact_and_built_once(self):
        completed, g, placements, sp, surv, pvs = sparsified_grid(D=8, size=8)
        sm = StarMetric(sp, pvs)
        d = sm.matrix()
        assert d is sm.matrix()
        assert d == tuple(tuple(sm.d_star(u, v) for v in pvs) for u in pvs)
        assert {type(x) for row in d for x in row} == {int}

    def test_matrix_keeps_inf_between_host_components(self):
        sp = StructuredSparsifier(Graph(2, []), 1, 4, {})
        sm = StarMetric(sp, [ProductVertex(0, 1), ProductVertex(1, 1)])
        assert sm.matrix() == ((0, INF), (INF, 0))

    def test_rejects_points_in_x(self):
        completed, g, placements, sp, surv, pvs = sparsified_grid()
        removed = next(placements[v] for v in range(g.n) if sp.in_x(placements[v]))
        with pytest.raises(InputError):
            StarMetric(sp, [removed])

    def test_axioms_exhaustive(self):
        completed, g, placements, sp, surv, pvs = sparsified_grid()
        sm = StarMetric(sp, pvs)
        report = verify_metric_axioms(sm, mode="exhaustive")
        assert report.ok

    def test_axioms_sampled(self):
        completed, g, placements, sp, surv, pvs = sparsified_grid()
        sm = StarMetric(sp, pvs)
        report = verify_metric_axioms(sm, mode="sampled", sample_size=4000)
        assert report.ok

    def test_axioms_single_point(self):
        host, g, placements = grid_in_product(4)
        sp = StructuredSparsifier(host, 1, 4, {})
        sm = StarMetric(sp, [ProductVertex(0, 1)])
        assert verify_metric_axioms(sm).ok

    def test_axioms_with_empty_cuts(self):
        host, g, placements = grid_in_product(5)
        td = minfill_decomposition(host)
        completed = ttree_complete(host, td)
        sp = StructuredSparsifier(completed, len(placements), 4, {})
        sm = StarMetric(sp, placements)
        assert verify_metric_axioms(sm).ok

    def test_rejects_unknown_mode(self):
        completed, g, placements, sp, surv, pvs = sparsified_grid()
        sm = StarMetric(sp, pvs)
        with pytest.raises(InputError):
            verify_metric_axioms(sm, mode="nonsense")

    def test_sandwich_against_materialized_product(self):
        completed, g, placements, sp, surv, pvs = sparsified_grid(D=8, size=8)
        assert 0 < len(pvs) <= 150
        sm = StarMetric(sp, pvs)
        pad_lo, pad_hi = sp.pad_range()
        rows = pad_hi - pad_lo + 1
        prod, idx = strong_product(completed, path_graph(rows))
        xs = {
            idx[(h, r - pad_lo)]
            for h in range(completed.n)
            for r in range(pad_lo, pad_hi + 1)
            if sp.in_x(ProductVertex(h, r))
        }
        masked = prod.delete(xs)
        for a in range(len(pvs)):
            dist = bfs_distances(masked, idx[(pvs[a].h, pvs[a].p - pad_lo)])
            for b in range(len(pvs)):
                if a == b:
                    continue
                ds = sm.d_star(pvs[a], pvs[b])
                assert sm.product_distance(pvs[a], pvs[b]) <= ds
                assert ds <= dist[idx[(pvs[b].h, pvs[b].p - pad_lo)]]


class TestMetricLocalDensity:
    def test_single_point(self):
        assert metric_local_density([0], lambda u, v: 0) == 0

    def test_unit_metric(self):
        pts = list(range(7))
        assert metric_local_density(pts, lambda u, v: 0 if u == v else 1) == 6

    def test_density_after_sparsify_at_most_D(self):
        completed, g, placements, sp, surv, pvs = sparsified_grid(D=16)
        sm = StarMetric(sp, pvs)
        val = metric_local_density(pvs, lambda u, v: sm.d_star(u, v))
        assert val <= 16

    def test_agrees_with_graph_density(self):
        for seed in range(5):
            g = random_connected_graph(14, 0.3, seed)
            pts = g.vertices()
            dist = {v: bfs_distances(g, v) for v in pts}
            val = metric_local_density(pts, lambda u, v: dist[u][v])
            assert val == graph_local_density(g)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            metric_local_density([], lambda u, v: 0)

    @pytest.mark.parametrize("matrix, expected", [
        (np.array([[0, 2, 4], [2, 0, 2], [4, 2, 0]]), Fraction(1)),
        ([[0, Fraction(1, 3), 1], [Fraction(1, 3), 0, 1], [1, 1, 0]], Fraction(3)),
        (np.array([[0.0, 2.0], [2.0, 0.0]]), 0.5),
        ([[0, 2, 4.0], [2, 0, 2], [4.0, 2, 0]], 1.0),
    ], ids=["numpy-int", "fraction", "float", "mixed"])
    def test_exact_only_when_every_distance_is_rational(self, matrix, expected):
        val = metric_local_density(range(len(matrix)), matrix)
        assert val == expected
        assert isinstance(val, Fraction) == isinstance(expected, Fraction)

    def test_infinite_distances_ignored(self):
        d = {(0, 1): 1, (0, 2): INF, (1, 2): INF}

        def dist(u, v):
            if u == v:
                return 0
            return d[tuple(sorted((u, v)))]

        assert metric_local_density([0, 1, 2], dist) == Fraction(1)
