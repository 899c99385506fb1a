import math
from fractions import Fraction

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
    ttree_complete,
)

from fanwidth.randomness import stream
from fanwidth.sparsify import _strip_weights

from conftest import column_in_product, grid_in_product


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
        for i in range(N.bit_length()):
            assert list(_strip_weights(placements, i, N)) == _reference_strip_weights(
                host, placements, i, N)


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
