import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanwidth import (
    DegenerateMetricError,
    FiniteMetric,
    InputError,
    euclidean_volume,
    harmonic_number,
    ivol_sandwich,
    reciprocal_sum_check,
    tree_volume,
)
from fanwidth.randomness import stream
from fanwidth.starmetric import metric_local_density
from fanwidth.volumes import mst_edge_weights


def metric_from_points(pts):
    pts = np.asarray(pts, dtype=float)
    k = len(pts)
    return FiniteMetric(
        [[float(np.linalg.norm(pts[i] - pts[j])) for j in range(k)] for i in range(k)]
    )


class TestFiniteMetric:
    def test_rejects_asymmetry(self):
        with pytest.raises(InputError):
            FiniteMetric([[0, 1], [2, 0]])

    def test_rejects_triangle_violation(self):
        with pytest.raises(InputError):
            FiniteMetric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_submetric(self):
        m = FiniteMetric([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        sub = m.submetric([0, 2])
        assert sub.d == [[0, 2], [2, 0]]


class TestTreeVolume:
    def test_two_points(self):
        assert tree_volume(FiniteMetric([[0, 5], [5, 0]])) == 5

    def test_three_points_uses_mst(self):
        m = FiniteMetric([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        # spanning trees have weights {1,2}, {1,3}, {2,3}; the MST gives 2
        assert tree_volume(m) == 2

    def test_four_unit_points(self):
        m = FiniteMetric([[0 if i == j else 1 for j in range(4)] for i in range(4)])
        assert tree_volume(m) == 1

    def test_single_point(self):
        assert tree_volume(FiniteMetric([[0]])) == 1

    def test_coincident_points_flagged(self):
        with pytest.raises(DegenerateMetricError):
            tree_volume(FiniteMetric([[0, 0], [0, 0]]))

    def test_matches_spanning_tree_enumeration(self):
        rng = stream(3, "tvol-enum")
        for _ in range(20):
            pts = rng.random((4, 3)) * 5
            m = metric_from_points(pts)
            best = None
            # all 16 labeled spanning trees on 4 vertices via Prufer codes
            for code in itertools.product(range(4), repeat=2):
                degree = [1] * 4
                for c in code:
                    degree[c] += 1
                prufer = list(code)
                edges = []
                avail = [v for v in range(4)]
                deg = degree[:]
                for c in prufer:
                    leaf = min(v for v in avail if deg[v] == 1)
                    edges.append((leaf, c))
                    avail.remove(leaf)
                    deg[c] -= 1
                edges.append(tuple(sorted(avail)))
                weight = math.prod(m.d[u][v] for u, v in edges)
                best = weight if best is None else min(best, weight)
            assert math.isclose(tree_volume(m), best, rel_tol=1e-9)

    @given(st.integers(0, 200), st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_scale_covariance_and_permutation_invariance(self, seed, num, den):
        rng = stream(seed, "tvol-scale")
        k = 4
        base = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                base[i][j] = base[j][i] = Fraction(int(rng.integers(1, 9)), 1)
        # force the triangle inequality by flattening to a near-uniform metric
        hi = max(base[i][j] for i in range(k) for j in range(i + 1, k))
        for i in range(k):
            for j in range(k):
                if i != j:
                    base[i][j] = base[i][j] / hi + 1
        m = FiniteMetric(base)
        s = Fraction(num, den)
        scaled = FiniteMetric([[d * s for d in row] for row in base])
        assert tree_volume(scaled) == tree_volume(m) * s ** (k - 1)
        perm = list(rng.permutation(k))
        shuffled = FiniteMetric([[base[perm[i]][perm[j]] for j in range(k)] for i in range(k)])
        assert tree_volume(shuffled) == tree_volume(m)


class TestEuclideanVolume:
    def test_unit_right_triangle(self):
        assert math.isclose(euclidean_volume([(0, 0), (1, 0), (0, 1)]), 0.5)

    def test_segment_length(self):
        assert math.isclose(euclidean_volume([(0, 0), (2, 0)]), 2.0)

    def test_collinear_degenerate(self):
        assert euclidean_volume([(0, 0), (1, 1), (2, 2)]) == 0.0

    def test_rejects_too_many_points(self):
        with pytest.raises(InputError):
            euclidean_volume([(0,), (1,), (2,)])

    def test_rigid_motion_invariance(self):
        rng = stream(11, "rigid")
        for _ in range(25):
            k = int(rng.integers(2, 5))
            dim = int(rng.integers(k - 1, 5))
            pts = rng.random((k, dim)) * 3
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            moved = pts @ q + rng.random(dim)
            assert math.isclose(
                euclidean_volume(pts), euclidean_volume(moved),
                rel_tol=1e-9, abs_tol=1e-9,
            )

    def test_tetrahedron(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert math.isclose(euclidean_volume(pts), 1 / 6)


class TestIvolSandwich:
    def test_two_points(self):
        m = FiniteMetric([[0, 5], [5, 0]])
        assert ivol_sandwich(m) == (5.0, 5.0)

    def test_three_points(self):
        m = FiniteMetric([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        lower, upper = ivol_sandwich(m)
        assert math.isclose(upper, 1.0)
        assert math.isclose(lower, 1.0 / math.sqrt(2))

    def test_four_points(self):
        m = FiniteMetric([[0 if i == j else 1 for j in range(4)] for i in range(4)])
        # tvol = 1 over 3! = 6, halved again by 2^(2/2)
        lower, upper = ivol_sandwich(m)
        assert math.isclose(upper, 1 / 6)
        assert math.isclose(lower, 1 / 12)

    def test_embedded_volume_below_upper_bound(self):
        rng = stream(5, "sandwich-fuzz")
        for _ in range(60):
            k = int(rng.integers(2, 5))
            dim = int(rng.integers(k - 1, 7))
            pts = rng.random((k, dim)) * 4
            m = metric_from_points(pts)
            try:
                tvol = tree_volume(m)
            except DegenerateMetricError:
                continue
            assert euclidean_volume(pts) <= tvol / math.factorial(k - 1) * (1 + 1e-9)


class TestReciprocalSum:
    def test_two_points(self):
        m = FiniteMetric([[0, 1], [1, 0]])
        lhs, rhs, ok = reciprocal_sum_check(m, 1, 2)
        assert lhs == 1
        assert rhs == Fraction(3, 2)
        assert ok

    def test_unit_triangle(self):
        m = FiniteMetric([[0 if i == j else 1 for j in range(3)] for i in range(3)])
        lhs, rhs, ok = reciprocal_sum_check(m, 2, 2)
        assert lhs == 3
        assert rhs == Fraction(11, 2)
        assert ok

    def test_path_metric_pairs(self):
        # one point per distance: the per-point bound is close to tight
        n = 8
        m = FiniteMetric([[abs(i - j) for j in range(n)] for i in range(n)])
        dens = metric_local_density(list(range(n)), m.d)
        lhs, rhs, ok = reciprocal_sum_check(m, dens, 2)
        assert ok

    def test_numpy_integer_distances_stay_exact(self):
        # the exactness rule of graphs.ball_density: numpy integers are
        # rational, and they are turned into Fractions before any division
        m = FiniteMetric(np.abs(np.arange(4)[:, None] - np.arange(4)[None, :]))
        density = metric_local_density(range(4), m.d)
        assert density == 2 and isinstance(density, Fraction)
        lhs, rhs, ok = reciprocal_sum_check(m, density, 2)
        assert (lhs, rhs, ok) == (Fraction(13, 3), Fraction(25, 3), True)
        assert type(lhs) is type(rhs) is Fraction and ok is True
        assert reciprocal_sum_check(m, np.int64(2), 2)[:2] == (lhs, rhs)

    def test_numpy_integer_tree_volumes_do_not_overflow(self):
        # a triple's tree volume here is 2^64, past the int64 range
        path = np.abs(np.arange(4)[:, None] - np.arange(4)[None, :])
        big = FiniteMetric(path * np.int64(2**32))
        exact = FiniteMetric((path * 2**32).tolist())
        density = Fraction(2, 2**32)
        assert reciprocal_sum_check(big, density, 3) == reciprocal_sum_check(exact, density, 3)

    def test_rejects_oversize(self):
        n = 15
        m = FiniteMetric([[abs(i - j) for j in range(n)] for i in range(n)])
        with pytest.raises(InputError):
            reciprocal_sum_check(m, 1, 2)

    def test_singleton_subsets_are_tight(self):
        # k=1 reduces to n <= n, so the non-strict comparison is exact there
        n = 6
        m = FiniteMetric([[abs(i - j) for j in range(n)] for i in range(n)])
        lhs, rhs, ok = reciprocal_sum_check(m, 2, 1)
        assert lhs == rhs == n
        assert ok

    def test_per_point_bound(self):
        # sum over y of 1/d(x,y) stays below density * H_n, all n <= 14
        rng = stream(9, "per-point")
        for _ in range(40):
            n = int(rng.integers(2, 15))
            pts = rng.random((n, 2)) * 3
            try:
                m = metric_from_points(pts)
                tree_volume(m)
            except DegenerateMetricError:
                continue
            dens = metric_local_density(list(range(n)), m.d)
            hn = float(harmonic_number(n))
            for x in range(n):
                reciprocal = sum(1.0 / m.d[x][y] for y in range(n) if y != x)
                assert reciprocal < float(dens) * hn + 1e-9


class TestMst:
    def test_weights_sorted_multiset_stable(self):
        m = FiniteMetric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert sorted(mst_edge_weights(m)) == [1, 1]
