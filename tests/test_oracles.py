import pytest

from fanwidth import Graph, InputError, exact_bandwidth, exhaustive_local_density, path_graph
from fanwidth.graphs import graph_local_density

from conftest import brute_force_bandwidth, random_graph


class TestExactBandwidth:
    def test_path(self):
        assert exact_bandwidth(path_graph(5)) == 1

    def test_clique(self):
        g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert exact_bandwidth(g) == 3

    def test_cycle_five(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert exact_bandwidth(g) == 2

    def test_edgeless(self):
        assert exact_bandwidth(Graph(6, [])) == 0

    def test_oversize_rejected(self):
        with pytest.raises(InputError):
            exact_bandwidth(path_graph(13))

    def test_matches_brute_force(self):
        for seed in range(25):
            g = random_graph(6, 0.4, seed)
            assert exact_bandwidth(g) == brute_force_bandwidth(g)

    def test_lower_bound_half_density(self):
        # 200 random graphs at n <= 10
        from fanwidth.randomness import stream

        rng = stream(1, "oracle/ld-vs-bw")
        for trial in range(200):
            n = int(rng.integers(2, 11))
            g = random_graph(n, float(rng.uniform(0.15, 0.6)), seed=trial)
            if g.num_edges == 0:
                continue
            assert graph_local_density(g) <= 2 * exact_bandwidth(g)

    def test_binary_tree_family_recorded(self, tmp_path):
        # bandwidth grows with size for complete binary trees even though
        # local density stays bounded; values recorded, not bounded
        rows = []
        for depth in (2, 3):
            n = 2 ** (depth + 1) - 1
            edges = [((v - 1) // 2, v) for v in range(1, n)]
            g = Graph(n, edges)
            rows.append((n, exact_bandwidth(g, max_vertices=15), graph_local_density(g)))
        out = tmp_path / "tree_bandwidths.txt"
        out.write_text("\n".join(f"{n} {bw} {ld}" for n, bw, ld in rows) + "\n")
        assert rows[0][1] <= rows[1][1]


class TestExhaustiveDensity:
    def test_cycle_seven(self):
        g = Graph(7, [(i, (i + 1) % 7) for i in range(7)])
        assert exhaustive_local_density(g) == 2

    def test_star(self):
        g = Graph(6, [(0, v) for v in range(1, 6)])
        assert exhaustive_local_density(g) == 5

    def test_oversize_rejected(self):
        with pytest.raises(InputError):
            exhaustive_local_density(Graph(5001, []))
