"""Randomized end-to-end soak: every contract the construction relies on,
checked on small random product instances with materialized ground truth."""

import numpy as np
import pytest

from fanwidth import (
    Graph,
    ProductVertex,
    StarMetric,
    bandwidth_of_ordering,
    bfs_distances,
    blowup_to_bandwidth,
    build_embedding,
    default_blowup_factor,
    fan_certificate,
    metric_local_density,
    minfill_decomposition,
    path_graph,
    product_pipeline,
    product_sparsify,
    strong_product,
    ttree_complete,
    verify_certificate,
    verify_metric_axioms,
)
from fanwidth.embedding import DecompInstance
from fanwidth.randomness import stream

from conftest import assert_component_diameters, random_connected_graph, scale_geometry


def random_product_instance(seed):
    """Random host, random injective placements, random product-legal edges."""
    rng = stream(seed, "soak/instance")
    hn = int(rng.integers(2, 8))
    host = random_connected_graph(hn, 0.35, seed=seed + 500)
    rows = int(rng.integers(3, 12))
    cells = [(h, p) for h in range(hn) for p in range(1, rows + 1)]
    take = int(rng.integers(max(4, len(cells) // 3), len(cells) + 1))
    chosen = sorted(rng.choice(len(cells), size=take, replace=False))
    placements = [ProductVertex(*cells[t]) for t in chosen]
    n = len(placements)
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            pa, pb = placements[a], placements[b]
            gap = abs(pa.p - pb.p)
            legal = (pa.h == pb.h and gap == 1) or (
                host.has_edge(pa.h, pb.h) and gap <= 1
            )
            if legal and rng.random() < 0.75:
                edges.append((a, b))
    g = Graph(n, edges)
    return host, g, placements


@pytest.mark.parametrize("seed", range(20))
def test_full_chain_on_random_instance(seed):
    host, g, placements = random_product_instance(seed)
    td = minfill_decomposition(host)
    completed = ttree_complete(host, td)
    rng = stream(seed, "soak/params")
    # columns denser than 2^(i-1) D are always cut, so bias toward densities
    # the instances survive; one low value keeps the vacuous path covered
    D = int(rng.choice([8, 8, 16, 4]))

    sp = product_sparsify(completed, td, placements, D)
    surv = [v for v in range(g.n) if not sp.in_x(placements[v])]
    if not surv:
        return  # everything cut; density holds vacuously
    pvs = [placements[v] for v in surv]
    sm = StarMetric(sp, pvs)

    # metric axioms and local density under the detour metric
    assert verify_metric_axioms(sm).ok
    assert metric_local_density(pvs, lambda u, v: sm.d_star(u, v)) <= D

    # sandwich against the materialized padded product
    pad_lo, pad_hi = sp.pad_range()
    prod, idx = strong_product(completed, path_graph(pad_hi - pad_lo + 1))
    cut = {
        idx[(h, r - pad_lo)]
        for h in completed.vertices()
        for r in range(pad_lo, pad_hi + 1)
        if sp.in_x(ProductVertex(h, r))
    }
    masked = prod.delete(cut)
    dstar = np.zeros((len(pvs), len(pvs)))
    for a in range(len(pvs)):
        dist = bfs_distances(masked, idx[(pvs[a].h, pvs[a].p - pad_lo)])
        for b in range(len(pvs)):
            if a == b:
                continue
            ds = sm.d_star(pvs[a], pvs[b])
            dstar[a, b] = ds
            assert sm.product_distance(pvs[a], pvs[b]) <= ds
            assert ds <= dist[idx[(pvs[b].h, pvs[b].p - pad_lo)]]

    # embedding contracts and respects the per-coordinate bound
    if len(surv) >= 2:
        emb = build_embedding(surv, pvs, sp, k=2, a=1.5, seed=seed)
        scaled = emb.scaled()
        for a in range(len(pvs)):
            d2 = np.linalg.norm(scaled - scaled[a], axis=1)
            assert (d2 <= dstar[a] * (1 + 1e-9) + 1e-12).all()
            gap = np.abs(emb.coords - emb.coords[a]).max(axis=1)
            assert (gap <= 2 * dstar[a] + 1e-9).all()

        # block and trimmed component diameters at two random scales
        for delta in (2, 4):
            prng = stream(seed, f"soak/diam/{delta}")
            rh, rp = int(prng.integers(0, delta)), int(prng.integers(0, delta))
            geometry = scale_geometry(completed, sp, delta, pvs)
            _, a_cell, b_cell, jroot = geometry.points(rh, rp)
            inst = DecompInstance(completed, geometry.layering, delta, rh)
            root = inst.trim_labels(frozenset())
            assert_component_diameters(
                (a_cell, b_cell, root[geometry.hosts]),
                lambda s, t: sm.product_distance(pvs[s], pvs[t]), 2 * delta + 1)
            assert_component_diameters(
                (a_cell, b_cell, jroot), lambda s, t: dstar[s, t], 5 * delta)

    # pipeline, certificate, verification, round trip; the pipeline compresses
    # empty rows first, so its cut may differ from the raw-placement run
    res = product_pipeline(host, td, g, placements, D, seed=seed, a=1.5,
                           k=2, restarts=2)
    assert sorted(res.ordering) == sorted(set(range(g.n)) - res.x)
    if res.ordering:
        assert bandwidth_of_ordering(g.delete(res.x), res.ordering) == res.bandwidth
    cert = fan_certificate(g, res.x, res.ordering, default_blowup_factor(res))
    assert verify_certificate(g, cert) == []
    x2, ordering2, bw2 = blowup_to_bandwidth(g, cert)
    assert bw2 <= 2 * cert.b - 1
