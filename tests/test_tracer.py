"""Smoke test of the benchmark's layer tracer against the current package."""

import json
import math
import os
import pathlib
import subprocess
import sys

from fanwidth import bfs_layering, minfill_decomposition, product_sparsify, ttree_complete
from fanwidth.embedding import _embedding_shape
from fanwidth.formats import serialize_product_input

from conftest import grid_in_product, instance_offsets

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_spans_the_embedding_layers(tmp_path):
    # perfbench's per-layer metrics need DecompInstance to stay a class and
    # every traced function to keep its module binding
    host, g, placements = grid_in_product(4)
    product = tmp_path / "p.txt"
    product.write_text(serialize_product_input(host, None, 4, placements, g))
    summary, spans = tmp_path / "summary.json", tmp_path / "spans.tsv"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "tracer.py"), str(summary),
         str(spans), "--", "certify", "--product", str(product), "--D", "16",
         "--a", "1", "--seed", "1", "--out", str(tmp_path / "cert.txt")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(summary.read_text())
    traced = result["spans"]
    for name in ("embedding.build_embedding", "embedding.DecompInstance",
                 "randomness.stream"):
        assert traced.get(name, {}).get("calls", 0) >= 1, name
    # one DecompInstance per (scale, host partition) of the replayed offset
    # streams; a host partition is the set of block starts in the live layers
    td = minfill_decomposition(host)
    sp = product_sparsify(ttree_complete(host, td), td, placements, 16)
    live = sp.host.vertices()
    layer = bfs_layering(sp.host, min(live)).layer_of
    low, high = min(layer[v] for v in live), max(layer[v] for v in live)
    n = int(result["counts"]["embedding.points"])
    scales, reps = _embedding_shape(n, max(2, math.ceil(math.log2(n))), 1)
    partitions = set()
    for i in range(scales):
        for jr in range(1, reps + 1):
            r_h = instance_offsets(1, i, jr)[0]
            starts = frozenset(l for l in range(low + 1, high + 1)
                               if (l - r_h) % (1 << i) == 0)
            partitions.add((i, starts))
    host_offsets = {(i, instance_offsets(1, i, jr)[0])
                    for i in range(scales) for jr in range(1, reps + 1)}
    assert len(partitions) < len(host_offsets)  # the collapse is not vacuous
    assert traced["embedding.DecompInstance"]["calls"] == len(partitions)
