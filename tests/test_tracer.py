"""Smoke test of the benchmark's layer tracer against the current package."""

import json
import math
import os
import pathlib
import subprocess
import sys

from fanwidth import (
    bfs_layering,
    fan_certificate,
    grid_graph,
    minfill_decomposition,
    product_sparsify,
    ttree_complete,
)
from fanwidth.embedding import _embedding_shape
from fanwidth.formats import (
    parse_certificate,
    serialize_certificate,
    serialize_graph,
    serialize_product_input,
)
from fanwidth.pipeline import verify_certificate

from conftest import grid_in_product, instance_offsets

REPO = pathlib.Path(__file__).resolve().parents[1]


def _run(tmp_path, argv, traced: bool):
    """``(summary, stdout)`` of the CLI run on ``argv``; the summary is None
    unless the run is under the tracer."""
    summary, spans = tmp_path / f"{argv[0]}.json", tmp_path / f"{argv[0]}.tsv"
    prefix = ([str(REPO / "perfbench" / "tracer.py"), str(summary), str(spans), "--"]
              if traced else ["-m", "fanwidth.cli"])
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, *prefix, *map(str, argv)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return (json.loads(summary.read_text()) if traced else None), proc.stdout


def _trace(tmp_path, command: str, out: pathlib.Path):
    """Summary of ``command`` on a 4x4 grid product, run under the tracer."""
    host, g, placements = grid_in_product(4)
    product = tmp_path / "p.txt"
    product.write_text(serialize_product_input(host, None, 4, placements, g))
    return _run(tmp_path, [command, "--product", product, "--D", "16", "--a", "1",
                           "--seed", "1", "--out", out], traced=True)[0]


def host_partitions() -> tuple[int, int]:
    """The 4x4 grid product's survivor count at ``--D 16`` and the number of
    ``DecompInstance``s its embedding builds at ``--a 1 --seed 1``: one per
    (scale, host partition) of the replayed offset streams; a host
    partition is the set of block starts in the live layers."""
    host, g, placements = grid_in_product(4)
    td = minfill_decomposition(host)
    sp = product_sparsify(ttree_complete(host, td), td, placements, 16)
    n = sum(not sp.in_x(pv) for pv in placements)
    live = sp.host.vertices()
    layer = bfs_layering(sp.host, min(live)).layer_of
    low, high = min(layer[v] for v in live), max(layer[v] for v in live)
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
    return n, len(partitions)


def test_tracer_spans_the_embedding_layers(tmp_path):
    # perfbench's per-layer metrics need DecompInstance to stay a class and
    # every traced function to keep its module binding
    result = _trace(tmp_path, "embed", tmp_path / "emb.txt")
    traced = result["spans"]
    for name in ("embedding.build_embedding", "embedding.DecompInstance"):
        assert traced.get(name, {}).get("calls", 0) >= 1, name
    n, partitions = host_partitions()
    assert result["counts"]["embedding.points"] == n
    assert traced["embedding.DecompInstance"]["calls"] == partitions


def test_traced_certify_verifies(tmp_path):
    # certify orders by projections without the coordinate matrix; under
    # the tracer it still writes a certificate that verifies, and draws the
    # same instances as embed
    cert = tmp_path / "cert.txt"
    result = _trace(tmp_path, "certify", cert)
    _, g, _ = grid_in_product(4)
    assert verify_certificate(g, parse_certificate(cert.read_text())) == []
    traced = result["spans"]
    for name in ("pipeline.product_pipeline", "randomness.stream"):
        assert traced.get(name, {}).get("calls", 0) >= 1, name
    assert traced["embedding.DecompInstance"]["calls"] == host_partitions()[1]


def test_traced_verify_records_the_certificate_layers(tmp_path):
    # verify imports no numerical layer, and the tracer still sees every
    # binding on its read and check path; verify checks the certificate once
    # and walks its blocks without blowup_to_bandwidth's second check
    g, _ = grid_graph(8, 8)
    graph, cert = tmp_path / "g.txt", tmp_path / "cert.txt"
    graph.write_text(serialize_graph(g))
    cert.write_text(serialize_certificate(fan_certificate(g, [], g.vertices(), 8)))
    argv = ["verify", "--graph", graph, "--cert", cert]
    result, traced_stdout = _run(tmp_path, argv, traced=True)
    calls = {name: row["calls"] for name, row in result["spans"].items()}
    assert calls["formats.parse_graph"] == calls["formats.parse_certificate"] == 1
    assert calls["pipeline.verify_certificate"] == 1
    assert "pipeline.blowup_to_bandwidth" not in calls
    assert traced_stdout == _run(tmp_path, argv, traced=False)[1]
    assert traced_stdout == "ok: round-trip width 8 <= 2b-1 = 15\n"
