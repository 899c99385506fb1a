"""Run one ``fanwidth`` CLI command with spans around the layer functions.

Usage::

    python3 perfbench/tracer.py SUMMARY.json SPANS.tsv -- <fanwidth cli args>

The package under ``src/`` must be importable (``PYTHONPATH=src``).  Before
the command runs, each function in ``TARGETS`` is replaced, at every module
binding of the ``fanwidth`` package, by a wrapper that records a span; the
classes in ``CTORS`` get the wrapper on ``__init__``.  Spans are kept in
memory and written out when the command returns: the raw spans to SPANS.tsv
(``name parent start_ns end_ns``, parent -1 for a root), and per-name calls,
total and self time, the layer counters and the time spent writing them
(``output_s``) to SUMMARY.json.  A span's self time is its duration minus
the time its child spans cover.  The program's own files are not changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, function) pairs wrapped by name.
TARGETS = [
    ("cli", "main"),
    ("formats", "parse_graph"),
    ("formats", "parse_product_input"),
    ("formats", "parse_certificate"),
    ("formats", "serialize_certificate"),
    ("graphs", "bfs_layering"),
    ("graphs", "bandwidth_of_ordering"),
    ("treedec", "minfill_decomposition"),
    ("treedec", "weighted_separator"),
    ("treedec", "ttree_complete"),
    ("sparsify", "baker_sparsify"),
    ("sparsify", "product_sparsify"),
    ("embedding", "build_embedding"),
    ("embedding", "project_order"),
    ("randomness", "stream"),
    ("pipeline", "planar_pipeline"),
    ("pipeline", "product_pipeline"),
    ("pipeline", "fan_certificate"),
    ("pipeline", "verify_certificate"),
    ("pipeline", "blowup_to_bandwidth"),
]

# (module, class) pairs whose constructor is wrapped.
CTORS = [
    ("embedding", "DecompInstance"),
    ("starmetric", "StarMetric"),
]


class Recorder:
    """Spans of one process, kept in memory; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name_id, parent, start_ns, end_ns]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def wrap(self, name: str, fn, on_return=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name_id, stack[-1] if stack else -1, clock(), 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def count(self, name: str, value: float):
        self.counts[name] = self.counts.get(name, 0) + value

    def summary(self) -> dict:
        cover = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                cover[parent] += end - start
        out: dict = {}
        for (name_id, _, start, end), covered in zip(self.spans, cover):
            row = out.setdefault(self.names[name_id],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - covered) / 1e9
        return {"spans": out, "counts": self.counts}

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tparent\tstart_ns\tend_ns\n")
            fh.writelines(f"{self.names[n]}\t{p}\t{s}\t{e}\n"
                          for n, p, s, e in self.spans)


def _counters(rec: Recorder) -> dict:
    """Hooks that add layer counters from a wrapped call's arguments/result."""

    def minfill(args, td):
        rec.count("treedec.minfill_decomposition.vertices", args[0].num_vertices)

    def baker(args, result):
        rec.count("sparsify.points_in", args[0].num_vertices)

    def product(args, sp):
        rec.count("sparsify.points_in", sp.n_points)

    def embedding(args, emb):
        n, columns = emb.coords.shape
        rec.count("embedding.points", n)
        rec.count("embedding.columns", columns)
        rec.count("embedding.build_embedding.coords", n * columns)

    return {
        "treedec.minfill_decomposition": minfill,
        "sparsify.baker_sparsify": baker,
        "sparsify.product_sparsify": product,
        "embedding.build_embedding": embedding,
    }


def install(rec: Recorder):
    """Wrap every target at each ``fanwidth`` module binding of it."""
    modules = {short: importlib.import_module(f"fanwidth.{short}")
               for short in {m for m, _ in TARGETS + CTORS}}
    package = [m for key, m in sys.modules.items()
               if key == "fanwidth" or key.startswith("fanwidth.")]
    hooks = _counters(rec)
    for short, attr in TARGETS:
        original = getattr(modules[short], attr)
        name = f"{short}.{attr}"
        wrapper = rec.wrap(name, original, hooks.get(name))
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for short, attr in CTORS:
        cls = getattr(modules[short], attr)
        cls.__init__ = rec.wrap(f"{short}.{attr}", cls.__init__)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SUMMARY.json SPANS.tsv -- <fanwidth args>",
              file=sys.stderr)
        return 2
    summary_path, spans_path, cli_args = argv[0], argv[1], argv[3:]
    import fanwidth.cli

    rec = Recorder()
    install(rec)
    try:
        return fanwidth.cli.main(cli_args)
    finally:
        start = time.perf_counter()
        rec.write_spans(spans_path)
        summary = rec.summary()
        summary["output_s"] = time.perf_counter() - start
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
