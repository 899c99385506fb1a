#!/usr/bin/env python3
"""fanwidth benchmark: one fresh CLI process per job, timed from outside.

Run from the repository root::

    python3 perfbench/run.py --workload planar-cut --seed 1 --seconds 40 --trace 0

Jobs run one at a time, each as ``python -m fanwidth.cli ...`` on the
sources under ``src/``; the run starts jobs while the next would be at least
half done within ``--seconds`` (at least one job of each kind).  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json.  ``--trace 1`` alternates untraced jobs with jobs
run under ``perfbench/tracer.py`` and reports the per-layer metrics.  Every
output is checked (see ``workloads.py``) outside the timed region; a job that
fails or writes a wrong output counts in ``failed`` and clears ``correct``.
Human-readable lines come first; the last line of stdout is the JSON result.
Inputs, outputs, spans and a ``result.json`` with the run environment stay
in ``.perfbench/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
RUN_LIMIT_S = 170.0  # a job still running this long after the start is killed and counted failed

END_TO_END = {
    "job_s_p50": "s",
    "cpu_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cert_b": "count",
}


def _span(name, stat):
    return lambda s: s["spans"].get(name, {}).get(stat, 0)


def _count(name):
    return lambda s: s["counts"].get(name, 0)


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


_coords = _count("embedding.build_embedding.coords")
_columns = _count("embedding.columns")

# per-layer metric -> (unit, value from one traced job's summary)
PER_LAYER = {
    "treedec.minfill_decomposition.calls": ("count", _span("treedec.minfill_decomposition", "calls")),
    "treedec.minfill_decomposition.self_s": ("s", _span("treedec.minfill_decomposition", "self_s")),
    "treedec.minfill_decomposition.vertices": ("count", _count("treedec.minfill_decomposition.vertices")),
    "treedec.weighted_separator.calls": ("count", _span("treedec.weighted_separator", "calls")),
    "treedec.weighted_separator.self_s": ("s", _span("treedec.weighted_separator", "self_s")),
    "treedec.ttree_complete.self_s": ("s", _span("treedec.ttree_complete", "self_s")),
    "sparsify.baker_sparsify.self_s": ("s", _span("sparsify.baker_sparsify", "self_s")),
    "sparsify.product_sparsify.self_s": ("s", _span("sparsify.product_sparsify", "self_s")),
    "sparsify.survivor_frac": ("ratio", _ratio(_count("embedding.points"), _count("sparsify.points_in"))),
    "starmetric.StarMetric.self_s": ("s", _span("starmetric.StarMetric", "self_s")),
    "embedding.build_embedding.self_s": ("s", _span("embedding.build_embedding", "self_s")),
    "embedding.build_embedding.coords": ("count", _coords),
    "embedding.build_embedding.coords_mb": ("MB-computed", lambda s: _coords(s) * 8 / 1e6),
    "embedding.DecompInstance.calls": ("count", _span("embedding.DecompInstance", "calls")),
    # 1 - instances built / coordinate columns (0 when nothing is embedded)
    "embedding.geometry_reuse": ("ratio", lambda s: 1.0 - _span("embedding.DecompInstance", "calls")(s) / _columns(s)
                                 if _columns(s) else 0.0),
    "randomness.stream.calls": ("count", _span("randomness.stream", "calls")),
    "randomness.stream.self_s": ("s", _span("randomness.stream", "self_s")),
    "embedding.project_order.calls": ("count", _span("embedding.project_order", "calls")),
    "embedding.project_order.self_s": ("s", _span("embedding.project_order", "self_s")),
    "graphs.bfs_layering.self_s": ("s", _span("graphs.bfs_layering", "self_s")),
    "graphs.bandwidth_of_ordering.calls": ("count", _span("graphs.bandwidth_of_ordering", "calls")),
    "graphs.bandwidth_of_ordering.self_s": ("s", _span("graphs.bandwidth_of_ordering", "self_s")),
    "pipeline.planar_pipeline.self_s": ("s", _span("pipeline.planar_pipeline", "self_s")),
    "pipeline.product_pipeline.self_s": ("s", _span("pipeline.product_pipeline", "self_s")),
    "pipeline.fan_certificate.self_s": ("s", _span("pipeline.fan_certificate", "self_s")),
    "pipeline.verify_certificate.calls": ("count", _span("pipeline.verify_certificate", "calls")),
    "pipeline.verify_certificate.self_s": ("s", _span("pipeline.verify_certificate", "self_s")),
    "pipeline.blowup_to_bandwidth.self_s": ("s", _span("pipeline.blowup_to_bandwidth", "self_s")),
    "formats.parse_graph.self_s": ("s", _span("formats.parse_graph", "self_s")),
    "formats.parse_product_input.self_s": ("s", _span("formats.parse_product_input", "self_s")),
    "formats.parse_certificate.self_s": ("s", _span("formats.parse_certificate", "self_s")),
    "formats.serialize_certificate.self_s": ("s", _span("formats.serialize_certificate", "self_s")),
    "cli.main.self_s": ("s", _span("cli.main", "self_s")),
    # job wall time minus the cli.main span and the tracer's output: interpreter and imports
    "process.startup_s": ("s", lambda s: s["wall_s"] - _span("cli.main", "total_s")(s) - s["output_s"]),
    "trace.overhead_s": ("s", None),  # median traced minus median untraced wall
}


@dataclass
class Job:
    """One finished CLI process and the check of its output."""

    index: int
    traced: bool
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    check: object
    summary: dict | None = None

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.check.ok


def run_process(argv, cwd: Path, env, deadline: float):
    """Run ``argv`` to completion; return (wall_s, cpu_s, maxrss_mb, rc, stdout)."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)  # signals reach this process even after it exits
        try:
            if not select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text(encoding="utf-8")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": git_commit(),
    }


def tail_note(values) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=1000)[round(p * 10) - 1]
            return f"p{p:g} {cut:.4f} s"
    return f"none (n={n}; p75 needs n >= 40)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fanwidth" / "cli.py").is_file():
        print(f"error: no fanwidth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # Set-up: load the package in a fresh interpreter (the first time, this
    # compiles its bytecode, which no job is then charged for), generate the
    # inputs and load the expected digests.
    wl = workloads.make(args.workload)
    setup_times = []
    for _ in range(SETUP_REPS):
        inputs = work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir()
        start = time.perf_counter()
        load = subprocess.run([sys.executable, "-c", "import fanwidth.cli"],
                              env=env, cwd=work, capture_output=True, text=True)
        if load.returncode != 0:
            print(f"error: cannot import fanwidth.cli:\n{load.stderr}", file=sys.stderr)
            return 2
        wl.setup(inputs, args.seed)
        setup_times.append(time.perf_counter() - start)

    env_info = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env_info.items()))

    cli = [sys.executable, "-m", "fanwidth.cli"]
    tracer = [sys.executable, str(HERE / "tracer.py")]
    jobs: list[Job] = []
    jobs_start = time.perf_counter()
    # Start another job while it would be at least half done by --seconds,
    # so a run lasts about --seconds on average.
    while (len(jobs) < (2 if args.trace else 1)
           or time.perf_counter() - jobs_start
           + statistics.median(j.wall for j in jobs) / 2 < args.seconds):
        if time.monotonic() >= deadline:
            break
        i = len(jobs)
        traced = bool(args.trace) and i % 2 == 1
        # a traced job repeats the variant of the untraced job before it
        variant = (args.seed + (i // 2 if args.trace else i)) % workloads.VARIANTS
        jdir = work / f"job{i}"
        jdir.mkdir()
        out = jdir / "out.txt"
        argv = wl.argv(variant, out)
        if traced:
            argv = tracer + [str(jdir / "summary.json"), str(jdir / "spans.tsv"), "--"] + argv
        else:
            argv = cli + argv
        wall, cpu, rss, rc, stdout = run_process(argv, jdir, env, deadline)
        try:
            check = wl.check(variant, out, stdout)
        except Exception as exc:  # a malformed output is a failed job, not a crashed run
            check = workloads.Check(False, None, None, f"check raised {exc!r}")
        summary = None
        if traced and rc == 0:
            with open(jdir / "summary.json", encoding="utf-8") as fh:
                summary = json.load(fh)
            summary["wall_s"] = wall
        if traced and check.digest and jobs[-1].check.digest != check.digest:
            check = workloads.Check(False, check.cert_b, check.digest,
                                    "traced output differs from untraced output")
        job = Job(i, traced, wall, cpu, rss, rc, check, summary)
        jobs.append(job)
        status = "ok" if job.ok else f"FAILED rc={rc} {check.reason}"
        print(f"job {i}{' traced' if traced else ''} wall {wall:.4f} s cpu {cpu:.4f} s "
              f"rss {rss:.1f} MB {status}")

    failed = sum(not j.ok for j in jobs)
    untraced = [j for j in jobs if not j.traced]
    if args.trace:
        metrics = layer_metrics(jobs, untraced)
    else:
        metrics = end_to_end_metrics(untraced, setup_times)
    print(f"jobs {len(jobs)} failed {failed} fail_frac {failed / len(jobs):.4f} ratio")
    if not args.trace:
        print(f"job_s tail: {tail_note([j.wall for j in untraced])}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env_info, "result": result,
                   "samples": {k: m["samples"] for k, m in metrics.items()},
                   "jobs": [{"index": j.index, "traced": j.traced, "wall_s": j.wall,
                             "cpu_s": j.cpu, "rss_mb": j.rss_mb, "rc": j.rc,
                             "ok": j.ok, "digest": j.check.digest,
                             "reason": j.check.reason} for j in jobs]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


def end_to_end_metrics(jobs: list[Job], setup_times) -> dict:
    bs = [j.check.cert_b for j in jobs if j.check.cert_b is not None]
    values = {
        "job_s_p50": (statistics.median(j.wall for j in jobs), len(jobs)),
        "cpu_s_p50": (statistics.median(j.cpu for j in jobs), len(jobs)),
        "peak_rss_mb": (max(j.rss_mb for j in jobs), len(jobs)),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "cert_b": (statistics.median(bs) if bs else 0, len(bs)),
    }
    return {k: {"value": v, "unit": END_TO_END[k], "samples": n} for k, (v, n) in values.items()}


def layer_metrics(jobs: list[Job], untraced: list[Job]) -> dict:
    traced = [j for j in jobs if j.traced]
    summaries = [j.summary for j in traced if j.summary is not None]
    out = {}
    for name, (unit, value) in PER_LAYER.items():
        if value is None:
            both = traced and untraced
            v = (statistics.median(j.wall for j in traced)
                 - statistics.median(j.wall for j in untraced)) if both else 0.0
            n = len(traced)
        else:
            v = statistics.median(value(s) for s in summaries) if summaries else 0
            n = len(summaries)
        out[name] = {"value": v, "unit": unit, "samples": n}
    top = max((k for k in out if k.endswith(".self_s")), key=lambda k: out[k]["value"])
    print(f"largest self time: {top.removesuffix('.self_s')} {out[top]['value']:.4f} s")
    return out


if __name__ == "__main__":
    sys.exit(main())
