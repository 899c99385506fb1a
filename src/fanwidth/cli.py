"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 input or usage error (one
``error:`` line; flags must be spelled in full), 3 broken internal invariant
(an ``AssertionError`` or ``RuntimeError`` raised by an invariant check).
All output files are canonical text written atomically, so reruns with
identical inputs and seeds are byte-identical.

Each function imports the modules it runs, so ``import fanwidth.cli`` loads
only this module and ``errors``, and a command loads only what it runs.
"""

import argparse
import sys

from .errors import InputError, VerificationFailure


def _parse_density(raw: str):
    import math
    from fractions import Fraction

    try:
        if "/" in raw:
            return Fraction(raw)
        if "." not in raw and "e" not in raw.lower():
            return int(raw)
        value = float(raw)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"--D {raw!r} is not an integer, fraction p/q or float")
    if not math.isfinite(value):
        raise InputError(f"--D {raw!r} is not finite")
    return value


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _embedding_args(args):
    """Parse ``--D`` in place and check the embedding flags that ``args``
    carries (``embed`` has no ``--restarts``, the reductions no ``--k``)
    with the library's own check, before any input is read."""
    from .pipeline import DEFAULT_RESTARTS, check_ordering_params

    args.D = _parse_density(args.D)
    check_ordering_params(getattr(args, "k", None), args.a,
                          getattr(args, "restarts", DEFAULT_RESTARTS), args.dims_cap)


def _params(args) -> dict:
    """The certificate's parameter echo: the flags the run used.  A run is
    exploratory exactly when it has a ``--dims-cap``."""
    out = {
        "D": str(args.D),
        "a": repr(args.a),
        "restarts": str(args.restarts),
        "mode": "certified" if args.dims_cap is None else "exploratory",
    }
    if getattr(args, "k", None) is not None:
        out["k"] = str(args.k)
    if args.dims_cap is not None:
        out["dims_cap"] = str(args.dims_cap)
    return out


def _sparsify_product(path: str, D):
    """Load a product document and run ``sparsify_product`` on it; returns
    ``(g, td, sp, placed, removed)``."""
    from . import formats
    from .pipeline import sparsify_product

    host, td, _, placements, g = formats.parse_product_input(_read(path))
    return (g, *sparsify_product(host, td, g, placements, D))


def _report_lines(pairs) -> str:
    return "\n".join(f"{key} {value}" for key, value in pairs) + "\n"


# -- subcommands -----------------------------------------------------------------


def cmd_sparsify(args) -> int:
    from . import formats
    from .graphs import bfs_layering
    from .oracles import DENSITY_LIMIT, exhaustive_local_density
    from .sparsify import baker_sparsify

    D = _parse_density(args.D)
    if args.graph:
        g = formats.parse_graph(_read(args.graph))
        if not g.num_vertices:
            raise InputError("graph has no vertices; nothing to sparsify")
        layering = bfs_layering(g, min(g.vertices()))
        baker = baker_sparsify(g, D, layering)
        removed = baker.x
        text = formats.serialize_vertex_set(removed)
        pairs = [
            ("kind", "baker"),
            ("n", g.num_vertices),
            ("m", g.num_edges),
            ("D", D),
            ("x_size", len(baker.x)),
            ("x_bound", baker.size_bound),
            ("scales", baker.num_scales),
            ("w_eff", baker.w_eff),
        ]
    else:
        g, td, sp, _, removed = _sparsify_product(args.product, D)
        removed = sorted(removed)
        text = sp.to_text()
        pairs = [
            ("kind", "product"),
            ("n", g.num_vertices),
            ("host_width", td.width),
            ("D", D),
            ("x_cylinder_size", sp.x_size()),
            ("removed_g_size", len(removed)),
            ("removed_g", " ".join(str(v) for v in removed)),
        ]
    gp = g.delete(removed)
    if 0 < gp.num_vertices <= DENSITY_LIMIT:
        density = exhaustive_local_density(gp)
        pairs.append(("density_after", formats.format_density(density)))
        pairs.append(("density_le_D", "yes" if density <= D else "no"))
    formats.write_atomic(args.out, text)
    formats.write_atomic(args.out + ".report", _report_lines(pairs))
    return 0


def cmd_embed(args) -> int:
    from . import formats
    from .embedding import build_embedding

    _embedding_args(args)
    _, _, sp, placed, removed = _sparsify_product(args.product, args.D)
    ids = [v for v in placed if v not in removed]
    if not ids:
        raise InputError("sparsifier removed every vertex; nothing to embed")
    pvs = [placed[v] for v in ids]
    emb = build_embedding(ids, pvs, sp, args.k, args.a, args.seed, args.dims_cap)
    formats.write_atomic(args.out, formats.serialize_embedding(emb))
    return 0


def _run_pipeline(args):
    from . import formats
    from .pipeline import planar_pipeline, product_pipeline

    _embedding_args(args)
    if args.graph:
        g = formats.parse_graph(_read(args.graph))
        result = planar_pipeline(g, args.D, args.seed, k=args.k, a=args.a,
                                 restarts=args.restarts, dims_cap=args.dims_cap)
    else:
        host, td, _, placements, g = formats.parse_product_input(
            _read(args.product))
        result = product_pipeline(host, td, g, placements, args.D, k=args.k,
                                  a=args.a, seed=args.seed, restarts=args.restarts,
                                  dims_cap=args.dims_cap)
    return g, result


def cmd_order(args) -> int:
    from . import formats

    g, result = _run_pipeline(args)
    pairs = [
        ("ordering", " ".join(str(v) for v in result.ordering)),
        ("bandwidth", result.bandwidth),
        ("bandwidth_median", result.bandwidth_median),
        ("x", " ".join(str(v) for v in sorted(result.x))),
    ]
    formats.write_atomic(args.out, _report_lines(pairs))
    return 0


def _certify_and_write(args, g, result) -> int:
    """Certify ``result`` at ``--b`` (default: the smallest b it allows),
    verify the certificate against ``g`` and write it to ``--out``."""
    from . import formats
    from .pipeline import default_blowup_factor, fan_certificate, verify_certificate

    b = args.b if args.b is not None else default_blowup_factor(result)
    cert = fan_certificate(g, result.x, result.ordering, b, seed=args.seed,
                           params=_params(args))
    violations = verify_certificate(g, cert)
    if violations:
        raise VerificationFailure(violations[0])
    formats.write_atomic(args.out, formats.serialize_certificate(cert))
    return 0


def cmd_certify(args) -> int:
    return _certify_and_write(args, *_run_pipeline(args))


def cmd_verify(args) -> int:
    from . import formats
    from .pipeline import verify_certificate

    cert = formats.parse_certificate(_read(args.cert))
    if args.graph:
        g = formats.parse_graph(_read(args.graph))
    else:
        g = formats.parse_product_input(_read(args.product))[-1]
    violations = verify_certificate(g, cert)
    if violations:
        for line in violations:
            print(line, file=sys.stderr)
        return 1
    # the strict check covers the one blowup_to_bandwidth makes
    bw = violations.walk[-1]
    print(f"ok: round-trip width {bw} <= 2b-1 = {2 * cert.b - 1}")
    return 0


def cmd_reduce(args) -> int:
    """``reduce-gk``, and ``reduce-kplanar`` as its genus 0: both call
    ``gk_reduce``, which checks the drawing (``kplanar_reduce`` is its
    genus-0 call)."""
    from . import formats
    from .pipeline import gk_reduce

    if args.planarizing is not None and args.genus == 0:
        raise InputError("--planarizing is used only at positive --genus")
    _embedding_args(args)
    dg = formats.parse_drawing(_read(args.drawing))
    planarizing = None
    if args.planarizing is not None:
        planarizing = formats.parse_vertex_set(_read(args.planarizing))
    result = gk_reduce(dg, args.genus, args.kk, args.D, args.seed,
                       planarizing_set=planarizing, a=args.a,
                       restarts=args.restarts, dims_cap=args.dims_cap)
    return _certify_and_write(args, dg.graph, result)


# oracle --what -> the flags it reads besides --what and --out; each is
# required unless it has a default here
_ORACLE_FLAGS = {
    "bandwidth": ("graph",),
    "density": ("graph",),
    "metric-axioms": ("product", "D", "seed"),
    "volume-sandwich": ("trials", "seed"),
    "reciprocal": ("trials", "seed"),
}
_ORACLE_DEFAULTS = {"trials": 100, "seed": 0}


def cmd_oracle(args) -> int:
    import math

    from . import formats
    from .oracles import exact_bandwidth, exhaustive_local_density

    reads = _ORACLE_FLAGS[args.what]
    for name in ("graph", "product", "D", "trials", "seed"):
        if getattr(args, name) is not None and name not in reads:
            raise InputError(f"oracle {args.what} does not read --{name}")
    for name in reads:
        if getattr(args, name) is None:
            if name not in _ORACLE_DEFAULTS:
                raise InputError(f"oracle {args.what} needs --{name}")
            setattr(args, name, _ORACLE_DEFAULTS[name])
    if "trials" in reads and args.trials < 1:
        raise InputError("--trials must be at least 1")
    lines = []
    failure = None
    if args.what in ("bandwidth", "density"):
        g = formats.parse_graph(_read(args.graph))
        if args.what == "bandwidth":
            lines.append(f"exact_bandwidth {exact_bandwidth(g)}")
        else:
            lines.append(f"exhaustive_local_density {exhaustive_local_density(g)}")
    elif args.what == "metric-axioms":
        from .starmetric import StarMetric, metric_local_density, verify_metric_axioms

        _, _, sp, placed, removed = _sparsify_product(args.product,
                                                      _parse_density(args.D))
        pvs = [pv for v, pv in placed.items() if v not in removed]
        if not pvs:
            raise InputError("sparsifier removed every vertex; no metric to check")
        sm = StarMetric(sp, pvs)
        mode = "exhaustive" if len(pvs) <= 150 else "sampled"
        rep = verify_metric_axioms(sm, mode=mode, seed=args.seed)
        lines.append(f"points {rep.points}")
        lines.append(f"mode {mode}")
        lines.append(f"pairs_checked {rep.pairs_checked}")
        lines.append(f"triples_checked {rep.triples_checked}")
        lines.append(f"violations {len(rep.violations)}")
        lines.extend(rep.violations)
        density = metric_local_density(pvs, sm.matrix())
        lines.append(f"detour_metric_density {formats.format_density(density)}")
        if rep.violations:
            failure = rep.violations[0]
    elif args.what == "volume-sandwich":
        import numpy as np

        from .randomness import stream
        from .volumes import FiniteMetric, euclidean_volume, tree_volume

        rng = stream(args.seed, "oracle/volume")
        bad = 0
        for _ in range(args.trials):
            k = int(rng.integers(2, 5))
            dim = int(rng.integers(k - 1, 7))
            pts = rng.random((k, dim)) * 10.0
            d = [[float(np.linalg.norm(pts[i] - pts[j])) for j in range(k)]
                 for i in range(k)]
            tvol = tree_volume(FiniteMetric(d))
            if euclidean_volume(pts) > tvol / math.factorial(k - 1) * (1 + 1e-9):
                bad += 1
        lines.append(f"volume_sandwich_trials {args.trials}")
        lines.append(f"violations {bad}")
    elif args.what == "reciprocal":
        import numpy as np

        from .randomness import stream
        from .starmetric import metric_local_density
        from .volumes import FiniteMetric, reciprocal_sum_check

        rng = stream(args.seed, "oracle/reciprocal")
        worst = None
        for _ in range(args.trials):
            n = int(rng.integers(3, 9))
            pts = rng.random((n, 2)) * 4.0
            d = [[float(np.linalg.norm(pts[i] - pts[j])) for j in range(n)]
                 for i in range(n)]
            m = FiniteMetric(d)
            dens = metric_local_density(list(range(n)), d)
            k = int(rng.integers(2, 5))
            lhs, rhs, ok = reciprocal_sum_check(m, dens, min(k, n))
            margin = float(rhs) - float(lhs)
            if not ok:
                raise VerificationFailure(
                    f"reciprocal sum exceeded its bound: {lhs} > {rhs}"
                )
            if worst is None or margin < worst:
                worst = margin
        lines.append(f"reciprocal_trials {args.trials}")
        lines.append(f"worst_margin {worst!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        formats.write_atomic(args.out, text)
    sys.stdout.write(text)
    if failure is not None:
        raise VerificationFailure(failure)
    return 0


# -- parser -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Every parser of the CLI: flags are spelled in full, and a usage error
    is one ``error:`` line and exit 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _add_embedding_flags(sub, k=True):
    """``--seed``, ``--D`` and the flags of the embedding; ``k=False`` for the
    reductions, whose planar pipeline always uses the default k."""
    from .pipeline import DEFAULT_A

    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--D", type=str, required=True)
    if k:
        sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--a", type=float, default=DEFAULT_A)
    sub.add_argument("--dims-cap", dest="dims_cap", type=int, default=None)


def _add_common(sub, k=True):
    """The embedding flags and ``--restarts`` of the ordering."""
    from .pipeline import DEFAULT_RESTARTS

    _add_embedding_flags(sub, k)
    sub.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fanwidth",
        description="Sparsify, order, and certify graphs into fan blowups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("sparsify", help="compute a sparsifying vertex set")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph")
    group.add_argument("--product")
    sp.add_argument("--out", required=True)
    sp.add_argument("--D", type=str, default=None, required=True)
    sp.set_defaults(func=cmd_sparsify)

    em = subs.add_parser("embed", help="dump embedding coordinates")
    em.add_argument("--product", required=True)
    em.add_argument("--out", required=True)
    # embed makes no ordering, so it takes no --restarts
    _add_embedding_flags(em)
    em.set_defaults(func=cmd_embed)

    od = subs.add_parser("order", help="compute a low-bandwidth ordering")
    group = od.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph")
    group.add_argument("--product")
    od.add_argument("--out", required=True)
    _add_common(od)
    od.set_defaults(func=cmd_order)

    ct = subs.add_parser("certify", help="produce a fan-blowup certificate")
    group = ct.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph")
    group.add_argument("--product")
    ct.add_argument("--b", type=int, default=None)
    ct.add_argument("--out", required=True)
    _add_common(ct)
    ct.set_defaults(func=cmd_certify)

    vf = subs.add_parser("verify", help="verify a certificate")
    group = vf.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph")
    group.add_argument("--product")
    vf.add_argument("--cert", required=True)
    vf.set_defaults(func=cmd_verify)

    rk = subs.add_parser("reduce-kplanar", help="reduce a k-planar drawing")
    rk.add_argument("--drawing", required=True)
    rk.add_argument("--kk", "--crossings-per-edge", dest="kk", type=int,
                    required=True)
    rk.add_argument("--b", type=int, default=None)
    rk.add_argument("--out", required=True)
    _add_common(rk, k=False)
    rk.set_defaults(func=cmd_reduce, genus=0, planarizing=None)

    rg = subs.add_parser("reduce-gk", help="reduce a genus-g drawing")
    rg.add_argument("--drawing", required=True)
    rg.add_argument("--genus", type=int, required=True)
    rg.add_argument("--kk", "--crossings-per-edge", dest="kk", type=int,
                    required=True)
    rg.add_argument("--planarizing", default=None)
    rg.add_argument("--b", type=int, default=None)
    rg.add_argument("--out", required=True)
    _add_common(rg, k=False)
    rg.set_defaults(func=cmd_reduce)

    orc = subs.add_parser("oracle", help="run brute-force oracles")
    orc.add_argument("--what", required=True, choices=tuple(_ORACLE_FLAGS))
    # None marks a flag not given: each --what rejects the ones it does not read
    orc.add_argument("--graph")
    orc.add_argument("--product")
    orc.add_argument("--D", type=str, default=None)
    orc.add_argument("--trials", type=int, default=None)
    orc.add_argument("--seed", type=int, default=None)
    orc.add_argument("--out", default=None)
    orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    # nothing on the CLI's paths calls BLAS, so numpy needs no thread pool;
    # the variable is read once, when numpy loads, and a caller's value stays
    if "numpy" not in sys.modules:
        import os
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError) as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
