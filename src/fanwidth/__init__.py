"""Sparsify graphs to bounded local density, order the survivors with
volume-preserving random embeddings, and certify containment in fan blowups.

Every export is imported on first access (PEP 562), so ``import fanwidth``
loads no submodule, and a name loads only its defining module and what that
imports: the certificate layer (parse, verify, round-trip) never loads numpy,
which the exports of ``volumes``, ``embedding`` and ``starmetric`` do."""

import importlib

# defining module -> its exports, in export order
_EXPORTS = {
    "errors": ("ConstraintError", "DegenerateMetricError", "InputError",
               "VerificationFailure"),
    "graphs": ("Graph", "Layering", "ProductVertex", "all_pairs_distances",
               "bandwidth_of_ordering", "bfs_distances", "bfs_layering", "build_blowup",
               "build_fan", "graph_local_density", "grid_graph", "path_graph",
               "product_distance", "strong_product"),
    "treedec": ("TreeDecomposition", "minfill_decomposition", "separator_bag_union",
                "ttree_complete", "validate_decomposition", "weighted_separator"),
    "sparsify": ("BakerResult", "StructuredSparsifier", "baker_sparsify",
                 "product_sparsify"),
    "volumes": ("FiniteMetric", "euclidean_volume", "harmonic_number", "ivol_sandwich",
                "reciprocal_sum_check", "tree_volume"),
    "embedding": ("DecompInstance", "Embedding", "build_embedding", "project_order"),
    "starmetric": ("StarMetric", "distortion_volume_report", "metric_local_density",
                   "theoretical_distortion_bound", "verify_metric_axioms"),
    "oracles": ("exact_bandwidth", "exhaustive_local_density"),
    "pipeline": ("Crossing", "DrawnGraph", "FanCertificate", "PipelineResult",
                 "blowup_to_bandwidth", "default_blowup_factor", "fan_certificate",
                 "gk_reduce", "kplanar_reduce", "planar_pipeline", "planarize_drawing",
                 "product_pipeline", "verify_certificate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
