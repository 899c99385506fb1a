"""Sparsify graphs to bounded local density, order the survivors with
volume-preserving random embeddings, and certify containment in fan blowups.

The exports of ``volumes``, ``embedding`` and ``starmetric`` load numpy, so
they are imported on first access (PEP 562): ``import fanwidth`` and the
certificate layer (parse, verify, round-trip) never load numpy."""

import importlib

from .errors import ConstraintError, DegenerateMetricError, InputError, VerificationFailure
from .graphs import (
    Graph,
    Layering,
    ProductVertex,
    all_pairs_distances,
    bandwidth_of_ordering,
    bfs_distances,
    bfs_layering,
    build_blowup,
    build_fan,
    graph_local_density,
    grid_graph,
    path_graph,
    product_distance,
    strong_product,
)
from .treedec import (
    TreeDecomposition,
    minfill_decomposition,
    separator_bag_union,
    ttree_complete,
    validate_decomposition,
    weighted_separator,
)
from .sparsify import BakerResult, StructuredSparsifier, baker_sparsify, product_sparsify
from .oracles import exact_bandwidth, exhaustive_local_density
from .pipeline import (
    Crossing,
    DrawnGraph,
    FanCertificate,
    PipelineResult,
    blowup_to_bandwidth,
    default_blowup_factor,
    fan_certificate,
    gk_reduce,
    kplanar_reduce,
    planar_pipeline,
    planarize_drawing,
    product_pipeline,
    verify_certificate,
)

# export -> defining module, for the exports resolved on first access
_LAZY = {
    "FiniteMetric": "volumes",
    "euclidean_volume": "volumes",
    "harmonic_number": "volumes",
    "ivol_sandwich": "volumes",
    "reciprocal_sum_check": "volumes",
    "tree_volume": "volumes",
    "DecompInstance": "embedding",
    "Embedding": "embedding",
    "build_embedding": "embedding",
    "project_order": "embedding",
    "StarMetric": "starmetric",
    "distortion_volume_report": "starmetric",
    "metric_local_density": "starmetric",
    "theoretical_distortion_bound": "starmetric",
    "verify_metric_axioms": "starmetric",
}

__all__ = [
    "ConstraintError", "DegenerateMetricError", "InputError", "VerificationFailure",
    "Graph", "Layering", "ProductVertex", "all_pairs_distances",
    "bandwidth_of_ordering", "bfs_distances", "bfs_layering", "build_blowup",
    "build_fan", "graph_local_density", "grid_graph", "path_graph",
    "product_distance", "strong_product",
    "TreeDecomposition", "minfill_decomposition", "separator_bag_union",
    "ttree_complete", "validate_decomposition", "weighted_separator",
    "BakerResult", "StructuredSparsifier", "baker_sparsify", "product_sparsify",
    *_LAZY,
    "exact_bandwidth", "exhaustive_local_density",
    "Crossing", "DrawnGraph", "FanCertificate", "PipelineResult",
    "blowup_to_bandwidth", "default_blowup_factor", "fan_certificate",
    "gk_reduce", "kplanar_reduce", "planar_pipeline", "planarize_drawing",
    "product_pipeline", "verify_certificate",
]

__version__ = "0.1.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
