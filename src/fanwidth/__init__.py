"""Sparsify graphs to bounded local density, order the survivors with
volume-preserving random embeddings, and certify containment in fan blowups."""

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
from .volumes import (
    FiniteMetric,
    euclidean_volume,
    harmonic_number,
    ivol_sandwich,
    reciprocal_sum_check,
    tree_volume,
)
from .embedding import (
    DecompInstance,
    Embedding,
    build_embedding,
    project_order,
)
from .starmetric import (
    StarMetric,
    distortion_volume_report,
    metric_local_density,
    theoretical_distortion_bound,
    verify_metric_axioms,
)
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

__version__ = "0.1.0"
