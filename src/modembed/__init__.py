"""Sparse-graph embeddings from modularity-matrix trace maximization.

A graph (or any similarity structure) becomes a symmetric pair
distribution; its covariance - the modularity matrix - is kept implicit
as sparse-plus-rank-one.  Sequential softmax updates climb the trace
objective to a soft clustering, a thin QR turns cluster columns into an
orthonormal embedding, pooling repeats the process over supernodes, and
a unit-sphere variant produces free-dimension embeddings.  A dense
spectral oracle checks the iterative results against eigenvector
alignment bounds.
"""

from .graph import (
    SampledGraph,
    ModularityMatrix,
    from_edge_list,
    from_similarity,
    from_bivariate,
    load_edge_list,
    save_edge_list,
)
from .clustering import (
    ClusterConfig,
    SoftAssignment,
    ClusterResult,
    init_assignment,
    softmax_update,
    sweep,
    run,
    hard_labels,
    HARD_THETA,
)
from .embedding import (
    EmbeddingMatrix,
    CafeResult,
    LayerResult,
    prune_zero_columns,
    qr_embed,
    cafe_embed,
    coarsen,
    multilayer_embed,
    save_embedding_tsv,
    load_embedding_tsv,
)
from .sphere import (
    SphereConfig,
    SphereResult,
    init_sphere,
    sphere_update,
    sphere_sweep,
    run_sphere,
    sphere_embed,
)
from .spectral import (
    Spectrum,
    AlignmentReport,
    ConvergenceError,
    eigendecompose,
    cosine,
    alignment_bounds,
    projection_residual,
)

__version__ = "0.1.0"
