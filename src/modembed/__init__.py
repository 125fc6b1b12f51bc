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

import os

# numpy's bundled OpenBLAS keeps a second worker thread spinning for
# 2^28 TSC ticks (about 0.13 s at 2.1 GHz) after every BLAS call, which
# doubles a CLI run's CPU time and, in process, halves the speed of the
# single-threaded compiled kernels.  Of 16, 20 and 24, 2^20 ticks (about
# 0.5 ms) halved the bench's multilevel-1k5 CPU time and still spans the
# gaps between the back-to-back BLAS calls of one QR, so oracle-400's
# eigs lost no wall time; at 2^4 it did.  OpenBLAS reads the variable
# once, when numpy loads it, so this must run before any import that
# loads numpy.  It changes neither the thread count nor how the work is
# split, so no output byte moves.  A value already set is kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

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
