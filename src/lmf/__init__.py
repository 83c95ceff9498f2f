"""Bordered block-diagonal reordering and localized matrix factorization
for sparse user-item rating matrices."""

from .bbdf import (
    AssembledBlock,
    BBDFNode,
    BBDFTree,
    abbdf_permute,
    assemble_blocks,
    balanced_permute,
    basic_bbdf_step,
    bbdf_permute,
    check_tree,
    community_tree,
    improve_density,
    permutation_from_tree,
)
from .errors import LMFError
from .evaluate import EvalReport, FoldPlan, fchr, kfold_split, rmse, run_benchmark
from .factorize import (
    FactorPair,
    FactorizerSpec,
    factorize,
    load_factors,
    objective_value,
    save_factors,
)
from .matrix import (
    IndexPermutation,
    RatingMatrix,
    SubmatrixView,
    apply_permutation,
    avg_density,
    density,
    load_ratings,
    restricted_density,
    to_bipartite,
)
from .model import LMFModel, coverage_count, lmf_fit
from .partition import BipartiteGraph, EdgePartition, VertexPartition, \
    gpes_bisect, gpvs_bisect

__version__ = "0.1.0"

__all__ = [
    "AssembledBlock", "BBDFNode", "BBDFTree", "BipartiteGraph",
    "EdgePartition", "EvalReport", "FactorPair", "FactorizerSpec",
    "FoldPlan", "IndexPermutation", "LMFError", "LMFModel", "RatingMatrix",
    "SubmatrixView", "VertexPartition",
    "abbdf_permute", "apply_permutation", "assemble_blocks", "avg_density",
    "balanced_permute", "basic_bbdf_step", "bbdf_permute", "check_tree",
    "community_tree", "coverage_count", "density", "factorize", "fchr",
    "gpes_bisect", "gpvs_bisect", "improve_density", "kfold_split",
    "lmf_fit", "load_factors", "load_ratings", "objective_value",
    "permutation_from_tree", "restricted_density", "rmse", "run_benchmark",
    "save_factors", "to_bipartite",
]
