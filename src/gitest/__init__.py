"""Graph-based generalized independence test for paired samples.

Quick start::

    import numpy as np
    from gitest import run_test

    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 20))
    y = np.log(np.abs(x))
    print(run_test(x, y).p_analytic)
"""

import logging

from .errors import DegenerateDataError, GitestError, StructuralError
from .graphs import (
    Digraph,
    UndirectedGraph,
    dump_edges,
    kmst,
    knn_graph,
    pairwise_distances,
    robust_graph,
    robust_objective,
)
from .inference import (
    GitResult,
    chi_square_cdf,
    git_test,
    permutation_test,
    run_test,
    standard_normal_cdf,
)
from .matrixcore import ScoreMatrix, center, cross_summarize, symmetrize
from .moments import (
    NullMoments,
    QuadrupleInputs,
    brute_force_moments,
    diagnostics,
    null_moments,
    t_stats,
)
from .scores import ScoreConfig, build_scores
from .simulate import (
    PowerEstimate,
    SettingSpec,
    component_power,
    estimate_power,
    generate,
    k_sweep,
)

__version__ = "0.1.0"

# the library logs warnings (a robust descent cut off by its sweep cap) on
# this logger; they reach the caller only when the caller configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "ScoreMatrix", "cross_summarize", "center", "symmetrize",
    "Digraph", "UndirectedGraph", "pairwise_distances", "knn_graph", "kmst",
    "robust_graph", "robust_objective", "dump_edges",
    "ScoreConfig", "build_scores",
    "QuadrupleInputs", "NullMoments", "t_stats",
    "null_moments", "brute_force_moments", "diagnostics",
    "GitResult", "git_test", "permutation_test", "run_test",
    "chi_square_cdf", "standard_normal_cdf",
    "SettingSpec", "PowerEstimate", "generate", "estimate_power", "k_sweep",
    "component_power",
    "GitestError", "StructuralError", "DegenerateDataError",
]
