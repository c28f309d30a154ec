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
from .graphs import Digraph, UndirectedGraph, kmst, knn_graph, pairwise_distances, robust_graph
from .inference import GitResult, git_test, run_test
from .matrixcore import ScoreMatrix
from .moments import NullMoments, QuadrupleInputs, diagnostics, null_moments
from .scores import ScoreConfig, build_scores
from .simulate import PowerEstimate, SettingSpec, estimate_power, generate

__version__ = "0.1.0"

# the library logs warnings (a robust descent cut off by its sweep cap) on
# this logger; they reach the caller only when the caller configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "ScoreMatrix",
    "Digraph", "UndirectedGraph", "pairwise_distances", "knn_graph", "kmst", "robust_graph",
    "ScoreConfig", "build_scores",
    "QuadrupleInputs", "NullMoments", "null_moments", "diagnostics",
    "GitResult", "git_test", "run_test",
    "SettingSpec", "PowerEstimate", "generate", "estimate_power",
    "GitestError", "StructuralError", "DegenerateDataError",
]
