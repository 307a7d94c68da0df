"""Tensor calculus on Brinkmann charts.

Exact (jet-based) curvature and covariant derivatives in the partly null
frame of a Brinkmann chart, a brute-force coordinate oracle, symmetry
classification of Lorentzian metrics with a parallel lightlike field,
Ricci-block decomposition, canonical plane-wave reconstruction and
transport experiments.
"""

from .chart import ChartPoint, MetricDefinitenessError, MetricSpec
from .classify import (EisenhartSplit, SampleStack, SymmetryReport, algebra_lemma_probe,
                       check_theorem_redu, eisenhart_split, evaluate_samples,
                       extract_A_tilde, sample_points, symmetry_order)
from .canonical import CanonicalForm, FlatBlockData, reconstruct
from .curvature import curvature_at
from .oracle import assemble_coordinate_metric, coordinate_curvature, frame_blocks_from_oracle
from .spaces import (ChartChange, CwParams, apply_chart_change, fixture, make_cw,
                     make_product, random_polynomial_spec)

__version__ = "0.1.0"

__all__ = [
    "ChartPoint", "MetricSpec", "MetricDefinitenessError",
    "curvature_at",
    "assemble_coordinate_metric", "coordinate_curvature", "frame_blocks_from_oracle",
    "CwParams", "ChartChange", "make_cw", "make_product", "apply_chart_change",
    "fixture", "random_polynomial_spec",
    "SymmetryReport", "EisenhartSplit", "symmetry_order", "check_theorem_redu",
    "extract_A_tilde", "eisenhart_split", "algebra_lemma_probe", "sample_points",
    "evaluate_samples", "SampleStack",
    "CanonicalForm", "FlatBlockData", "reconstruct",
    "__version__",
]
