"""Regression on ranked variables with estimation-aware covariance."""

from .formula import ParsedFormula, format_formula_error, parse_formula
from .model import (
    INFERENCE_WARNING,
    CoefficientSummary,
    DesignMatrix,
    RankRegressionFit,
    RankRegressionModel,
    build_design,
    confint,
    fit,
    summarize,
)
from .variance import (
    CorrectedCovariance,
    corrected_vcov,
    indicator_matvec,
    projection_from_inverse,
)

__all__ = [
    "ParsedFormula",
    "format_formula_error",
    "parse_formula",
    "INFERENCE_WARNING",
    "CoefficientSummary",
    "DesignMatrix",
    "RankRegressionFit",
    "RankRegressionModel",
    "build_design",
    "confint",
    "fit",
    "summarize",
    "CorrectedCovariance",
    "corrected_vcov",
    "indicator_matvec",
    "projection_from_inverse",
]
