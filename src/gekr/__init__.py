"""Lower bounds, verification, and randomized construction of binary
arrays with the generalized EKR triple-coverage property."""

from .bounds import (
    AsymptoticProfile,
    asymptotic_profile,
    fixed_deficiency_prob,
    floor_rows,
    lll_max_rows,
    nu,
    p_fixed_exact,
    p_independent,
    sigma1,
    sigma2,
    zeta,
)
from .construct import (
    ConstructionConfig,
    ConstructionResult,
    Strategy,
    greedy_extend,
    moser_tardos,
    rejection,
    sample_rows,
)
from .core import (
    GEKR,
    ArrayMatrix,
    DeficiencyReport,
    LogMagnitude,
    Model,
    ModelParams,
    Pattern,
    PatternSet,
    pack_row,
    parse_alpha,
    parse_array,
    render_magnitude,
)
from .exact import MaxFamilyResult, enumerate_missing_prob, max_family, witness_matrix
from .optimize import FigureTable, argmin_independent, argmin_mu, figure_data
from .verify import find_deficient, find_deficient_naive, is_gekr

__version__ = "0.1.0"

__all__ = [
    "ArrayMatrix",
    "AsymptoticProfile",
    "ConstructionConfig",
    "ConstructionResult",
    "DeficiencyReport",
    "FigureTable",
    "GEKR",
    "LogMagnitude",
    "MaxFamilyResult",
    "Model",
    "ModelParams",
    "Pattern",
    "PatternSet",
    "Strategy",
    "argmin_independent",
    "argmin_mu",
    "asymptotic_profile",
    "enumerate_missing_prob",
    "figure_data",
    "find_deficient",
    "find_deficient_naive",
    "fixed_deficiency_prob",
    "floor_rows",
    "greedy_extend",
    "is_gekr",
    "lll_max_rows",
    "max_family",
    "moser_tardos",
    "nu",
    "p_fixed_exact",
    "p_independent",
    "pack_row",
    "parse_alpha",
    "parse_array",
    "rejection",
    "render_magnitude",
    "sample_rows",
    "sigma1",
    "sigma2",
    "witness_matrix",
    "zeta",
]
