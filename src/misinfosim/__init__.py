"""Measure how collaborative-filtering recommenders amplify labeled misinformation.

The package covers the full loop: load or synthesize a binary interaction
dataset with per-item misinformation labels, rebuild user profiles at exact
misinformation ratios, fit neighborhood / factorization / baseline
recommenders, score the resulting lists with exposure metrics, and drive a
closed feedback simulation or a full configuration sweep.
"""

from .als import ALSConfig, FactorModel, fit_als, objective, solve_row
from .dataset import (
    Dataset,
    DatasetStats,
    ItemLabel,
    ValidationReport,
    compute_stats,
    load_dataset,
    save_dataset,
    stats_csv,
    validate_dataset,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyDatasetError,
    MisinfoSimError,
    NumericalError,
    ParseError,
    UndefinedMetricError,
)
from .experiment import (
    AggregateRow,
    ExperimentConfig,
    ResultRow,
    aggregate_levels,
    config_from_row,
    emit_aggregate,
    emit_report,
    knn_grid,
    mf_grid,
    run_grid,
    typical_grid,
)
from .metrics import (
    MetricReport,
    aggregate_report,
    misinformation_count,
    misinformation_gini,
    misinformation_ratio_difference,
)
from .profiles import (
    ProfileCounts,
    RatioSpec,
    UserProfile,
    build_ratio_dataset,
    generate_profile,
    profile_of,
    resolve_profile_counts,
)
from .recommenders import (
    RecommendationList,
    Recommender,
    RecommenderConfig,
    build_recommender,
    fit_recommender,
)
from .seeds import derive_seed, substream
from .similarity import SimilarityKind, neighborhood_matrix, similarity
from .simulate import CycleReport, SimConfig, run_cycle, run_simulation
from .synth import SynthConfig, generate_synthetic, provenance_text

__version__ = "0.1.0"

__all__ = [
    "ALSConfig",
    "AggregateRow",
    "ConfigError",
    "CycleReport",
    "DataError",
    "Dataset",
    "DatasetStats",
    "EmptyDatasetError",
    "ExperimentConfig",
    "FactorModel",
    "ItemLabel",
    "MetricReport",
    "MisinfoSimError",
    "NumericalError",
    "ParseError",
    "ProfileCounts",
    "RatioSpec",
    "RecommendationList",
    "Recommender",
    "RecommenderConfig",
    "ResultRow",
    "SimConfig",
    "SimilarityKind",
    "SynthConfig",
    "UndefinedMetricError",
    "UserProfile",
    "ValidationReport",
    "aggregate_levels",
    "aggregate_report",
    "build_ratio_dataset",
    "build_recommender",
    "compute_stats",
    "config_from_row",
    "derive_seed",
    "emit_aggregate",
    "emit_report",
    "fit_als",
    "fit_recommender",
    "generate_profile",
    "generate_synthetic",
    "knn_grid",
    "load_dataset",
    "mf_grid",
    "misinformation_count",
    "misinformation_gini",
    "misinformation_ratio_difference",
    "neighborhood_matrix",
    "objective",
    "profile_of",
    "provenance_text",
    "resolve_profile_counts",
    "run_cycle",
    "run_grid",
    "run_simulation",
    "save_dataset",
    "similarity",
    "solve_row",
    "stats_csv",
    "substream",
    "typical_grid",
    "validate_dataset",
]
