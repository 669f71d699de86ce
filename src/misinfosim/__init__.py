"""Measure how collaborative-filtering recommenders amplify labeled misinformation.

The package covers the full loop: load or synthesize a binary interaction
dataset with per-item misinformation labels, rebuild user profiles at exact
misinformation ratios, fit neighborhood / factorization / baseline
recommenders, score the resulting lists with exposure metrics, and drive a
closed feedback simulation or a full configuration sweep.

Only the names in the README's library section are exported here; everything
else is imported from its module, e.g. ``misinfosim.als.solve_row``.
"""

from .als import ALSConfig
from .dataset import Dataset, load_dataset
from .errors import (
    ConfigError,
    DataError,
    EmptyDatasetError,
    MisinfoSimError,
    NumericalError,
    ParseError,
    UndefinedMetricError,
)
from .metrics import aggregate_report
from .profiles import RatioSpec, build_ratio_dataset
from .recommenders import RecommenderConfig, fit_recommender
from .similarity import SimilarityKind
from .simulate import SimConfig, run_cycle, run_simulation
from .synth import SynthConfig, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "ALSConfig",
    "ConfigError",
    "DataError",
    "Dataset",
    "EmptyDatasetError",
    "MisinfoSimError",
    "NumericalError",
    "ParseError",
    "RatioSpec",
    "RecommenderConfig",
    "SimConfig",
    "SimilarityKind",
    "SynthConfig",
    "UndefinedMetricError",
    "aggregate_report",
    "build_ratio_dataset",
    "fit_recommender",
    "generate_synthetic",
    "load_dataset",
    "run_cycle",
    "run_simulation",
]
