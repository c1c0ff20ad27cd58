"""Weakly-supervised stacked Indian Buffet Process with spatial and
factorial MRF priors: learning, inference, downstream tasks and metrics."""

from .core import (
    AppearanceModel,
    Bag,
    BagPosterior,
    ConfigError,
    CorrelationMatrix,
    DatasetError,
    DimensionMismatchError,
    EdgeIndexError,
    EmptyDatasetError,
    FormatError,
    ModelConfig,
    VocabMismatchError,
    WeakLabels,
    WsibpError,
    validate_dataset,
)
from .generative import SyntheticDataset, plant_correlation, sample_dataset
from .inference import (
    FitResult,
    StickBoundCache,
    fit,
    infer_test,
)

__all__ = [
    "AppearanceModel",
    "Bag",
    "BagPosterior",
    "ConfigError",
    "CorrelationMatrix",
    "DatasetError",
    "DimensionMismatchError",
    "EdgeIndexError",
    "EmptyDatasetError",
    "FitResult",
    "FormatError",
    "ModelConfig",
    "StickBoundCache",
    "SyntheticDataset",
    "VocabMismatchError",
    "WeakLabels",
    "WsibpError",
    "fit",
    "infer_test",
    "plant_correlation",
    "sample_dataset",
    "validate_dataset",
]
