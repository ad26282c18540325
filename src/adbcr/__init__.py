"""Counterfactual regression via adversarial distribution balancing."""

__version__ = "0.1.0"

from .autodiff import Adam, ParamSet, Tape, Tensor
from .baselines import DanncrModel, LassoModel, danncr_train, fit_lasso, fit_lasso_on_dataset
from .data import Dataset, DgpConfig, generate, load_csv, save_csv, split, strip_outcomes
from .errors import (AdbcrError, BatchCompositionError, CheckpointError, ConfigError,
                     DatasetError, DimensionError, DomainError, ParseError,
                     SearchError, TrainingError)
from .evaluation import (MetricsReport, SearchResult, SearchSpace, ate_error,
                         evaluate_model, nn_pehe, pehe, search, select_by_nn_pehe,
                         standard_reports)
from .model import AdbcrModel, Scalers, load_model
from .objectives import BatchView
from .trainer import TrainConfig, TrainResult, train

__all__ = [
    "Adam", "AdbcrError", "AdbcrModel", "BatchCompositionError", "BatchView",
    "CheckpointError", "ConfigError", "DanncrModel", "Dataset", "DatasetError",
    "DgpConfig", "DimensionError", "DomainError", "LassoModel", "MetricsReport",
    "ParamSet", "ParseError", "Scalers", "SearchError", "SearchResult",
    "SearchSpace", "Tape", "Tensor", "TrainConfig", "TrainResult",
    "TrainingError", "ate_error", "danncr_train", "evaluate_model",
    "fit_lasso", "fit_lasso_on_dataset", "generate", "load_csv",
    "load_model", "nn_pehe", "pehe", "save_csv", "search",
    "select_by_nn_pehe", "split", "standard_reports", "strip_outcomes",
    "train",
]
