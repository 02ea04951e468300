"""Tabular three-class readmission-style experiments: data handling,
univariate feature selection, class rebalancing, small networks and tree
ensembles trained from scratch, cross-validated evaluation, and a two-stage
cascade — all deterministic under a seed."""

from .data import (DEFAULT_CLASS_NAMES, Dataset, FoldPlan, ScalingSpec,
                   dataset_sha256, load_dataset, min_max_normalize,
                   save_dataset_csv, stratified_kfold, stratified_subsample)
from .ensemble import (CascadeClassifier, CascadeReport, binary_outer_study,
                       cascade_evaluate, cascade_fit, cross_validate_cascade,
                       load_cascade, save_cascade)
from .errors import ConfigError, DataError, NumericError
from .evaluate import (ConfusionMatrix, CvResult, FoldPipeline, MetricsReport, SweepRow,
                       cross_validate, grid_sweep, harmonic_mean, metrics)
from .features import (ClassStatsTable, FeatureScoreTable, SCORERS, Selection,
                       anova_f_scores, chi_square_scores, pearson_scores,
                       per_class_stats, select_k_best)
from .models import NetworkClassifier, make_builder
from .nn import (ARCHITECTURES, Network, TrainConfig, build_network,
                 load_network_params, save_network, softmax,
                 softmax_cross_entropy, train_network)
from .optim import OPTIMIZERS, AdaBelief, Adam, Sgd, make_optimizer
from .resample import (METHODS as RESAMPLE_METHODS, ResamplePlan, apply_plan,
                       knn, nearmiss_undersample, oversample,
                       random_undersample)
from .synth import synthetic_cohort
from .trees import (ClassificationTree, GradientBoostedClassifier,
                    RandomForest, RegressionTree)

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURES", "AdaBelief", "Adam", "CascadeClassifier", "CascadeReport",
    "ClassStatsTable", "ClassificationTree", "ConfigError", "ConfusionMatrix",
    "CvResult", "DEFAULT_CLASS_NAMES", "DataError", "Dataset",
    "FeatureScoreTable", "FoldPipeline", "FoldPlan", "GradientBoostedClassifier",
    "MetricsReport", "Network", "NetworkClassifier", "NumericError",
    "OPTIMIZERS", "RESAMPLE_METHODS", "RandomForest", "RegressionTree",
    "ResamplePlan", "SCORERS", "ScalingSpec", "Selection", "Sgd", "SweepRow", "TrainConfig",
    "anova_f_scores", "apply_plan", "binary_outer_study", "build_network",
    "cascade_evaluate", "cascade_fit", "chi_square_scores", "cross_validate",
    "cross_validate_cascade", "dataset_sha256", "grid_sweep", "harmonic_mean",
    "knn", "load_cascade", "load_dataset", "load_network_params",
    "make_builder", "make_optimizer", "metrics", "min_max_normalize",
    "nearmiss_undersample", "oversample", "pearson_scores", "per_class_stats",
    "random_undersample", "save_cascade", "save_dataset_csv", "save_network",
    "select_k_best", "softmax", "softmax_cross_entropy", "stratified_kfold",
    "stratified_subsample", "synthetic_cohort", "train_network",
]
