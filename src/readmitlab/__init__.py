"""Tabular three-class readmission-style experiments: data handling,
univariate feature selection, class rebalancing, small networks and tree
ensembles trained from scratch, cross-validated evaluation, and a two-stage
cascade — all deterministic under a seed."""

from types import ModuleType as _ModuleType

from .data import (DEFAULT_CLASS_NAMES, Dataset, FoldPlan, ScalingSpec,
                   dataset_sha256, load_dataset, min_max_normalize,
                   save_dataset_csv, stratified_kfold, stratified_subsample)
from .ensemble import (CascadeClassifier, CascadeReport, binary_outer_study,
                       cascade_evaluate, cascade_fit, cross_validate_cascade,
                       load_cascade, save_cascade)
from .errors import ConfigError, DataError, NumericError
from .evaluate import (ConfusionMatrix, CvResult, FoldPipeline, MetricsReport, cross_validate,
                       grid_sweep, harmonic_mean, metrics, one_model)
from .features import (ClassStatsTable, FeatureScoreTable, SCORERS, Selection,
                       anova_f_scores, chi_square_scores, pearson_scores,
                       per_class_stats, select_k_best)
from .models import NetworkClassifier
from .nn import (ARCHITECTURES, Network, build_network, load_network_params,
                 save_network, softmax, softmax_cross_entropy, train_network)
from .optim import OPTIMIZERS, AdaBelief, Adam, Sgd, make_optimizer
from .resample import (METHODS as RESAMPLE_METHODS, ResamplePlan, apply_plan,
                       knn, oversample)
from .synth import synthetic_cohort
from .trees import (ClassificationTree, GradientBoostedClassifier,
                    RandomForest, RegressionTree)

__version__ = "0.1.0"

# every public name imported above; the submodules are not names of the package's API
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
