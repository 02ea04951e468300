"""Uniform fit/predict adapters so the CV harness can drive any model kind."""

from __future__ import annotations

import numpy as np

from .evaluate import FitPredict, one_model
from .nn import (DEFAULT_DROPOUT, Conv1d, Dropout, TrainConfig, build_network,
                 check_architecture, predict_classes, predict_logits, softmax,
                 train_network)
from .trees import GradientBoostedClassifier, RandomForest


class NetworkClassifier:
    """Builds, trains, and applies one named network architecture.

    The three-class label encoding (0, 1, 2) is assumed, matching the output
    width of every architecture. The seed fixes both initialization and the
    shuffling/dropout stream, so fit() is fully reproducible. An unknown
    architecture or optimizer, a kernel_size below 1 or a dropout rate
    outside [0, 1) fails here, before any training, with its layer's check.
    """

    def __init__(self, arch: str = "cnn2", *, epochs: int = TrainConfig.epochs,
                 learning_rate: float = TrainConfig.learning_rate,
                 batch_size: int = TrainConfig.batch_size,
                 optimizer: str = TrainConfig.optimizer, kernel_size: int | None = None,
                 dropout: float = DEFAULT_DROPOUT, seed: int = 0):
        check_architecture(arch)
        if kernel_size is not None:
            Conv1d.check_kernel(kernel_size)
        Dropout.check_rate(dropout)
        self.arch = arch
        self.train_config = TrainConfig(epochs=epochs, learning_rate=learning_rate,
                                        batch_size=batch_size, optimizer=optimizer)
        self.kernel_size = kernel_size
        self.dropout = dropout
        self.seed = seed
        self.net = None
        self.n_features_: int | None = None
        self.history_: list[float] = []

    def _build(self, n_features: int) -> np.random.Generator:
        """Construct the untrained network; returns the seeded generator,
        which training continues after the initialization draws."""
        rng = np.random.default_rng(self.seed)
        self.net = build_network(self.arch, n_features, rng=rng,
                                 kernel_size=self.kernel_size, dropout=self.dropout)
        self.n_features_ = n_features
        return rng

    def build(self, n_features: int) -> "NetworkClassifier":
        """Construct the untrained network (fit() does this automatically)."""
        self._build(n_features)
        return self

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NetworkClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if y.min() < 0 or y.max() > 2:
            raise ValueError("network heads are three-way; labels must be 0, 1, or 2")
        rng = self._build(X.shape[1])
        self.history_ = train_network(self.net, X, y, self.train_config, rng)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict_classes(self.net, np.asarray(X, dtype=np.float64))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(predict_logits(self.net, np.asarray(X, dtype=np.float64)))

    def architecture_config(self) -> dict:
        """Everything needed to rebuild the same network shape."""
        return {"arch": self.arch, "n_features": self.n_features_,
                "kernel_size": self.kernel_size, "dropout": self.dropout,
                "seed": self.seed}


# each model kind's class; its constructor's keywords are the kind's settings
MODELS = {"network": NetworkClassifier, "gbm": GradientBoostedClassifier,
          "forest": RandomForest}
MODEL_KINDS = tuple(MODELS)


def make_builder(kind: str, seed: int, **kwargs) -> FitPredict:
    """Return the fit_predict of cross_validate for one model kind: a fresh
    model per fold, seeded with seed + fold where the model is stochastic."""
    if kind == "network":
        return one_model(lambda fold: NetworkClassifier(seed=seed + fold, **kwargs))
    if kind == "gbm":
        return one_model(lambda fold: GradientBoostedClassifier(**kwargs))
    if kind == "forest":
        return one_model(lambda fold: RandomForest(seed=seed + fold, **kwargs))
    raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
