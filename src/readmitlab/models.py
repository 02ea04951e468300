"""The network classifier every command trains, and the CLI's table of model
kinds."""

from __future__ import annotations

import inspect

import numpy as np

from .errors import check_choice, check_count, is_real
from .nn import (ARCHITECTURES, DEFAULT_DROPOUT, Conv1d, Dropout, build_network,
                 predict_logits, softmax, train_network)
from .optim import OPTIMIZERS
from .trees import GradientBoostedClassifier, RandomForest

# the dtype NetworkClassifier builds, trains and predicts in; nn's float64
# path is the reference its gradient checks and layer oracles run on
NETWORK_DTYPE = np.float32


class NetworkClassifier:
    """Builds, trains, and applies one named network architecture.

    The three-class label encoding (0, 1, 2) is assumed, matching the output
    width of every architecture. The seed fixes both initialization and the
    shuffling/dropout stream, so fit() is fully reproducible. The network
    computes in NETWORK_DTYPE; a parameter file holds float64, which a
    float32 network widens to exactly on save and rounds from on load.

    It holds and checks every setting of the network, each as an attribute of
    its own name: an unknown architecture or optimizer, a kernel_size below
    1, a dropout rate outside [0, 1), epochs or batch_size below 1 and a
    learning_rate that is not positive fail here, before any training.
    """

    def __init__(self, arch: str = "cnn2", *, epochs: int = 10, learning_rate: float = 1e-4,
                 batch_size: int = 64, optimizer: str = "adam", kernel_size: int | None = None,
                 dropout: float = DEFAULT_DROPOUT, seed: int = 0):
        check_choice("architecture", arch, ARCHITECTURES)
        if kernel_size is not None:
            Conv1d.check_kernel(kernel_size)
        Dropout.check_rate(dropout)
        check_count("epochs", epochs, 1)
        check_count("batch_size", batch_size, 1)
        if not (is_real(learning_rate) and learning_rate > 0.0):
            raise ValueError("learning_rate must be positive")
        check_choice("optimizer", optimizer, OPTIMIZERS)
        self.arch = arch
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.optimizer = optimizer
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
                                 kernel_size=self.kernel_size, dropout=self.dropout,
                                 dtype=NETWORK_DTYPE)
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
        self.history_ = train_network(self.net, X, y, rng, epochs=self.epochs,
                                      learning_rate=self.learning_rate,
                                      batch_size=self.batch_size, optimizer=self.optimizer)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Argmax class per row; logit ties resolve to the lower class id."""
        return predict_logits(self.net, np.asarray(X, dtype=np.float64)).argmax(axis=1)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(predict_logits(self.net, np.asarray(X, dtype=np.float64)))

    def settings(self) -> dict:
        """The constructor keywords that rebuild this network:
        NetworkClassifier(**settings()).build(n_features) gives the same
        shape, initialization and training."""
        return {name: getattr(self, name) for name in inspect.signature(type(self)).parameters}


# the CLI's model kinds by name: each kind's class, whose constructor's
# keywords are the kind's settings
MODELS = {"network": NetworkClassifier, "gbm": GradientBoostedClassifier,
          "forest": RandomForest}

