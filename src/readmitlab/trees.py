"""Decision trees grown by exhaustive scan, plus boosted and bagged ensembles.

Both tree kinds share one split search, which minimizes the summed squared
error (SSE) of a target matrix. A regression tree's target is its single
residual column. A classification tree's targets are the one-hot class
columns, whose summed SSE is n times the Gini impurity, so the same search
grows Gini CART (Breiman et al., 1984).

Split search is deterministic: candidate thresholds are midpoints between
consecutive distinct sorted feature values, the best split maximizes the SSE
reduction, and ties resolve to the lower feature index, then the lower
threshold. A split is taken only when its reduction exceeds MIN_GAIN (1e-12)
for either kind of tree. Regression trees take a pluggable leaf-value
function so the boosting stage can install Newton-step leaf values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

MIN_GAIN = 1e-12  # smallest SSE reduction a split must beat


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float | int = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _midpoint(a: float, b: float) -> float:
    """Midpoint of two distinct floats, clamped so `x <= thr` keeps b right."""
    thr = a + 0.5 * (b - a)
    return a if thr >= b else thr


def _route(node: _Node, X: np.ndarray, out: np.ndarray, rows: np.ndarray) -> None:
    if node.is_leaf:
        out[rows] = node.value
        return
    go_left = X[rows, node.feature] <= node.threshold
    _route(node.left, X, out, rows[go_left])
    _route(node.right, X, out, rows[~go_left])


def _best_split(X: np.ndarray, Y: np.ndarray, rows: np.ndarray,
                features: np.ndarray, min_leaf: int):
    """(reduction, feature, threshold, left_rows, right_rows) or None.

    Y is the (m, n_rows) target matrix, one row per output. Each side's SSE
    is sum(Y**2) - sum_j csum_j**2 / size, summed over the outputs before the
    subtraction, so one-hot targets keep every count an exact integer.
    """
    n = rows.size
    y_node = Y[:, rows]
    sse_node = float(((y_node - y_node.mean(axis=1, keepdims=True)) ** 2).sum())
    sq = (y_node**2).sum(axis=0)
    k = np.arange(1, n)  # left sizes
    best, best_gain = None, MIN_GAIN
    for f in features:
        order = np.argsort(X[rows, f], kind="stable")
        xs = X[rows[order], f]
        valid = (xs[1:] > xs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
        if not valid.any():
            continue
        csum = np.cumsum(y_node[:, order], axis=1)
        csq = np.cumsum(sq[order])
        sse_left = csq[:-1] - (csum[:, :-1] ** 2).sum(axis=0) / k
        sse_right = ((csq[-1] - csq[:-1])
                     - ((csum[:, -1:] - csum[:, :-1]) ** 2).sum(axis=0) / (n - k))
        reduction = np.where(valid, sse_node - (sse_left + sse_right), -np.inf)
        pos = int(np.argmax(reduction))
        if reduction[pos] > best_gain:
            best_gain = float(reduction[pos])
            thr = _midpoint(float(xs[pos]), float(xs[pos + 1]))
            best = (best_gain, int(f), thr, rows[order[: pos + 1]], rows[order[pos + 1 :]])
    return best


def _grow(X: np.ndarray, Y: np.ndarray, leaf_value, max_depth: float,
          min_leaf: int, pick_features) -> _Node:
    """Grow depth first, left subtree first. leaf_value(rows) gives a leaf's
    value; pick_features() gives the features scanned at each split node."""

    def grow(rows: np.ndarray, depth: int) -> _Node:
        y_node = Y[:, rows]
        if (depth >= max_depth or rows.size < 2 * min_leaf
                or np.all(y_node == y_node[:, :1])):
            return _Node(value=leaf_value(rows))
        split = _best_split(X, Y, rows, pick_features(), min_leaf)
        if split is None:
            return _Node(value=leaf_value(rows))
        _, f, thr, left_rows, right_rows = split
        return _Node(feature=f, threshold=thr,
                     left=grow(left_rows, depth + 1),
                     right=grow(right_rows, depth + 1))

    return grow(np.arange(X.shape[0]), 0)


def _check_tree_limits(max_depth: int | None, min_samples_leaf: int) -> None:
    """A depth limit below 0 or a leaf size below 1 is a ValueError; None
    leaves the depth unlimited."""
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if min_samples_leaf < 1:
        raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")


class RegressionTree:
    """Squared-error CART. leaf_value_fn maps the targets that reach a leaf to
    the leaf's value (default: their mean)."""

    def __init__(self, max_depth: int = 3, min_samples_leaf: int = 1,
                 leaf_value_fn=None):
        _check_tree_limits(max_depth, min_samples_leaf)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.leaf_value_fn = leaf_value_fn or (lambda t: float(t.mean()))
        self.root: _Node | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] == 0:
            raise DataError("cannot fit a tree on zero rows")
        all_features = np.arange(X.shape[1])
        self.root = _grow(X, y[None, :], lambda rows: self.leaf_value_fn(y[rows]),
                          self.max_depth, self.min_samples_leaf, lambda: all_features)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0])
        _route(self.root, X, out, np.arange(X.shape[0]))
        return out


class ClassificationTree:
    """Gini-impurity CART; leaves hold the majority class (ties: lower id).

    features_per_split limits the features scanned at each node: an int, the
    string "sqrt", or "all". Subsets are drawn from the rng in node order
    (left subtree first), so a seeded rng makes the tree reproducible.
    """

    def __init__(self, max_depth: int | None = None, min_samples_leaf: int = 1,
                 features_per_split: int | str = "all",
                 rng: np.random.Generator | None = None):
        _check_tree_limits(max_depth, min_samples_leaf)
        self.max_depth = math.inf if max_depth is None else max_depth
        self.min_samples_leaf = min_samples_leaf
        self.features_per_split = features_per_split
        self.rng = rng
        self.root: _Node | None = None
        self.classes_: np.ndarray | None = None

    def _n_candidates(self, p: int) -> int:
        if self.features_per_split == "all":
            return p
        if self.features_per_split == "sqrt":
            return max(1, math.isqrt(p))
        m = int(self.features_per_split)
        if not 1 <= m <= p:
            raise ValueError(f"features_per_split {m} outside [1, {p}]")
        return m

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ClassificationTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.shape[0] == 0:
            raise DataError("cannot fit a tree on zero rows")
        self.classes_ = np.unique(y)
        codes = np.searchsorted(self.classes_, y)
        onehot = (np.arange(len(self.classes_))[:, None] == codes).astype(np.float64)
        p = X.shape[1]
        m = self._n_candidates(p)
        if m < p and self.rng is None:
            raise ValueError("features_per_split < n_features requires an rng")

        def pick_features() -> np.ndarray:
            if m == p:
                return np.arange(p)
            return np.sort(self.rng.choice(p, size=m, replace=False))

        def majority(rows: np.ndarray) -> int:
            return int(np.argmax(onehot[:, rows].sum(axis=1)))  # first max = lowest id

        self.root = _grow(X, onehot, majority, self.max_depth, self.min_samples_leaf,
                          pick_features)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.int64)
        _route(self.root, X, out, np.arange(X.shape[0]))
        return self.classes_[out]


class RandomForest:
    """Bagged Gini trees; the forest votes, ties go to the lower class id.

    bootstrap=False trains every tree on the full sample, so a single tree
    with features_per_split="all" degenerates to one ClassificationTree.
    """

    def __init__(self, n_trees: int = 100, max_depth: int | None = None,
                 min_samples_leaf: int = 1, features_per_split: int | str = "sqrt",
                 seed: int = 0, bootstrap: bool = True):
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        _check_tree_limits(max_depth, min_samples_leaf)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.features_per_split = features_per_split
        self.seed = seed
        self.bootstrap = bootstrap
        self.trees_: list[ClassificationTree] = []
        self.classes_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        self.trees_ = []
        for _ in range(self.n_trees):
            tree = ClassificationTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf,
                features_per_split=self.features_per_split, rng=rng,
            )
            if self.bootstrap:
                rows = rng.integers(0, n, size=n)
                tree.fit(X[rows], y[rows])
            else:
                tree.fit(X, y)
            self.trees_.append(tree)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        n = np.asarray(X).shape[0]
        votes = np.zeros((n, len(self.classes_)))
        for tree in self.trees_:
            votes[np.arange(n), np.searchsorted(self.classes_, tree.predict(X))] += 1.0
        return votes / len(self.trees_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


def _node_to_dict(node: _Node) -> dict:
    if node.is_leaf:
        return {"value": node.value}
    return {"feature": node.feature, "threshold": node.threshold,
            "left": _node_to_dict(node.left), "right": _node_to_dict(node.right)}


def _node_from_dict(payload: dict) -> _Node:
    if "value" in payload:
        return _Node(value=payload["value"])
    return _Node(feature=int(payload["feature"]), threshold=float(payload["threshold"]),
                 left=_node_from_dict(payload["left"]),
                 right=_node_from_dict(payload["right"]))


def _newton_leaf_factory(n_classes: int):
    """Leaf value for deviance boosting, from the residuals reaching the leaf.

    For residual r = y_onehot - p the Newton step is
    sum(r) / sum(|r| * (1 - |r|)), scaled by (K-1)/K for K > 2 classes.
    """
    scale = 1.0 if n_classes == 2 else (n_classes - 1.0) / n_classes

    def leaf(residuals: np.ndarray) -> float:
        num = residuals.sum()
        den = (np.abs(residuals) * (1.0 - np.abs(residuals))).sum()
        if den <= 0.0:
            return 0.0
        return float(scale * num / den)

    return leaf


class GradientBoostedClassifier:
    """Stagewise additive trees on the multinomial deviance.

    The model keeps S score columns: S = 1 for two classes, where the single
    column is the logit of the second class (binomial deviance), and S = K
    for K > 2 classes. Class probabilities are the sigmoid of the logit when
    S = 1 and the softmax of the K scores otherwise. Scores start at the log
    prior odds (S = 1) or the log class priors; each round fits one
    regression tree per score column to the residual (one-hot label minus
    probability) and adds learning_rate times its Newton-valued predictions.
    train_deviance_ records the mean training deviance after every round.
    """

    def __init__(self, n_rounds: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3, min_samples_leaf: int = 1):
        if n_rounds < 0:
            raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
        if not learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        _check_tree_limits(max_depth, min_samples_leaf)
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.classes_: np.ndarray | None = None
        self.base_scores_: np.ndarray | None = None
        self.trees_: list[list[RegressionTree]] = []
        self.train_deviance_: list[float] = []

    def _probabilities(self, scores: np.ndarray) -> np.ndarray:
        """Class probabilities from the score columns."""
        if len(self.classes_) == 2:
            p = 1.0 / (1.0 + np.exp(-scores[:, 0]))
            return np.column_stack([1.0 - p, p])
        shifted = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        n_classes = len(self.classes_)
        if n_classes == 0:
            raise DataError("cannot fit boosting on zero rows")
        self.trees_ = []
        self.train_deviance_ = []
        if n_classes == 1:
            # Degenerate but legal: every prediction is the lone class.
            self.base_scores_ = np.zeros(1)
            return self
        codes = np.searchsorted(self.classes_, y)
        n = X.shape[0]
        onehot = np.eye(n_classes)[codes]
        priors = onehot.mean(axis=0)
        if n_classes == 2:
            self.base_scores_ = np.log(priors[1:] / (1.0 - priors[1:]))
        else:
            self.base_scores_ = np.log(priors)
        first = n_classes - len(self.base_scores_)  # class of score column 0
        scores = np.tile(self.base_scores_, (n, 1))
        leaf_fn = _newton_leaf_factory(n_classes)
        eps = np.finfo(float).tiny
        for _ in range(self.n_rounds):
            probs = self._probabilities(scores)
            round_trees = []
            for k in range(scores.shape[1]):
                residual = onehot[:, first + k] - probs[:, first + k]
                tree = RegressionTree(self.max_depth, self.min_samples_leaf, leaf_fn)
                tree.fit(X, residual)
                scores[:, k] += self.learning_rate * tree.predict(X)
                round_trees.append(tree)
            self.trees_.append(round_trees)
            probs = self._probabilities(scores)
            self.train_deviance_.append(
                float(-np.log(probs[np.arange(n), codes] + eps).mean())
            )
        return self

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        """The (n, S) score columns."""
        X = np.asarray(X, dtype=np.float64)
        scores = np.tile(self.base_scores_, (X.shape[0], 1))
        for round_trees in self.trees_:
            for k, tree in enumerate(round_trees):
                scores[:, k] += self.learning_rate * tree.predict(X)
        return scores

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._probabilities(self.decision_scores(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of a fitted model."""
        if self.classes_ is None:
            raise ValueError("fit the model before serializing it")
        return {
            "classes": [int(c) for c in self.classes_],
            "base_scores": [float(s) for s in self.base_scores_],
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "trees": [[_node_to_dict(t.root) for t in round_trees]
                      for round_trees in self.trees_],
            "train_deviance": list(self.train_deviance_),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GradientBoostedClassifier":
        model = cls(n_rounds=len(payload["trees"]),
                    learning_rate=float(payload["learning_rate"]),
                    max_depth=int(payload["max_depth"]),
                    min_samples_leaf=int(payload["min_samples_leaf"]))
        model.classes_ = np.array(payload["classes"])
        model.base_scores_ = np.array(payload["base_scores"], dtype=np.float64)
        model.trees_ = []
        for round_payload in payload["trees"]:
            round_trees = []
            for tree_payload in round_payload:
                tree = RegressionTree(model.max_depth, model.min_samples_leaf)
                tree.root = _node_from_dict(tree_payload)
                round_trees.append(tree)
            model.trees_.append(round_trees)
        model.train_deviance_ = [float(d) for d in payload.get("train_deviance", [])]
        return model
