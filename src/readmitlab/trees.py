"""Decision trees grown by a presorted split search, plus boosted and bagged
ensembles.

Both tree kinds share one split search, which minimizes the summed squared
error (SSE) of a target matrix. A regression tree's target is its single
residual column. A classification tree's targets are the one-hot class
columns, whose summed SSE is n times the Gini impurity, so the same search
grows Gini CART (Breiman et al., 1984).

The search presorts and partitions instead of sorting at every node (SLIQ;
Mehta, Agrawal & Rissanen, EDBT 1996). A fit sorts each feature column once;
a boosted model does so once for all its rounds, as X is the same in every
round. Each split node holds its rows in every feature's order and scans all
candidate features from those, and a stable partition of that order gives
its children theirs. A forest's bootstrap duplicates are copied rows, so
they are simply tied values.

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
# (feature, position) cells a split search scans per pass, so that its
# temporaries stay in cache on large nodes
_BLOCK = 1 << 18


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


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's rows in ascending order of its values, ties in row
    order: (p, n) row indices S and the (p, n) sorted values V."""
    S = np.argsort(X.T, axis=1, kind="stable")
    return S, np.take_along_axis(X.T, S, axis=1)


def _sq_sum(a: np.ndarray) -> np.ndarray:
    """Sum of a**2 over the leading (output) axis."""
    return np.einsum("m...,m...->...", a, a)


def _reductions(Y: np.ndarray, S: np.ndarray, V: np.ndarray, sse_node: float,
                min_leaf: int) -> np.ndarray:
    """SSE reduction of every (feature, position) split of S's rows, -inf
    where the split falls between equal values or leaves a side too small.

    Each side's SSE is sum(Y**2) - sum_j csum_j**2 / size, summed over the
    outputs before the subtraction, so one-hot targets keep every count an
    exact integer. Computed in place, to keep the temporaries few.
    """
    n = S.shape[1]
    k = np.arange(1, n)  # left sizes
    csum = np.take(Y, S, axis=1)
    csq = _sq_sum(csum)
    np.cumsum(csq, axis=1, out=csq)
    np.cumsum(csum, axis=2, out=csum)
    sse_left = _sq_sum(csum[..., :-1])
    sse_left /= k
    np.subtract(csq[:, :-1], sse_left, out=sse_left)
    sse_right = _sq_sum(csum[..., -1:] - csum[..., :-1])
    sse_right /= n - k
    np.subtract(csq[:, -1:] - csq[:, :-1], sse_right, out=sse_right)
    sse_left += sse_right
    reduction = np.subtract(sse_node, sse_left, out=sse_left)
    reduction[~((V[:, 1:] > V[:, :-1]) & (k >= min_leaf) & (n - k >= min_leaf))] = -np.inf
    return reduction


def _best_split(X: np.ndarray, Y: np.ndarray, rows: np.ndarray, S: np.ndarray,
                V: np.ndarray, features: np.ndarray, min_leaf: int):
    """(reduction, feature, threshold, left_rows, right_rows) or None.

    Y is the (m, n_rows) target matrix, one row per output. S and V are the
    node's rows sorted by each feature and their sorted values (see
    _presort). Candidate features are scanned in blocks of about _BLOCK
    (feature, position) cells; the first maximum wins, so ties go to the
    lower feature, then the lower threshold. The child row lists keep the
    order of `rows` within ties, as a stable sort on the winning feature.
    """
    n = rows.size
    y_node = Y[:, rows]
    sse_node = float(((y_node - y_node.mean(axis=1, keepdims=True)) ** 2).sum())
    step = max(1, _BLOCK // n)
    best, best_gain = None, MIN_GAIN
    for start in range(0, features.size, step):
        block = features[start : start + step]
        reduction = _reductions(Y, S[block], V[block], sse_node, min_leaf)
        i, pos = divmod(int(np.argmax(reduction)), n - 1)
        if reduction[i, pos] > best_gain:
            best_gain = float(reduction[i, pos])
            f = int(block[i])
            best = (f, pos, _midpoint(float(V[f, pos]), float(V[f, pos + 1])))
    if best is None:
        return None
    f, pos, thr = best
    by_f = rows[np.argsort(X[rows, f], kind="stable")]
    return best_gain, f, thr, by_f[: pos + 1], by_f[pos + 1 :]


def _grow(X: np.ndarray, presorted: tuple[np.ndarray, np.ndarray], Y: np.ndarray,
          leaf_value, max_depth: float, min_leaf: int, pick_features) -> _Node:
    """Grow depth first, left subtree first, from presorted = _presort(X).
    leaf_value(rows) gives a leaf's value; pick_features() gives the features
    scanned at each split node.

    A child's S and V are a stable partition of its parent's, so no node
    sorts its candidate features. They are taken only for a child that can
    split, and a node lets its own go once its children's are taken. Pending
    nodes hold disjoint rows, so besides the presort the partitions alive at
    any time hold each row at most twice, however deep the tree.
    """
    p = X.shape[1]
    in_left = np.zeros(X.shape[0], dtype=bool)

    def can_split(rows: np.ndarray, depth: int) -> bool:
        y_node = Y[:, rows]
        return not (depth >= max_depth or rows.size < 2 * min_leaf
                    or np.all(y_node == y_node[:, :1]))

    def children(node: _Node, depth: int, S: np.ndarray, V: np.ndarray,
                 left_rows: np.ndarray, right_rows: np.ndarray) -> list[tuple]:
        """Pending entries for node's children, right first, so that the
        left one is grown first."""
        in_left[left_rows] = True
        goes_left = in_left[S].ravel()
        in_left[left_rows] = False
        node.left, node.right = _Node(), _Node()
        entries = []
        for child, rows, keep in ((node.right, right_rows, ~goes_left),
                                  (node.left, left_rows, goes_left)):
            sorted_rows = None
            if can_split(rows, depth + 1):
                sorted_rows = (np.compress(keep, S).reshape(p, -1),
                               np.compress(keep, V).reshape(p, -1))
            entries.append((child, rows, depth + 1, sorted_rows))
        return entries

    root, rows = _Node(), np.arange(X.shape[0])
    pending = [(root, rows, 0, presorted if can_split(rows, 0) else None)]
    while pending:
        node, rows, depth, sorted_rows = pending.pop()
        split = None
        if sorted_rows is not None:
            split = _best_split(X, Y, rows, *sorted_rows, pick_features(), min_leaf)
        if split is None:
            node.value = leaf_value(rows)
            continue
        _, node.feature, node.threshold, left_rows, right_rows = split
        pending += children(node, depth, *sorted_rows, left_rows, right_rows)
    return root


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

    def fit(self, X: np.ndarray, y: np.ndarray, _presorted: tuple | None = None
            ) -> "RegressionTree":
        """_presorted is _presort(X), passed by a caller that fits many trees
        on the same X."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] == 0:
            raise DataError("cannot fit a tree on zero rows")
        all_features = np.arange(X.shape[1])
        presorted = _presort(X) if _presorted is None else _presorted
        self.root = _grow(X, presorted, y[None, :],
                          lambda rows: self.leaf_value_fn(y[rows]),
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

        self.root = _grow(X, _presort(X), onehot, majority, self.max_depth,
                          self.min_samples_leaf, pick_features)
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
        presorted = _presort(X)  # X is the same in every round
        for _ in range(self.n_rounds):
            probs = self._probabilities(scores)
            round_trees = []
            for k in range(scores.shape[1]):
                residual = onehot[:, first + k] - probs[:, first + k]
                tree = RegressionTree(self.max_depth, self.min_samples_leaf, leaf_fn)
                tree.fit(X, residual, _presorted=presorted)
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
