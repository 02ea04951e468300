"""Decision trees grown by a histogram split search, plus boosted and bagged
ensembles.

Both tree kinds share one split search, which minimizes the summed squared
error (SSE) of a target matrix. A regression tree's target is its single
residual column. A classification tree's targets are the one-hot class
columns, whose summed SSE is n times the Gini impurity, so the same search
grows Gini CART (Breiman et al., 1984).

The search splits from per-node bin histograms (XGBoost, Chen & Guestrin,
KDD 2016; LightGBM, Ke et al., NeurIPS 2017). A fit bins each feature column
once; a boosted model does so once for all its rounds, as X is the same in
every round. A column with at most MAX_BINS distinct values gets one bin per
value, so its candidate thresholds are exactly those of an exact search.
A longer column groups consecutive values into bins of about n / MAX_BINS
rows, and never puts one value in two bins. Each split node counts its rows
and sums each target per (candidate feature, bin), and scores each threshold
from the cumulative counts and sums alone: a side's SSE is its sum of
squared targets less its squared target sums over its row count, and the
sums of squared targets cancel from the SSE reduction. When every feature
is a candidate, a split counts only its smaller child and takes the larger
one's histogram as the parent's minus the smaller's. A forest's bootstrap
duplicates are copied rows, so they are simply tied values.

Split search is deterministic: candidate thresholds lie between consecutive
bins that hold rows of the node, at the midpoint of the largest value of the
lower bin and the smallest of the upper one. The best split maximizes the
SSE reduction as computed in float64, and ties resolve to the lower feature
index, then the lower threshold. Ties are ties of the computed reductions:
splits whose exact reductions are equal can round apart, as features whose
bins sum the same rows in another order do, and then the larger computed
one wins, whatever its feature index. A split is taken only when its
reduction exceeds MIN_GAIN (1e-12) for either kind of tree. Regression trees
take a pluggable leaf-value function so the boosting stage can install
Newton-step leaf values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, check_count, is_integer, is_real
from .nn import softmax

MIN_GAIN = 1e-12  # smallest SSE reduction a split must beat
MAX_BINS = 256  # most bins a feature column is cut into


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


def _bin(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, lo, hi): the (n, p) uint8 bin of every cell of X, and the
    (p, B) smallest and largest value of each bin, B the most bins of any
    column.

    Bins are consecutive runs of a column's distinct values. A column with at
    most MAX_BINS of them gets one bin each. A longer one puts a value in bin
    floor(r * MAX_BINS / n), r the number of rows below the value, with the
    bins left empty dropped: about n / MAX_BINS rows a bin, and no value split.
    """
    n, p = X.shape
    codes = np.empty((n, p), dtype=np.uint8)
    lo, hi = np.full((2, p, MAX_BINS), np.inf)
    for j in range(p):
        values, inverse = np.unique(X[:, j], return_inverse=True)
        first = np.arange(values.size)  # each bin's first distinct value
        if values.size > MAX_BINS:  # group by the rows below each value
            counts = np.bincount(inverse)
            starts = np.diff((np.cumsum(counts) - counts) * MAX_BINS // n, prepend=-1) > 0
            first, inverse = np.flatnonzero(starts), (np.cumsum(starts) - 1)[inverse]
        codes[:, j] = inverse
        lo[j, : first.size] = values[first]
        hi[j, : first.size] = values[np.append(first[1:], values.size) - 1]
    width = int(codes.max(initial=0)) + 1
    return codes, lo[:, :width], hi[:, :width]


def _sq_sum(a: np.ndarray) -> np.ndarray:
    """Sum of a**2 over the leading (output) axis."""
    return np.einsum("m...,m...->...", a, a)


def _histogram(codes: np.ndarray, Y: np.ndarray, rows: np.ndarray,
               features: np.ndarray, n_bins: int) -> np.ndarray:
    """(m + 1, features, n_bins) histogram of `rows`: per (feature, bin) the
    row count and the sum of each of the m outputs. Each bin adds its rows in
    the order of `rows`."""
    n_features = features.size
    if n_features == codes.shape[1]:
        node_codes = codes[rows]
    else:
        node_codes = codes[rows[:, None], features]
    cells = (node_codes + np.arange(0, n_features * n_bins, n_bins)).ravel()
    size = n_features * n_bins
    hist = np.empty((Y.shape[0] + 1, size))
    hist[0] = np.bincount(cells, minlength=size)
    for j, weights in enumerate(Y[:, rows], start=1):
        hist[j] = np.bincount(cells, np.repeat(weights, n_features), minlength=size)
    return hist.reshape(-1, n_features, n_bins)


def _best_split(binned: tuple, rows: np.ndarray, hist: np.ndarray,
                features: np.ndarray, min_leaf: int):
    """(reduction, feature, threshold, left_rows, right_rows) or None.

    binned is _bin(X) and hist the node's _histogram over `features`, of m
    outputs. A candidate split falls after an occupied bin and leaves
    min_leaf rows or more on each side. A side of k rows whose outputs sum
    to S_1..S_m has SSE sum(y**2) - sum_j S_j**2 / k, so the split of the
    node's n rows reduces the SSE by
        sum_j L_j**2 / k + sum_j (T_j - L_j)**2 / (n - k) - sum_j T_j**2 / n,
    L the left side's cumulative sums and T the feature's own cumulative-sum
    end. Summing over the outputs before the division keeps one-hot targets'
    numerators exact integers. On a histogram counted from the node's rows,
    the computed reduction is within (6n + 2m + 12) * u * sum(y**2) of the
    exact one, u = 2**-53 and sum(y**2) over the node's rows and outputs:
    L and T - L are prefix and suffix sums of one cumulative sum, and each
    term is at most sum(y**2), by Cauchy-Schwarz. A handed-down histogram
    adds the rounding of its parent's and sibling's sums. The first maximum
    of the computed reductions wins, so ties go to the lower feature, then
    the lower threshold. The child row lists are a stable sort of `rows` on
    the winning feature's bin.
    """
    codes, lo, hi = binned
    n = rows.size
    cum = np.cumsum(hist, axis=2)
    sizes = cum[0]
    cells = np.flatnonzero((hist[0] > 0) & (sizes >= min_leaf) & (n - sizes >= min_leaf))
    if cells.size == 0:
        return None
    n_bins = hist.shape[2]
    total = np.take(cum[1:, :, -1], cells // n_bins, axis=1)
    at_cells = np.take(cum.reshape(hist.shape[0], -1), cells, axis=1)
    k, left = at_cells[0], at_cells[1:]
    reduction = _sq_sum(left) / k + _sq_sum(total - left) / (n - k) - _sq_sum(total) / n
    best = int(np.argmax(reduction))
    if not reduction[best] > MIN_GAIN:
        return None
    i, b = divmod(int(cells[best]), n_bins)
    f = int(features[i])
    upper = b + 1 + int(np.flatnonzero(hist[0, i, b + 1 :])[0])  # next occupied bin
    by_f = rows[np.argsort(codes[rows, f], kind="stable")]
    size = int(k[best])
    return (float(reduction[best]), f, _midpoint(float(hi[f, b]), float(lo[f, upper])),
            by_f[:size], by_f[size:])


def _grow(X: np.ndarray, binned: tuple, Y: np.ndarray, leaf_value, max_depth: float,
          min_leaf: int, pick_features) -> _Node:
    """Grow depth first, left subtree first, from binned = _bin(X).
    leaf_value(rows) gives a leaf's value; pick_features() gives the features
    scanned at each split node.

    When every feature is a candidate, a split hands its histogram down: it
    counts its smaller child and gives the larger one the difference, with
    the sums of bins the larger child leaves empty set to exactly 0. A child
    that cannot split gets none, and a pending child keeps one only when it
    holds at least B rows (B bins a column), so it spares more counting than
    it stores. Pending nodes hold disjoint rows, so the histograms they keep
    hold at most (m + 1) * n * p values, however deep the tree.
    """
    codes = binned[0]
    p, n_bins = X.shape[1], binned[1].shape[1]

    def can_split(rows: np.ndarray, depth: int) -> bool:
        y_node = Y[:, rows]
        return not (depth >= max_depth or rows.size < 2 * min_leaf
                    or np.all(y_node == y_node[:, :1]))

    # pending entries: node, rows, depth, whether it can split, histogram or None
    root, rows = _Node(), np.arange(X.shape[0])
    pending = [(root, rows, 0, can_split(rows, 0), None)]
    while pending:
        node, rows, depth, splittable, hist = pending.pop()
        split = None
        if splittable:
            features = pick_features()
            if hist is None:
                hist = _histogram(codes, Y, rows, features, n_bins)
            split = _best_split(binned, rows, hist, features, min_leaf)
        if split is None:
            node.value = leaf_value(rows)
            continue
        _, node.feature, node.threshold, left_rows, right_rows = split
        node.left, node.right = _Node(), _Node()
        children = [[child, child_rows, depth + 1, can_split(child_rows, depth + 1), None]
                    for child, child_rows in ((node.right, right_rows), (node.left, left_rows))]
        small, large = sorted(children, key=lambda c: c[1].size)
        if features.size == p and large[3] and large[1].size >= n_bins:
            small_hist = _histogram(codes, Y, small[1], features, n_bins)
            large_hist = hist - small_hist
            large_hist[:, large_hist[0] == 0] = 0.0  # no rounding residue in empty bins
            large[4] = large_hist
            if small[3] and small[1].size >= n_bins:
                small[4] = small_hist
        pending += children  # right first, so the left is grown first
    return root


def _check_tree_limits(max_depth: int | None, min_samples_leaf: int,
                       features_per_split: int | str = "all") -> float:
    """The depth limit, math.inf for None (unlimited). A depth limit other
    than None or an integer >= 0, a leaf size other than an integer >= 1 and
    a features_per_split other than "sqrt", "all" or an integer >= 1 are
    ValueErrors."""
    if max_depth is not None:
        check_count("max_depth", max_depth, 0)
    check_count("min_samples_leaf", min_samples_leaf, 1)
    if features_per_split not in ("sqrt", "all") and not (
            is_integer(features_per_split) and features_per_split >= 1):
        raise ValueError('features_per_split must be "sqrt", "all" or an integer >= 1, '
                         f"got {features_per_split!r}")
    return math.inf if max_depth is None else max_depth


class _CART:
    """The scaffolding both tree kinds share: the checked limits, the
    zero-row check, the growing and the routing of rows to leaf values."""

    def __init__(self, max_depth: int | None, min_samples_leaf: int,
                 features_per_split: int | str = "all"):
        self.max_depth = _check_tree_limits(max_depth, min_samples_leaf, features_per_split)
        self.min_samples_leaf = min_samples_leaf
        self.root: _Node | None = None

    def _pick_features(self, p: int):
        """_grow's pick_features for rows of p features: all of them."""
        every = np.arange(p)
        return lambda: every

    def _fit(self, X: np.ndarray, Y: np.ndarray, leaf_value, binned: tuple | None = None):
        """Grow root on the (m, n) target matrix Y; leaf_value(rows) gives a
        leaf's value, and binned is _bin(X) when the caller has it."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[0] == 0:
            raise DataError("cannot fit a tree on zero rows")
        pick_features = self._pick_features(X.shape[1])  # checked before the binning
        self.root = _grow(X, _bin(X) if binned is None else binned, Y, leaf_value,
                          self.max_depth, self.min_samples_leaf, pick_features)
        return self

    def _leaf_values(self, X: np.ndarray, dtype) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=dtype)
        _route(self.root, X, out, np.arange(X.shape[0]))
        return out


class RegressionTree(_CART):
    """Squared-error CART. leaf_value_fn maps the targets that reach a leaf to
    the leaf's value (default: their mean)."""

    def __init__(self, max_depth: int | None = 3, min_samples_leaf: int = 1,
                 leaf_value_fn=None):
        super().__init__(max_depth, min_samples_leaf)
        self.leaf_value_fn = leaf_value_fn or (lambda t: float(t.mean()))

    def fit(self, X: np.ndarray, y: np.ndarray, _binned: tuple | None = None,
            _fitted: np.ndarray | None = None) -> "RegressionTree":
        """_binned is _bin(X), passed by a caller that fits many trees on
        the same X. _fitted, when given, receives each training row's leaf
        value: what predict(X) would return, as every row of a leaf lies on
        its side of each threshold above it."""
        y = np.asarray(y, dtype=np.float64)

        def leaf_value(rows: np.ndarray) -> float:
            value = self.leaf_value_fn(y[rows])
            if _fitted is not None:
                _fitted[rows] = value
            return value

        return self._fit(X, y[None, :], leaf_value, _binned)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._leaf_values(X, np.float64)


class ClassificationTree(_CART):
    """Gini-impurity CART; leaves hold the majority class (ties: lower id).

    features_per_split limits the features scanned at each node: an int, the
    string "sqrt", or "all". Subsets are drawn from the rng in node order
    (left subtree first), so a seeded rng makes the tree reproducible.
    """

    def __init__(self, max_depth: int | None = None, min_samples_leaf: int = 1,
                 features_per_split: int | str = "all",
                 rng: np.random.Generator | None = None):
        super().__init__(max_depth, min_samples_leaf, features_per_split)
        self.features_per_split = features_per_split
        self.rng = rng
        self.classes_: np.ndarray | None = None

    def _pick_features(self, p: int):
        m = self.features_per_split
        if m in ("all", "sqrt"):
            m = p if m == "all" else max(1, math.isqrt(p))
        elif not 1 <= m <= p:
            raise ValueError(f"features_per_split {m} outside [1, {p}]")
        if m == p:
            return super()._pick_features(p)
        if self.rng is None:
            raise ValueError("features_per_split < n_features requires an rng")
        return lambda: np.sort(self.rng.choice(p, size=m, replace=False))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ClassificationTree":
        self.classes_, codes = np.unique(np.asarray(y), return_inverse=True)
        onehot = (np.arange(len(self.classes_))[:, None] == codes).astype(np.float64)

        def majority(rows: np.ndarray) -> int:
            return int(np.argmax(onehot[:, rows].sum(axis=1)))  # first max = lowest id

        return self._fit(X, onehot, majority)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[self._leaf_values(X, np.int64)]


class RandomForest:
    """Bagged Gini trees; the forest votes, ties go to the lower class id.

    bootstrap=False trains every tree on the full sample, so a single tree
    with features_per_split="all" degenerates to one ClassificationTree.
    """

    def __init__(self, n_trees: int = 100, max_depth: int | None = None,
                 min_samples_leaf: int = 1, features_per_split: int | str = "sqrt",
                 seed: int = 0, bootstrap: bool = True):
        check_count("n_trees", n_trees, 1)
        _check_tree_limits(max_depth, min_samples_leaf, features_per_split)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.features_per_split = features_per_split
        self.seed = seed
        self.bootstrap = bootstrap
        self.trees_: list[ClassificationTree] = []
        self.classes_: np.ndarray | None = None

    def check_width(self, n_features: int) -> None:
        """A features_per_split beyond rows of n_features values is a
        ValueError, by the rule each tree applies when it is fitted; nothing
        is drawn from the tree's generator."""
        ClassificationTree(features_per_split=self.features_per_split,
                           rng=np.random.default_rng(self.seed))._pick_features(n_features)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        # a return flag keeps np.unique from importing numpy.ma
        self.classes_ = np.unique(y, return_counts=True)[0]
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        self.trees_ = []
        for _ in range(self.n_trees):
            tree = ClassificationTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf,
                features_per_split=self.features_per_split, rng=rng,
            )
            rows = rng.integers(0, n, size=n) if self.bootstrap else slice(None)
            tree.fit(X[rows], y[rows])
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
    A round that leaves any training score non-finite aborts the fit with
    NumericError, as a non-finite network loss does.
    """

    def __init__(self, n_rounds: int = 100, learning_rate: float = 0.1,
                 max_depth: int | None = 3, min_samples_leaf: int = 1):
        check_count("n_rounds", n_rounds, 0)
        if not (is_real(learning_rate) and learning_rate > 0.0):
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
            with np.errstate(over="ignore"):  # exp(-s) = inf gives p = 0, its limit
                p = 1.0 / (1.0 + np.exp(-scores[:, 0]))
            return np.column_stack([1.0 - p, p])
        return softmax(scores)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.classes_, codes = np.unique(y, return_inverse=True)
        n_classes = len(self.classes_)
        if n_classes == 0:
            raise DataError("cannot fit boosting on zero rows")
        self.trees_ = []
        self.train_deviance_ = []
        if n_classes == 1:
            # Degenerate but legal: every prediction is the lone class.
            self.base_scores_ = np.zeros(1)
            return self
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
        binned = _bin(X)  # X is the same in every round
        fitted = np.empty(n)  # a round's tree's value of each training row
        probs = self._probabilities(scores)  # of the current scores; each round renews them
        for r in range(self.n_rounds):
            round_trees = []
            for k in range(scores.shape[1]):
                residual = onehot[:, first + k] - probs[:, first + k]
                tree = RegressionTree(self.max_depth, self.min_samples_leaf, leaf_fn)
                tree.fit(X, residual, _binned=binned, _fitted=fitted)
                with np.errstate(over="ignore", invalid="ignore"):  # checked below
                    scores[:, k] += self.learning_rate * fitted
                round_trees.append(tree)
            if not np.isfinite(scores).all():
                raise NumericError(f"non-finite boosting scores at round {r + 1}; "
                                   "reduce the learning rate")
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
                    max_depth=payload["max_depth"],
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
