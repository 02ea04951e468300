"""Two-stage cascade: a network labels everything, its middle-class
predictions stand, and a binary gradient-boosting model re-decides the rest
between the two outer classes.

cross_validate_cascade runs the cascade's folds through one
evaluate.cross_validate call: each fold fits one cascade, one network and one
booster, and scores the stage-1 network, the stage-2 booster and the full
cascade from a single pass over its held-out rows. Stage 2 is thus the
cascade's own booster on the cascade's folds, scored on the outer-class rows.
The standalone binary 0-vs-2 study, with its own outer-class folds and three
sampling regimes (nearmiss, random_under, full), is also hosted here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, FoldPlan, stratified_kfold
from .errors import DataError
from .evaluate import (ConfusionMatrix, CvResult, MetricsReport, _cv_result, cross_validate,
                       metrics)
from .models import NetworkClassifier, make_builder
from .nn import load_network_params, save_network
from .resample import ResamplePlan, apply_plan
from .trees import GradientBoostedClassifier

ACCEPT_CLASS = 1
OUTER_CLASSES = (0, 2)


class CascadeClassifier:
    """Stage-1 network plus stage-2 binary booster with fixed routing.

    predict() keeps every stage-1 prediction equal to accept_class and
    replaces all others with the stage-2 decision, so the second stage never
    emits the accepted class and every row gets exactly one label.
    """

    def __init__(self, network: NetworkClassifier, booster: GradientBoostedClassifier,
                 accept_class: int = ACCEPT_CLASS,
                 outer_classes: tuple[int, int] = OUTER_CLASSES):
        self.network = network
        self.booster = booster
        self.accept_class = accept_class
        self.outer_classes = tuple(outer_classes)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "CascadeClassifier":
        y = np.asarray(y)
        present = set(int(c) for c in np.unique(y))
        needed = set(self.outer_classes) | {self.accept_class}
        if not needed <= present:
            raise DataError(f"training labels {sorted(present)} missing some of {sorted(needed)}")
        self.network.fit(X, y)
        outer_mask = np.isin(y, self.outer_classes)
        self.booster.fit(np.asarray(X, dtype=np.float64)[outer_mask], y[outer_mask])
        return self

    def predict_stages(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(stage-1 network labels, stage-2 booster labels, final cascade
        labels) of every row. The booster labels the accepted rows too; the
        final label is the stage-1 label where that is the accepted class and
        the booster's elsewhere."""
        X = np.asarray(X, dtype=np.float64)
        stage1 = self.network.predict(X)
        stage2 = self.booster.predict(X)
        return stage1, stage2, np.where(stage1 == self.accept_class, stage1, stage2)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_stages(X)[2]


def cascade_fit(train: Dataset, network_config: dict, booster_config: dict,
                resample_plan: ResamplePlan | None = None,
                seed: int = 0) -> CascadeClassifier:
    """Fit both stages on a training set, optionally resampled first.

    The booster sees the outer-class subset of the same (resampled) training
    rows, with their true labels.
    """
    if resample_plan is not None:
        train = apply_plan(train, resample_plan)
    model = CascadeClassifier(
        NetworkClassifier(seed=seed, **network_config),
        GradientBoostedClassifier(**booster_config),
    )
    return model.fit(train.features, train.labels)


@dataclass(frozen=True)
class CascadeReport:
    """Combined two-stage evaluation.

    accuracy = (stage-1 hits on the accepted class + stage-2 hits) / total.
    The combined confusion matrix keeps the stage-1 accepted row and embeds
    the stage-2 matrix in the outer rows; cells the two stages cannot account
    for stay zero, and any count inconsistency is listed in warnings rather
    than reconciled.
    """

    accuracy: float
    correct: int
    total: int
    combined: ConfusionMatrix
    report: MetricsReport
    warnings: tuple[str, ...]


def cascade_evaluate(stage1: ConfusionMatrix, stage2: ConfusionMatrix,
                     total: int | None = None,
                     claimed_accuracy_pct: float | None = None,
                     accept_class: int = ACCEPT_CLASS) -> CascadeReport:
    """Combine the confusion matrices of the two stages.

    total overrides the denominator when the source tables disagree about the
    instance count (the disagreement is then reported in warnings).
    claimed_accuracy_pct, when given, is compared against the computed value
    and annotated if it differs.
    """
    if accept_class not in stage1.class_ids:
        raise ValueError(f"accept class {accept_class} missing from stage-1 classes")
    outer = tuple(c for c in stage1.class_ids if c != accept_class)
    if set(stage2.class_ids) != set(outer):
        raise ValueError(
            f"stage-2 classes {stage2.class_ids} must be the outer classes {outer}"
        )
    pos1 = {c: i for i, c in enumerate(stage1.class_ids)}
    accept_row = stage1.counts[pos1[accept_class]]

    combined = np.zeros_like(stage1.counts)
    combined[pos1[accept_class]] = accept_row
    for i, ci in enumerate(stage2.class_ids):
        for j, cj in enumerate(stage2.class_ids):
            combined[pos1[ci], pos1[cj]] = stage2.counts[i, j]
    combined_cm = ConfusionMatrix(combined, stage1.class_ids)

    correct = int(accept_row[pos1[accept_class]]) + stage2.correct
    resolved_total = stage1.total if total is None else int(total)
    accuracy = correct / resolved_total if resolved_total else 0.0

    warnings = []
    routed = stage1.total - int(accept_row.sum())
    if stage2.total != routed:
        warnings.append(
            f"stage-2 total {stage2.total} differs from the {routed} rows "
            f"stage 1 routed past class {accept_class}"
        )
    if total is not None and total != combined_cm.total:
        warnings.append(
            f"stated total {total} differs from the combined matrix total {combined_cm.total}"
        )
    if claimed_accuracy_pct is not None:
        computed_pct = 100.0 * accuracy
        if abs(computed_pct - claimed_accuracy_pct) > 5e-3:
            warnings.append(
                f"computed accuracy {computed_pct:.2f}% differs from the "
                f"claimed {claimed_accuracy_pct:.2f}%"
            )

    base = metrics(combined_cm)
    report = replace(base, accuracy=accuracy, notes=base.notes + tuple(warnings))
    return CascadeReport(accuracy=accuracy, correct=correct, total=resolved_total,
                         combined=combined_cm, report=report,
                         warnings=tuple(warnings))


def cross_validate_cascade(data: Dataset, folds: FoldPlan, network_config: dict,
                           booster_config: dict,
                           resample_plan: ResamplePlan | None = None,
                           seed: int = 0, workers: int = 1,
                           ) -> tuple[CvResult, CvResult, CvResult]:
    """Per-fold evaluation of stage 1 alone, stage 2 alone and the full
    cascade, from one pass over identical folds.

    Each fold fits one cascade (network seed: seed + fold) on its training
    split, resampled when a plan is given, and runs its held-out rows through
    it once. Stage 1 alone is that pass's network labels. Stage 2 alone is its
    booster's labels scored on the held-out outer-class rows: the fold's
    matrix restricted to the outer classes' rows and columns, as the booster
    never predicts the accepted class. Returns (network_result,
    cascade_result, booster_result).
    """
    def fit_predict(fold: int, train: Dataset, test: Dataset) -> tuple[np.ndarray, ...]:
        return (cascade_fit(train, network_config, booster_config, seed=seed + fold)
                .predict_stages(test.features))

    network_result, stage2_result, cascade_result = cross_validate(
        data, folds, fit_predict, resample_plan=resample_plan, workers=workers)
    outer = [stage2_result.pooled_matrix.class_ids.index(c) for c in OUTER_CLASSES]
    booster_result = _cv_result(tuple(
        ConfusionMatrix(m.counts[np.ix_(outer, outer)], OUTER_CLASSES)
        for m in stage2_result.fold_matrices))
    return network_result, cascade_result, booster_result


BINARY_REGIMES = ("nearmiss", "random_under", "full")


def binary_outer_study(data: Dataset, *, seed: int, k_folds: int = 10,
                       regimes: tuple[str, ...] = BINARY_REGIMES,
                       booster_config: dict | None = None,
                       workers: int = 1) -> dict[str, CvResult]:
    """Cross-validate the outer-class binary problem under three balance
    regimes: NearMiss undersampling, random undersampling, and the full
    (imbalanced) subset. Resampling touches training folds only."""
    for regime in regimes:
        if regime not in BINARY_REGIMES:
            raise ValueError(f"unknown regime {regime!r}; expected one of {BINARY_REGIMES}")
    outer_data = data.take(np.flatnonzero(np.isin(data.labels, OUTER_CLASSES)))
    if len(outer_data.class_counts()) < 2:
        raise DataError("binary study needs both outer classes present")
    folds = stratified_kfold(outer_data.labels, k_folds, seed)
    fit_predict = make_builder("gbm", seed, **(booster_config or {}))
    results = {}
    for regime in regimes:
        plan = None if regime == "full" else ResamplePlan(method=regime, seed=seed)
        (results[regime],) = cross_validate(outer_data, folds, fit_predict,
                                            resample_plan=plan, workers=workers)
    return results


# ---------------------------------------------------------------------------
# persistence: a cascade saves as a directory


def save_cascade(model: CascadeClassifier, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if model.network.net is None:
        raise ValueError("fit the cascade before saving it")
    save_network(model.network.net, directory / "network.params")
    (directory / "booster.json").write_text(
        json.dumps(model.booster.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    meta = {
        "accept_class": model.accept_class,
        "outer_classes": list(model.outer_classes),
        "network": model.network.architecture_config(),
        "train_config": asdict(model.network.train_config),
    }
    (directory / "cascade.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )


def load_cascade(directory) -> CascadeClassifier:
    directory = Path(directory)
    try:
        meta = json.loads((directory / "cascade.json").read_text())
        booster_payload = json.loads((directory / "booster.json").read_text())
    except FileNotFoundError as exc:
        raise DataError(f"{directory}: not a cascade directory ({exc.filename} missing)")
    net_cfg = dict(meta["network"])
    n_features = int(net_cfg.pop("n_features"))
    network = NetworkClassifier(**net_cfg, **meta.get("train_config", {}))
    network.build(n_features)
    network.net.load_params(load_network_params(directory / "network.params"))
    booster = GradientBoostedClassifier.from_dict(booster_payload)
    return CascadeClassifier(network, booster,
                             accept_class=int(meta["accept_class"]),
                             outer_classes=tuple(meta["outer_classes"]))
