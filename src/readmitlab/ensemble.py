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

Routing is fixed: ACCEPT_CLASS is the class whose stage-1 labels stand, and
OUTER_CLASSES the two the booster decides between. save_cascade writes a
fitted cascade as a directory of three files: network.params (the network's
weights, in nn.save_network's .npy record), booster.json (the booster's
trees) and cascade.json (the network's constructor settings, the width of
its rows, and the data.ScalingSpec that maps raw rows to the rows it was
fitted on). load_cascade rebuilds both stages and that spec from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, FoldPlan, ScalingSpec, stratified_kfold
from .errors import DataError, check_choice, check_count, json_object
from .evaluate import (ConfusionMatrix, CvResult, FoldPipeline, MetricsReport, cross_validate,
                       metrics, one_model)
from .models import NetworkClassifier
from .nn import load_network_params, save_network
from .resample import ResamplePlan
from .trees import GradientBoostedClassifier

ACCEPT_CLASS = 1
OUTER_CLASSES = (0, 2)


class CascadeClassifier:
    """Stage-1 network plus stage-2 binary booster with fixed routing.

    predict() keeps every stage-1 prediction equal to ACCEPT_CLASS and
    replaces all others with the stage-2 decision, a booster fitted on the
    OUTER_CLASSES rows, so the second stage never emits the accepted class
    and every row gets exactly one label.
    """

    def __init__(self, network: NetworkClassifier, booster: GradientBoostedClassifier):
        self.network = network
        self.booster = booster

    def fit(self, X: np.ndarray, y: np.ndarray) -> "CascadeClassifier":
        y = np.asarray(y)
        # a return flag keeps np.unique from importing numpy.ma
        present = set(int(c) for c in np.unique(y, return_counts=True)[0])
        needed = set(OUTER_CLASSES) | {ACCEPT_CLASS}
        if not needed <= present:
            raise DataError(f"training labels {sorted(present)} missing some of {sorted(needed)}")
        self.network.fit(X, y)
        outer_mask = np.isin(y, OUTER_CLASSES)
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
        return stage1, stage2, np.where(stage1 == ACCEPT_CLASS, stage1, stage2)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_stages(X)[2]


def cascade_fit(train: Dataset, network_config: dict, booster_config: dict,
                seed: int = 0) -> CascadeClassifier:
    """Fit both stages on a training set; `seed` seeds the network.

    The booster sees the outer-class subset of the same training rows, with
    their true labels.
    """
    model = CascadeClassifier(
        NetworkClassifier(seed=seed, **network_config),
        GradientBoostedClassifier(**booster_config),
    )
    return model.fit(train.features, train.labels)


@dataclass(frozen=True)
class CascadeReport:
    """Combined two-stage evaluation.

    accuracy = (stage-1 hits on the accepted class + stage-2 hits) / total,
    where total is stage 1's.
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


def cascade_evaluate(stage1: ConfusionMatrix, stage2: ConfusionMatrix, *,
                     claimed_accuracy_pct: float | None = None) -> CascadeReport:
    """Combine the confusion matrices of the two stages: stage 1 over every
    class, stage 2 over the classes other than ACCEPT_CLASS.

    The accuracy's denominator is stage 1's total. A stage-2 total other than
    the rows stage 1 routed past ACCEPT_CLASS is reported in warnings.
    claimed_accuracy_pct, when given (by keyword only), is compared against
    the computed value and annotated if it differs.
    """
    if ACCEPT_CLASS not in stage1.class_ids:
        raise ValueError(f"accept class {ACCEPT_CLASS} missing from stage-1 classes")
    outer = tuple(c for c in stage1.class_ids if c != ACCEPT_CLASS)
    if set(stage2.class_ids) != set(outer):
        raise ValueError(
            f"stage-2 classes {stage2.class_ids} must be the outer classes {outer}"
        )
    accept = stage1.class_ids.index(ACCEPT_CLASS)
    accept_row = stage1.counts[accept]

    combined = np.zeros_like(stage1.counts)
    combined[accept] = accept_row
    at = [stage1.class_ids.index(c) for c in stage2.class_ids]
    combined[np.ix_(at, at)] = stage2.counts
    combined_cm = ConfusionMatrix(combined, stage1.class_ids)

    correct = int(accept_row[accept]) + stage2.correct
    accuracy = correct / stage1.total if stage1.total else 0.0

    warnings = []
    routed = stage1.total - int(accept_row.sum())
    if stage2.total != routed:
        warnings.append(
            f"stage-2 total {stage2.total} differs from the {routed} rows "
            f"stage 1 routed past class {ACCEPT_CLASS}"
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
    return CascadeReport(accuracy=accuracy, correct=correct, total=stage1.total,
                         combined=combined_cm, report=report,
                         warnings=tuple(warnings))


def cross_validate_cascade(data: Dataset, folds: FoldPlan, network_config: dict,
                           booster_config: dict, pipeline: FoldPipeline = FoldPipeline(),
                           workers: int = 1) -> tuple[CvResult, CvResult, CvResult]:
    """Per-fold evaluation of stage 1 alone, stage 2 alone and the full
    cascade, from one pass over identical folds.

    Each fold fits one cascade, seeded with the fold's seed, on its training
    split as `pipeline` prepares it, and runs its held-out rows through it
    once. Stage 1 alone is that pass's network labels. Stage 2 alone is its
    booster's labels scored on the held-out outer-class rows: the fold's
    matrix restricted to the outer classes' rows and columns, as the booster
    never predicts the accepted class. Returns (network_result,
    cascade_result, booster_result).
    """
    def fit_predict(seed: int, train: Dataset, test: Dataset) -> tuple[np.ndarray, ...]:
        return (cascade_fit(train, network_config, booster_config, seed=seed)
                .predict_stages(test.features))

    network_result, stage2_result, cascade_result = cross_validate(
        data, folds, fit_predict, pipeline=pipeline, workers=workers)
    outer = [stage2_result.pooled_matrix.class_ids.index(c) for c in OUTER_CLASSES]
    booster_result = CvResult(tuple(
        ConfusionMatrix(m.counts[np.ix_(outer, outer)], OUTER_CLASSES)
        for m in stage2_result.fold_matrices), stage2_result.fold_notes)
    return network_result, cascade_result, booster_result


BINARY_REGIMES = ("nearmiss", "random_under", "full")


def binary_outer_study(data: Dataset, *, seed: int, k_folds: int = 10,
                       regimes: tuple[str, ...] = BINARY_REGIMES,
                       booster_config: dict | None = None,
                       pipeline: FoldPipeline = FoldPipeline(),
                       workers: int = 1) -> dict[str, CvResult]:
    """Cross-validate the outer-class binary problem under three balance
    regimes: NearMiss undersampling, random undersampling, and the full
    (imbalanced) subset. Each regime's folds are prepared by `pipeline` with
    the regime's resampling plan in place of its own."""
    for regime in regimes:
        check_choice("regime", regime, BINARY_REGIMES)
    outer_data = data.take(np.flatnonzero(np.isin(data.labels, OUTER_CLASSES)))
    if len(outer_data.class_counts()) < 2:
        raise DataError("binary study needs both outer classes present")
    folds = stratified_kfold(outer_data.labels, k_folds, seed)
    fit_predict = one_model(GradientBoostedClassifier, **(booster_config or {}))
    results = {}
    for regime in regimes:
        plan = None if regime == "full" else ResamplePlan(regime)
        (results[regime],) = cross_validate(outer_data, folds, fit_predict,
                                            pipeline=replace(pipeline, resample=plan),
                                            workers=workers)
    return results


# ---------------------------------------------------------------------------
# persistence: a cascade saves as a directory


def save_cascade(model: CascadeClassifier, directory, scaling: ScalingSpec | None = None) -> None:
    """Write network.params (save_network's weights), booster.json (the
    booster's to_dict) and cascade.json: the network's settings, the width
    of its rows (n_features) and `scaling`, the "feature_names", "minima"
    and "maxima" of the min-max map from raw rows to the rows the cascade
    was fitted on (None for rows used as given)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if model.network.net is None:
        raise ValueError("fit the cascade before saving it")
    save_network(model.network.net, directory / "network.params")
    meta = {"network": model.network.settings(), "n_features": model.network.n_features_,
            "scaling": None if scaling is None else vars(scaling)}
    for name, payload in (("booster.json", model.booster.to_dict()), ("cascade.json", meta)):
        # a ScalingSpec's fields by name, its arrays as lists
        text = json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)
        (directory / name).write_text(text + "\n")


def _load_json(path: Path, parse):
    """parse(the JSON object at path); a file that errors.json_object cannot
    read as one and a payload that parse rejects (a ScalingSpec's DataError
    included) are DataErrors naming path."""
    payload = json_object(path, DataError)
    try:
        return parse(payload)
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"{path}: not a cascade file ({type(exc).__name__}: {exc})") from None


def _network_and_scaling(meta: dict) -> tuple[NetworkClassifier, ScalingSpec | None]:
    """cascade.json's network and scaling. The width, n_features, is checked
    against the scaling's lengths before the network is built for it."""
    network = NetworkClassifier(**meta["network"])
    width, scaling = meta["n_features"], meta["scaling"]
    check_count("n_features", width, 1)
    if scaling is not None:
        names = scaling["feature_names"]
        low, high = (np.asarray(scaling[key], dtype=np.float64) for key in ("minima", "maxima"))
        if {low.shape, high.shape, np.shape(names)} != {(width,)}:
            raise ValueError(f"scaling is not {width} feature names, minima and maxima")
        scaling = ScalingSpec(tuple(names), low, high)
    return network.build(width), scaling


def load_cascade(directory) -> tuple[CascadeClassifier, ScalingSpec | None]:
    """(the cascade save_cascade wrote to directory, its scaling or None). A
    file that does not hold what save_cascade writes is a DataError naming
    it."""
    directory = Path(directory)
    network, scaling = _load_json(directory / "cascade.json", _network_and_scaling)
    booster = _load_json(directory / "booster.json", GradientBoostedClassifier.from_dict)
    path = directory / "network.params"
    weights = load_network_params(path)
    try:
        network.net.load_params(weights)
    except DataError as exc:  # another network's keys or shapes
        raise DataError(f"{path}: not the weights of a {network.arch!r} network ({exc})") from None
    return CascadeClassifier(network, booster), scaling
