"""The two-stage cascade: a network keeps its class-1 calls, a binary
booster re-decides everything else as 0-vs-2.

The first section cross-validates the cascade on synthetic clusters: one
pass per fold scores the network alone, the cascade's own booster on the
held-out 0-vs-2 rows, and the full cascade; each fold's network is seeded
with the folds' seed plus the fold index. The second recomputes the
combined accuracy from two frozen holdout count tables and shows how the
evaluator flags bookkeeping inconsistencies instead of hiding them.

Run:  python demos/08_cascade.py
"""

import numpy as np

from readmitlab.data import Dataset, stratified_kfold
from readmitlab.ensemble import cascade_evaluate, cross_validate_cascade
from readmitlab.evaluate import ConfusionMatrix
from readmitlab.report import format_percent

rng = np.random.default_rng(7)
centers = {0: (-4.0, 0.0), 1: (4.0, 0.0), 2: (-4.0, 6.0)}
rows, labels = [], []
for cls, center in centers.items():
    rows.append(rng.normal(loc=center, scale=1.6, size=(60, 2)))
    labels += [cls] * 60
X = np.hstack([np.vstack(rows), rng.normal(scale=0.1, size=(180, 6))])
data = Dataset(X, np.array(labels), tuple(f"f{i}" for i in range(8)))
folds = stratified_kfold(data.labels, k=3, seed=0)

network_config = dict(arch="vanilla", epochs=30, learning_rate=1e-3,
                      batch_size=16, optimizer="adam")
booster_config = dict(n_rounds=30, learning_rate=0.1, max_depth=2)
network, cascade, booster = cross_validate_cascade(
    data, folds, network_config, booster_config)

print("3-fold pooled accuracy")
print(f"  network alone      : {format_percent(network.pooled_matrix.accuracy)}%")
print(f"  full cascade       : {format_percent(cascade.pooled_matrix.accuracy)}%")
print(f"  booster (0 vs 2)   : {format_percent(booster.pooled_matrix.accuracy)}%")

# --- recomputing a published-style result from frozen count tables --------
# stage 1: three-way confusion counts (rows = predicted, columns = actual);
# stage 2: the binary re-decision of everything stage 1 did not call class 1
stage1 = ConfusionMatrix(np.array([
    [21112, 97, 13422],
    [4316, 25888, 7417],
    [12918, 263, 21447],
]), (0, 1, 2))
stage2 = ConfusionMatrix(np.array([
    [21235, 13130],
    [12255, 22279],
]), (2, 0))

report = cascade_evaluate(stage1, stage2, claimed_accuracy_pct=64.94)
print("\nfrozen holdout tables")
print(f"  correct: {report.correct} of {report.total}")
print(f"  accuracy: {format_percent(report.accuracy)}%")
for warning in report.warnings:
    print(f"  note: {warning}")
