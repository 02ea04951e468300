"""Cross-validated hyperparameter sweep with a ranked results table.

Every (epochs, learning rate, batch size) combination is scored with the
same stratified folds, then ranked by mean accuracy. Each fold's network is
seeded with the fold's seed: the folds' seed plus the fold index. Watch the largest
learning rate collapse to one-third accuracy — the constant-predictor
signature on a three-class balanced problem.

Run:  python demos/07_grid_sweep.py
"""

import functools

import numpy as np

from readmitlab.data import Dataset, stratified_kfold
from readmitlab.evaluate import grid_sweep
from readmitlab.models import NetworkClassifier
from readmitlab.report import aligned_table, format_percent

rng = np.random.default_rng(6)
centers = {0: (-3.0, 0.0), 1: (3.0, 0.0), 2: (0.0, 3.0)}
rows, labels = [], []
for cls, center in centers.items():
    rows.append(rng.normal(loc=center, scale=0.8, size=(40, 2)))
    labels += [cls] * 40
X = np.hstack([np.vstack(rows), rng.normal(scale=0.1, size=(120, 10))])
data = Dataset(X, np.array(labels), tuple(f"f{i}" for i in range(12)))
folds = stratified_kfold(data.labels, k=3, seed=0)

# each cell's settings, and the fold's seed, complete the network's keywords
sweep = grid_sweep(data, folds, functools.partial(NetworkClassifier, "vanilla"),
                   {"epochs": (10, 30), "learning_rate": (1e-3, 1e-1), "batch_size": (16,)})

header = ["rank", "epochs", "lr", "batch", "accuracy", "macro F"]
table = []
for rank, (cell, result) in enumerate(sweep, start=1):
    table.append([str(rank), str(cell["epochs"]), f"{cell['learning_rate']:g}",
                  str(cell["batch_size"]), format_percent(result.mean_metrics.accuracy),
                  format_percent(result.mean_metrics.macro_f)])
print(aligned_table(header, table))

best, best_result = sweep[0]
print(f"winner: epochs={best['epochs']} lr={best['learning_rate']:g} "
      f"batch={best['batch_size']} at {format_percent(best_result.mean_metrics.accuracy)}%")
