"""Train a small 1-D convolutional network and round-trip it through disk.

Feature vectors are treated as one-channel sequences: convolutions slide a
shared window across the columns, pooling halves the length, and a dense head
produces three logits. Training is plain mini-batch backprop — every gradient
in the library is hand-derived and covered by finite-difference tests.

Run:  python demos/04_network_training.py
"""

import tempfile
from pathlib import Path

import numpy as np

from readmitlab.models import NetworkClassifier
from readmitlab.nn import ARCHITECTURES, load_network_params, save_network

rng = np.random.default_rng(3)

print("available architectures:", ", ".join(sorted(ARCHITECTURES)))

# three separable clusters, padded with noise columns to a 12-wide sequence
centers = {0: (-3.0, 0.0), 1: (3.0, 0.0), 2: (0.0, 3.0)}
rows, labels = [], []
for cls, center in centers.items():
    rows.append(rng.normal(loc=center, scale=0.7, size=(50, 2)))
    labels += [cls] * 50
X = np.hstack([np.vstack(rows), rng.normal(scale=0.1, size=(150, 10))])
y = np.array(labels)

clf = NetworkClassifier("vanilla", epochs=40, learning_rate=1e-3,
                        batch_size=16, optimizer="adam", seed=0)
clf.fit(X, y)
losses = clf.history_
print(f"epoch  1 loss: {losses[0]:.4f}")
print(f"epoch {len(losses)} loss: {losses[-1]:.4f}")
train_acc = float(np.mean(clf.predict(X) == y))
print(f"training accuracy: {train_acc:.1%}")

# class probabilities for the first few rows
proba = clf.predict_proba(X[:3])
for i, p in enumerate(proba):
    print(f"row {i}: p(class) = {np.round(p, 3)}, actual {y[i]}")

# parameters round-trip through one .npy record file: rebuild the same
# architecture, then load the saved weights into it
path = Path(tempfile.mkdtemp()) / "network.params"
save_network(clf.net, path)
clf_again = NetworkClassifier("vanilla", seed=0).build(X.shape[1])
clf_again.net.load_params(load_network_params(path))
same = bool(np.array_equal(clf_again.predict(X), clf.predict(X)))
print("reloaded network predicts identically:", same)
