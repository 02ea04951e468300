"""Time one float32 training step of the network at the bench's shapes.

Usage: PYTHONPATH=src python tools/step_time.py [--steps N] [--reps R]

For each shape (architecture, features per row, batch size) the tool builds
a float32 network, trains it with train_network for one epoch of N batches
of seeded rows in [0, 1), R times, and prints the least process CPU time per
step (forward, loss, backward and Adam step) in milliseconds. BLAS runs on
one thread, so CPU time is the step's own time, without helper threads
spinning. Compare two versions by running the tool with each one's src on
PYTHONPATH, alternating the runs.
"""

import argparse
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import numpy as np

from readmitlab.nn import build_network, train_network

# (architecture, features per row, batch size): the networks of the bench's
# train-cnn-adasyn and cascade-cnn-gbm, and both batch sizes of sweep-smote
SHAPES = (("cnn2", 30, 64), ("cnn2", 45, 64), ("vanilla", 45, 16), ("vanilla", 45, 64))


def step_time(arch: str, n_features: int, batch: int, steps: int, reps: int) -> float:
    """Least process CPU seconds per training step over `reps` epochs of
    `steps` batches, after one untimed warm-up epoch."""
    rng = np.random.default_rng(0)
    net = build_network(arch, n_features, rng=rng, dtype=np.float32)
    X = rng.random((steps * batch, n_features))
    y = rng.integers(0, 3, size=steps * batch)
    settings = {"epochs": 1, "learning_rate": 1e-2, "batch_size": batch, "optimizer": "adam"}
    train_network(net, X, y, rng, **settings)
    best = float("inf")
    for _ in range(reps):
        start = time.process_time()
        train_network(net, X, y, rng, **settings)
        best = min(best, (time.process_time() - start) / steps)
    return best


def main(argv):
    parser = argparse.ArgumentParser(description="float32 training step time")
    parser.add_argument("--steps", type=int, default=200, help="batches per timed epoch")
    parser.add_argument("--reps", type=int, default=9, help="timed epochs per shape")
    args = parser.parse_args(argv)
    if args.steps < 1 or args.reps < 1:
        parser.error("--steps and --reps must be at least 1")
    for arch, n_features, batch in SHAPES:
        ms = 1e3 * step_time(arch, n_features, batch, args.steps, args.reps)
        print(f"{arch}\t{n_features} features\tbatch {batch}\t{ms:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
