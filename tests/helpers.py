"""Shared test utilities: toy dataset builders, a record that forked fold
workers can write to, and a finite-difference gradient oracle for the
hand-derived backward passes."""

import json
import os
import time
from pathlib import Path

import numpy as np

from readmitlab.data import Dataset
from readmitlab.nn import softmax_cross_entropy


def make_dataset(features, labels, names=None):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    if names is None:
        names = tuple(f"f{i:02d}" for i in range(features.shape[1]))
    return Dataset(features, np.asarray(labels, dtype=np.int64), tuple(names))


def blob_dataset(rng, counts, centers, spread=0.6):
    """Gaussian cluster per class; counts/centers keyed by class id."""
    rows, labels = [], []
    for cls in sorted(counts):
        center = np.asarray(centers[cls], dtype=np.float64)
        rows.append(rng.normal(loc=center, scale=spread, size=(counts[cls], center.size)))
        labels += [cls] * counts[cls]
    X = np.vstack(rows)
    y = np.array(labels, dtype=np.int64)
    order = rng.permutation(len(y))
    return make_dataset(X[order], y[order])


class ProcessLog:
    """An append-only list kept in a file, so that spies running in forked
    fold workers record where the test can read them. Each value is one JSON
    line written by a single O_APPEND write, so concurrent writers never
    interleave."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.write_text("")

    def append(self, value) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(value) + "\n")

    def read(self) -> list:
        return [json.loads(line) for line in self.path.read_text().splitlines()]

    def wait_for_other_process(self, timeout: float = 10.0) -> None:
        """Block until a process other than this one has appended its pid
        (values recorded as {"pid": ...}), or until `timeout` seconds pass."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if any(v.get("pid") != os.getpid() for v in self.read() if isinstance(v, dict)):
                return
            time.sleep(0.01)


def _loss(net, x, labels, rng_factory):
    logits = net.forward(x, None if rng_factory is None else rng_factory())
    loss, _ = softmax_cross_entropy(logits, labels)
    return loss


def fd_max_rel_err(net, x, labels, *, h=1e-5, rng_factory=None, sample=None, seed=0):
    """Largest relative disagreement between the analytic gradients and
    central finite differences, over every parameter tensor.

    `sample` caps the probed entries per tensor (all entries when None or the
    tensor is small). `rng_factory`, when given, must return an identically
    seeded generator on each call so every evaluation sees the same dropout
    masks; without it the check runs in inference mode.
    """
    pick = np.random.default_rng(seed)
    logits = net.forward(x, None if rng_factory is None else rng_factory())
    _, d_logits = softmax_cross_entropy(logits, labels)
    net.backward(d_logits)
    analytic = {key: g.copy() for key, g in net.grads().items()}
    worst = 0.0
    for key in sorted(net.params()):
        flat = net.params()[key].reshape(-1)
        a = analytic[key].reshape(-1)
        if sample is not None and flat.size > sample:
            idxs = pick.choice(flat.size, size=sample, replace=False)
        else:
            idxs = np.arange(flat.size)
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + h
            up = _loss(net, x, labels, rng_factory)
            flat[i] = keep - h
            down = _loss(net, x, labels, rng_factory)
            flat[i] = keep
            numeric = (up - down) / (2.0 * h)
            err = abs(numeric - a[i]) / max(abs(numeric), abs(a[i]), 1e-2)
            worst = max(worst, err)
    return worst


def gradient_check_suite(h=1e-5):
    """(config description, max relative error) for randomized small networks
    covering every layer kind, plus all named architecture tags.

    Seeds are fixed: they keep ReLU inputs and pooling near-ties away from the
    h-neighborhood of their kinks, where central differences are invalid.
    """
    from readmitlab.nn import (ARCHITECTURES, AsSequence, Conv1d, Dense, Dropout,
                               Flatten, LastStep, MaxPool1d, Network, Parallel,
                               RecurrentTanh, Relu, build_network)

    results = []

    def check(name, net, x, labels, rng_factory=None, sample=None, seed=0):
        err = fd_max_rel_err(net, x, labels, h=h, rng_factory=rng_factory,
                             sample=sample, seed=seed)
        results.append((name, err))

    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        n_in = int(rng.integers(3, 8))
        mid = int(rng.integers(4, 9))
        net = Network([Dense(n_in, mid, rng), Relu(), Dense(mid, 3, rng)])
        x = rng.normal(size=(3, n_in))
        labels = rng.integers(0, 3, size=3)
        check(f"dense seed={seed}", net, x, labels)

    for seed, kernels in ((21, (1, 4)), (22, (1, 4)), (23, (4, 6)), (24, (4, 6))):
        rng = np.random.default_rng(seed)
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(2, 5))
        kernel = int(rng.integers(*kernels))
        length = int(rng.integers(8, 12))
        conv = Conv1d(c_in, c_out, kernel, rng)
        flat = c_out * conv.out_length(length)
        net = Network([conv, Flatten(), Dense(flat, 3, rng)])
        x = rng.normal(size=(2, length, c_in))
        labels = rng.integers(0, 3, size=2)
        check(f"conv1d seed={seed} kernel={kernel}", net, x, labels)

    for seed, window in ((31, 2), (32, 3), (33, 4)):
        rng = np.random.default_rng(seed)
        length = 10
        conv = Conv1d(1, 3, 2, rng)
        pool = MaxPool1d(window)
        flat = 3 * pool.out_length(conv.out_length(length))
        net = Network([AsSequence(), conv, Relu(), pool, Flatten(), Dense(flat, 3, rng)])
        x = rng.normal(size=(2, length))
        labels = rng.integers(0, 3, size=2)
        check(f"maxpool seed={seed} window={window}", net, x, labels)

    for seed in (41, 42):
        rng = np.random.default_rng(seed)
        net = Network([Dense(6, 8, rng), Relu(), Dropout(0.4), Dense(8, 3, rng)])
        x = rng.normal(size=(3, 6))
        labels = rng.integers(0, 3, size=3)
        check(f"dropout seed={seed}", net, x, labels,
              rng_factory=lambda s=seed: np.random.default_rng(s + 1000))

    for seed, stacked in ((51, False), (52, False), (53, True)):
        rng = np.random.default_rng(seed)
        hidden = int(rng.integers(3, 6))
        layers = [AsSequence(), RecurrentTanh(1, hidden, rng)]
        if stacked:
            layers.append(RecurrentTanh(hidden, hidden, rng))
        layers += [LastStep(), Dense(hidden, 3, rng)]
        net = Network(layers)
        x = rng.normal(size=(2, 6))
        labels = rng.integers(0, 3, size=2)
        check(f"rnn seed={seed} stacked={stacked}", net, x, labels)

    rng = np.random.default_rng(61)
    branch_a = [AsSequence(), Conv1d(1, 2, 2, rng), Relu()]
    branch_b = [AsSequence(), Conv1d(1, 2, 3, rng), Relu()]
    net = Network([Parallel([branch_a, branch_b]), Flatten(), Dense(4 * 5, 3, rng)])
    x = rng.normal(size=(2, 7))
    labels = rng.integers(0, 3, size=2)
    check("parallel branches", net, x, labels)

    for tag in ARCHITECTURES:
        rng = np.random.default_rng(71)
        net = build_network(tag, 13, rng=rng)
        x = rng.normal(size=(2, 13))
        labels = rng.integers(0, 3, size=2)
        check(f"architecture {tag}", net, x, labels,
              rng_factory=lambda: np.random.default_rng(777),
              sample=5, seed=7)

    return results


# ---------------------------------------------------------------------------
# resampling oracles: plain-loop references for the nearest-neighbor code


def brute_force_knn(query, pool, k):
    """Exhaustive scan; ties on distance break toward the lower index."""
    query = np.asarray(query, dtype=np.float64)
    pool = np.asarray(pool, dtype=np.float64)
    dists = [(float(np.linalg.norm(row - query)), i) for i, row in enumerate(pool)]
    dists.sort()
    return [i for _, i in dists[:k]]


def segment_residual(point, a, b):
    """Distance from `point` to the segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(point - a))
    t = float((point - a) @ ab) / denom
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(a + t * ab - point))


def minority_neighbor_sets(x_min, k):
    """Per minority point: indices of its k nearest same-class neighbors."""
    out = []
    for i in range(len(x_min)):
        ranked = brute_force_knn(x_min[i], x_min, len(x_min))
        out.append([j for j in ranked if j != i][:k])
    return out


def min_segment_residual(point, x_min, neighbor_sets, *, mirrored=False):
    """Smallest residual of `point` against every (base, k-neighbor) segment;
    with `mirrored`, the outward segment [base, 2*base - neighbor] also counts."""
    best = np.inf
    for i, neighbors in enumerate(neighbor_sets):
        for j in neighbors:
            best = min(best, segment_residual(point, x_min[i], x_min[j]))
            if mirrored:
                mirror = 2.0 * x_min[i] - x_min[j]
                best = min(best, segment_residual(point, x_min[i], mirror))
    return best


def nearmiss_oracle(maj_rows, ref_rows, keep, version, n_ref):
    """Plain-loop NearMiss reference: returns kept local majority indices."""
    n_use = min(n_ref, len(ref_rows))
    dists = np.array([[float(np.linalg.norm(m - r)) for r in ref_rows]
                      for m in maj_rows])
    if version in (1, 2):
        scores = []
        for row in dists:
            ranked = np.sort(row)
            block = ranked[:n_use] if version == 1 else ranked[-n_use:]
            scores.append(block.mean())
        order = sorted(range(len(maj_rows)), key=lambda i: (scores[i], i))
        return sorted(order[:keep])
    # each reference row's m nearest majority rows, for the least m from n_use
    # up whose union holds `keep`
    rankings = [sorted(range(len(maj_rows)), key=lambda i: (dists[i, j], i))
                for j in range(len(ref_rows))]
    m = min(n_use, len(maj_rows))
    while len({i for ranked in rankings for i in ranked[:m]}) < keep:
        m += 1
    candidates = {i for ranked in rankings for i in ranked[:m]}
    avg_close = {i: np.sort(dists[i])[:n_use].mean() for i in candidates}
    order = sorted(candidates, key=lambda i: (-avg_close[i], i))
    return sorted(order[:keep])
