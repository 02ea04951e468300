"""Balance an imbalanced cohort with every resampler in the library.

Oversamplers synthesize new minority rows until every class matches the
majority count; undersamplers discard majority rows down to the plan's target
count. Originals are never modified — oversamplers append, the
undersamplers select. A plan holds the method and its settings; the seed is
passed with the rows, so one plan serves every fold of a cross-validation.

Run:  python demos/03_resampling.py
"""

import numpy as np

from readmitlab.data import Dataset
from readmitlab.resample import OVERSAMPLERS, ResamplePlan, apply_plan, oversample

rng = np.random.default_rng(2)

# overlapping clusters so the border-aware methods have boundaries to find
counts = {0: 80, 1: 18, 2: 30}
centers = {0: (0.0, 0.0), 1: (1.5, 0.0), 2: (-1.5, 0.0)}
rows, labels = [], []
for cls, n in counts.items():
    rows.append(rng.normal(loc=centers[cls], scale=1.2, size=(n, 2)))
    labels += [cls] * n
data = Dataset(np.vstack(rows), np.array(labels), ("x", "y"))
print("before:", data.class_counts())

print("\noversamplers (target = majority count):")
for method in OVERSAMPLERS:
    out = oversample(data, ResamplePlan(method), 5)
    synth = out.n_instances - data.n_instances
    print(f"  {method:17s} -> {out.class_counts()}   (+{synth} synthetic rows)")

# ADASYN is adaptive: minority points with no other-class neighbors get no
# synthetics at all. Split the minority into a contested cluster inside the
# majority and a far-away island — every synthetic lands near the contested one.
contested = rng.normal(loc=(0.0, 0.0), scale=0.5, size=(8, 2))
island = rng.normal(loc=(40.0, 40.0), scale=0.5, size=(8, 2))
crowd = rng.normal(loc=(0.0, 0.0), scale=0.5, size=(30, 2))
ab = Dataset(np.vstack([crowd, contested, island]),
             np.array([0] * 30 + [1] * 16), ("x", "y"))
out = oversample(ab, ResamplePlan("adasyn"), 5)
synth = out.features[ab.n_instances:]
near_island = int(np.sum(np.linalg.norm(synth - [40.0, 40.0], axis=1) < 20))
print(f"\nadasyn adaptivity: {len(synth)} synthetics, "
      f"{near_island} near the uncontested island")

print("\nnearmiss undersampling (keep the 30 majority rows ranked by "
      "distance to the reference class):")
# an undersampler runs from its plan: target_counts reduces class 0 alone, and
# its reference class is the smallest, class 1
for version in (1, 2, 3):
    plan = ResamplePlan("nearmiss", target_counts={0: 30}, nearmiss_version=version)
    out = apply_plan(data, plan, 5)
    kept = out.features[out.labels == 0]
    print(f"  version {version}: counts {out.class_counts()}, "
          f"kept majority mean x = {kept[:, 0].mean():+.3f}")

out = apply_plan(data, ResamplePlan("random_under", target_counts={0: 30}), 9)
print("  random   : counts", out.class_counts())
