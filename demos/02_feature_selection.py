"""Score features three ways and keep the strongest ones.

One feature separates the classes cleanly, one weakly, the rest are noise —
so every scorer should rank f0 first and the noise columns last. The
chi-square scorer reads features as nonnegative frequencies, which is why the
table is min-max normalized first (the CLI does the same by default). The
tables print through readmitlab.report, as `select` and `stats` lay them out.

Run:  python demos/02_feature_selection.py
"""

import numpy as np

from readmitlab.data import Dataset, min_max_normalize
from readmitlab.features import (anova_f_scores, chi_square_scores,
                                 pearson_scores, per_class_stats,
                                 select_k_best)
from readmitlab.report import (aligned_table, class_stats_section,
                               feature_scores_section)

rng = np.random.default_rng(1)
n_per_class = 60
labels = np.repeat([0, 1, 2], n_per_class)
n = labels.size
strong = labels * 2.0 + rng.normal(scale=0.4, size=n)      # f0: clean signal
weak = labels * 0.4 + rng.normal(scale=1.0, size=n)        # f1: buried signal
noise = rng.normal(size=(n, 3))                            # f2..f4: nothing
data = Dataset(np.column_stack([strong, weak, noise]), labels,
               ("f0", "f1", "f2", "f3", "f4"))
scaled, _ = min_max_normalize(data)

for table in (anova_f_scores(scaled), chi_square_scores(scaled),
              pearson_scores(scaled)):
    print(f"--- {table.method} ---")
    print(aligned_table(*feature_scores_section(table)))

# keep the top 2 by ANOVA F and shrink the dataset to those columns
anova = anova_f_scores(scaled)
top = select_k_best(anova, 2)
kept = scaled.select_features(top)
print("top 2 by anova_f:", kept.feature_names)

# per-class means and variances show *why* f0 scores well: the class means
# are far apart relative to the within-class variance
print()
print(aligned_table(*class_stats_section(per_class_stats(scaled, features=[0, 2]))))
