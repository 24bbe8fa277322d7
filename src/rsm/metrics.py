"""Partition agreement.

The adjusted Rand index is computed from the pair-counting contingency
table, so it is symmetric and invariant to relabeling either partition.
"""

from __future__ import annotations

import numpy as np


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two partitions of the same items.

    1.0 means identical partitions (up to relabeling), 0 is the chance
    level, and negative values mean worse-than-chance agreement.  When both
    partitions are trivial (each a single cluster, or each all singletons)
    the correction denominator vanishes and 1.0 is returned by convention.
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"label vectors differ in length: {a.shape[0]} vs {b.shape[0]}")
    if a.size == 0:
        raise ValueError("label vectors must be non-empty")

    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    contingency = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(contingency, (ai, bi), 1)

    def comb2(m):
        m = m.astype(np.float64)
        return m * (m - 1.0) / 2.0

    n = a.size
    sum_cells = comb2(contingency).sum()
    sum_rows = comb2(contingency.sum(axis=1)).sum()
    sum_cols = comb2(contingency.sum(axis=0)).sum()
    total = n * (n - 1.0) / 2.0

    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))
