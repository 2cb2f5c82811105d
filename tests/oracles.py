"""Brute-force reference implementations used to pin metric behavior."""

import numpy as np

from eif.evaluation import ConvergenceSeries, _population_variance
from eif.forest import build_forest, score_batch


def auroc_oracle(scores, labels):
    """Exhaustive pairwise count: anomaly beats nominal, ties worth 1/2."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


def auprc_oracle(scores, labels):
    """Direct step sum down the descending-score ranking; equal scores are
    consumed as one block with precision read after the block."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, int)
    n_anom = labels.sum()
    seen = 0
    tp = 0
    total = 0.0
    for value in sorted(set(scores), reverse=True):
        group = labels[scores == value]
        seen += len(group)
        block_tp = int(group.sum())
        tp += block_tp
        if block_tp:
            total += (block_tp / n_anom) * (tp / seen)
    return total


def random_labeled_instance(rng, max_size=50, allow_ties=True):
    """A random-scores instance with at least one anomaly; half the draws
    round scores to one decimal to exercise tie handling."""
    n = rng.integers(2, max_size + 1)
    labels = np.zeros(n, dtype=int)
    labels[: rng.integers(1, n)] = 1
    perm = np.argsort(rng.uniform(0.0, 1.0, n))
    labels = labels[perm]
    if allow_ties and rng.uniform(0.0, 1.0) < 0.5:
        scores = np.round(rng.uniform(0.0, 1.0, n), 1)
    else:
        scores = rng.uniform(0.0, 1.0, n)
    return scores, labels


def choose_indices_oracle(rng, n, k):
    """Partial Fisher-Yates with one scalar bounded-integer draw per swap."""
    idx = np.arange(n)
    for i in range(k):
        j = rng.integers(i, n)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k].copy()


def convergence_curve_oracle(data, probe_points, t_values, psi, extension_level, seed):
    """One forest trained and fully scored per entry of t_values."""
    means, variances = [], []
    for t in t_values:
        s = score_batch(probe_points, build_forest(data, t, psi, extension_level, seed))
        means.append(float(s.mean()))
        variances.append(_population_variance(s))
    return ConvergenceSeries(t_values=list(t_values), means=means, variances=variances)
