"""Evaluation metrics: accuracy/macro-F1, AUC/AP, Recall@K/MRR.

Ranking metrics assign tied scores the mean rank of the tied block. AUC uses
the rank-sum formula; AP sums precision over distinct score thresholds.
An independent brute-force oracle for each metric lives in verify.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MetricsRow:
    names: tuple[str, str]
    values: tuple[float, float]


class MetricError(ValueError):
    """Metric undefined for the given inputs (e.g. single-class AUC)."""


def _mean_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks in ascending order; ties share their block's mean rank."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    new_block = np.ones(scores.size, dtype=bool)
    new_block[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(new_block)
    ends = np.append(starts[1:], scores.size) - 1
    block = np.cumsum(new_block) - 1
    ranks = np.empty(scores.size)
    ranks[order] = (starts[block] + ends[block]) / 2.0 + 1.0
    return ranks


def accuracy(labels: np.ndarray, predicted: np.ndarray) -> float:
    labels = np.asarray(labels)
    return float((labels == np.asarray(predicted)).mean())


def macro_f1(labels: np.ndarray, predicted: np.ndarray) -> float:
    """Unweighted mean of per-class F1 over the classes that occur in the
    labels or the predictions; a class with no true and no predicted members
    carries no information and is skipped."""
    labels = np.asarray(labels)
    predicted = np.asarray(predicted)
    present = np.union1d(np.unique(labels), np.unique(predicted))
    f1s = []
    for c in present:
        tp = float(((predicted == c) & (labels == c)).sum())
        fp = float(((predicted == c) & (labels != c)).sum())
        fn = float(((predicted != c) & (labels == c)).sum())
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s))


def auc_score(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Rank-sum AUC: (sum of positive ranks - P(P+1)/2) / (P * N)."""
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    p, n = pos_scores.size, neg_scores.size
    if p == 0 or n == 0:
        raise MetricError("AUC undefined without both positive and negative scores")
    ranks = _mean_ranks(np.concatenate([pos_scores, neg_scores]))
    return float((ranks[:p].sum() - p * (p + 1) / 2.0) / (p * n))


def average_precision(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Sum of (R_n - R_{n-1}) * P_n over distinct descending thresholds."""
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    p = pos_scores.size
    if p == 0 or neg_scores.size == 0:
        raise MetricError("AP undefined without both positive and negative scores")
    scores = np.concatenate([pos_scores, neg_scores])
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    # the last rank at or above each distinct threshold, descending
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(order < p)[ends].astype(np.float64)
    precision = tp / (ends + 1.0)
    recall = tp / p
    terms = (recall - np.concatenate(([0.0], recall[:-1]))) * precision
    # a running sum, so AP adds the terms in threshold order
    return float(np.cumsum(terms)[-1])


def retrieval_ranks(similarity: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Rank (descending score, mean-rank ties) of each query's true item."""
    similarity = np.asarray(similarity, dtype=np.float64)
    ranks = np.empty(similarity.shape[0])
    for q in range(similarity.shape[0]):
        asc = _mean_ranks(similarity[q])
        ranks[q] = similarity.shape[1] + 1 - asc[targets[q]]
    return ranks


def recall_at_k(ranks: np.ndarray, k: int) -> float:
    return float((np.asarray(ranks) <= k).mean())


def mrr(ranks: np.ndarray) -> float:
    return float((1.0 / np.asarray(ranks, dtype=np.float64)).mean())


def evaluate_metrics(kind: str, scores, targets) -> MetricsRow:
    """Uniform entry point used by evaluation and the oracle harness.

    nc: scores = logits [B, C], targets = labels.
    lp: scores = (positive scores, negative scores), targets ignored;
        MetricError when either set is empty.
    mr: scores = similarity matrix [Q, G], targets = true column per query.
    """
    if kind == "nc":
        logits = np.asarray(scores, dtype=np.float64)
        labels = np.asarray(targets)
        predicted = logits.argmax(axis=1)
        return MetricsRow(names=("accuracy", "macro_f1"),
                          values=(accuracy(labels, predicted),
                                  macro_f1(labels, predicted)))
    if kind == "lp":
        pos, neg = scores
        return MetricsRow(names=("auc", "ap"),
                          values=(auc_score(pos, neg), average_precision(pos, neg)))
    if kind == "mr":
        ranks = retrieval_ranks(scores, np.asarray(targets))
        return MetricsRow(names=("recall_at_5", "mrr"),
                          values=(recall_at_k(ranks, 5), mrr(ranks)))
    raise ValueError(f"unknown task kind {kind!r}")
