"""Evaluation metrics for annotation, retrieval and segmentation.

AP is the interpolation-free mean of precision at each relevant rank.
Average recall is the mean over the distinct precision levels of a ranked
list of the best recall attained at that level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import WsibpError


@dataclass
class BagTruth:
    object: int
    attributes: set[int]


def average_precision(relevant_flags: list[bool]) -> float:
    """Mean of precision at each relevant rank; 0 if nothing is relevant."""
    hits = 0
    precisions = []
    for rank, rel in enumerate(relevant_flags, start=1):
        if rel:
            hits += 1
            precisions.append(hits / rank)
    return float(np.mean(precisions)) if precisions else 0.0


def average_recall(relevant_flags: list[bool], num_relevant: int) -> float:
    """Mean over distinct precision levels of the best recall at that level."""
    if num_relevant <= 0:
        raise WsibpError("average_recall needs a non-empty relevance set")
    hits = 0
    best_recall: dict[float, float] = {}
    for rank, rel in enumerate(relevant_flags, start=1):
        if rel:
            hits += 1
        p = hits / rank
        r = hits / num_relevant
        best_recall[p] = max(best_recall.get(p, 0.0), r)
    return float(np.mean(list(best_recall.values())))


def ap_at_t(predictions: dict[str, tuple[int, list[int]]],
            truth: dict[str, BagTruth], t: int) -> float:
    """Annotation AP: per bag, the predicted object gates its ranked top-t
    attributes; a wrong object zeroes every attribute credit."""
    if t < 1:
        raise WsibpError("t must be >= 1")
    if not predictions:
        raise WsibpError("empty prediction set")
    scores = []
    for bag_id, (obj, ranked_attrs) in predictions.items():
        gt = truth[bag_id]
        attrs = ranked_attrs[:t]
        if obj != gt.object:
            scores.append(0.0)
            continue
        flags = [a in gt.attributes for a in attrs]
        scores.append(average_precision(flags))
    return float(np.mean(scores))


def map_pr(scores: np.ndarray, relevance: np.ndarray) -> tuple[float, list[int]]:
    """Per-attribute AP averaged over attributes with positives.

    ``scores`` and ``relevance`` are (num_samples, num_attributes); returns
    (mAP, skipped attribute indices with zero positives).
    """
    scores = np.asarray(scores, dtype=np.float64)
    relevance = np.asarray(relevance, dtype=bool)
    if scores.shape != relevance.shape:
        raise WsibpError("scores and relevance must have the same shape")
    aps, skipped = [], []
    for a in range(scores.shape[1]):
        if not relevance[:, a].any():
            skipped.append(a)
            continue
        order = np.lexsort((np.arange(scores.shape[0]), -scores[:, a]))
        aps.append(average_precision(list(relevance[order, a])))
    if not aps:
        raise WsibpError("no attribute has a positive example")
    return float(np.mean(aps)), skipped


def mar_query(rankings: dict[tuple, list[str]],
              relevance: dict[tuple, set[str]]) -> tuple[float, list[tuple]]:
    """Mean average recall across queries; empty-relevance queries skipped."""
    ars, skipped = [], []
    for query, ranked in rankings.items():
        if not ranked:
            raise WsibpError(f"empty ranking for query {query!r}")
        rel = relevance.get(query, set())
        if not rel:
            skipped.append(query)
            continue
        flags = [bag_id in rel for bag_id in ranked]
        ars.append(average_recall(flags, len(rel)))
    if not ars:
        raise WsibpError("no query has a non-empty relevance set")
    return float(np.mean(ars)), skipped


@dataclass
class SegmentationScores:
    mean_iou: float
    per_pixel_accuracy: float
    per_class_accuracy: float
    class_iou: dict[int, float]


def segmentation_metrics(pred: dict[str, np.ndarray],
                         truth: dict[str, np.ndarray],
                         pixel_counts: dict[str, np.ndarray] | None = None
                         ) -> SegmentationScores:
    """Pixel-weighted IOU / accuracy over per-instance label maps.

    ``pixel_counts`` lifts superpixel labels to pixel-level metrics; when
    omitted every instance counts as one pixel.
    """
    inter: dict[int, float] = {}
    pred_sz: dict[int, float] = {}
    truth_sz: dict[int, float] = {}
    correct = total = 0.0
    for bag_id, t_lab in truth.items():
        p_lab = np.asarray(pred[bag_id])
        t_lab = np.asarray(t_lab)
        if p_lab.shape != t_lab.shape:
            raise WsibpError(f"segmentation shape mismatch for bag {bag_id!r}")
        w = (np.ones(t_lab.size) if pixel_counts is None
             else np.asarray(pixel_counts[bag_id], dtype=np.float64))
        if w.shape != t_lab.shape or np.any(w <= 0):
            raise WsibpError(f"invalid pixel counts for bag {bag_id!r}")
        match = p_lab == t_lab
        correct += w[match].sum()
        total += w.sum()
        for c in np.unique(np.concatenate([p_lab, t_lab])):
            pc = p_lab == c
            tc = t_lab == c
            inter[c] = inter.get(c, 0.0) + w[pc & tc].sum()
            pred_sz[c] = pred_sz.get(c, 0.0) + w[pc].sum()
            truth_sz[c] = truth_sz.get(c, 0.0) + w[tc].sum()
    present = sorted(c for c, s in truth_sz.items() if s > 0)
    if not present:
        raise WsibpError("truth contains no labelled instances")
    ious = {
        int(c): inter[c] / (pred_sz[c] + truth_sz[c] - inter[c])
        for c in present
    }
    per_class = float(np.mean([inter[c] / truth_sz[c] for c in present]))
    return SegmentationScores(
        mean_iou=float(np.mean(list(ious.values()))),
        per_pixel_accuracy=correct / total,
        per_class_accuracy=per_class,
        class_iou=ious,
    )
