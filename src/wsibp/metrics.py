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
    omitted every instance counts as one pixel. All bags are scored at once:
    one bincount each gives every class's intersection, predicted and true size.
    """
    ids = list(truth)
    t_lab = [np.asarray(truth[b]) for b in ids]
    p_lab = [np.asarray(pred[b]) for b in ids]
    w_lab = (None if pixel_counts is None
             else [np.asarray(pixel_counts[b], dtype=np.float64) for b in ids])
    shapes = [t.shape for t in t_lab]
    w = (np.ones(sum(t.size for t in t_lab)) if w_lab is None
         else np.concatenate([x.ravel() for x in w_lab] + [np.empty(0)]))
    if [p.shape for p in p_lab] != shapes or w_lab is not None and (
            [x.shape for x in w_lab] != shapes or (w <= 0).any()):
        for bag_id, p, t, x in zip(ids, p_lab, t_lab, w_lab or t_lab):  # name the first bad
            if p.shape != t.shape:
                raise WsibpError(f"segmentation shape mismatch for bag {bag_id!r}")
            if w_lab is not None and (x.shape != t.shape or np.any(x <= 0)):
                raise WsibpError(f"invalid pixel counts for bag {bag_id!r}")
    if not (n := w.size):
        raise WsibpError("truth contains no labelled instances")
    classes, inv = np.unique(np.concatenate([x.ravel() for x in p_lab + t_lab]),
                             return_inverse=True)
    p_idx, t_idx = inv[:n], inv[n:]
    match = p_idx == t_idx
    inter = np.bincount(p_idx[match], w[match], classes.size)
    pred_sz = np.bincount(p_idx, w, classes.size)
    truth_sz = np.bincount(t_idx, w, classes.size)
    present = truth_sz > 0
    inter, pred_sz, truth_sz = inter[present], pred_sz[present], truth_sz[present]
    iou = inter / (pred_sz + truth_sz - inter)
    return SegmentationScores(
        mean_iou=float(np.mean(iou)),
        per_pixel_accuracy=float(w[match].sum() / w.sum()),
        per_class_accuracy=float(np.mean(inter / truth_sz)),
        class_iou={int(c): v for c, v in zip(classes[present].tolist(), iou.tolist())},
    )
