"""Downstream applications of inferred posteriors: annotation, query, segmentation.

All ranking is by descending score with stable tie-breaking on the lowest
index; no thresholds are applied at this layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BagPosterior, ModelConfig, WsibpError


@dataclass
class Annotation:
    object: int  # factor index < k_objects
    object_score: float  # the object factor's mean nu over the bag's instances
    object_instance: int  # argmax instance j*
    attributes: list[tuple[int, float]]  # (attribute factor index, nu), descending


@dataclass
class SegmentationMap:
    labels: np.ndarray  # (N_i,) object factor indices
    scores: np.ndarray  # winning nu values


def _rank_desc(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by descending score, ties broken by lowest index."""
    return np.lexsort((np.arange(scores.size), -scores))


def _object_scores(post: BagPosterior, config: ModelConfig) -> np.ndarray:
    """Each object's mean nu over the bag's instances, (k_objects,): a row-major copy
    sums in row order, whatever the layout of post.nu."""
    return np.ascontiguousarray(post.nu[:, :config.k_objects]).mean(axis=0)


def free_annotation(post: BagPosterior, config: ModelConfig,
                    top_objects: int = 1, top_attributes: int = 2) -> list[Annotation]:
    """Rank objects by their inferred usage rate in the bag (mean activation
    across instances), then annotate each as ``annotate_given_object`` does."""
    if not 1 <= top_objects <= config.k_objects:
        raise WsibpError(
            f"top_objects {top_objects} outside [1, k_objects {config.k_objects}]"
        )
    return [annotate_given_object(post, config, int(k), top_attributes)
            for k in _rank_desc(_object_scores(post, config))[:top_objects]]


def annotate_given_object(post: BagPosterior, config: ModelConfig,
                          object_k: int, top_attributes: int = 2) -> Annotation:
    """Attributes for a named object, located at its highest-probability
    instance."""
    if not 0 <= object_k < config.k_objects:
        raise WsibpError(f"object index {object_k} outside [0, {config.k_objects})")
    if top_attributes < 0:
        raise WsibpError(f"top_attributes {top_attributes} is negative")
    j_star = int(np.argmax(post.nu[:, object_k]))  # np.argmax takes the lowest index on ties
    lo, hi = config.k_objects, config.k_annotated
    scores = post.nu[j_star, lo:hi]
    return Annotation(
        object=object_k,
        object_score=float(_object_scores(post, config)[object_k]),
        object_instance=j_star,
        attributes=[(lo + int(a), float(scores[a])) for a in _rank_desc(scores)[:top_attributes]],
    )


def rank_query(posteriors: list[tuple[str, BagPosterior]], config: ModelConfig,
               object_k: int, attributes: list[int]) -> list[tuple[str, int, float]]:
    """Rank bags for an object(+attribute) conjunction.

    The score is the max over instances of the product of the queried factor
    probabilities at that single instance, enforcing co-location.
    """
    if not 0 <= object_k < config.k_objects:
        raise WsibpError(f"object index {object_k} outside [0, {config.k_objects})")
    for a in attributes:
        if not config.k_objects <= a < config.k_annotated:
            raise WsibpError(
                f"attribute index {a} outside [{config.k_objects}, {config.k_annotated})"
            )
    factors = [object_k] + list(attributes)
    rows = []
    for bag_id, post in posteriors:
        prod = np.prod(post.nu[:, factors], axis=1)
        j_star = int(np.argmax(prod))
        rows.append((bag_id, j_star, float(prod[j_star])))
    order = _rank_desc(np.array([r[2] for r in rows]))
    return [rows[int(i)] for i in order]


def segment(post: BagPosterior, config: ModelConfig) -> SegmentationMap:
    """Label each instance with its highest-probability object factor."""
    obj = post.nu[:, : config.k_objects]
    labels = obj.argmax(axis=1)
    return SegmentationMap(labels=labels,
                           scores=obj[np.arange(obj.shape[0]), labels])
