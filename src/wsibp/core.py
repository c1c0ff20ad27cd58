"""Shared domain types, configuration and small math utilities.

Factor index layout is fixed everywhere: object factors occupy
``[0, k_objects)``, attribute factors ``[k_objects, k_objects+k_attributes)``
and the remaining ``k_extra`` slots hold unannotated background / latent
attribute factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class WsibpError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(WsibpError):
    pass


class DatasetError(WsibpError):
    pass


class DimensionMismatchError(DatasetError):
    pass


class EmptyDatasetError(DatasetError):
    pass


class EdgeIndexError(DatasetError):
    pass


class VocabMismatchError(DatasetError):
    pass


class FormatError(WsibpError):
    """Raised for unreadable or version-mismatched files."""


@dataclass(frozen=True)
class ModelConfig:
    """Scalar hyperparameters and run controls.

    ``k_max`` is always derived as ``k_objects + k_attributes + k_extra``.
    """

    k_objects: int
    k_attributes: int
    k_extra: int = 20
    alpha: float = 2.0
    sigma_a: float = 1.0
    sigma: float = 0.5
    beta: float = 1.0
    rho: float = 0.1
    max_iters: int = 1500
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        scalars = (self.alpha, self.sigma_a, self.sigma, self.beta, self.rho)
        if not np.all(np.isfinite(scalars)) or np.isnan(self.tol):
            raise ConfigError("alpha, sigma_a, sigma, beta and rho must be finite, "
                              "and tol a number")
        if self.alpha <= 0 or self.sigma_a <= 0 or self.sigma <= 0:
            raise ConfigError("alpha, sigma_a and sigma must be > 0")
        if self.beta < 0 or self.rho < 0:
            raise ConfigError("beta and rho must be >= 0")
        if self.k_objects < 0 or self.k_attributes < 0 or self.k_extra < 0:
            raise ConfigError("factor counts must be >= 0")
        if self.k_max <= 0:
            raise ConfigError("k_max must be > 0")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.tol < 0:
            raise ConfigError("tol must be >= 0")

    @property
    def k_annotated(self) -> int:
        return self.k_objects + self.k_attributes

    @property
    def k_max(self) -> int:
        return self.k_objects + self.k_attributes + self.k_extra

    def default_vocab(self) -> list[str]:
        return (
            [f"obj{k}" for k in range(self.k_objects)]
            + [f"att{k}" for k in range(self.k_attributes)]
            + [f"bg{k}" for k in range(self.k_extra)]
        )


@dataclass(frozen=True)
class WeakLabels:
    """Bag-level binary availability vector over all k_max factors.

    Unannotated slots (index >= k_annotated) are always available (bit 1).
    """

    bits: np.ndarray

    @staticmethod
    def from_annotated(annotated: np.ndarray, config: ModelConfig) -> "WeakLabels":
        """Pad a length-k_annotated 0/1 vector with always-on extra slots."""
        annotated = np.asarray(annotated, dtype=np.float64).ravel()
        if annotated.size != config.k_annotated:
            raise DimensionMismatchError(
                f"annotated label vector has length {annotated.size}, "
                f"expected {config.k_annotated}"
            )
        bits = np.concatenate([annotated, np.ones(config.k_extra)])
        return WeakLabels(bits)


@dataclass(frozen=True)
class Bag:
    """One image: instance features, adjacency and weak labels."""

    features: np.ndarray  # (N_i, D)
    edges: np.ndarray  # (E, 2) int, unordered pairs
    labels: WeakLabels
    id: str

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class AppearanceModel:
    """Per-factor Gaussian appearance posterior (mean rows + scalar variances)."""

    means: np.ndarray  # (k_max, D)
    variances: np.ndarray  # (k_max,), each interpreted as scalar * I
    vocab: list[str]
    config: ModelConfig

    @property
    def feature_dim(self) -> int:
        return self.means.shape[1]


@dataclass
class BagPosterior:
    """Per-bag variational state: stick parameters, factor probabilities, logits."""

    tau: np.ndarray  # (k_max, 2)
    nu: np.ndarray  # (N_i, k_max)
    logits: np.ndarray  # (N_i, k_max), post-MRF values from the last sweep


@dataclass
class CorrelationMatrix:
    """Symmetric non-negative inter-factor co-occurrence matrix, zero diagonal."""

    m: np.ndarray  # (k_max, k_max)

    @staticmethod
    def zeros(k_max: int) -> "CorrelationMatrix":
        return CorrelationMatrix(np.zeros((k_max, k_max)))


def validate_dataset(bags: list[Bag], config: ModelConfig, dim: int | None = None) -> int:
    """Check every bag and return the feature dim they share: ``dim`` (a model's), or
    by default the first bag's. Each bag needs that dim, at least one instance, finite
    features, label bits that ``config`` accepts and edges in range without self-edges;
    there must be at least one bag. A dataset that fails the checks over all bags at
    once is walked, to raise its first bag's fault."""
    if not bags:
        raise EmptyDatasetError("dataset contains no bags")
    dim = bags[0].feature_dim if dim is None else dim
    if len(bags) == 1 or not _all_valid(bags, dim, config):  # one bag is cheaper walked
        for bag in bags:
            _validate_bag(bag, dim, config)
    return dim


def _all_valid(bags: list[Bag], dim: int, config: ModelConfig) -> bool:
    """Whether no bag has a fault that ``_validate_bag`` raises, in a few passes over
    the stacked label bits, features and edges (each edge beside its bag's size)."""
    try:
        if any(b.feature_dim != dim or b.labels.bits.shape != (config.k_max,) or b.edges.size
               and (b.edges.ndim != 2 or b.edges.shape[1] != 2) for b in bags):
            return False
        counts = np.array([b.n_instances for b in bags])
        bits = np.array([b.labels.bits for b in bags])
        x = np.concatenate([b.features for b in bags])
        edges = np.concatenate([b.edges.reshape(-1, 2) for b in bags])
    except (AttributeError, IndexError, TypeError, ValueError):  # walked to raise as before
        return False
    ends = np.repeat(counts, [b.edges.size // 2 for b in bags])[:, None]
    return bool(counts.all() and ((bits == 0.0) | (bits == 1.0)).all()
                and (bits[:, config.k_annotated:] == 1.0).all() and np.isfinite(x).all()
                and (edges >= 0).all() and (edges < ends).all()
                and (edges[:, 0] != edges[:, 1]).all())


def _validate_bag(bag: Bag, dim: int, config: ModelConfig) -> None:
    if bag.feature_dim != dim:
        raise DimensionMismatchError(f"bag {bag.id!r} has feature dim {bag.feature_dim}, "
                                     f"expected {dim}")
    if bag.n_instances == 0:
        raise DatasetError(f"bag {bag.id!r} has no instances")
    if not np.isfinite(bag.features).all():
        raise DatasetError(f"bag {bag.id!r} has non-finite feature values")
    bits = bag.labels.bits
    if bits.shape != (config.k_max,):
        raise DimensionMismatchError(f"label vector has shape {bits.shape}, "
                                     f"expected ({config.k_max},)")
    if not ((bits == 0.0) | (bits == 1.0)).all():
        raise DatasetError("label bits must be 0 or 1")
    if not (bits[config.k_annotated:] == 1.0).all():
        raise DatasetError("unannotated factor slots must have label bit 1")
    if bag.edges.size:
        if bag.edges.ndim != 2 or bag.edges.shape[1] != 2:
            raise EdgeIndexError(f"bag {bag.id!r} edge list must be (E, 2)")
        if bag.edges.min() < 0 or bag.edges.max() >= bag.n_instances:
            raise EdgeIndexError(f"bag {bag.id!r} has an edge endpoint outside "
                                 f"[0, {bag.n_instances})")
        if (bag.edges[:, 0] == bag.edges[:, 1]).any():
            raise EdgeIndexError(f"bag {bag.id!r} contains a self-edge")


# --- math utilities ---------------------------------------------------------

_DIGAMMA_SHIFT = 8
# 0-d float64 operands: NumPy takes them with less work per call than Python floats
_EIGHT, _ONE, _HALF, _C12, _C120, _C252, _C240 = map(
    np.array, (8.0, 1.0, 0.5, 1.0 / 12.0, 1.0 / 120.0, 1.0 / 252.0, 240.0))


def digamma(x):
    """Digamma via upward recurrence to x >= 8 plus asymptotic series.

    Any x > 0 passes the shift within 8 steps. Each step runs on the whole array:
    every x still below the shift gains 1 and psi(x) = psi(x+n) - sum_{i<n} 1/(x+i)
    loses its reciprocal, in step order, so the bits match a per-element loop. Rounding
    keeps x + 1 in order, so the steps stop once the smallest x has passed the shift."""
    x = np.array(x, dtype=np.float64)  # a copy: the steps shift it in place
    low = x.min(initial=np.inf)  # NaN if any x is
    if not low > 0:
        raise ValueError("digamma defined here for x > 0 only")
    acc = np.zeros_like(x)
    small, step = np.empty_like(x), np.empty_like(x)  # small: 1.0 where x < 8, else 0.0
    while low < _DIGAMMA_SHIFT:
        low += 1.0
        np.less(x, _EIGHT, out=small)
        np.subtract(acc, np.divide(small, x, out=step), out=acc)  # 1/x where small, else +0
        np.add(x, small, out=x)
    inv2 = _ONE / (x * x)
    # psi(x) ~ ln x - 1/(2x) - 1/(12x^2) + 1/(120x^4) - 1/(252x^6) + 1/(240x^8)
    series = (
        np.log(x)
        - _HALF / x
        - inv2 * (_C12 - inv2 * (_C120 - inv2 * (_C252 - inv2 / _C240)))
    )
    return acc + series
