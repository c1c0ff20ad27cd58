"""Synthetic data sampled from the model's generative process.

Ground-truth latent assignments are retained so that tests and demos can
score recovery against the sampler that produced the data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Bag, DatasetError, ModelConfig, WeakLabels


@dataclass
class SyntheticDataset:
    bags: list[Bag]
    true_z: list[np.ndarray]  # per bag, (N_i, k_max) in {0, 1}
    true_a: np.ndarray  # (k_max, D)
    true_pi: list[np.ndarray]  # per bag, (k_max,)
    config: ModelConfig


def grid_edges(n: int) -> np.ndarray:
    """4-neighbour grid adjacency over n instances laid out row-major: per instance, the
    edge to its right neighbour, then the one to the neighbour below, where they exist."""
    if n <= 0:
        raise DatasetError("need at least one instance")
    width = int(np.ceil(np.sqrt(n)))
    j = np.arange(n, dtype=np.int64)
    pairs = np.stack([np.stack([j, j + 1], axis=1), np.stack([j, j + width], axis=1)], axis=1)
    keep = np.stack([(j % width + 1 < width) & (j + 1 < n), j + width < n], axis=1)
    return pairs[keep]


def _emit_features(z: np.ndarray, a: np.ndarray, sigma: float,
                   rng: np.random.Generator) -> np.ndarray:
    x = z @ a + rng.normal(0.0, sigma, size=(z.shape[0], a.shape[1]))
    return x.astype(np.float32)


def sample_dataset(
    config: ModelConfig,
    num_bags: int,
    instances_per_bag: int,
    feature_dim: int,
    grid_adjacency: bool = True,
    labels: list[np.ndarray] | float = 0.5,
    seed: int | None = None,
) -> SyntheticDataset:
    """Draw a dataset from the generative process, keeping ground truth.

    ``labels`` is either a list of per-bag annotated label vectors
    (length k_annotated) or a density in [0, 1] for i.i.d. random labels.
    All randomness derives from ``seed`` (falling back to config.seed).
    """
    if num_bags <= 0 or instances_per_bag <= 0 or feature_dim <= 0:
        raise DatasetError("num_bags, instances_per_bag and feature_dim must be > 0")
    if isinstance(labels, (int, float)) and not 0.0 <= float(labels) <= 1.0:
        raise DatasetError("label density must lie in [0, 1]")
    if seed is None:
        seed = config.seed
    root = np.random.SeedSequence(seed)
    a_seed, *bag_seeds = root.spawn(num_bags + 1)
    rng_a = np.random.default_rng(a_seed)

    k = config.k_max
    true_a = rng_a.normal(0.0, config.sigma_a, size=(k, feature_dim))
    edges = grid_edges(instances_per_bag) if grid_adjacency \
        else np.zeros((0, 2), dtype=np.int64)

    bags, zs, pis = [], [], []
    for i in range(num_bags):
        rng = np.random.default_rng(bag_seeds[i])
        if isinstance(labels, (int, float)):
            annotated = (rng.random(config.k_annotated) < float(labels)).astype(np.float64)
        else:
            annotated = np.asarray(labels[i], dtype=np.float64)
        weak = WeakLabels.from_annotated(annotated, config)

        v = rng.beta(config.alpha, 1.0, size=k)
        pi = np.cumprod(v)
        z = (rng.random((instances_per_bag, k)) < pi * weak.bits).astype(np.float64)
        x = _emit_features(z, true_a, config.sigma, rng)
        bags.append(Bag(features=x, edges=edges.copy(), labels=weak, id=f"bag{i:04d}"))
        zs.append(z)
        pis.append(pi)
    return SyntheticDataset(bags=bags, true_z=zs, true_a=true_a,
                            true_pi=pis, config=config)


def plant_correlation(
    dataset: SyntheticDataset,
    pairs: list[tuple[int, int]],
    strength: float,
    seed: int = 0,
) -> SyntheticDataset:
    """Force co-activation z_l = 1 (with given probability) wherever z_k = 1.

    Features are re-emitted from the edited assignments so the likelihood
    model stays exact.
    """
    k_max = dataset.config.k_max
    for k, l in pairs:
        if not (0 <= k < k_max and 0 <= l < k_max):
            raise DatasetError(f"planted pair ({k}, {l}) outside [0, {k_max})")
    if not 0.0 <= strength <= 1.0:
        raise DatasetError("strength must lie in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    new_bags, new_z = [], []
    for bag, z in zip(dataset.bags, dataset.true_z):
        z = z.copy()
        changed = False
        for k, l in pairs:
            on = z[:, k] == 1.0
            flips = on & (rng.random(z.shape[0]) < strength)
            if flips.any():
                z[flips, l] = 1.0
                changed = True
        if changed:
            x = _emit_features(z, dataset.true_a, dataset.config.sigma, rng)
            bits = bag.labels.bits.copy()
            bits[z.max(axis=0) == 1.0] = 1.0  # keep masking consistent
            bag = replace(bag, features=x, labels=WeakLabels(bits))
        new_bags.append(bag)
        new_z.append(z)
    return SyntheticDataset(bags=new_bags, true_z=new_z, true_a=dataset.true_a,
                            true_pi=dataset.true_pi, config=dataset.config)


def smooth_spatially(
    dataset: SyntheticDataset,
    rounds: int = 2,
    seed: int = 0,
) -> SyntheticDataset:
    """Majority-vote ground-truth assignments over the grid and re-emit features.

    Produces spatially coherent synthetic bags for exercising the spatial MRF.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    new_bags, new_z = [], []
    for bag, z in zip(dataset.bags, dataset.true_z):
        z = z.copy()
        if bag.edges.size:
            neigh = [[] for _ in range(bag.n_instances)]
            for a, b in bag.edges:
                neigh[a].append(b)
                neigh[b].append(a)
            for _ in range(rounds):
                nxt = z.copy()
                for j in range(bag.n_instances):
                    if neigh[j]:
                        nxt[j] = (z[neigh[j]].mean(axis=0) >= 0.5).astype(np.float64)
                z = nxt
        z *= bag.labels.bits  # masking survives smoothing
        x = _emit_features(z, dataset.true_a, dataset.config.sigma, rng)
        new_bags.append(replace(bag, features=x))
        new_z.append(z)
    return SyntheticDataset(bags=new_bags, true_z=new_z, true_a=dataset.true_a,
                            true_pi=dataset.true_pi, config=dataset.config)
