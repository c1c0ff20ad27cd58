"""Mean-field variational learning and test-time inference.

The engine alternates three stages per outer iteration: a Gauss-Seidel
appearance sweep over factors, per-bag stick and factor-probability
updates (with spatial and factorial MRF messages folded into the logits),
and a recomputation of the inter-factor correlation matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    AppearanceModel,
    Bag,
    BagPosterior,
    CorrelationMatrix,
    DimensionMismatchError,
    ModelConfig,
    WeakLabels,
    digamma,
    log_sum_exp,
    sigmoid,
    validate_dataset,
)

LOGIT_CLIP = 30.0
VAR_FLOOR = 1e-12


@dataclass
class StickBoundCache:
    """Per-bag cached stick quantities for one sweep.

    ``q`` holds the multinomial bound weights row-wise (row k is a
    probability vector over s = 1..k); ``neg_log_terms[k]`` caches the
    lower bound on E[log(1 - prod_{t<=k} v_t)]; ``prior_cumsum[k]`` is
    sum_{t<=k} (psi(tau_t1) - psi(tau_t2)).
    """

    q: np.ndarray  # (k_max, k_max) lower-triangular
    neg_log_terms: np.ndarray  # (k_max,)
    prior_cumsum: np.ndarray  # (k_max,)

    @staticmethod
    def from_tau(tau: np.ndarray) -> "StickBoundCache":
        tau = np.asarray(tau, dtype=np.float64)
        if np.any(tau <= 0):
            raise ValueError("stick parameters must be > 0")
        k_max = tau.shape[0]
        d1 = digamma(tau[:, 0])
        d2 = digamma(tau[:, 1])
        d12 = digamma(tau[:, 0] + tau[:, 1])
        # w_s = psi(tau_s2) + sum_{t<s} psi(tau_t1) - sum_{t<=s} psi(tau_t1+tau_t2)
        w = d2 + np.concatenate([[0.0], np.cumsum(d1)[:-1]]) - np.cumsum(d12)
        q = np.zeros((k_max, k_max))
        neg_log = np.empty(k_max)
        for k in range(k_max):
            row = w[: k + 1]
            lse = log_sum_exp(row)
            q[k, : k + 1] = np.exp(row - lse)
            neg_log[k] = lse  # sum_s q_s w_s + H(q) collapses to logsumexp(w)
        return StickBoundCache(q=q, neg_log_terms=neg_log,
                               prior_cumsum=np.cumsum(d1 - d2))


def stick_bound(tau: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Multinomial-bound weights and lower bound for factor index k (1-based)."""
    tau = np.asarray(tau, dtype=np.float64)
    if not 1 <= k <= tau.shape[0]:
        raise ValueError(f"k must lie in [1, {tau.shape[0]}]")
    cache = StickBoundCache.from_tau(tau)
    return cache.q[k - 1, :k].copy(), float(cache.neg_log_terms[k - 1])


@dataclass
class FitResult:
    model: AppearanceModel
    posteriors: list[BagPosterior]
    correlation: CorrelationMatrix
    trace: list[tuple[float, float]]  # (mean |delta nu|, seconds) per iteration


def init_posterior(bag_n: int, labels: WeakLabels, config: ModelConfig,
                   rng: np.random.Generator) -> BagPosterior:
    k = config.k_max
    bits = labels.bits
    nu = (0.5 + rng.uniform(-0.01, 0.01, size=(bag_n, k))) * bits
    np.clip(nu, 0.0, 1.0, out=nu)
    tau = np.column_stack([np.full(k, config.alpha), np.ones(k)])
    return BagPosterior(tau=tau, nu=nu, logits=np.zeros((bag_n, k)))


def init_model(config: ModelConfig, feature_dim: int, vocab: list[str],
               rng: np.random.Generator) -> AppearanceModel:
    means = rng.normal(0.0, 0.01 * config.sigma_a, size=(config.k_max, feature_dim))
    variances = np.full(config.k_max, config.sigma_a ** 2)
    return AppearanceModel(means=means, variances=variances,
                           vocab=list(vocab), config=config)


def update_appearance(bags: list[Bag], posteriors: list[BagPosterior],
                      model: AppearanceModel, config: ModelConfig) -> None:
    """Gauss-Seidel sweep over factors, each using the freshest other means.

    Bags are combined in ascending index order, so the reduction is
    deterministic.
    """
    inv_s2 = 1.0 / config.sigma ** 2
    inv_sa2 = 1.0 / config.sigma_a ** 2
    residuals = [
        bag.features.astype(np.float64) - post.nu @ model.means
        for bag, post in zip(bags, posteriors)
    ]
    for k in range(config.k_max):
        mass = 0.0
        sq_mass = 0.0
        num = np.zeros(model.feature_dim)
        for post, resid in zip(posteriors, residuals):
            col = post.nu[:, k]
            mass += col.sum()
            sq_mass += (col * col).sum()
            num += col @ resid
        num += sq_mass * model.means[k]
        var = 1.0 / (inv_sa2 + inv_s2 * mass)
        var = max(var, VAR_FLOOR)
        new_mean = inv_s2 * num * var
        delta = new_mean - model.means[k]
        if np.any(delta):
            for post, resid in zip(posteriors, residuals):
                resid -= np.outer(post.nu[:, k], delta)
        model.means[k] = new_mean
        model.variances[k] = var


def update_stick(post: BagPosterior, cache: StickBoundCache,
                 config: ModelConfig, n_i: int) -> None:
    """Stick-breaking Beta parameter update from the current q weights."""
    k_max = config.k_max
    q = cache.q
    s = post.nu.sum(axis=0)  # sum_j nu_{jm}
    deficit = n_i - s
    tail = np.concatenate([np.cumsum(s[::-1])[::-1], [0.0]])
    tau = np.empty((k_max, 2))
    for k in range(k_max):
        cross = 0.0
        for m in range(k + 1, k_max):
            cross += deficit[m] * q[m, k + 1: m + 1].sum()
        tau[k, 0] = config.alpha + tail[k] + cross
        tau[k, 1] = 1.0 + (deficit[k:] * q[k:, k]).sum()
    post.tau = tau


def factor_logit(k: int, resid: np.ndarray, nu: np.ndarray,
                 model: AppearanceModel, cache: StickBoundCache,
                 config: ModelConfig) -> np.ndarray:
    """Pre-MRF logit of factor k for every instance; resid = x - nu @ means."""
    inv_2s2 = 0.5 / config.sigma ** 2
    phi = model.means[k]
    resid_k = resid + np.outer(nu[:, k], phi)
    quad = model.feature_dim * model.variances[k] + phi @ phi
    return (cache.prior_cumsum[k] - cache.neg_log_terms[k]
            - inv_2s2 * (quad - 2.0 * (resid_k @ phi)))


def add_mrf_messages(eta: np.ndarray, k: int, nu: np.ndarray,
                     src: np.ndarray, dst: np.ndarray,
                     correlation: CorrelationMatrix,
                     config: ModelConfig) -> np.ndarray:
    """eta + beta * (sum of neighbours' nu[:, k]) + rho * (nu @ M)[:, k].

    Instance src[i] receives nu[dst[i], k]; each undirected edge is listed
    in both directions. M has a zero diagonal, so k sends itself nothing.
    """
    if src.size:
        neigh = np.zeros(nu.shape[0])
        np.add.at(neigh, src, nu[dst, k])
        eta = eta + config.beta * neigh
    return eta + config.rho * (nu @ correlation.m[:, k])


def set_factor(post: BagPosterior, k: int, eta: np.ndarray,
               bit: float) -> np.ndarray:
    """Write logits[:, k] = eta and nu[:, k] = bit * sigmoid(clip(eta));
    return the change old - new of nu[:, k]."""
    post.logits[:, k] = eta
    new_col = bit * sigmoid(np.clip(eta, -LOGIT_CLIP, LOGIT_CLIP))
    change = post.nu[:, k] - new_col
    post.nu[:, k] = new_col
    return change


def _sweep_bag(bag: Bag, post: BagPosterior, model: AppearanceModel,
               correlation: CorrelationMatrix, config: ModelConfig,
               use_mrf: bool, update_sticks: bool = True) -> float:
    """One full per-bag update; returns the mean |delta nu| of the sweep.

    Factors are updated in ascending order, each seeing the freshest values
    of the others; instances are updated jointly per factor.
    """
    n = bag.n_instances
    if update_sticks:
        cache = StickBoundCache.from_tau(post.tau)
        update_stick(post, cache, config, n)
    cache = StickBoundCache.from_tau(post.tau)

    resid = bag.features.astype(np.float64) - post.nu @ model.means
    bits = bag.labels.bits
    edges = bag.edges.reshape(-1, 2)  # an empty edge list may be 1-D
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    total_delta = 0.0
    for k in range(config.k_max):
        eta = factor_logit(k, resid, post.nu, model, cache, config)
        if use_mrf:
            eta = add_mrf_messages(eta, k, post.nu, src, dst, correlation, config)
        change = set_factor(post, k, eta, bits[k])
        total_delta += np.abs(change).sum()
        resid += np.outer(change, model.means[k])
    return total_delta / (n * config.k_max)


def update_correlation(posteriors: list[BagPosterior],
                       labels: list[WeakLabels],
                       first_iteration: bool) -> CorrelationMatrix:
    """Recompute M from scratch: label outer products first, nu afterwards."""
    if first_iteration:
        m = sum(np.outer(lab.bits, lab.bits) for lab in labels)
    else:
        m = sum(post.nu.T @ post.nu for post in posteriors)
    m = np.asarray(m, dtype=np.float64)
    np.fill_diagonal(m, 0.0)
    m = 0.5 * (m + m.T)
    peak = m.max()
    if peak > 0:
        m /= peak
    return CorrelationMatrix(m)


def fit(bags: list[Bag], config: ModelConfig, vocab: list[str] | None = None,
        use_mrf: bool = True, threads: int = 1) -> FitResult:
    """Run the full variational learning loop until |delta nu| < tol.

    Bags are swept one after another. ``threads`` is accepted for
    compatibility and changes neither the output nor the speed.
    """
    handle = validate_dataset(bags, config)
    if vocab is None:
        vocab = config.default_vocab()
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    model = init_model(config, handle.feature_dim, vocab, rng)
    posteriors = [init_posterior(b.n_instances, b.labels, config, rng) for b in bags]
    all_labels = [b.labels for b in bags]
    correlation = update_correlation(posteriors, all_labels, first_iteration=True)

    trace: list[tuple[float, float]] = []
    for _ in range(config.max_iters):
        start = time.perf_counter()
        update_appearance(bags, posteriors, model, config)
        deltas = [_sweep_bag(bag, post, model, correlation, config, use_mrf)
                  for bag, post in zip(bags, posteriors)]
        total_n = sum(b.n_instances for b in bags)
        delta = float(np.dot(deltas, [b.n_instances for b in bags]) / total_n)
        correlation = update_correlation(posteriors, all_labels, first_iteration=False)
        trace.append((delta, time.perf_counter() - start))
        if delta < config.tol:
            break
    return FitResult(model=model, posteriors=posteriors,
                     correlation=correlation, trace=trace)


def infer_test(bag: Bag, model: AppearanceModel,
               correlation: CorrelationMatrix, config: ModelConfig,
               use_mrf: bool = True) -> BagPosterior:
    """Test-time inference: appearance and correlation frozen, labels all-ones."""
    labels = WeakLabels(np.ones(config.k_max))
    open_bag = Bag(features=bag.features, edges=bag.edges, labels=labels, id=bag.id)
    if validate_dataset([open_bag], config).feature_dim != model.feature_dim:
        raise DimensionMismatchError(
            f"bag {bag.id!r} has feature dim {bag.feature_dim}, "
            f"model expects {model.feature_dim}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    post = init_posterior(bag.n_instances, labels, config, rng)
    for _ in range(config.max_iters):
        delta = _sweep_bag(open_bag, post, model, correlation, config, use_mrf)
        if delta < config.tol:
            break
    return post


def fit_transductive(
    train_bags: list[Bag],
    test_bags: list[Bag],
    config: ModelConfig,
    test_labels: list[WeakLabels] | None = None,
    vocab: list[str] | None = None,
    use_mrf: bool = True,
    threads: int = 1,
) -> tuple[AppearanceModel, list[BagPosterior], FitResult]:
    """Joint fit over train + test bags; test labels default to all-ones."""
    if test_labels is None:
        test_labels = [WeakLabels(np.ones(config.k_max)) for _ in test_bags]
    if len(test_labels) != len(test_bags):
        raise DimensionMismatchError("one label vector required per test bag")
    relabeled = [
        Bag(features=b.features, edges=b.edges, labels=lab, id=b.id)
        for b, lab in zip(test_bags, test_labels)
    ]
    result = fit(train_bags + relabeled, config, vocab=vocab,
                 use_mrf=use_mrf, threads=threads)
    return result.model, result.posteriors[len(train_bags):], result
