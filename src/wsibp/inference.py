"""Mean-field variational learning and test-time inference.

The engine alternates three stages per outer iteration: a Gauss-Seidel
appearance sweep over factors, stick and factor-probability updates (with
spatial and factorial MRF messages folded into the logits), and a
recomputation of the inter-factor correlation matrix. Bags are swept in
groups (``BagGroup``), so each stage runs once per factor per group. ``init_group``
builds one in a single step: one draw of ν for all its rows, stored factor-major,
``(k_max, rows)``, as are the logits; τ = (α, 1) with its stick cache, taken once per
(α, k_max); each bag's ``BagPosterior`` as views of its rows and τ; the features as one
``(rows, D)`` block and the neighbours as O(edges) slot lists.
The model's logit terms (``sweep_terms``, ``project``) are taken once per fit
iteration and per ``infer_test`` call, sum νᵀν (``nu_gram``) at set-up and after
each sweep. ``infer_test`` sweeps a group of one.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    AppearanceModel,
    Bag,
    BagPosterior,
    CorrelationMatrix,
    ModelConfig,
    WeakLabels,
    digamma,
    validate_dataset,
)

LOGIT_CLIP = 30.0
VAR_FLOOR = 1e-12
GROUP_ROWS = 1024  # instances per packed group; packing every bag at once raised peak RSS


@dataclass
class StickBoundCache:
    """Cached stick quantities of one bag, or of several along leading axes:
    ``w[..., s]`` are the log weights of the multinomial bound;
    ``neg_log_terms[..., k]`` = logsumexp(w[..., :k+1]) is the lower bound on
    E[log(1 - prod_{t<=k} v_t)]; ``prior_cumsum[..., k]`` is
    sum_{t<=k} (psi(tau_t1) - psi(tau_t2)).
    """

    w: np.ndarray  # (..., k_max)
    neg_log_terms: np.ndarray  # (..., k_max)
    prior_cumsum: np.ndarray  # (..., k_max)

    @staticmethod
    def from_tau(tau: np.ndarray) -> "StickBoundCache":
        """The cache of tau (..., k_max, 2): one ``digamma`` call over the stacked
        (3, ..., k_max) arguments tau_1, tau_2, tau_1 + tau_2, then cumulative sums
        along the factor axis, with w built in place in psi(tau_2)'s row. ``digamma``
        raises ValueError unless every tau is > 0."""
        tau = np.asarray(tau, dtype=np.float64)
        t1, t2 = tau[..., 0], tau[..., 1]
        d1, d2, d12 = digamma(np.array([t1, t2, t1 + t2]))
        prior_cumsum = np.cumsum(d1 - d2, axis=-1)
        # w_s = psi(tau_s2) + sum_{t<s} psi(tau_t1) - sum_{t<=s} psi(tau_t1+tau_t2)
        w = d2
        w[..., 1:] += np.cumsum(d1[..., :-1], axis=-1)
        w -= np.cumsum(d12, axis=-1)
        # sum_s q_s w_s + H(q) collapses to logsumexp(w[..., :k+1])
        return StickBoundCache(w=w, neg_log_terms=np.logaddexp.accumulate(w, axis=-1),
                               prior_cumsum=prior_cumsum)


@functools.lru_cache(maxsize=16)
def _start_cache(alpha: float, k_max: int) -> StickBoundCache:
    """The cache of the starting tau = (alpha, 1), (1, k_max) each, taken once per
    (alpha, k_max) and shared, so read-only; ``init_group`` repeats it per bag."""
    one = StickBoundCache.from_tau(np.tile([alpha, 1.0], (1, k_max, 1)))
    for a in vars(one).values():
        a.flags.writeable = False
    return one


@dataclass
class FitResult:
    model: AppearanceModel
    posteriors: list[BagPosterior]
    correlation: CorrelationMatrix
    trace: list[tuple[float, float]]  # (mean |delta nu|, seconds) per iteration


def init_model(config: ModelConfig, feature_dim: int, vocab: list[str],
               rng: np.random.Generator) -> AppearanceModel:
    means = rng.normal(0.0, 0.01 * config.sigma_a, size=(config.k_max, feature_dim))
    variances = np.full(config.k_max, config.sigma_a ** 2)
    return AppearanceModel(means=means, variances=variances,
                           vocab=list(vocab), config=config)


@dataclass
class BagGroup:
    """Consecutive bags swept together, their rows back to back along axis 1 of the
    factor-major arrays: each bag's ``BagPosterior.nu`` is the view ``nu[:, rows].T``."""

    x: np.ndarray  # (rows, D) the bags' features stacked (a lone bag's own array)
    rows: list[slice]  # per bag, its rows of the group
    counts: np.ndarray  # (M,) instances per bag
    bits: np.ndarray  # (k_max, rows) bool, each row's label bits
    nbr: np.ndarray  # (wide slots, rows) j-th neighbour of each row, else the index rows
    tail: list[tuple[np.ndarray, np.ndarray]]  # later slots: (rows of degree > j, neighbours)
    tau: np.ndarray  # (M, k_max, 2) stick parameters
    nu: np.ndarray  # (k_max, rows)
    logits: np.ndarray  # (k_max, rows)
    cache: StickBoundCache  # of tau, (M, k_max) each
    posteriors: list[BagPosterior]  # per bag, views of tau, nu and logits


def init_group(bags: list[Bag], config: ModelConfig, rng: np.random.Generator) -> BagGroup:
    """Consecutive bags as one group at its starting state: nu = 0.5 + U(-0.01, 0.01) times
    the label bit, one draw over the rows in bag order (the numbers of one draw per bag),
    tau = (alpha, 1) with the shared start cache repeated, and zero logits; each bag's
    posterior views its rows and tau. Slot j holds each row's j-th neighbour over the
    directed edges (each as given, then reversed): ``nbr`` the slots of a quarter of the
    rows or more, padded with the index rows, ``tail`` each later one's rows, ascending,
    and neighbours: at most 4 indices per directed edge, whatever the degrees."""
    counts = np.array([b.n_instances for b in bags])
    size, k = int(counts.sum()), config.k_max
    rows = [slice(a - n, a) for a, n in zip(np.cumsum(counts).tolist(), counts.tolist())]
    bits = np.repeat(np.array([b.labels.bits for b in bags]).T > 0, counts, axis=1)
    # row-major first, as per-bag draws were: other orders moved the sweeps' temporaries
    # in the heap, and glibc trimmed and regrew it every iteration (see CHANGES.md)
    draw, zeros = rng.uniform(-0.01, 0.01, size=(size, k)), np.zeros((size, k))
    nu, logits = (np.empty((k, size)) for _ in range(2))
    np.add(draw.T, 0.5, out=nu)
    nu *= bits
    logits[:] = zeros.T
    tau = np.tile([config.alpha, 1.0], (len(bags), k, 1))
    one = _start_cache(config.alpha, k)  # every bag's tau is the same
    cache = StickBoundCache(*(a.repeat(len(bags), axis=0) for a in vars(one).values()))
    edges = np.concatenate([b.edges.reshape(-1, 2) + r.start  # an empty list may be 1-D
                            for b, r in zip(bags, rows)]).astype(np.intp)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], np.concatenate([edges[:, 1], edges[:, 0]])[order]
    slot = np.arange(src.size) - np.searchsorted(src, src)  # place among its row's edges
    wide = np.count_nonzero(4 * np.bincount(slot) >= size)  # rows per slot never grow
    near = slot < wide
    nbr = np.full((wide, size), size)
    nbr[slot[near], src[near]] = dst[near]
    rest = np.flatnonzero(~near)
    rest = rest[np.argsort(slot[rest], kind="stable")]
    ends = np.cumsum(np.bincount(slot)[wide:]).tolist()  # where each later slot ends
    tail = [(src[rest[a:b]], dst[rest[a:b]]) for a, b in zip([0] + ends, ends)]
    x = bags[0].features if len(bags) == 1 else np.concatenate([b.features for b in bags])
    posteriors = [BagPosterior(tau=t, nu=nu[:, r].T, logits=logits[:, r].T)
                  for t, r in zip(tau, rows)]
    return BagGroup(x=x, rows=rows, counts=counts, bits=bits, nbr=nbr, tail=tail, tau=tau,
                    nu=nu, logits=logits, cache=cache, posteriors=posteriors)


def _group_bags(bags: list[Bag]):
    """Runs of consecutive bags of at most GROUP_ROWS instances; a larger bag runs alone."""
    run, total = [], 0
    for bag in bags:
        if run and total + bag.n_instances > GROUP_ROWS:
            yield run
            run, total = [], 0
        run.append(bag)
        total += bag.n_instances
    yield run


def nu_gram(groups: list[BagGroup]) -> np.ndarray:
    """sum nu nu^T over the groups in order (k_max, k_max): fit takes it once at set-up
    and once after each sweep, for M and for the next appearance update."""
    return sum(g.nu @ g.nu.T for g in groups)


def update_appearance(groups: list[BagGroup], gram: np.ndarray, model: AppearanceModel,
                      config: ModelConfig) -> None:
    """Gauss-Seidel sweep over factors, each using the freshest other means.

    With S = ``gram`` (``nu_gram`` of the groups) and R = sum nu x over the groups in
    order (so the reduction is deterministic; nu factor-major), nu[k] @ (x - nu^T @
    means) = R[k] - S[k] @ means.
    """
    inv_s2 = 1.0 / config.sigma ** 2
    inv_sa2 = 1.0 / config.sigma_a ** 2
    proj = sum(g.nu @ g.x for g in groups)
    mass = sum(g.nu.sum(axis=1) for g in groups)
    for k in range(config.k_max):
        num = proj[k] - gram[k] @ model.means + gram[k, k] * model.means[k]
        var = max(1.0 / (inv_sa2 + inv_s2 * mass[k]), VAR_FLOOR)
        model.means[k] = inv_s2 * num * var
        model.variances[k] = var


def update_stick(group: BagGroup, config: ModelConfig) -> None:
    """Closed-form stick Beta update of a group's bags from their cache. With
    d_m = n - sum_j nu_jm and G = neg_log_terms, q_mk = exp(w_k - G_m), so the sums
    over m of d_m q_mk are suffix log-sum-exps of log d_m - G_m (Doshi-Velez et al.,
    2009)."""
    counts = group.counts
    s = np.add.reduceat(group.nu, np.cumsum(counts) - counts, axis=1).T  # (M, k_max)
    w, g = group.cache.w, group.cache.neg_log_terms
    deficit = counts[:, None] - s
    with np.errstate(divide="ignore"):
        log_d = np.log(deficit) - g

    def suffix(op, x):  # op over m >= k
        return op.accumulate(x[:, ::-1], axis=1)[:, ::-1]

    lse = suffix(np.logaddexp, log_d)
    tau1, tau2 = group.tau[..., 0], group.tau[..., 1]
    np.add(config.alpha, suffix(np.add, s), out=tau1)
    # the cross term sums over m > k, so the last factor has none
    tau1[:, :-1] += suffix(np.add, deficit)[:, 1:] - np.exp(g[:, :-1] + lse[:, 1:])
    np.exp(w + lse, out=tau2)
    tau2 += 1.0


def sweep_terms(model: AppearanceModel, correlation: CorrelationMatrix,
                config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The logit terms fixed while the model is, with G = means @ means.T:
    ``coupling`` = -(G - diag G) / sigma^2 + rho * M.T (rho = 0 adds zeros) and
    ``quad`` (k_max,) = (D var_k + G_kk) / (2 sigma^2)."""
    inv_s2 = 1.0 / config.sigma ** 2
    gram = model.means @ model.means.T
    quad = 0.5 * inv_s2 * (model.feature_dim * model.variances + np.diag(gram))
    coupling = -inv_s2 * gram
    np.fill_diagonal(coupling, 0.0)
    coupling += config.rho * correlation.m.T
    return coupling, quad


def project(group: BagGroup, model: AppearanceModel, config: ModelConfig) -> np.ndarray:
    """means @ x^T / sigma^2 for the group's rows, (k_max, rows)."""
    proj = model.means @ group.x.T
    proj *= 1.0 / config.sigma ** 2
    return proj


def base_logits(group: BagGroup, proj: np.ndarray, quad: np.ndarray,
                msgs: np.ndarray) -> np.ndarray:
    """Logits of one sweep before the couplings, (k_max, rows), added in place into
    ``mrf_messages``'s output: messages + each row's stick prior - quad + proj, the
    prior read from the group's stick cache."""
    const = group.cache.prior_cumsum - group.cache.neg_log_terms - quad  # (M, k_max)
    msgs += np.repeat(const.T, group.counts, axis=1)
    msgs += proj
    return msgs


def factor_logit(group: BagGroup, k: int, base: np.ndarray, coupling: np.ndarray) -> None:
    """Write factor k's logit, coupling[k] @ nu + base[k] (nu factor-major), straight
    into logits[k]: with resid = x - nu^T @ means, the residual form's resid @ phi_k +
    nu_k G_kk equals x @ phi_k - sum_{j != k} nu_j G_jk, and rho * (M^T nu)[k] rides
    in coupling."""
    eta = group.logits[k]
    np.matmul(coupling[k], group.nu, out=eta)
    eta += base[k]


def mrf_messages(group: BagGroup, config: ModelConfig) -> np.ndarray:
    """beta * (sum of each row's neighbours' nu), (k_max, rows), for a whole sweep:
    only factor k writes nu[k], so its start-of-sweep value is what factor k reads.
    Slot j adds each row's j-th neighbour (a pad reads the appended zero column), so
    every row sums from zero in directed-edge order, as np.bincount over them does."""
    nu = np.concatenate([group.nu, np.zeros((len(group.nu), 1))], axis=1)
    acc = np.zeros_like(group.nu)
    for d in group.nbr:
        acc += nu.take(d, axis=1)
    for r, d in group.tail:
        acc[:, r] += nu.take(d, axis=1)
    return np.multiply(acc, config.beta, out=acc)


def set_factor(group: BagGroup, k: int, bit) -> None:
    """nu[k] = bit / (1 + exp(-clip(logits[k]))), bit a scalar or one per row (bool
    or 0/1), so masked rows are +0. nu[k] is the work row, and logits[k] keeps the
    unclipped logit; with |clip| <= LOGIT_CLIP the exponential cannot overflow."""
    nu = group.nu[k]
    np.maximum(group.logits[k], -LOGIT_CLIP, out=nu)
    np.minimum(nu, LOGIT_CLIP, out=nu)
    np.exp(np.negative(nu, out=nu), out=nu)
    nu += 1.0
    np.divide(bit, nu, out=nu)


def _sweep_bag(group: BagGroup, proj: np.ndarray, terms: tuple[np.ndarray, np.ndarray],
               config: ModelConfig, update_sticks: bool = True) -> float:
    """One sweep of a group; returns the mean |delta nu|. ``proj`` (``project``'s) and
    ``terms`` (``sweep_terms``'s) are fixed while the model is. The stick stage runs
    once for all the bags and keeps the new tau's cache; ``base_logits`` adds the rest
    of the fixed logit into ``mrf_messages``'s output (start-of-sweep nu), so a factor
    costs one mat-vec into its logits (``factor_logit``) and one squash
    (``set_factor``), factors ascending, each seeing the freshest others, all rows
    jointly. At beta = rho = 0 both couplings add zeros."""
    if update_sticks:
        update_stick(group, config)
        group.cache = StickBoundCache.from_tau(group.tau)
    coupling, quad = terms
    base = base_logits(group, proj, quad, mrf_messages(group, config))
    bits = group.bits
    change = group.nu.copy()
    for k in range(config.k_max):
        factor_logit(group, k, base, coupling)
        set_factor(group, k, bits[k])
    np.subtract(change, group.nu, out=change)
    return sum(np.abs(change, out=change).sum(axis=1).tolist()) / change.size


def update_correlation(counts: np.ndarray) -> CorrelationMatrix:
    """M from a co-occurrence sum (k_max, k_max), the labels' at set-up and ``nu_gram``
    after each sweep: zero diagonal, symmetrised, scaled to a peak of 1."""
    m = np.array(counts, dtype=np.float64)
    np.fill_diagonal(m, 0.0)
    m = 0.5 * (m + m.T)
    return CorrelationMatrix(m / m.max() if m.max() > 0 else m)


def fit(bags: list[Bag], config: ModelConfig, vocab: list[str] | None = None) -> FitResult:
    """Run the full variational learning loop until |delta nu| < tol.

    The spatial and factorial MRFs always run: ``dataclasses.replace(config,
    beta=0.0, rho=0.0)`` is the MRF-free weakly-supervised stacked IBP.

    Consecutive bags make groups of at most ``GROUP_ROWS`` instances (a larger bag is a
    group of its own); the returned posteriors are views of the groups' arrays.
    """
    dim = validate_dataset(bags, config)
    if vocab is None:
        vocab = config.default_vocab()
    rng = np.random.default_rng(config.seed)
    model = init_model(config, dim, vocab, rng)
    groups = [init_group(run, config, rng) for run in _group_bags(bags)]
    gram = nu_gram(groups)
    bits = np.array([b.labels.bits for b in bags])
    correlation = update_correlation(bits.T @ bits)  # sums of 0/1 products, exact
    sizes = [g.nu.shape[1] for g in groups]

    trace: list[tuple[float, float]] = []
    for _ in range(config.max_iters):
        start = time.perf_counter()
        update_appearance(groups, gram, model, config)
        terms = sweep_terms(model, correlation, config)
        deltas = [_sweep_bag(g, project(g, model, config), terms, config) for g in groups]
        delta = float(np.dot(deltas, sizes) / sum(sizes))
        gram = nu_gram(groups)
        correlation = update_correlation(gram)
        trace.append((delta, time.perf_counter() - start))
        if delta < config.tol:
            break
    return FitResult(model=model, posteriors=[p for g in groups for p in g.posteriors],
                     correlation=correlation, trace=trace)


def infer_test(bag: Bag, model: AppearanceModel,
               correlation: CorrelationMatrix, config: ModelConfig) -> BagPosterior:
    """Test-time inference: appearance and correlation frozen, labels all-ones.

    The bag is swept as a group of one; the model's logit terms and the features'
    projection are taken once, before the first sweep.
    """
    open_bag = replace(bag, labels=WeakLabels(np.ones(config.k_max)))
    validate_dataset([open_bag], config, model.feature_dim)
    group = init_group([open_bag], config, np.random.default_rng(config.seed))
    proj, terms = project(group, model, config), sweep_terms(model, correlation, config)
    for _ in range(config.max_iters):
        delta = _sweep_bag(group, proj, terms, config)
        if delta < config.tol:
            break
    return group.posteriors[0]
