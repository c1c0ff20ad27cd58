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
each sweep. ``infer_test`` sweeps a group of one. A sweep's factor steps run in one
``sweep_factors`` call: eight ufunc calls per factor into rows bound once, 0-d operands.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass

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
# 0-d float64 operands: NumPy takes them with less work per call than Python floats
_CLIP_LO, _CLIP_HI, _ONE = map(np.array, (-LOGIT_CLIP, LOGIT_CLIP, 1.0))


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
        """The cache of tau (..., k_max, 2): one ``digamma`` call over the (3, ..., k_max)
        arguments tau_1, tau_2, tau_1 + tau_2, stacked in place, then cumulative sums
        along the factor axis, with w built in place in psi(tau_2)'s row. ``digamma``
        raises ValueError unless every tau is > 0 (so for a NaN too)."""
        tau = np.asarray(tau, dtype=np.float64)
        arg = np.empty((3, *tau.shape[:-1]))
        arg[0], arg[1] = tau[..., 0], tau[..., 1]
        np.add(arg[0], arg[1], out=arg[2])
        d1, d2, d12 = digamma(arg)
        prior_cumsum = (d1 - d2).cumsum(axis=-1)
        # w_s = psi(tau_s2) + sum_{t<s} psi(tau_t1) - sum_{t<=s} psi(tau_t1+tau_t2)
        w = d2
        w[..., 1:] += d1[..., :-1].cumsum(axis=-1)
        w -= d12.cumsum(axis=-1)
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
    starts: np.ndarray  # (M,) each bag's first row
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
    ns = [b.n_instances for b in bags]
    size, k = sum(ns), config.k_max
    rows = [slice(a - n, a) for a, n in zip(itertools.accumulate(ns), ns)]
    counts, starts = np.array(ns), np.array([r.start for r in rows])
    bits = np.repeat(np.array([b.labels.bits for b in bags]).T > 0, counts, axis=1)
    # row-major first, as per-bag draws were: other orders moved the sweeps' temporaries
    # in the heap, and glibc trimmed and regrew it every iteration (see CHANGES.md)
    draw, zeros = rng.uniform(-0.01, 0.01, size=(size, k)), np.zeros((size, k))
    nu, logits = (np.empty((k, size)) for _ in range(2))
    np.add(draw.T, 0.5, out=nu)
    nu *= bits
    logits[:] = zeros.T
    tau = np.full((len(bags), k, 2), (config.alpha, 1.0))
    one = _start_cache(config.alpha, k)  # every bag's tau is the same
    cache = StickBoundCache(*(a.repeat(len(bags), axis=0) for a in vars(one).values()))
    fwd = [b.edges.reshape(-1, 2).T + r.start for b, r in zip(bags, rows)]  # empty may be 1-D
    src, dst = np.concatenate(fwd + [f[::-1] for f in fwd], axis=1).astype(np.intp, copy=False)
    order = src.argsort(kind="stable")
    src, dst = src[order], dst[order]
    slot = np.arange(src.size) - src.searchsorted(src)  # place among its row's edges
    per = np.bincount(slot)  # rows per slot, never growing
    wide = np.count_nonzero(4 * per >= size)
    near = slot < wide
    nbr = np.full((wide, size), size)
    nbr[slot[near], src[near]] = dst[near]
    rest = (~near).nonzero()[0]
    rest = rest[slot[rest].argsort(kind="stable")]  # slot by slot, rows ascending
    src, dst, ends = src[rest], dst[rest], [0, *per[wide:].cumsum().tolist()]
    tail = [(src[a:b], dst[a:b]) for a, b in zip(ends, ends[1:])]
    x = bags[0].features if len(bags) == 1 else np.concatenate([b.features for b in bags])
    posteriors = [BagPosterior(tau=t, nu=nu[:, r].T, logits=logits[:, r].T)
                  for t, r in zip(tau, rows)]
    return BagGroup(x=x, rows=rows, counts=counts, starts=starts, bits=bits, nbr=nbr, tail=tail,
                    tau=tau, nu=nu, logits=logits, cache=cache, posteriors=posteriors)


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


@np.errstate(divide="ignore")  # a zero deficit's log is -inf
def update_stick(group: BagGroup, config: ModelConfig) -> None:
    """Closed-form stick Beta update of a group's bags from their cache. With
    d_m = n - sum_j nu_jm and G = neg_log_terms, q_mk = exp(w_k - G_m), so the sums
    over m of d_m q_mk are suffix log-sum-exps of log d_m - G_m (Doshi-Velez et al.,
    2009)."""
    s = np.add.reduceat(group.nu, group.starts, axis=1).T  # (M, k_max)
    w, g = group.cache.w, group.cache.neg_log_terms
    deficit = group.counts[:, None] - s
    log_d = np.log(deficit) - g

    def suffix(op, x):  # op over m >= k
        return op.accumulate(x[:, ::-1], axis=1)[:, ::-1]

    lse = suffix(np.logaddexp, log_d)
    tau1, tau2 = group.tau[..., 0], group.tau[..., 1]
    np.add(config.alpha, suffix(np.add, s), out=tau1)
    # the cross term sums over m > k, so the last factor has none
    tau1[:, :-1] += suffix(np.add, deficit)[:, 1:] - np.exp(g[:, :-1] + lse[:, 1:])
    np.exp(w + lse, out=tau2)
    tau2 += _ONE


def sweep_terms(model: AppearanceModel, correlation: CorrelationMatrix,
                config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The logit terms fixed while the model is, with G = means @ means.T:
    ``coupling`` = -(G - diag G) / sigma^2 + rho * M.T (rho = 0 adds zeros) and
    ``quad`` (k_max,) = (D var_k + G_kk) / (2 sigma^2)."""
    inv_s2 = 1.0 / config.sigma ** 2
    gram = model.means @ model.means.T
    quad = 0.5 * inv_s2 * (model.feature_dim * model.variances + gram.diagonal())
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
    msgs += const.T.repeat(group.counts, axis=1)
    msgs += proj
    return msgs


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


def sweep_factors(group: BagGroup, base: np.ndarray, coupling: np.ndarray) -> None:
    """Each factor k in ascending order, over all rows: logits[k] = coupling[k] @ nu +
    base[k] (nu factor-major), then nu[k] = bit / (1 + exp(-clip(logits[k]))), the bit
    one per row (bool), so masked rows are +0, and each factor sees the freshest others.
    With resid = x - nu^T @ means, the residual form's resid @ phi_k + nu_k G_kk equals
    x @ phi_k - sum_{j != k} nu_j G_jk, and rho * (M^T nu)[k] rides in coupling. nu[k]
    is the work row, and logits[k] keeps the unclipped logit; with |clip| <= LOGIT_CLIP
    the exponential cannot overflow. The rows of a factor are bound once, by ``zip``."""
    nu = group.nu
    matmul, add, exp, negative, divide = np.matmul, np.add, np.exp, np.negative, np.divide
    for c, b, eta, n, bit in zip(coupling, base, group.logits, nu, group.bits):
        matmul(c, nu, eta)
        add(eta, b, eta)
        np.maximum(eta, _CLIP_LO, out=n)
        np.minimum(n, _CLIP_HI, out=n)
        exp(negative(n, n), n)
        add(n, _ONE, n)
        divide(bit, n, n)


def _sweep_bag(group: BagGroup, proj: np.ndarray, terms: tuple[np.ndarray, np.ndarray],
               config: ModelConfig, update_sticks: bool = True) -> float:
    """One sweep of a group; returns the mean |delta nu|. ``proj`` (``project``'s) and
    ``terms`` (``sweep_terms``'s) are fixed while the model is. The stick stage runs
    once for all the bags and keeps the new tau's cache; ``base_logits`` adds the rest
    of the fixed logit into ``mrf_messages``'s output (start-of-sweep nu), so a factor
    costs one mat-vec into its logits and one squash, factors ascending in one call
    of ``sweep_factors``, each seeing the freshest others, all rows jointly. At
    beta = rho = 0 both couplings add zeros."""
    if update_sticks:
        update_stick(group, config)
        group.cache = StickBoundCache.from_tau(group.tau)
    coupling, quad = terms
    base = base_logits(group, proj, quad, mrf_messages(group, config))
    change = group.nu.copy()
    sweep_factors(group, base, coupling)
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
    open_bag = Bag(bag.features, bag.edges, WeakLabels(np.ones(config.k_max)), bag.id)
    validate_dataset([open_bag], config, model.feature_dim)
    # default_rng(seed)'s generator, without its argument checks
    group = init_group([open_bag], config, np.random.Generator(np.random.PCG64(config.seed)))
    proj, terms = project(group, model, config), sweep_terms(model, correlation, config)
    for _ in range(config.max_iters):
        delta = _sweep_bag(group, proj, terms, config)
        if delta < config.tol:
            break
    return group.posteriors[0]
