"""Mean-field variational learning and test-time inference.

The engine alternates three stages per outer iteration: a Gauss-Seidel
appearance sweep over factors, stick and factor-probability updates (with
spatial and factorial MRF messages folded into the logits), and a
recomputation of the inter-factor correlation matrix. Bags are swept in
groups (``BagGroup``), so each stage runs once per factor per group. ``init_group``
builds one in a single step from a start block (``fit`` draws one per group, ``infer_test``
slices one cached block): ν factor-major, ``(k_max, rows)``, in a buffer with a +0 column
that ``mrf_messages`` gathers from (into memory it reuses), and the logits alike; the label
bits as float 0/1; each factor's (logits, ν, bits) rows, bound once; τ = (α, 1) with its
stick cache, taken once per (α, k_max); each bag's ``BagPosterior`` as views of its rows
and τ; the features as one ``(rows, D)`` block and the neighbours as O(edges) slots, from
one concatenation of the bags' edges. The model's logit terms (``sweep_terms``, with the
rows of −coupling bound once, and ``project``) are taken once per fit iteration, sum νᵀν
(``nu_gram``) at set-up and after each sweep. ``infer_test`` sweeps a group of one,
projects each bag, and keeps what all its bags share in ``_test_cache``, one slot each:
the start block, the terms of the last model content (a flat key) and the first stick
stage of the last bag size. A sweep's factor steps run in one ``sweep_factors`` call: six
ufunc calls per factor on −η, no row taken and nothing cast, 0-d operands.
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
    ConfigError,
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
_CLIP_LO, _CLIP_HI, _ONE, _ZERO = map(np.array, (-LOGIT_CLIP, LOGIT_CLIP, 1.0, 0.0))
# the clip ufunc (numpy.core before NumPy 2), which ndarray.clip reaches through Python code
_clip = (getattr(np, "_core", None) or np.core).umath.clip
# infer_test's state shared across calls: one (key, value) slot per kind (see infer_test)
_test_cache = dict.fromkeys(("block", "terms", "sticks"), (None, None))


@dataclass
class StickBoundCache:
    """Cached stick quantities of one bag, or of several along leading axes:
    ``w[..., s]`` are the log weights of the multinomial bound;
    ``neg_log_terms[..., k]`` = logsumexp(w[..., :k+1]) is the lower bound on
    E[log(1 - prod_{t<=k} v_t)]; ``prior_cumsum[..., k]`` is
    E[log pi_k] = sum_{t<=k} (psi(tau_t1) - psi(tau_t1 + tau_t2)) (Doshi-Velez et al., 2009).
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
        prior_cumsum = (d1 - d12).cumsum(axis=-1)
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
    bits: np.ndarray  # (k_max, rows) float 0/1, each row's label bits
    nbr: np.ndarray  # (wide slots, rows) j-th neighbour of each row, else the index rows
    tail: tuple[np.ndarray, np.ndarray]  # every later slot: (rows, neighbours), rows ascending
    deg: np.ndarray  # (rows,) each row's directed edges
    tau: np.ndarray  # (M, k_max, 2) stick parameters
    pad: np.ndarray  # (k_max, rows + 1) nu, then a +0 column that the index rows reads
    nu: np.ndarray  # (k_max, rows) the view pad[:, :rows]
    logits: np.ndarray  # (k_max, rows)
    cache: StickBoundCache  # of tau, (M, k_max) each
    posteriors: list[BagPosterior]  # per bag, views of tau, nu and logits
    factors: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # per factor, (logits, nu, bits) rows


def start_block(rng: np.random.Generator, bags: list[Bag], k_max: int) -> np.ndarray:
    """The bags' start nu before masking, 0.5 + U(-0.01, 0.01), as the (k_max, rows) view
    of one (rows, k_max) draw: each bag's rows are the numbers of one draw per bag in bag
    order, and the first n rows those of an (n, k_max) draw."""
    draw = rng.uniform(-0.01, 0.01, size=(sum(b.n_instances for b in bags), k_max))
    return np.add(draw, 0.5, out=draw).T


def init_group(bags: list[Bag], config: ModelConfig, start: np.ndarray) -> BagGroup:
    """Consecutive bags as one group at its starting state: nu = ``start`` ((k_max, rows),
    ``start_block``'s) times the label bit, tau = (alpha, 1) with the shared start cache
    repeated, and zero logits; each bag's posterior views its rows and tau, and each
    factor's (logits, nu, bits) rows are bound once. Slot j holds each row's j-th neighbour
    over the directed edges (each as given, then reversed): ``nbr`` the slots of a quarter
    of the rows or more, padded with the index rows, ``tail`` the later slots as one (rows,
    neighbours) pair in source order (rows ascending, each row's slots in order): at most
    4 indices per directed edge, whatever the degrees."""
    ns = [b.n_instances for b in bags]
    size, k, m = sum(ns), config.k_max, len(bags)
    rows = [slice(a - n, a) for a, n in zip(itertools.accumulate(ns), ns)]
    counts, starts = np.array(ns), np.array([r.start for r in rows])
    labels = np.array([b.labels.bits for b in bags], dtype=np.float64)
    labels += _ZERO  # a -0.0 bit is a 0 bit: +0, so masked rows are +0
    bits = labels.T.repeat(counts, axis=1)
    # nu's buffer, then logits, after fit's draw or infer_test's projection: other orders
    # left the sweeps' temporaries on the heap top, which glibc trimmed and regrew (CHANGES.md)
    pad, logits = np.empty((k, size + 1)), np.empty((k, size))
    nu = np.multiply(start, bits, out=pad[:, :size])
    pad[:, size] = logits[:] = 0.0
    tau = np.full((m, k, 2), (config.alpha, 1.0))
    one = _start_cache(config.alpha, k)  # every bag's tau is the same
    cache = StickBoundCache(one.w.repeat(m, axis=0), one.neg_log_terms.repeat(m, axis=0),
                            one.prior_cumsum.repeat(m, axis=0))
    # every bag's edges at its rows as a (2, E) pair (an empty list may be 1-D), then reversed
    ends = np.concatenate([b.edges.reshape(-1, 2) + r.start for b, r in zip(bags, rows)]).T
    src, dst = np.concatenate((ends, ends[::-1]), axis=1).astype(np.intp, copy=False)
    order = src.argsort(kind="stable")
    src, dst = src[order], dst[order]
    deg = np.bincount(src, minlength=size)  # a row's slot: its place among its edges
    slot = np.arange(src.size) - (deg.cumsum() - deg).repeat(deg)
    wide = np.sort(deg)[3 * size // 4]  # the degree a quarter of the rows reach
    near = slot < wide
    nbr = np.full((wide, size), size)
    nbr[slot[near], src[near]] = dst[near]
    tail = src[~near], dst[~near]
    x = bags[0].features if m == 1 else np.concatenate([b.features for b in bags])
    posteriors = [BagPosterior(t, nu[:, r].T, logits[:, r].T) for t, r in zip(tau, rows)]
    return BagGroup(x=x, rows=rows, counts=counts, starts=starts, bits=bits, nbr=nbr, tail=tail,
                    deg=deg, tau=tau, pad=pad, nu=nu, logits=logits, cache=cache,
                    posteriors=posteriors, factors=list(zip(logits, nu, bits)))


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
    means) = R[k] - S[k] @ means. The mean takes the variance 1/(1/sigma_a^2 + mass/sigma^2)
    as it is; only the stored one is floored at VAR_FLOOR.
    """
    inv_s2 = 1.0 / config.sigma ** 2
    inv_sa2 = 1.0 / config.sigma_a ** 2
    proj = sum(g.nu @ g.x for g in groups)
    mass = sum(g.nu.sum(axis=1) for g in groups)
    for k in range(config.k_max):
        num = proj[k] - gram[k] @ model.means + gram[k, k] * model.means[k]
        var = 1.0 / (inv_sa2 + inv_s2 * mass[k])  # the mean's, unfloored
        model.means[k] = inv_s2 * num * var
        model.variances[k] = max(var, VAR_FLOOR)


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
                config: ModelConfig) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The logit terms fixed while the model is, with G = means @ means.T:
    ``coupling`` = -(G - diag G) / sigma^2 + rho * M.T (rho = 0 adds zeros),
    ``quad`` (k_max,) = (D var_k + G_kk) / (2 sigma^2) and the rows of -coupling, which
    ``sweep_factors`` takes, bound once."""
    inv_s2 = 1.0 / config.sigma ** 2
    gram = model.means @ model.means.T
    quad = 0.5 * inv_s2 * (model.feature_dim * model.variances + gram.diagonal())
    coupling = -inv_s2 * gram
    np.fill_diagonal(coupling, 0.0)
    coupling += config.rho * correlation.m.T
    return coupling, quad, tuple(np.negative(coupling))


@np.errstate(over="ignore", invalid="ignore")  # checked from the extremes
def checked_terms(model: AppearanceModel, correlation: CorrelationMatrix, config: ModelConfig,
                  fault: str) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """``sweep_terms``, or a ConfigError ``fault`` unless coupling and quad are finite: fit's
    check of its model after each appearance update and ``infer_test``'s of the model it
    is given."""
    terms = sweep_terms(model, correlation, config)
    if not all(-np.inf < t.min() and t.max() < np.inf for t in terms[:2]):
        raise ConfigError(fault)
    return terms


def project(group: BagGroup, model: AppearanceModel, config: ModelConfig,
            out: np.ndarray | None = None) -> np.ndarray:
    """The logit terms of each row fixed while the model is, (k_max, rows), into ``out``
    if given: means @ x^T / sigma^2 - beta * deg for the group's rows x and their degrees,
    the Potts message's constant part. The (k_max, D) means take the scale, so the rows
    take one pass."""
    proj = np.matmul(model.means * (1.0 / config.sigma ** 2), group.x.T, out=out)
    proj -= config.beta * group.deg
    return proj


def base_logits(group: BagGroup, proj: np.ndarray, quad: np.ndarray,
                msgs: np.ndarray) -> np.ndarray:
    """Logits of one sweep before the couplings, (k_max, rows), added in place into
    ``msgs``, ``mrf_messages``'s output: messages + each row's stick prior - quad + proj, the
    prior read from the group's stick cache, broadcast for a group of one bag."""
    const = (group.cache.prior_cumsum - group.cache.neg_log_terms - quad).T  # (k_max, M)
    msgs += const if len(group.rows) == 1 else const.repeat(group.counts, axis=1)
    msgs += proj
    return msgs


def mrf_messages(group: BagGroup, config: ModelConfig) -> np.ndarray:
    """2 beta * (sum of each row's neighbours' nu), (k_max, rows), for a whole sweep, into
    ``group.logits`` (returned): the Potts message beta * sum_j (2 nu_j - 1) but for its
    -beta * deg, which ``project`` takes. Only factor k writes nu[k], so its start-of-sweep
    value is what factor k reads. Slot j gathers each row's j-th neighbour from ``group.pad``
    (a pad reads its +0 column), the first into the logits, each later one into one scratch
    block that is added; then one ``np.add.at`` the tail, one index at a time in index
    order, so every row sums in directed-edge order from zero, as np.bincount does: the
    first gather seeds the sum, as nu >= +0 and +0 + a == a. Every index lies in [0, rows],
    so ``mode="clip"`` clips none (``"raise"`` would buffer ``out``)."""
    pad, nbr, acc = group.pad, group.nbr, group.logits
    if len(nbr):
        pad.take(nbr[0], axis=1, out=acc, mode="clip")
    else:
        acc[:] = 0.0
    if len(nbr) > 1:
        scratch = np.empty_like(acc)
        for d in nbr[1:]:
            acc += pad.take(d, axis=1, out=scratch, mode="clip")
    r, d = group.tail
    if r.size:
        np.add.at(acc, (slice(None), r), pad.take(d, axis=1))
    return np.multiply(acc, 2.0 * config.beta, out=acc)


def sweep_factors(group: BagGroup, base: np.ndarray,
                  neg_coupling: np.ndarray | tuple[np.ndarray, ...]) -> None:
    """Each factor k in ascending order, over all rows: logits[k] = coupling[k] @ nu +
    base[k] (nu factor-major), then nu[k] = bit / (1 + exp(-clip(logits[k]))), the bit 0/1,
    so masked rows are +0, and each factor sees the freshest others. With resid = x - nu^T
    @ means, the residual form's resid @ phi_k + nu_k G_kk equals x @ phi_k - sum_{j != k}
    nu_j G_jk, and rho * (M^T nu)[k] rides in coupling. ``neg_coupling`` is -coupling, whole
    or as its rows (``sweep_terms``'s third term). ``base`` is copied into the logits (none
    to copy for ``base_logits``'s output, which is them), whose rows turn from base into
    the unclipped logit; with nu's and the bits' they are bound once per group (``factors``)
    and each mat-vec goes into one scratch row. Steps run on -eta (base subtracted):
    negation is exact and the clip (|clip| <= LOGIT_CLIP: exp cannot overflow) symmetric,
    so exp sees the same number; logits are negated back once, 0 - x (zeros +0)."""
    nu, logits = group.nu, group.logits
    np.copyto(logits, base)
    mv = np.empty(nu.shape[1])
    matmul, subtract, exp, add, divide = np.matmul, np.subtract, np.exp, np.add, np.divide
    for c, (eta, n, bit) in zip(neg_coupling, group.factors):
        matmul(c, nu, mv)
        subtract(mv, eta, eta)
        _clip(eta, _CLIP_LO, _CLIP_HI, n)
        exp(n, n)
        add(n, _ONE, n)
        divide(bit, n, n)
    subtract(_ZERO, logits, logits)


def _sweep_bag(group: BagGroup, proj: np.ndarray,
               terms: tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]],
               config: ModelConfig, sticks: tuple | None = None) -> float:
    """One sweep of a group; returns the mean |delta nu|. ``proj`` (``project``'s) and
    ``terms`` (``sweep_terms``'s) are fixed while the model is. The stick stage runs
    once for all the bags and keeps the new tau's cache, or takes ``sticks``, the
    (tau, cache) it would give, if given; ``base_logits`` adds the rest
    of the fixed logit into ``mrf_messages``'s output (start-of-sweep nu), so a factor
    costs one mat-vec into its logits and one squash, factors ascending in one call
    of ``sweep_factors``, each seeing the freshest others, all rows jointly. At
    beta = rho = 0 both couplings add zeros."""
    if sticks is None:
        update_stick(group, config)
        group.cache = StickBoundCache.from_tau(group.tau)
    else:
        group.tau[:], group.cache = sticks
    _, quad, neg_coupling = terms
    base = base_logits(group, proj, quad, mrf_messages(group, config))
    change = group.nu.copy()
    sweep_factors(group, base, neg_coupling)
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
    group of its own); the returned posteriors are views of the groups' arrays. A
    ConfigError names sigma once the model's logit terms stop being finite.
    """
    dim = validate_dataset(bags, config)
    if vocab is None:
        vocab = config.default_vocab()
    rng = np.random.default_rng(config.seed)
    model = init_model(config, dim, vocab, rng)
    groups = [init_group(r, config, start_block(rng, r, config.k_max)) for r in _group_bags(bags)]
    gram = nu_gram(groups)
    bits = np.array([b.labels.bits for b in bags])
    correlation = update_correlation(bits.T @ bits)  # sums of 0/1 products, exact
    sizes = [g.nu.shape[1] for g in groups]

    trace: list[tuple[float, float]] = []
    for _ in range(config.max_iters):
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):  # checked from the terms below
            update_appearance(groups, gram, model, config)
        terms = checked_terms(model, correlation, config,
                              f"sigma {config.sigma!r}: fit's appearance model overflowed")
        deltas = [_sweep_bag(g, project(g, model, config), terms, config) for g in groups]
        delta = float(np.dot(deltas, sizes) / sum(sizes))
        gram = nu_gram(groups)
        correlation = update_correlation(gram)
        trace.append((delta, time.perf_counter() - start))
        if delta < config.tol:
            break
    return FitResult(model=model, posteriors=[p for g in groups for p in g.posteriors],
                     correlation=correlation, trace=trace)


def _frozen(*arrays: np.ndarray) -> None:
    """Mark ``arrays`` read-only, as every array kept in ``_test_cache`` is."""
    for a in arrays:
        a.flags.writeable = False


def infer_test(bag: Bag, model: AppearanceModel,
               correlation: CorrelationMatrix, config: ModelConfig) -> BagPosterior:
    """Test-time inference: appearance and correlation frozen, labels all-ones.

    The bag is swept as a group of one from the first n columns of a read-only start block
    of a fresh PCG64(seed) (default_rng(seed) without its checks), kept for one (seed, k_max)
    and redrawn only for a larger bag. What every bag of a run shares is taken once and kept
    read-only in ``_test_cache``, one slot per kind holding the last key's value, so a
    miss overwrites it: the start block; the logit terms, checked as in ``fit``
    (a ConfigError names sigma unless they are finite), per content of the means, variances
    and M and per (sigma, rho), so a model changed in place is a new key; and the first
    stick stage's (tau, cache), per (seed, k_max, alpha, n), as every bag starts from the
    block's first n columns with every bit on. The projection is the bag's own, and a
    ConfigError names the bag and sigma unless it is finite.
    """
    open_bag = Bag(bag.features, bag.edges, WeakLabels(np.ones(config.k_max)), bag.id)
    validate_dataset([open_bag], config, model.feature_dim)
    cache, seed, k, n = _test_cache, config.seed, config.k_max, bag.n_instances
    held, block = cache["block"]
    if held != (seed, k) or block.shape[1] < n:
        block = start_block(np.random.Generator(np.random.PCG64(seed)), [bag], k)
        _frozen(block)
        cache["block"] = (seed, k), block
    means, variances, m = model.means, model.variances, correlation.m
    key = (config.sigma, config.rho, means.dtype, variances.dtype, m.dtype, means.shape,
           variances.shape, m.shape, means.tobytes(), variances.tobytes(), m.tobytes())
    held, terms = cache["terms"]
    if held != key:
        terms = checked_terms(model, correlation, config,
                              f"sigma {config.sigma!r}: the model's logit terms overflow")
        _frozen(*terms[:2], *terms[2])
        cache["terms"] = key, terms
    proj = np.empty((k, n))  # before the group: heap order (CHANGES.md)
    group = init_group([open_bag], config, block[:, :n])
    with np.errstate(over="ignore", invalid="ignore"):  # checked from the extremes
        project(group, model, config, proj)
    if not (-np.inf < proj.min() and proj.max() < np.inf):
        raise ConfigError(f"bag {bag.id!r}: sigma {config.sigma!r}: "
                          "the projection of its features overflows")
    key = (seed, k, config.alpha, n)
    held, sticks = cache["sticks"]
    if held != key:
        update_stick(group, config)
        tau, one = group.tau.copy(), StickBoundCache.from_tau(group.tau)
        _frozen(tau, *vars(one).values())
        sticks = tau, one
        cache["sticks"] = key, sticks
    for _ in range(config.max_iters):
        delta = _sweep_bag(group, proj, terms, config, sticks)
        sticks = None
        if delta < config.tol:
            break
    return group.posteriors[0]
