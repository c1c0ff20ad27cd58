import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsibp import (
    AppearanceModel,
    Bag,
    CorrelationMatrix,
    DatasetError,
    DimensionMismatchError,
    EdgeIndexError,
    ModelConfig,
    WeakLabels,
    fit,
    infer_test,
    sample_dataset,
)
from wsibp import inference
from wsibp.core import digamma
from wsibp.generative import grid_edges
from wsibp.io import save_dataset
from wsibp.inference import (
    StickBoundCache,
    _start_cache,
    _sweep_bag,
    base_logits,
    init_group,
    mrf_messages,
    nu_gram,
    project,
    sweep_factors,
    sweep_terms,
    update_appearance,
    update_correlation,
    update_stick,
)


def cfg_k(k_objects, k_attributes=0, k_extra=0, **kw):
    kw.setdefault("beta", 0.0)
    kw.setdefault("rho", 0.0)
    return ModelConfig(k_objects=k_objects, k_attributes=k_attributes,
                       k_extra=k_extra, **kw)


def ones_bag(n, d, config, rng, edges=None):
    labels = WeakLabels(np.ones(config.k_max))
    if edges is None:
        edges = np.zeros((0, 2), dtype=np.int64)
    return Bag(features=rng.normal(size=(n, d)).astype(np.float32),
               edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
               labels=labels, id="t")


def blank_group(k_max, *sizes, rng=None, tau=None):
    """``init_group``'s group of featureless, edgeless, all-on bags of the given sizes;
    ``new_group``'s tau."""
    bags = [Bag(features=np.zeros((n, 1)), edges=np.zeros((0, 2), dtype=np.int64),
                labels=WeakLabels(np.ones(k_max)), id=str(i)) for i, n in enumerate(sizes)]
    return new_group(bags, cfg_k(k_max), rng, tau)


def new_group(bags, config, rng=None, tau=None):
    """``init_group``'s group of the bags; tau, if given, is written into every bag's
    sticks and the stick cache is taken again."""
    group = init_group(bags, config, np.random.default_rng(0) if rng is None else rng)
    if tau is not None:
        group.tau[:] = tau
        group.cache = StickBoundCache.from_tau(group.tau)
    return group


# --- stick bound ------------------------------------------------------------

class TestStickBound:
    def test_single_uniform_stick_is_exact(self, stick_bound):
        # E[log(1 - v)] for v ~ Uniform(0, 1) is -1
        q, bound = stick_bound(np.array([[1.0, 1.0]]), 1)
        np.testing.assert_allclose(q, [1.0])
        assert abs(bound + 1.0) < 1e-6

    @given(st.floats(0.1, 20), st.floats(0.1, 20))
    def test_k1_weight_always_one(self, stick_bound, a, b):
        q, _ = stick_bound(np.array([[a, b]]), 1)
        np.testing.assert_allclose(q, [1.0])

    def test_rows_are_probability_vectors(self, rng, stick_bound):
        tau = rng.uniform(0.2, 8.0, size=(6, 2))
        for k in range(6):
            row, _ = stick_bound(tau, k + 1)
            assert row.shape == (k + 1,) and np.all(row >= 0)
            assert abs(row.sum() - 1.0) < 1e-9

    def test_bound_below_monte_carlo(self, rng, stick_bound):
        # bound is a lower bound on E[log(1 - prod v_t)]
        tau = rng.uniform(0.5, 4.0, size=(3, 2))
        n = 200_000
        v = rng.beta(tau[:, 0], tau[:, 1], size=(n, 3))
        with np.errstate(divide="ignore"):
            vals = np.log1p(-np.prod(v, axis=1))
        vals = vals[np.isfinite(vals)]
        mc = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        _, bound = stick_bound(tau, 3)
        assert bound <= mc + 3 * se

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            StickBoundCache.from_tau(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            StickBoundCache.from_tau(np.array([[1.0, 1.0], [-2.0, 1.0]]))
        with pytest.raises(ValueError):
            StickBoundCache.from_tau(np.array([[1.0, 1.0], [np.nan, 1.0]]))


# --- appearance update ------------------------------------------------------

class TestUpdateAppearance:
    def test_inactive_factor_reverts_to_prior(self, rng):
        config = cfg_k(2, sigma=1.0, sigma_a=1.0)
        bag = ones_bag(4, 3, config, rng)
        groups = [init_group([bag], config, rng)]
        groups[0].nu[1] = 0.0
        model = AppearanceModel(means=rng.normal(size=(2, 3)),
                                variances=np.ones(2),
                                vocab=["a", "b"], config=config)
        update_appearance(groups, nu_gram(groups), model, config)
        np.testing.assert_allclose(model.means[1], 0.0)
        assert abs(model.variances[1] - 1.0) < 1e-12

    def test_single_observation_shrinkage(self, rng):
        # one bag, one instance, one factor, nu = 1, sigma = sigma_a = 1,
        # x = 2 -> mean 1.0 (shrunk by half), variance 0.5
        config = cfg_k(1, sigma=1.0, sigma_a=1.0)
        bag = Bag(features=np.array([[2.0]], dtype=np.float32),
                  edges=np.zeros((0, 2), dtype=np.int64),
                  labels=WeakLabels(np.ones(1)), id="x")
        groups = [init_group([bag], config, rng)]
        groups[0].nu[:] = 1.0
        model = AppearanceModel(means=np.zeros((1, 1)), variances=np.ones(1),
                                vocab=["a"], config=config)
        update_appearance(groups, nu_gram(groups), model, config)
        np.testing.assert_allclose(model.means, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(model.variances, [0.5], atol=1e-12)

    def test_recovers_true_appearance_given_truth(self):
        config = cfg_k(3, 3, sigma=0.1)
        ds = sample_dataset(config, 30, 20, 16, seed=4, labels=0.6)
        model = AppearanceModel(means=np.zeros((6, 16)), variances=np.ones(6),
                                vocab=config.default_vocab(), config=config)
        groups = [init_group(ds.bags, config, np.random.default_rng(0))]
        for post, z in zip(groups[0].posteriors, ds.true_z):
            post.nu[:] = z
        for _ in range(5):
            update_appearance(groups, nu_gram(groups), model, config)
        for k in range(6):
            if ds.true_a[k].std() == 0:
                continue
            r = np.corrcoef(model.means[k], ds.true_a[k])[0, 1]
            assert r >= 0.95

    def test_oracle_straight_line(self, rng):
        # independent non-incremental evaluation of the coupled updates
        config = cfg_k(3, sigma=0.7, sigma_a=1.3)
        bags = [ones_bag(5, 4, config, rng), ones_bag(3, 4, config, rng)]
        groups = [init_group(bags, config, rng)]
        posts = groups[0].posteriors
        for p in posts:
            p.nu[:] = rng.uniform(0, 1, size=p.nu.shape)
        means0 = rng.normal(size=(3, 4))
        model = AppearanceModel(means=means0.copy(), variances=np.ones(3),
                                vocab=list("abc"), config=config)
        update_appearance(groups, nu_gram(groups), model, config)

        phi = means0.copy()
        var = np.ones(3)
        for k in range(3):
            mass = sum(p.nu[:, k].sum() for p in posts)
            var[k] = 1.0 / (1 / config.sigma_a ** 2 + mass / config.sigma ** 2)
            num = np.zeros(4)
            for b, p in zip(bags, posts):
                x = b.features.astype(np.float64)
                for j in range(b.n_instances):
                    resid = x[j] - sum(p.nu[j, l] * phi[l]
                                       for l in range(3) if l != k)
                    num += p.nu[j, k] * resid
            phi[k] = num / config.sigma ** 2 * var[k]
        np.testing.assert_allclose(model.means, phi, atol=1e-9)
        np.testing.assert_allclose(model.variances, var, atol=1e-12)


# --- stick update -----------------------------------------------------------

class TestUpdateStick:
    def test_empty_factor(self, rng):
        config = cfg_k(1, alpha=2.0)
        group = blank_group(1, 5, rng=rng)
        group.nu[:] = 0.0
        update_stick(group, config)
        post = group.posteriors[0]
        np.testing.assert_allclose(post.tau, [[2.0, 6.0]])

    def test_saturated_factor(self, rng):
        config = cfg_k(1, alpha=2.0)
        group = blank_group(1, 5, rng=rng)
        group.nu[:] = 1.0
        update_stick(group, config)
        post = group.posteriors[0]
        np.testing.assert_allclose(post.tau, [[7.0, 1.0]])

    def test_oracle_straight_line(self, rng, stick_bound):
        config = cfg_k(2, alpha=2.0)
        group = blank_group(2, 4, rng=rng, tau=np.ones((2, 2)))
        group.nu[:] = 0.5
        post = group.posteriors[0]
        q = [stick_bound(post.tau, m + 1)[0] for m in range(2)]
        update_stick(group, config)

        k_max, n_i, alpha = 2, 4, 2.0
        nu_sums = [2.0, 2.0]  # column sums of nu
        expected = np.zeros((2, 2))
        for k in range(k_max):
            t1 = alpha
            for m in range(k, k_max):
                t1 += nu_sums[m]
            for m in range(k + 1, k_max):
                t1 += (n_i - nu_sums[m]) * sum(q[m][s] for s in range(k + 1, m + 1))
            t2 = 1.0
            for m in range(k, k_max):
                t2 += (n_i - nu_sums[m]) * q[m][k]
            expected[k] = (t1, t2)
        np.testing.assert_allclose(post.tau, expected, atol=1e-9)

    def test_results_positive(self, rng):
        config = cfg_k(4, alpha=0.5)
        group = blank_group(4, 6, rng=rng)
        group.nu[:] = rng.uniform(0, 1, size=group.nu.shape)
        update_stick(group, config)
        assert np.all(group.tau > 0)


def stick_triple_loop(tau, nu, alpha):
    """The tau update written out term by term from its definition."""
    k_max, n_i = tau.shape[0], nu.shape[0]
    psi = lambda x: float(digamma(x))  # noqa: E731
    w = [psi(tau[s, 1]) + sum(psi(tau[t, 0]) for t in range(s))
         - sum(psi(tau[t, 0] + tau[t, 1]) for t in range(s + 1)) for s in range(k_max)]
    q = np.zeros((k_max, k_max))
    for m in range(k_max):
        top = max(w[: m + 1])
        total = sum(np.exp(w[r] - top) for r in range(m + 1))
        for s in range(m + 1):
            q[m, s] = np.exp(w[s] - top) / total
    used = [sum(nu[j, m] for j in range(n_i)) for m in range(k_max)]
    out = np.zeros((k_max, 2))
    for k in range(k_max):
        t1 = alpha + sum(used[m] for m in range(k, k_max))
        for m in range(k + 1, k_max):
            t1 += (n_i - used[m]) * sum(q[m, s] for s in range(k + 1, m + 1))
        t2 = 1.0 + sum((n_i - used[m]) * q[m, k] for m in range(k, k_max))
        out[k] = (t1, t2)
    return out


@given(st.integers(1, 12), st.integers(1, 9), st.floats(0.2, 5.0), st.data())
@settings(max_examples=60, deadline=None)
def test_closed_form_stick_update_matches_triple_loop(k_max, n_i, alpha, data):
    tau = np.array(data.draw(st.lists(st.tuples(st.floats(0.1, 5000), st.floats(0.1, 5000)),
                                      min_size=k_max, max_size=k_max)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    nu = rng.uniform(0, 1, size=(n_i, k_max))
    nu[:, rng.random(k_max) < 0.3] = 0.0  # masked factors
    nu[:, rng.random(k_max) < 0.2] = 1.0  # saturated: zero deficit
    group = blank_group(k_max, n_i, rng=rng, tau=tau)
    group.nu[:] = nu.T
    update_stick(group, cfg_k(k_max, alpha=alpha))
    np.testing.assert_allclose(group.tau[0], stick_triple_loop(tau, nu, alpha), rtol=1e-9)


# --- logits -----------------------------------------------------------------

def logits_at(bag, model, config, tau, nu=None):
    """sweep_factors from one state (nu, if given, else the group's start): every
    factor's logit as columns, and nu after it, which factor k saw for factors < k."""
    group = new_group([bag], config, tau=tau)
    if nu is not None:
        group.nu[:] = nu.T
    coupling, quad = sweep_terms(model, CorrelationMatrix.zeros(config.k_max), config)
    base = base_logits(group, project(group, model, config), quad,
                       np.zeros_like(group.nu))
    sweep_factors(group, base, coupling)
    return group.logits.T.copy(), group.nu.T.copy()


class TestComputeLogits:
    def test_zero_appearance_uniform_sticks(self, rng):
        # phi = 0, Phi -> 0, tau = (1, 1): logit reduces to minus the
        # single-factor stick bound, i.e. +1
        config = cfg_k(1, sigma=1.0)
        bag = ones_bag(3, 2, config, rng)
        model = AppearanceModel(means=np.zeros((1, 2)),
                                variances=np.full(1, 1e-12),
                                vocab=["a"], config=config)
        eta, _ = logits_at(bag, model, config, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(eta, 1.0, atol=1e-6)

    def test_monotone_in_alignment(self, rng):
        config = cfg_k(1, sigma=0.5)
        phi = np.array([[1.0, 2.0]])
        model = AppearanceModel(means=phi, variances=np.ones(1) * 0.1,
                                vocab=["a"], config=config)
        tau = np.array([[config.alpha, 1.0]])

        def eta_for(x):
            bag = Bag(features=np.array([x], dtype=np.float32),
                      edges=np.zeros((0, 2), dtype=np.int64),
                      labels=WeakLabels(np.ones(1)), id="m")
            return logits_at(bag, model, config, tau, np.zeros((1, 1)))[0][0, 0]

        low = eta_for([0.1, 0.2])
        high = eta_for([1.0, 2.0])
        assert high > low

    def test_oracle_straight_line(self, rng, stick_bound):
        config = cfg_k(3, sigma=0.8)
        bag = ones_bag(4, 5, config, rng)
        nu = rng.uniform(0, 1, size=(4, 3))
        tau = rng.uniform(0.5, 3.0, size=(3, 2))
        model = AppearanceModel(means=rng.normal(size=(3, 5)),
                                variances=rng.uniform(0.1, 1.0, size=3),
                                vocab=list("abc"), config=config)
        eta, new = logits_at(bag, model, config, tau, nu)

        x = bag.features.astype(np.float64)
        d = 5
        for j in range(4):
            for k in range(3):
                prior = sum(float(digamma(tau[t, 0]) - digamma(tau[t, 1]))
                            for t in range(k + 1))
                _, bound = stick_bound(tau, k + 1)
                seen = np.concatenate([new[j, :k], nu[j, k:]])  # factors < k already set
                resid = x[j] - sum(seen[l] * model.means[l]
                                   for l in range(3) if l != k)
                quad = (d * model.variances[k]
                        + model.means[k] @ model.means[k]
                        - 2 * model.means[k] @ resid)
                expected = prior - bound - quad / (2 * config.sigma ** 2)
                assert abs(eta[j, k] - expected) < 1e-9


@given(k_max=st.integers(1, 12), d=st.integers(1, 5),
       sizes=st.lists(st.integers(1, 8), min_size=1, max_size=3),
       beta=st.floats(0, 3), rho=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_sweep_logits_match_residual_form(stick_bound, k_max, d, sizes, beta, rho, seed):
    # each factor's logit as the residual form gives it, from the nu it saw:
    # factors before k already updated in this sweep, k and after not yet
    rng = np.random.default_rng(seed)
    config = cfg_k(k_max, sigma=rng.uniform(0.3, 2.0), beta=beta, rho=rho)
    bags = [Bag(features=rng.normal(size=(n, d)),
                edges=rng.integers(0, n, size=(rng.integers(0, 2 * n + 1), 2)),
                labels=WeakLabels((rng.random(k_max) < 0.7).astype(float)), id=str(i))
            for i, n in enumerate(sizes)]
    group = init_group(bags, config, rng)
    group.tau[:] = rng.uniform(0.2, 5.0, size=group.tau.shape)
    group.cache = StickBoundCache.from_tau(group.tau)
    posts = group.posteriors
    model = AppearanceModel(means=rng.normal(size=(k_max, d)),
                            variances=rng.uniform(0.1, 1.0, size=k_max),
                            vocab=config.default_vocab(), config=config)
    m = np.triu(rng.uniform(0, 1, size=(k_max, k_max)), 1)
    corr = CorrelationMatrix(m + m.T)
    before = [p.nu.copy() for p in posts]
    _sweep_bag(group, project(group, model, config), sweep_terms(model, corr, config), config,
               update_sticks=False)

    for bag, post, old in zip(bags, posts, before):
        x = bag.features
        for k in range(k_max):
            seen = np.hstack([post.nu[:, :k], old[:, k:]])
            phi = model.means[k]
            resid = x - seen @ model.means
            prior = sum(float(digamma(post.tau[t, 0]) - digamma(post.tau[t, 1]))
                        for t in range(k + 1)) - stick_bound(post.tau, k + 1)[1]
            quad = d * model.variances[k] + phi @ phi
            expected = prior - (quad - 2 * (resid @ phi + seen[:, k] * (phi @ phi))) \
                / (2 * config.sigma ** 2)
            for a, b in bag.edges:
                expected[a] += beta * seen[b, k]
                expected[b] += beta * seen[a, k]
            expected += rho * (seen @ corr.m[:, k])
            np.testing.assert_allclose(post.logits[:, k], expected, rtol=1e-10, atol=1e-10)


# --- MRF message application ------------------------------------------------

def mrf_at(eta, nu, correlation, edges, config):
    """The MRF part of every factor's logit from one nu (N, k_max), added to eta
    (k_max, N): the sweep's mrf_messages plus eta, then sweep_factors with the sweep's
    coupling at zero appearance means (factor k sees the new nu of factors < k)."""
    n, k_max = nu.shape
    bag = Bag(features=np.zeros((n, 1)), edges=edges, labels=WeakLabels(np.ones(k_max)),
              id="mrf")
    group = new_group([bag], config)
    group.nu[:] = nu.T
    model = AppearanceModel(means=np.zeros((k_max, 1)), variances=np.ones(k_max),
                            vocab=config.default_vocab(), config=config)
    coupling, _ = sweep_terms(model, correlation, config)
    msgs = mrf_messages(group, config)
    msgs += eta
    sweep_factors(group, msgs, coupling)
    return group.logits.copy()


class TestApplyMrf:
    def test_zero_couplings_identity(self, rng):
        config = cfg_k(2, beta=0.0, rho=0.0)
        nu = rng.uniform(0.49, 0.51, size=(3, 2))
        eta = rng.normal(size=(2, 3))  # (k_max, N)
        edges = np.array([[0, 1], [1, 2]])
        out = mrf_at(eta, nu, CorrelationMatrix.zeros(2), edges, config)
        assert np.array_equal(out, eta)

    def test_two_neighbours(self, rng):
        config = cfg_k(1, beta=1.0, rho=0.0)
        eta = np.zeros((1, 3))
        edges = np.array([[0, 1], [1, 2]])
        out = mrf_at(eta, np.ones((3, 1)), CorrelationMatrix.zeros(1), edges, config)
        assert out[0, 1] == pytest.approx(2.0)
        assert out[0, 0] == pytest.approx(1.0)

    def test_factorial_message(self, rng):
        config = cfg_k(2, beta=0.0, rho=1.0)
        m = np.array([[0.0, 0.5], [0.5, 0.0]])
        eta = np.zeros((2, 1))
        out = mrf_at(eta, np.array([[0.0, 0.8]]), CorrelationMatrix(m),
                     np.zeros((0, 2), dtype=np.int64), config)
        assert out[0, 0] == pytest.approx(0.4)


@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4), k_max=st.integers(1, 5),
       beta=st.floats(0, 3), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
@settings(max_examples=80, deadline=None)
def test_mrf_messages_match_edge_loop(sizes, k_max, beta, seed, data):
    # byte for byte: each row sums its neighbours from zero in the order of the
    # directed edge list (every edge as given, then every edge reversed), the
    # order np.bincount over that list adds them in
    rng = np.random.default_rng(seed)
    bags = []
    for i, n in enumerate(sizes):
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1])
        edges = data.draw(st.lists(pair, max_size=2 * n)) if n > 1 else []
        if n > 1 and data.draw(st.booleans()):  # a hub row joined to every other row
            hub = data.draw(st.integers(0, n - 1))
            edges += [(hub, j) if rng.random() < 0.5 else (j, hub)
                      for j in range(n) if j != hub]
        if edges and data.draw(st.booleans()):  # repeat some edges
            edges += data.draw(st.lists(st.sampled_from(edges), min_size=1))
        bags.append(Bag(features=np.zeros((n, 1)), edges=np.array(edges, dtype=np.int64),
                        labels=WeakLabels(np.ones(k_max)), id=str(i)))
    group = init_group(bags, cfg_k(k_max), rng)
    for p in group.posteriors:  # spread magnitudes so that a different order changes the sums
        p.nu[:] = rng.random(p.nu.shape) * 10.0 ** rng.integers(-12, 1, size=p.nu.shape)

    expected = np.zeros_like(group.nu)  # (k_max, rows)
    for bag, rows in zip(bags, group.rows):
        directed = [(a, b) for a, b in bag.edges] + [(b, a) for a, b in bag.edges]
        for a, b in directed:
            expected[:, rows.start + a] += group.nu[:, rows.start + b]
    expected *= beta
    got = mrf_messages(group, cfg_k(k_max, beta=beta))
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def neighbour_table_reference(bags, rows, size):
    """The neighbour table of init_group's docstring, built with NumPy's function forms
    and one gather per tail slot: the reference init_group's build must equal."""
    edges = np.concatenate([b.edges.reshape(-1, 2) + r.start
                            for b, r in zip(bags, rows)]).astype(np.intp)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], np.concatenate([edges[:, 1], edges[:, 0]])[order]
    slot = np.arange(src.size) - np.searchsorted(src, src)
    wide = np.count_nonzero(4 * np.bincount(slot) >= size)
    near = slot < wide
    nbr = np.full((wide, size), size)
    nbr[slot[near], src[near]] = dst[near]
    rest = np.flatnonzero(~near)
    rest = rest[np.argsort(slot[rest], kind="stable")]
    ends = np.cumsum(np.bincount(slot)[wide:]).tolist()
    tail = [(src[rest[a:b]], dst[rest[a:b]]) for a, b in zip([0] + ends, ends)]
    return nbr, tail


@given(kinds=st.lists(st.tuples(st.sampled_from(["grid", "star", "isolated", "empty", "flat",
                                                 "random"]), st.integers(1, 40)),
                      min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_neighbour_table_matches_reference(kinds, seed):
    # grids, stars, rows with no edge, empty edge lists (2-D and 1-D) and random lists
    # with repeats, one bag or several: the same nbr and tail arrays as the reference
    rng = np.random.default_rng(seed)
    bags = []
    for i, (kind, n) in enumerate(kinds):
        if kind == "grid":
            edges = grid_edges(n)
        elif kind == "star":
            hub = rng.integers(n)
            edges = np.array([(hub, j) if rng.random() < 0.5 else (j, hub)
                              for j in range(n) if j != hub]).reshape(-1, 2)
        elif kind == "isolated" and n > 2:  # edges among the first half only
            a = rng.integers(0, n // 2, size=(n, 2))
            edges = a[a[:, 0] != a[:, 1]]
        elif kind == "random" and n > 1:
            a = rng.integers(0, n, size=(rng.integers(0, 3 * n), 2))
            edges = a[a[:, 0] != a[:, 1]]
            edges = np.concatenate([edges, edges[: rng.integers(0, len(edges) + 1)]])
        else:
            edges = np.zeros(0 if kind == "flat" else (0, 2), dtype=np.int64)
        bags.append(Bag(features=np.zeros((n, 1)), edges=edges.astype(np.int64),
                        labels=WeakLabels(np.ones(2)), id=str(i)))
    group = init_group(bags, cfg_k(2), rng)
    nbr, tail = neighbour_table_reference(bags, group.rows, int(sum(group.counts)))
    assert group.nbr.dtype == nbr.dtype and np.array_equal(group.nbr, nbr)
    assert len(group.tail) == len(tail)
    for (r, d), (r0, d0) in zip(group.tail, tail):
        assert r.dtype == r0.dtype and np.array_equal(r, r0) and np.array_equal(d, d0)


@pytest.mark.parametrize("shape", ["star", "grid"])
def test_neighbour_slots_are_linear_in_edges(shape):
    # one hub row must not make every row of its group pay for its degree
    n = 400
    edges = np.array([(0, j) for j in range(1, n)]) if shape == "star" else grid_edges(n)
    config = cfg_k(2)
    bag = ones_bag(n, 1, config, np.random.default_rng(0), edges)
    group = init_group([bag], config, np.random.default_rng(0))
    held = group.nbr.size + sum(r.size + d.size for r, d in group.tail)
    assert held <= 4 * 2 * len(edges)


# --- nu update --------------------------------------------------------------

def set_all_factors(eta, labels):
    """sweep_factors on a blank group of one bag with the labels' bits, base eta.T
    (eta (N, k_max)) and zero coupling, so each logit is +0 + eta; that bag's
    posterior."""
    group = blank_group(eta.shape[1], len(eta))
    group.bits[:] = labels.bits[:, None] > 0
    sweep_factors(group, eta.T, np.zeros((eta.shape[1],) * 2))
    return group.posteriors[0]


def factor_steps_reference(group, base, coupling):
    """The factor step as two calls per factor, a mat-vec into the logit row and then
    the squash with Python-float operands: the reference sweep_factors must equal."""
    for k in range(len(group.nu)):
        eta = group.logits[k]
        np.matmul(coupling[k], group.nu, out=eta)
        eta += base[k]
        nu = group.nu[k]
        np.maximum(group.logits[k], -inference.LOGIT_CLIP, out=nu)
        np.minimum(nu, inference.LOGIT_CLIP, out=nu)
        np.exp(np.negative(nu, out=nu), out=nu)
        nu += 1.0
        np.divide(group.bits[k], nu, out=nu)


@given(k=st.tuples(st.integers(1, 5), st.integers(0, 4), st.integers(0, 3)),
       sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       beta=st.floats(0.01, 3), rho=st.floats(0.01, 1), scale=st.floats(0.1, 30),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_sweep_factors_matches_two_call_step(k, sizes, beta, rho, scale, seed):
    # bit for bit, at beta, rho > 0, with masked rows (each bag's first factor off)
    # and logits beyond the clip (the features scaled up to 30-fold)
    rng = np.random.default_rng(seed)
    config = cfg_k(*k, sigma=0.5, beta=beta, rho=rho)
    k_max = config.k_max
    bags = []
    for i, n in enumerate(sizes):
        bits = np.ones(k_max)
        bits[:config.k_annotated] = rng.random(config.k_annotated) < 0.6
        bits[0] = 0.0
        a = rng.integers(0, n, size=(2 * n, 2))
        bags.append(Bag(features=scale * rng.normal(size=(n, 3)), edges=a[a[:, 0] != a[:, 1]],
                        labels=WeakLabels(bits), id=str(i)))
    model = AppearanceModel(means=rng.normal(size=(k_max, 3)),
                            variances=rng.uniform(0.1, 1.0, size=k_max),
                            vocab=config.default_vocab(), config=config)
    m = np.triu(rng.uniform(0, 1, size=(k_max, k_max)), 1)
    coupling, quad = sweep_terms(model, CorrelationMatrix(m + m.T), config)
    tau = rng.uniform(0.2, 5.0, size=(k_max, 2))
    ours, ref = (new_group(bags, config, np.random.default_rng(seed), tau) for _ in range(2))
    base = base_logits(ours, project(ours, model, config), quad, mrf_messages(ours, config))
    sweep_factors(ours, base, coupling)
    factor_steps_reference(ref, base, coupling)
    assert ours.nu.tobytes() == ref.nu.tobytes()
    assert ours.logits.tobytes() == ref.logits.tobytes()
    assert not ours.nu[0].any()


class TestUpdateNu:
    def test_masked_factor_exact_zero(self, rng):
        config = cfg_k(2)
        labels = WeakLabels(np.array([1.0, 0.0]))
        post = set_all_factors(rng.normal(scale=10, size=(3, 2)), labels)
        assert np.all(post.nu[:, 1] == 0.0)

    def test_sigmoid_values(self):
        post = set_all_factors(np.array([[0.0], [2.0]]), WeakLabels(np.ones(1)))
        assert post.nu[0, 0] == pytest.approx(0.5)
        assert post.nu[1, 0] == pytest.approx(1 / (1 + np.exp(-2)))

    @given(st.lists(st.tuples(st.floats(-800, 800), st.booleans()), min_size=1,
                    max_size=40))
    def test_set_factor_matches_long_double_sigmoid(self, rows):
        # nu = bit / (1 + exp(-clip(eta, +-30))) within 4 ulp of a long double
        # reference, masked rows +0.0, unmasked rows strictly inside (0, 1), and
        # logits holding the unclipped eta (+0 + eta: a zero coupling adds +0)
        eta = np.array([e for e, _ in rows])
        on = np.array([b for _, b in rows])
        group = blank_group(2, len(rows))
        group.bits[1] = on
        base = np.zeros((2, len(rows)))
        base[1] = eta
        sweep_factors(group, base, np.zeros((2, 2)))
        nu = group.nu[1]
        ref = 1 / (1 + np.exp(-np.clip(eta.astype(np.longdouble), -30, 30)))
        assert np.all(np.abs(nu[on] - ref[on]) <= 4 * np.spacing(ref[on].astype(np.float64)))
        assert np.all((nu[on] > 0) & (nu[on] < 1))
        assert nu[~on].tobytes() == np.zeros(int((~on).sum())).tobytes()
        assert group.logits[1].tobytes() == (0.0 + eta).tobytes()

    @given(st.floats(-1e6, 1e6))
    @settings(max_examples=50)
    def test_range(self, v):
        post = set_all_factors(np.array([[v]]), WeakLabels(np.ones(1)))
        assert 0.0 <= post.nu[0, 0] <= 1.0


# --- correlation update -----------------------------------------------------

class TestUpdateCorrelation:
    def test_label_initialization(self):
        labels = [WeakLabels(np.array([1.0, 1.0, 0.0]))]
        corr = update_correlation(sum(np.outer(lab.bits, lab.bits) for lab in labels))
        assert corr.m[0, 1] == 1.0
        assert corr.m[0, 2] == 0.0 and corr.m[1, 2] == 0.0
        assert np.all(np.diag(corr.m) == 0.0)
        corr.validate()

    def test_zero_nu_gives_zero_matrix(self, rng):
        group = blank_group(3, 4, rng=rng)
        group.nu[:] = 0.0
        corr = update_correlation(nu_gram([group]))
        assert np.all(corr.m == 0.0)

    def test_normalized_max_one(self, rng):
        groups = [blank_group(4, 5, rng=rng) for _ in range(3)]
        for g in groups:
            g.nu[:] = rng.uniform(0, 1, size=g.nu.shape)
        corr = update_correlation(nu_gram(groups))
        corr.validate()
        assert corr.m.max() == pytest.approx(1.0)

    def test_fit_m_is_normalised_gram_of_returned_nu(self, monkeypatch):
        # fit takes sum nu nu^T once at set-up and once after each sweep, and the
        # last one is M: zero diagonal, symmetrised, peak 1; 100 bags make two groups
        config = cfg_k(2, 2, k_extra=1, sigma=0.2, beta=1.0, rho=0.1, max_iters=4, tol=0.0)
        ds = sample_dataset(config, 100, 12, 6, seed=5)
        calls = []

        def counted(groups, _fn=inference.nu_gram):
            calls.append(len(groups))
            return _fn(groups)

        monkeypatch.setattr(inference, "nu_gram", counted)
        result = fit(ds.bags, config)
        assert calls == [2] * (len(result.trace) + 1) and len(result.trace) == 4
        gram = sum(p.nu.T @ p.nu for p in result.posteriors)
        np.fill_diagonal(gram, 0.0)
        gram += gram.T
        np.testing.assert_allclose(result.correlation.m, gram / gram.max(), rtol=1e-12)


# --- fit --------------------------------------------------------------------

class TestFit:
    def test_infinite_tol_single_iteration(self, small_dataset, small_config):
        import dataclasses
        config = dataclasses.replace(small_config, tol=float("inf"))
        result = fit(small_dataset.bags, config)
        assert len(result.trace) == 1

    def test_synthetic_recovery(self):
        config = cfg_k(3, 3, sigma=0.1, max_iters=200, tol=1e-4, seed=0)
        ds = sample_dataset(config, 50, 20, 16, seed=0)
        result = fit(ds.bags, config)
        correct = total = 0
        for z, post in zip(ds.true_z, result.posteriors):
            pred = (post.nu >= 0.5).astype(float)
            correct += (pred == z).sum()
            total += z.size
        assert correct / total >= 0.9

    def test_posterior_invariants_after_fit(self, small_dataset, small_config):
        result = fit(small_dataset.bags, small_config)
        for bag, post in zip(small_dataset.bags, result.posteriors):
            assert np.all(post.tau > 0)
            assert np.all(post.nu >= 0.0) and np.all(post.nu <= 1.0)
            assert np.all(post.nu[:, bag.labels.bits == 0.0] == 0.0)
            pi = np.cumprod(post.tau[:, 0] / post.tau.sum(axis=1))  # E[pi_k]
            assert np.all(np.diff(pi) <= 1e-12)

    def test_mrf_reduction_bit_identical(self, rng):
        # each coupling at zero adds zeros while the other is on: at rho = 0 a
        # sweep does not depend on M, at beta = 0 it does not depend on the edges
        config = ModelConfig(k_objects=2, k_attributes=2, k_extra=1, sigma=0.2, seed=3)
        ds = sample_dataset(config, 8, 9, 6, seed=3)
        bare = [dataclasses.replace(b, edges=np.zeros((0, 2), dtype=np.int64))
                for b in ds.bags]
        model = AppearanceModel(means=rng.normal(size=(5, 6)),
                                variances=rng.uniform(0.1, 1.0, size=5),
                                vocab=config.default_vocab(), config=config)
        m = np.triu(rng.uniform(0, 1, size=(5, 5)), 1)
        corr = CorrelationMatrix(m + m.T)

        def sweep(bags, correlation, **coupling):
            cfg = dataclasses.replace(config, **coupling)
            group = new_group(bags, cfg)
            _sweep_bag(group, project(group, model, cfg), sweep_terms(model, correlation, cfg),
                       cfg)
            return [getattr(p, name).tobytes() for p in group.posteriors
                    for name in ("nu", "tau", "logits")]

        assert sweep(ds.bags, corr, rho=0.0) == sweep(ds.bags, CorrelationMatrix.zeros(5),
                                                      rho=0.0)
        assert sweep(ds.bags, corr, beta=0.0) == sweep(bare, corr, beta=0.0)

    def test_thread_count_invariance(self, tmp_path, fit_files):
        # the one thread count that can still reach fit is OpenBLAS's
        config = ModelConfig(k_objects=2, k_attributes=2, k_extra=1,
                             sigma=0.2, beta=1.0, rho=0.1, max_iters=15,
                             tol=1e-6, seed=5)
        ds = sample_dataset(config, 6, 8, 5, seed=5)
        save_dataset(str(tmp_path / "ds"), ds.bags, config.default_vocab(), 2, 2, 1)
        flags = ["--sigma", "0.2", "--beta", "1.0", "--rho", "0.1", "--max-iters", "15",
                 "--tol", "1e-6", "--seed", "5"]
        assert fit_files(tmp_path / "ds", flags, 1) == fit_files(tmp_path / "ds", flags, 2)

    def test_zero_instance_bag_rejected(self, small_dataset, small_config):
        empty = dataclasses.replace(small_dataset.bags[0], id="empty",
                                    features=np.zeros((0, 8), dtype=np.float32),
                                    edges=np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(DatasetError, match="empty"):
            fit(small_dataset.bags + [empty], small_config)

    def test_trace_records_delta_and_time(self, small_dataset, small_config):
        result = fit(small_dataset.bags, small_config)
        assert len(result.trace) >= 1
        for delta, secs in result.trace:
            assert delta >= 0.0
            assert secs >= 0.0


# --- test-time inference ----------------------------------------------------

class TestInferTest:
    def test_self_consistency_with_training(self):
        # train with one bag's labels already all-ones; inferring that bag
        # against the frozen model should land near its training posterior
        config = cfg_k(2, 2, sigma=0.15, max_iters=150, tol=1e-6, seed=1)
        labels = [np.ones(4)] + [
            (np.random.default_rng(i).random(4) < 0.6).astype(float)
            for i in range(1, 10)
        ]
        ds = sample_dataset(config, 10, 12, 8, seed=2, labels=labels)
        result = fit(ds.bags, config)
        post = infer_test(ds.bags[0], result.model, result.correlation, config)
        diff = np.abs(post.nu - result.posteriors[0].nu).mean()
        assert diff <= 0.05

    def test_weak_appearance_factor_wins_on_zero_features(self):
        # with x = 0 the energy -(|phi|^2 + D Phi)/(2 sigma^2) favours the
        # smallest-norm factor once likelihood dominates the stick prior
        config = cfg_k(3, sigma=0.3, max_iters=100, tol=1e-8, seed=0)
        means = np.zeros((3, 4))
        means[0, 0] = 6.0
        means[1, 1] = 4.0
        means[2, 2] = 2.0
        model = AppearanceModel(means=means, variances=np.full(3, 1e-6),
                                vocab=list("abc"), config=config)
        bag = Bag(features=np.zeros((4, 4), dtype=np.float32),
                  edges=np.zeros((0, 2), dtype=np.int64),
                  labels=WeakLabels(np.ones(3)), id="z")
        post = infer_test(bag, model, CorrelationMatrix.zeros(3), config)
        for j in range(4):
            assert post.nu[j, 2] == max(post.nu[j])

    def test_deterministic(self):
        config = cfg_k(2, 1, sigma=0.2, max_iters=50, seed=9)
        ds = sample_dataset(config, 3, 6, 5, seed=9)
        result = fit(ds.bags, config)
        a = infer_test(ds.bags[0], result.model, result.correlation, config)
        b = infer_test(ds.bags[0], result.model, result.correlation, config)
        assert a.nu.tobytes() == b.nu.tobytes()
        assert a.tau.tobytes() == b.tau.tobytes()

    def test_dimension_mismatch(self, rng):
        config = cfg_k(2, sigma=0.2)
        model = AppearanceModel(means=np.zeros((2, 4)), variances=np.ones(2),
                                vocab=["a", "b"], config=config)
        bag = dataclasses.replace(ones_bag(3, 5, config, rng), id="w")
        with pytest.raises(DimensionMismatchError) as caught:
            infer_test(bag, model, CorrelationMatrix.zeros(2), config)
        assert str(caught.value) == "bag 'w' has feature dim 5, expected 4"

    @pytest.mark.parametrize("corrupt, error", [("edge", EdgeIndexError),
                                                ("nan", DatasetError)])
    def test_invalid_bag_rejected(self, rng, corrupt, error):
        config = cfg_k(2, sigma=0.2)
        model = AppearanceModel(means=np.zeros((2, 4)), variances=np.ones(2),
                                vocab=["a", "b"], config=config)
        bag = ones_bag(3, 4, config, rng, edges=[(0, 3)] if corrupt == "edge" else None)
        if corrupt == "nan":
            bag.features[1, 2] = np.nan
        with pytest.raises(error):
            infer_test(bag, model, CorrelationMatrix.zeros(2), config)


class TestFitTransductive:
    """A transductive fit is ``fit(train + test)``, the test bags relabelled."""

    def test_true_labels_beat_blind_inference(self):
        diffs = []
        for seed in range(10):
            config = cfg_k(2, 2, k_extra=0, sigma=0.2, max_iters=80,
                           tol=1e-4, seed=seed)
            ds = sample_dataset(config, 24, 10, 8, seed=seed, labels=0.5)
            train, test = ds.bags[:20], ds.bags[20:]
            test_z = ds.true_z[20:]
            result = fit(train, config)
            blind = [infer_test(b, result.model, result.correlation, config)
                     for b in test]
            trans = fit(train + test, config).posteriors[20:]

            def hamming(posts):
                c = t = 0
                for post, z in zip(posts, test_z):
                    pred = (post.nu >= 0.5).astype(float)
                    c += (pred == z).sum()
                    t += z.size
                return c / t

            diffs.append(hamming(trans) - hamming(blind))
        assert np.mean(diffs) >= 0.0


# --- kernel wiring ----------------------------------------------------------

KERNEL = ("base_logits", "mrf_messages", "sweep_factors")


def test_fit_and_infer_run_the_tested_kernel(monkeypatch, small_dataset,
                                             small_config):
    # the oracle tests above call these functions; fit and infer_test must run
    # each once per group and sweep, and the ten small bags make one group
    calls = {}
    for name in KERNEL:
        def counted(*args, _fn=getattr(inference, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(inference, name, counted)
    config = dataclasses.replace(small_config, max_iters=1)
    assert sum(b.n_instances for b in small_dataset.bags) <= inference.GROUP_ROWS
    per_sweep = {"base_logits": 1, "mrf_messages": 1, "sweep_factors": 1}
    fit(small_dataset.bags[:2], config)
    assert calls == per_sweep
    calls.clear()
    result = fit(small_dataset.bags, config)
    assert calls == per_sweep
    calls.clear()
    infer_test(small_dataset.bags[0], result.model, result.correlation, config)
    assert calls == per_sweep


def test_posteriors_are_views_of_factor_major_groups(monkeypatch, small_dataset,
                                                    small_config):
    # fit's and infer_test's posteriors read and write their group's (k_max, rows)
    # arrays: nu and logits as nu[:, rows].T, tau as one bag of the (M, k_max, 2) stack
    groups = []

    def built(*args, _fn=inference.init_group):
        groups.append(_fn(*args))
        return groups[-1]

    monkeypatch.setattr(inference, "init_group", built)
    config = dataclasses.replace(small_config, max_iters=2)
    result = fit(small_dataset.bags, config)
    test_post = infer_test(small_dataset.bags[0], result.model, result.correlation, config)
    assert len(groups) == 2
    for group, posts in [(groups[0], result.posteriors), (groups[1], [test_post])]:
        rows = sum(group.counts)
        for name in ("nu", "logits"):
            whole = getattr(group, name)
            assert whole.shape == (config.k_max, rows) and whole.flags.c_contiguous
            for post, r in zip(posts, group.rows):
                view = getattr(post, name)
                assert view.base is whole and np.shares_memory(view, whole)
                assert view.shape == (r.stop - r.start, config.k_max)
                assert np.array_equal(view, whole[:, r].T)
        for post, t in zip(posts, group.tau):
            assert np.shares_memory(post.tau, group.tau) and np.array_equal(post.tau, t)
        group.nu[0, 0] = 0.25  # a write to the group shows in the first posterior
        assert posts[0].nu[0, 0] == 0.25


# --- packed groups ----------------------------------------------------------

def test_group_sweep_matches_sweeping_each_bag(rng):
    config = cfg_k(3, 2, k_extra=2, sigma=0.4, beta=1.0, rho=0.3)
    bags = (sample_dataset(config, 3, 9, 5, seed=1, labels=0.6).bags
            + sample_dataset(config, 2, 16, 5, seed=2, labels=0.6).bags)
    model = AppearanceModel(means=rng.normal(size=(7, 5)),
                            variances=rng.uniform(0.1, 1.0, size=7),
                            vocab=config.default_vocab(), config=config)
    m = rng.uniform(0, 1, size=(7, 7))
    corr = CorrelationMatrix(np.triu(m, 1) + np.triu(m, 1).T)

    group = new_group(bags, config)
    singles = [new_group([b], config) for b in bags]
    for single, start in zip(singles, group.posteriors):
        single.nu[:] = start.nu.T
    together, alone = group.posteriors, [g.posteriors[0] for g in singles]
    terms = sweep_terms(model, corr, config)
    for _ in range(3):
        delta = _sweep_bag(group, project(group, model, config), terms, config)
        deltas = [_sweep_bag(g, project(g, model, config), terms, config) for g in singles]
        rows = [b.n_instances for b in bags]
        assert abs(delta - np.dot(deltas, rows) / sum(rows)) < 1e-12
    for a, b in zip(together, alone):
        for name in ("nu", "logits", "tau"):
            np.testing.assert_allclose(getattr(a, name), getattr(b, name),
                                       rtol=0, atol=1e-12)


def test_new_group_matches_per_bag_draws():
    # one draw over the group's rows gives each bag, in bag order, the numbers of one
    # draw per bag: nu = (0.5 + U(-0.01, 0.01)) * bit, tau = (alpha, 1), zero logits,
    # and each bag's row of the stick cache is the cache of its own tau
    config = cfg_k(3, 2, k_extra=2, alpha=1.7)
    bags = (sample_dataset(config, 3, 9, 5, seed=1, labels=0.5).bags
            + sample_dataset(config, 2, 16, 5, seed=2, labels=0.5).bags)
    group = init_group(bags, config, np.random.default_rng(3))
    rng, k = np.random.default_rng(3), config.k_max
    for m, (bag, post) in enumerate(zip(bags, group.posteriors)):
        nu = rng.uniform(-0.01, 0.01, size=(bag.n_instances, k))
        nu += 0.5
        nu *= bag.labels.bits
        tau = np.column_stack([np.full(k, config.alpha), np.ones(k)])
        assert post.nu.tobytes() == nu.tobytes() and post.tau.tobytes() == tau.tobytes()
        assert post.logits.tobytes() == np.zeros_like(nu).tobytes()
        cache = StickBoundCache.from_tau(tau)
        for name in ("w", "neg_log_terms", "prior_cumsum"):
            assert getattr(group.cache, name)[m].tobytes() == getattr(cache, name).tobytes()
    assert group.nu.flags.c_contiguous and group.logits.flags.c_contiguous


def test_start_cache_is_shared_read_only_and_copied_per_group():
    # the cache of tau = (alpha, 1) is taken once per (alpha, k_max); every group gets
    # its own writable copy, so a group's stick stage cannot write into the shared one
    config = cfg_k(3, 2, k_extra=2, alpha=1.3)
    shared = _start_cache(config.alpha, config.k_max)
    assert _start_cache(config.alpha, config.k_max) is shared
    bags = sample_dataset(config, 2, 9, 5, seed=1, labels=0.5).bags
    for group in (init_group(bags, config, np.random.default_rng(0)),
                  init_group(bags[:1], config, np.random.default_rng(0))):
        for name in ("w", "neg_log_terms", "prior_cumsum"):
            ours, theirs = getattr(group.cache, name), getattr(shared, name)
            assert not theirs.flags.writeable and ours.flags.writeable
            assert not np.shares_memory(ours, theirs)
            with pytest.raises(ValueError, match="read-only"):
                theirs[0, 0] = 0.0
            ours[0, 0] = 0.0  # a group's own copy is writable


@pytest.mark.parametrize("group_rows", [1, 10 ** 6])
def test_fit_does_not_depend_on_grouping(monkeypatch, group_rows):
    # 12 bags of 100 instances make two groups at the default budget
    config = ModelConfig(k_objects=2, k_attributes=2, k_extra=1, sigma=0.2,
                         beta=1.0, rho=0.1, max_iters=8, tol=0.0, seed=5)
    ds = sample_dataset(config, 12, 100, 5, seed=5)
    base = fit(ds.bags, config)
    monkeypatch.setattr(inference, "GROUP_ROWS", group_rows)
    other = fit(ds.bags, config)
    for a, b in [(base.model.means, other.model.means),
                 (base.model.variances, other.model.variances),
                 (base.correlation.m, other.correlation.m)]:
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    for p, q in zip(base.posteriors, other.posteriors):
        np.testing.assert_allclose(p.nu, q.nu, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p.tau, q.tau, rtol=1e-12)


# --- spatial smoothing property ---------------------------------------------

def test_spatial_coupling_reduces_boundary_disagreements():
    from wsibp.generative import smooth_spatially

    def run(beta, seed):
        config = ModelConfig(k_objects=3, k_attributes=0, k_extra=0,
                             sigma=0.5, beta=beta, rho=0.0, max_iters=40,
                             tol=1e-4, seed=0)
        ds = sample_dataset(config, 6, 36, 8, seed=seed, labels=1.0)
        ds = smooth_spatially(ds, rounds=2, seed=seed)
        result = fit(ds.bags, config)
        count = 0
        for bag, post in zip(ds.bags, result.posteriors):
            th = post.nu >= 0.5
            for a, b in bag.edges:
                count += int((th[a] != th[b]).sum())
        return count

    totals = [(run(0.0, s), run(2.0, s)) for s in range(3)]
    assert sum(t[1] for t in totals) <= sum(t[0] for t in totals)
