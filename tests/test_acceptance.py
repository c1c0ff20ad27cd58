"""Quantitative acceptance suite.

Each test prints a single pass/fail line so the whole gate can be read off
``pytest -v -s tests/test_acceptance.py`` at a glance. Oracles are independent
straight-line computations (enumeration, Monte Carlo, or replicated formulas),
never calls back into the code under test.
"""

import dataclasses

import numpy as np

from wsibp import (
    AppearanceModel,
    Bag,
    CorrelationMatrix,
    ModelConfig,
    WeakLabels,
    fit,
    infer_test,
    sample_dataset,
)
from wsibp.generative import plant_correlation, smooth_spatially
from wsibp.inference import (
    StickBoundCache,
    _sweep_bag,
    base_logits,
    init_group,
    mrf_messages,
    project,
    start_block,
    sweep_factors,
    sweep_terms,
)
from wsibp.io import save_dataset
from wsibp.metrics import (
    BagTruth,
    ap_at_t,
    average_precision,
    mar_query,
    segmentation_metrics,
)
from wsibp.tasks import rank_query, segment


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({label}): {status} [{detail}]")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_01_synthetic_recovery():
    accs = []
    for seed in range(5):
        config = ModelConfig(k_objects=3, k_attributes=3, k_extra=0,
                             sigma=0.1, beta=0.0, rho=0.0, max_iters=200,
                             tol=1e-4, seed=seed)
        ds = sample_dataset(config, 50, 20, 16, seed=seed)
        result = fit(ds.bags, config)
        correct = total = 0
        for bag, z, post in zip(ds.bags, ds.true_z, result.posteriors):
            annotated = bag.labels.bits == 1.0
            pred = (post.nu[:, annotated] >= 0.5).astype(np.float64)
            correct += (pred == z[:, annotated]).sum()
            total += pred.size
        accs.append(correct / total)
    mean_acc = float(np.mean(accs))
    _report(1, "synthetic recovery", mean_acc >= 0.90,
            f"mean Hamming accuracy {mean_acc:.4f} over 5 seeds, need >= 0.90")


def test_criterion_02_exact_oracle_marginals():
    # two instances, one feature dim, two factors; activation probabilities
    # pinned to point masses through near-degenerate Beta parameters so the
    # exact posterior is computable by enumerating all 16 assignments
    v = np.array([0.6, 0.5])
    pi = np.cumprod(v)
    phi = np.array([[-3.0], [3.0]])
    sigma = 0.2
    config = ModelConfig(k_objects=2, k_attributes=0, k_extra=0, sigma=sigma,
                         beta=0.0, rho=0.0, seed=0)
    bag = Bag(features=np.array([[-3.0], [3.0]], dtype=np.float32),
              edges=np.zeros((0, 2), dtype=np.int64),
              labels=WeakLabels(np.ones(2)), id="oracle")
    model = AppearanceModel(means=phi, variances=np.full(2, 1e-12),
                            vocab=["a", "b"], config=config)
    group = init_group([bag], config, start_block(np.random.default_rng(0), [bag], config.k_max))
    scale = 1e7
    group.tau[0] = np.column_stack([scale * v, scale * (1.0 - v)])
    group.cache = StickBoundCache.from_tau(group.tau)
    post = group.posteriors[0]
    proj = project(group, model, config)
    _, quad, neg_coupling = sweep_terms(model, CorrelationMatrix.zeros(2), config)
    for _ in range(500):  # the sweep's own steps, without its stick update
        before = group.nu.copy()
        sweep_factors(group, base_logits(group, proj, quad, mrf_messages(group, config)),
                      neg_coupling)
        if np.abs(group.nu - before).mean() < 1e-13:
            break

    # straight-line enumeration of p(Z | X)
    x = bag.features.astype(np.float64)
    log_post = np.zeros((2, 2, 2, 2))
    for z00 in (0, 1):
        for z01 in (0, 1):
            for z10 in (0, 1):
                for z11 in (0, 1):
                    z = np.array([[z00, z01], [z10, z11]], dtype=np.float64)
                    lp = (z * np.log(pi) + (1 - z) * np.log1p(-pi)).sum()
                    mean = z @ phi
                    lp += (-0.5 * ((x - mean) ** 2).sum() / sigma ** 2
                           - x.size * np.log(sigma * np.sqrt(2 * np.pi)))
                    log_post[z00, z01, z10, z11] = lp
    prob = np.exp(log_post - log_post.max())
    prob /= prob.sum()
    marg = np.array([
        [prob[1].sum(), prob[:, 1].sum()],
        [prob[:, :, 1].sum(), prob[:, :, :, 1].sum()],
    ])
    map_idx = np.unravel_index(np.argmax(prob), prob.shape)
    exact_map = np.array(map_idx, dtype=np.float64).reshape(2, 2)

    err = np.abs(post.nu - marg).max()
    map_match = np.array_equal((post.nu >= 0.5).astype(np.float64), exact_map)
    _report(2, "exact-oracle marginals", map_match and err <= 0.15,
            f"max |nu - marginal| {err:.2e} (<= 0.15), MAP match {map_match}")


def _log1mexp(s: np.ndarray) -> np.ndarray:
    # log(1 - exp(s)) for s < 0, numerically robust near both limits
    out = np.empty_like(s)
    close = s > -np.log(2.0)
    out[close] = np.log(-np.expm1(s[close]))
    out[~close] = np.log1p(-np.exp(s[~close]))
    return out


def test_criterion_03_stick_bound_validity(stick_bound):
    rng = np.random.default_rng(12)
    n = 1_000_000
    worst = np.inf
    checked = 0
    for _ in range(20):
        tau = rng.uniform(0.2, 8.0, size=(5, 2))
        for k in (1, 2, 5):
            # Beta samples via gamma pairs so log v is computed without
            # catastrophic rounding when v approaches 1
            g1 = rng.gamma(np.broadcast_to(tau[:k, 0], (n, k)))
            g2 = rng.gamma(np.broadcast_to(tau[:k, 1], (n, k)))
            with np.errstate(divide="ignore"):
                # v rounding to exactly 0 gives log v = -inf, which correctly
                # contributes log(1 - 0) = 0 downstream
                logv = np.log1p(-g2 / (g1 + g2))
            s = np.minimum(logv.sum(axis=1), -1e-300)
            vals = _log1mexp(s)
            mc = vals.mean()
            se = vals.std(ddof=1) / np.sqrt(n)
            _, bound = stick_bound(tau, k)
            worst = min(worst, mc + 3 * se - bound)
            checked += 1
    _, unit = stick_bound(np.array([[1.0, 1.0]]), 1)
    exact_ok = abs(unit + 1.0) <= 1e-6
    _report(3, "stick-bound validity", worst >= 0.0 and exact_ok,
            f"min MC slack {worst:+.2e} over {checked} cases; "
            f"k=1 tau=(1,1) bound {unit:.8f} vs -1.0")


def test_stick_prior_matches_monte_carlo():
    # the logit's stick prior is E[log pi_k] = E[sum_{t<=k} log v_t] over v_t ~ Beta(tau_t),
    # estimated here from gamma pairs; near-point-mass sticks pin the whole prior logit
    # E[log pi_k] - E[log(1 - pi_k)] to log(pi / (1 - pi)) at pi = cumprod(v)
    rng = np.random.default_rng(21)
    n = 400_000
    worst = 0.0
    for _ in range(10):
        tau = rng.uniform(0.2, 8.0, size=(5, 2))
        g1 = rng.gamma(np.broadcast_to(tau[:, 0], (n, 5)))
        g2 = rng.gamma(np.broadcast_to(tau[:, 1], (n, 5)))
        with np.errstate(divide="ignore"):
            log_pi = np.log(g1 / (g1 + g2)).cumsum(axis=1)
        log_pi = np.maximum(log_pi, -745.0)  # a v that rounds to 0 counts as the least double
        se = log_pi.std(axis=0, ddof=1) / np.sqrt(n)
        z = np.abs(log_pi.mean(axis=0) - StickBoundCache.from_tau(tau).prior_cumsum) / se
        worst = max(worst, float(z.max()))
    v = np.array([0.6, 0.5, 0.7])
    cache = StickBoundCache.from_tau(1e7 * np.column_stack([v, 1.0 - v]))
    pi = np.cumprod(v)
    logit = cache.prior_cumsum - cache.neg_log_terms
    exact = float(np.abs(logit - np.log(pi / (1.0 - pi))).max())
    _report(3, "stick prior E[log pi_k]", worst <= 4.5 and exact <= 1e-5,
            f"worst |MC - prior| {worst:.2f} standard errors over 10 x 5 sticks (need <= 4.5); "
            f"point-mass prior logit off by {exact:.1e} (need <= 1e-5)")


def test_criterion_04_label_masking_exhaustive():
    config = ModelConfig(k_objects=3, k_attributes=3, k_extra=2,
                         sigma=0.2, max_iters=30, tol=1e-5, seed=7)
    ds = sample_dataset(config, 12, 10, 8, seed=7, labels=0.4)
    result = fit(ds.bags, config)
    violations = 0
    for bag, post in zip(ds.bags, result.posteriors):
        masked = bag.labels.bits == 0.0
        violations += int(np.count_nonzero(post.nu[:, masked]))
    # a transductive fit, fit(train + test) with every test label on: the train bags'
    # masks still hold
    train, test = ds.bags[:8], ds.bags[8:]
    ones = WeakLabels(np.ones(config.k_max))
    trans = fit(train + [dataclasses.replace(b, labels=ones) for b in test], config)
    for bag, post in zip(train, trans.posteriors):
        masked = bag.labels.bits == 0.0
        violations += int(np.count_nonzero(post.nu[:, masked]))
    _report(4, "label masking", violations == 0,
            f"{violations} nonzero entries on masked factors (need 0)")


def test_criterion_05_mrf_disabled_reduction():
    # beta = rho = 0 is the MRF-free model: the fit must not depend on the edges,
    # and a sweep from the fitted state must not depend on M
    config = ModelConfig(k_objects=2, k_attributes=2, k_extra=1,
                         sigma=0.2, beta=0.0, rho=0.0, max_iters=25,
                         tol=1e-6, seed=11)
    ds = sample_dataset(config, 10, 9, 6, seed=11)
    bare = [dataclasses.replace(b, edges=np.zeros((0, 2), dtype=np.int64))
            for b in ds.bags]
    full, reduced = fit(ds.bags, config), fit(bare, config)

    def arrays(model, posts):
        return [model.means.tobytes(), model.variances.tobytes()] + [
            getattr(p, name).tobytes() for p in posts for name in ("nu", "tau", "logits")]

    def sweep(bags, correlation):
        group = init_group(bags, config, start_block(np.random.default_rng(0), bags, config.k_max))
        for post, fitted in zip(group.posteriors, full.posteriors):
            post.nu[:], post.tau[:], post.logits[:] = fitted.nu, fitted.tau, fitted.logits
        group.cache = StickBoundCache.from_tau(group.tau)
        _sweep_bag(group, project(group, full.model, config),
                   sweep_terms(full.model, correlation, config), config)
        return arrays(full.model, group.posteriors)

    fit_same = arrays(full.model, full.posteriors) == arrays(reduced.model, reduced.posteriors)
    sweep_same = (sweep(ds.bags, full.correlation)
                  == sweep(bare, CorrelationMatrix.zeros(config.k_max)))
    _report(5, "beta=rho=0 reduction", fit_same and sweep_same,
            f"fit with vs without edges bit-identical {fit_same}; sweep with "
            f"edges and fitted M vs neither bit-identical {sweep_same}")


def test_criterion_06_spatial_mrf_effect():
    def run(beta, seed):
        config = ModelConfig(k_objects=3, k_attributes=0, k_extra=0,
                             sigma=0.5, beta=beta, rho=0.0, max_iters=60,
                             tol=1e-4, seed=0)
        ds = sample_dataset(config, 10, 36, 8, seed=seed, labels=1.0)
        ds = smooth_spatially(ds, rounds=2, seed=seed)
        result = fit(ds.bags, config)
        disagreements = 0
        correct = total = 0
        for bag, z, post in zip(ds.bags, ds.true_z, result.posteriors):
            th = post.nu >= 0.5
            for a, b in bag.edges:
                disagreements += int((th[a] != th[b]).sum())
            seg = segment(post, config)
            active = z[:, :3].max(axis=1) > 0
            if active.any():
                truth = np.argmax(z[:, :3], axis=1)
                correct += int((seg.labels[active] == truth[active]).sum())
                total += int(active.sum())
        return disagreements, correct / max(total, 1)

    rows = [(run(0.0, s), run(2.0, s)) for s in range(10)]
    dis0 = float(np.mean([r[0][0] for r in rows]))
    dis2 = float(np.mean([r[1][0] for r in rows]))
    acc0 = float(np.mean([r[0][1] for r in rows]))
    acc2 = float(np.mean([r[1][1] for r in rows]))
    ok = dis2 <= dis0 and acc2 >= acc0
    _report(6, "spatial MRF effect", ok,
            f"disagreements {dis0:.1f} -> {dis2:.1f}, "
            f"accuracy {acc0:.3f} -> {acc2:.3f} at beta=2 (10 seeds)")


def test_criterion_07_correlation_recovery():
    config = ModelConfig(k_objects=3, k_attributes=3, k_extra=0,
                         sigma=0.15, max_iters=80, tol=1e-4, seed=3)
    ds = sample_dataset(config, 40, 15, 12, seed=3, labels=0.5)
    ds = plant_correlation(ds, [(0, 3)], 1.0, seed=3)
    result = fit(ds.bags, config)
    m = result.correlation.m
    off0 = np.delete(m[0], 0)
    off3 = np.delete(m[3], 3)
    ok = m[0, 3] >= off0.max() - 1e-12 and m[3, 0] >= off3.max() - 1e-12
    _report(7, "correlation recovery", ok,
            f"M[0,3]={m[0, 3]:.3f}, max other row-0 entry "
            f"{np.delete(off0, 2).max():.3f}")


def test_criterion_08_complexity_scaling():
    # The three shapes take turns over 25 rounds; a sample is the mean of 5
    # iterations (15-40 ms) after a warm-up one, and each ratio is the median
    # over rounds of the ratio within a round. Samples taken side by side see
    # the same host speed, which drifts between levels 30% apart over tenths
    # of a second. The MRF runs over the 4-neighbour grid, so the beta
    # messages are timed too.
    shapes = {"base": (3000, 0), "double_n": (6000, 0), "double_k": (3000, 8)}
    runs = {}
    for name, (n, k_extra) in shapes.items():
        config = ModelConfig(k_objects=4, k_attributes=4, k_extra=k_extra,
                             sigma=0.3, beta=0.0, rho=0.0, max_iters=6,
                             tol=0.0, seed=0)
        runs[name] = (sample_dataset(config, 2, n, 32, seed=0, labels=1.0).bags, config)
    secs = {name: [] for name in shapes}
    for _ in range(25):
        for name, (bags, config) in runs.items():
            trace = fit(bags, config).trace[1:]
            secs[name].append(sum(t for _, t in trace) / len(trace))
    base = np.array(secs["base"])
    rn = float(np.median(np.array(secs["double_n"]) / base))
    rk = float(np.median(np.array(secs["double_k"]) / base))
    ok = 1.6 <= rn <= 2.6 and 1.6 <= rk <= 3.0
    _report(8, "complexity scaling", ok,
            f"N-doubling ratio {rn:.2f} (band [1.6, 2.6]), "
            f"K-doubling ratio {rk:.2f} (band [1.6, 3.0])")


def test_criterion_09_metric_identities():
    checks = [
        average_precision([True, True, False]) == 1.0,
        average_precision([False, False]) == 0.0,
        average_precision([False, False, False, True]) == 0.25,
        ap_at_t({"b": (0, [3, 4])}, {"b": BagTruth(0, {3, 4})}, 2) == 1.0,
        ap_at_t({"b": (1, [3, 4])}, {"b": BagTruth(0, {3, 4})}, 2) == 0.0,
        mar_query({("q",): ["a", "b"]}, {("q",): {"a"}})[0] == 1.0,
    ]
    ident = segmentation_metrics({"b": np.array([0, 1, 1, 0])},
                                 {"b": np.array([0, 1, 1, 0])})
    checks += [ident.mean_iou == 1.0, ident.per_pixel_accuracy == 1.0]
    half = segmentation_metrics({"b": np.array([0, 0, 1, 1])},
                                {"b": np.array([1, 0, 0, 1])})
    checks.append(abs(half.mean_iou - 1 / 3) < 1e-12)
    ok = all(checks)
    _report(9, "metric identities", ok,
            f"{sum(checks)}/{len(checks)} identities exact")


def test_criterion_10_thread_determinism(tmp_path, fit_files):
    config = ModelConfig(k_objects=2, k_attributes=2, k_extra=1,
                         sigma=0.2, beta=1.0, rho=0.1, max_iters=15,
                         tol=1e-6, seed=5)
    ds = sample_dataset(config, 8, 10, 6, seed=5)
    save_dataset(str(tmp_path / "ds"), ds.bags, config.default_vocab(), 2, 2, 1)
    flags = ["--sigma", "0.2", "--beta", "1.0", "--rho", "0.1", "--max-iters", "15",
             "--tol", "1e-6", "--seed", "5"]
    same = fit_files(tmp_path / "ds", flags, 1) == fit_files(tmp_path / "ds", flags, 2)
    _report(10, "thread determinism", same,
            "model and posterior files bit-identical with OpenBLAS on 1 and 2 threads"
            if same else "files differ")


def test_criterion_11_query_colocation_benefit():
    config = ModelConfig(k_objects=4, k_attributes=4, k_extra=0,
                         sigma=0.15, beta=0.0, rho=0.0, max_iters=100,
                         tol=1e-4, seed=0)
    ds = sample_dataset(config, 100, 12, 16, seed=13, labels=0.6)
    train, test = ds.bags[:60], ds.bags[60:]
    test_z = ds.true_z[60:]
    result = fit(train, config)
    posts = [(b.id, infer_test(b, result.model, result.correlation, config))
             for b in test]

    rng = np.random.default_rng(99)
    joint_rankings, factored_rankings, relevance = {}, {}, {}
    for i in range(300):
        obj = int(rng.integers(0, 4))
        att = int(rng.integers(4, 8))
        key = (i, obj, att)
        relevance[key] = {bid for (bid, _), z in zip(posts, test_z)
                          if bool(((z[:, obj] == 1) & (z[:, att] == 1)).any())}
        joint_rankings[key] = [bid for bid, _, _ in
                               rank_query(posts, config, obj, [att])]
        # independent-factored baseline: product of per-factor maxima,
        # ignoring whether the factors share an instance
        scores = np.array([p.nu[:, obj].max() * p.nu[:, att].max()
                           for _, p in posts])
        order = np.lexsort((np.arange(len(posts)), -scores))
        factored_rankings[key] = [posts[j][0] for j in order]

    joint, _ = mar_query(joint_rankings, relevance)
    factored, _ = mar_query(factored_rankings, relevance)
    _report(11, "query co-location benefit", joint > factored,
            f"MAR joint {joint:.3f} vs factored baseline {factored:.3f} "
            f"over 300 queries")
