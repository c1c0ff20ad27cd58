import numpy as np
import pytest
from hypothesis import given, strategies as st

from wsibp import (
    BagPosterior,
    ModelConfig,
    WsibpError,
    fit,
    infer_test,
    sample_dataset,
)
from wsibp.tasks import (
    annotate_given_object,
    free_annotation,
    rank_query,
    segment,
)


CFG = ModelConfig(k_objects=2, k_attributes=2, k_extra=0, beta=0.0, rho=0.0)


def posterior(nu, tau=None):
    nu = np.asarray(nu, dtype=np.float64)
    if tau is None:
        tau = np.column_stack([np.ones(nu.shape[1]), np.ones(nu.shape[1])])
    return BagPosterior(tau=np.asarray(tau, dtype=np.float64), nu=nu,
                        logits=np.zeros_like(nu))


class TestFreeAnnotation:
    def test_unique_argmax_fixture(self):
        nu = np.zeros((4, 4))
        nu[:, 0] = [0.8, 0.8, 1.0, 0.8]  # unique argmax at instance 2
        nu[2, 2] = 0.9  # attribute factor index 2, instance 2
        tau = np.array([[10.0, 0.1], [0.1, 10.0], [1, 1], [1, 1]])
        anns = free_annotation(posterior(nu, tau), CFG, 1, 1)
        assert len(anns) == 1
        assert anns[0].object == 0
        assert anns[0].object_instance == 2
        assert anns[0].attributes == [(2, 0.9)]

    def test_zero_attributes_requested(self):
        anns = free_annotation(posterior(np.ones((2, 4))), CFG, 1, 0)
        assert anns[0].attributes == []

    def test_too_many_objects_rejected(self):
        with pytest.raises(WsibpError):
            free_annotation(posterior(np.ones((2, 4))), CFG, 3, 1)

    @pytest.mark.parametrize("top_objects, top_attributes", [(0, 1), (-1, 1), (1, -1)])
    def test_counts_below_range_rejected(self, top_objects, top_attributes):
        with pytest.raises(WsibpError, match="top_"):
            free_annotation(posterior(np.ones((2, 4))), CFG, top_objects, top_attributes)

    def test_planted_pair_recovered(self):
        hits = 0
        trials = 100
        config = ModelConfig(k_objects=3, k_attributes=3, k_extra=0,
                             sigma=0.1, beta=0.0, rho=0.0, max_iters=100,
                             tol=1e-4, seed=0)
        ds = sample_dataset(config, 50, 20, 16, seed=21, labels=0.5)
        result = fit(ds.bags, config)
        rng = np.random.default_rng(77)
        from wsibp.core import Bag, WeakLabels
        from wsibp.generative import _emit_features
        for trial in range(trials):
            obj = int(rng.integers(0, 3))
            att = int(rng.integers(3, 6))
            z = np.zeros((8, 6))
            z[:, obj] = 1.0
            z[:, att] = 1.0
            x = _emit_features(z, ds.true_a, config.sigma, rng)
            bag = Bag(features=x, edges=np.zeros((0, 2), dtype=np.int64),
                      labels=WeakLabels(np.ones(6)), id=f"q{trial}")
            post = infer_test(bag, result.model, result.correlation, config)
            anns = free_annotation(post, config, 1, 1)
            if anns[0].object == obj and anns[0].attributes[0][0] == att:
                hits += 1
        assert hits >= 90


class TestAnnotateGivenObject:
    def test_consistent_with_free_annotation(self):
        nu = np.zeros((4, 4))
        nu[:, 0] = 1.0
        nu[2, 2] = 0.9
        tau = np.array([[10.0, 0.1], [0.1, 10.0], [1, 1], [1, 1]])
        free = free_annotation(posterior(nu, tau), CFG, 1, 1)[0]
        named = annotate_given_object(posterior(nu, tau), CFG, 0, 1)
        assert named.attributes == free.attributes
        assert named.object_instance == free.object_instance

    def test_tie_break_lowest_instance(self):
        named = annotate_given_object(posterior(np.full((5, 4), 0.5)), CFG, 1, 1)
        assert named.object_instance == 0

    def test_absent_object_still_annotates(self):
        nu = np.full((3, 4), 1e-6)
        ann = annotate_given_object(posterior(nu), CFG, 0, 2)
        assert ann.object == 0
        assert len(ann.attributes) == 2
        assert all(s <= 1e-6 for _, s in ann.attributes)

    def test_invalid_object_rejected(self):
        with pytest.raises(WsibpError):
            annotate_given_object(posterior(np.ones((2, 4))), CFG, 2, 1)

    def test_negative_attribute_count_rejected(self):
        with pytest.raises(WsibpError, match="top_attributes"):
            annotate_given_object(posterior(np.ones((2, 4))), CFG, 0, -1)


class TestRankQuery:
    def test_product_ordering(self):
        a = posterior(np.array([[1.0, 0.0, 1.0, 0.0]]))
        b = posterior(np.array([[0.5, 0.0, 0.5, 0.0]]))
        ranked = rank_query([("A", a), ("B", b)], CFG, 0, [2])
        assert [r[0] for r in ranked] == ["A", "B"]
        assert ranked[0][2] == pytest.approx(1.0)
        assert ranked[1][2] == pytest.approx(0.25)

    def test_object_only_query(self):
        a = posterior(np.array([[0.3, 0, 0, 0], [0.9, 0, 0, 0]]))
        ranked = rank_query([("A", a)], CFG, 0, [])
        assert ranked[0][1] == 1  # instance with the max object score
        assert ranked[0][2] == pytest.approx(0.9)

    def test_colocation_matters(self):
        # both factors present but never on the same instance scores low
        apart = posterior(np.array([[1.0, 0, 0, 0], [0.0, 0, 1.0, 0]]))
        together = posterior(np.array([[0.8, 0, 0.8, 0]]))
        ranked = rank_query([("apart", apart), ("together", together)],
                            CFG, 0, [2])
        assert ranked[0][0] == "together"

    def test_invalid_indices(self):
        p = posterior(np.ones((1, 4)))
        with pytest.raises(WsibpError):
            rank_query([("A", p)], CFG, 3, [])
        with pytest.raises(WsibpError):
            rank_query([("A", p)], CFG, 0, [0])

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone_in_scores(self, lo, hi):
        from hypothesis import assume
        lo, hi = sorted((lo, hi))
        assume(hi > lo)
        a = posterior(np.array([[lo, 0, 1.0, 0]]))
        b = posterior(np.array([[hi, 0, 1.0, 0]]))
        ranked = rank_query([("low", a), ("high", b)], CFG, 0, [2])
        names = [r[0] for r in ranked]
        assert names.index("high") <= names.index("low")


class TestSegment:
    def test_one_hot_identity(self):
        nu = np.zeros((3, 4))
        nu[0, 1] = 1.0
        nu[1, 0] = 1.0
        nu[2, 1] = 1.0
        seg = segment(posterior(nu), CFG)
        assert seg.labels.tolist() == [1, 0, 1]
        assert np.all(seg.scores == 1.0)

    def test_tie_break_lowest_label(self):
        seg = segment(posterior(np.full((4, 4), 0.5)), CFG)
        assert np.all(seg.labels == 0)

    def test_rescaling_invariance(self, rng):
        nu = rng.uniform(0, 1, size=(6, 4))
        base = segment(posterior(nu), CFG).labels
        scaled = nu.copy()
        scaled[:, :2] *= 0.25
        assert np.array_equal(segment(posterior(scaled), CFG).labels, base)

    def test_attributes_never_predicted(self, rng):
        nu = rng.uniform(0, 1, size=(10, 4))
        nu[:, 2:] = 1.0  # attribute columns dominate but are excluded
        seg = segment(posterior(nu), CFG)
        assert np.all(seg.labels < CFG.k_objects)


def test_views_and_contiguous_copies_give_the_same_results(small_dataset, small_config):
    # fit's and infer_test's posteriors are strided (N_i, k_max) views of their
    # group's factor-major arrays; every task must read them as it reads a copy
    result = fit(small_dataset.bags, small_config)
    views = result.posteriors + [infer_test(small_dataset.bags[0], result.model,
                                            result.correlation, small_config)]
    copies = [BagPosterior(*(np.ascontiguousarray(a) for a in (p.tau, p.nu, p.logits)))
              for p in views]
    assert not views[0].nu.flags.c_contiguous and copies[0].nu.flags.c_contiguous
    k_o = small_config.k_objects
    for view, copy in zip(views, copies):
        a, b = segment(view, small_config), segment(copy, small_config)
        assert np.array_equal(a.labels, b.labels) and np.array_equal(a.scores, b.scores)
        assert (free_annotation(view, small_config, k_o, 2)
                == free_annotation(copy, small_config, k_o, 2))
    for obj, attrs in [(0, []), (1, [k_o]), (2, [k_o + 1, k_o + 2])]:
        named = [[(str(i), p) for i, p in enumerate(posts)] for posts in (views, copies)]
        assert (rank_query(named[0], small_config, obj, attrs)
                == rank_query(named[1], small_config, obj, attrs))
