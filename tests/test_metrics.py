import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsibp import WsibpError
from wsibp.metrics import (
    BagTruth,
    ap_at_t,
    average_precision,
    average_recall,
    map_pr,
    mar_query,
    SegmentationScores,
    segmentation_metrics,
)


class TestAveragePrecision:
    def test_perfect(self):
        assert average_precision([True, True, False]) == 1.0

    def test_nothing_relevant(self):
        assert average_precision([False, False]) == 0.0

    def test_single_late_positive(self):
        assert average_precision([False, False, False, True]) == 0.25

    def test_mixed(self):
        # relevant at ranks 1 and 3: mean(1/1, 2/3)
        assert average_precision([True, False, True]) == pytest.approx(5 / 6)


class TestApAtT:
    def setup_method(self):
        self.truth = {"b0": BagTruth(object=0, attributes={3, 4})}

    def test_perfect_match(self):
        preds = {"b0": (0, [3, 4])}
        assert ap_at_t(preds, self.truth, 2) == 1.0

    def test_wrong_object_zeroes_attributes(self):
        preds = {"b0": (1, [3, 4])}
        assert ap_at_t(preds, self.truth, 2) == 0.0

    def test_correct_then_incorrect_attribute(self):
        preds = {"b0": (0, [3, 5])}
        assert ap_at_t(preds, self.truth, 2) == 1.0

    def test_truncation_at_t(self):
        preds = {"b0": (0, [5, 3])}
        assert ap_at_t(preds, self.truth, 1) == 0.0
        assert ap_at_t(preds, self.truth, 2) == pytest.approx(0.5)

    def test_empty_predictions_rejected(self):
        with pytest.raises(WsibpError):
            ap_at_t({}, self.truth, 2)
        with pytest.raises(WsibpError):
            ap_at_t({"b0": (0, [3])}, self.truth, 0)

    def test_averaged_over_bags(self):
        truth = {"b0": BagTruth(0, {3}), "b1": BagTruth(1, {4})}
        preds = {"b0": (0, [3]), "b1": (0, [4])}
        assert ap_at_t(preds, truth, 1) == pytest.approx(0.5)


class TestMapPr:
    def test_perfect_scores(self):
        scores = np.array([[0.9], [0.1]])
        rel = np.array([[True], [False]])
        val, skipped = map_pr(scores, rel)
        assert val == 1.0 and skipped == []

    def test_reversed_single_positive(self):
        scores = np.array([[0.4], [0.3], [0.2], [0.1]])
        rel = np.array([[False], [False], [False], [True]])
        val, _ = map_pr(scores, rel)
        assert val == pytest.approx(0.25)

    def test_zero_positive_attribute_skipped(self):
        scores = np.array([[0.9, 0.1], [0.1, 0.9]])
        rel = np.array([[True, False], [False, False]])
        val, skipped = map_pr(scores, rel)
        assert skipped == [1]
        assert val == 1.0

    def test_random_scores_near_positive_rate(self):
        rng = np.random.default_rng(0)
        n = 4000
        rel = np.zeros((n, 1), dtype=bool)
        rel[: n // 2, 0] = True
        vals = []
        for _ in range(5):
            scores = rng.random((n, 1))
            vals.append(map_pr(scores, rel)[0])
        assert abs(np.mean(vals) - 0.5) < 0.05

    def test_all_empty_rejected(self):
        with pytest.raises(WsibpError):
            map_pr(np.ones((2, 1)), np.zeros((2, 1), dtype=bool))


class TestAverageRecall:
    def test_all_relevant_first(self):
        assert average_recall([True, True, False, False], 2) == 1.0

    def test_none_retrieved(self):
        assert average_recall([False, False], 3) == 0.0

    def test_interleaved_matches_reference(self):
        flags = [True, False, True, False]
        # independent straight-line reference: best recall per distinct
        # precision level of the ranked list, averaged
        hits = 0
        by_precision = {}
        for rank, rel in enumerate(flags, start=1):
            hits += rel
            p = hits / rank
            r = hits / 2
            by_precision[p] = max(by_precision.get(p, 0.0), r)
        expected = sum(by_precision.values()) / len(by_precision)
        assert average_recall(flags, 2) == pytest.approx(expected)

    def test_empty_relevance_rejected(self):
        with pytest.raises(WsibpError):
            average_recall([True], 0)


class TestMarQuery:
    def test_perfect_rankings(self):
        rankings = {("q",): ["a", "b", "c"]}
        rel = {("q",): {"a", "b"}}
        val, skipped = mar_query(rankings, rel)
        assert val == 1.0 and skipped == []

    def test_irrelevant_only(self):
        rankings = {("q",): ["c", "d"]}
        rel = {("q",): {"a"}}
        val, _ = mar_query(rankings, rel)
        assert val == 0.0

    def test_empty_relevance_skipped_and_reported(self):
        rankings = {("q1",): ["a"], ("q2",): ["a"]}
        rel = {("q1",): {"a"}, ("q2",): set()}
        val, skipped = mar_query(rankings, rel)
        assert val == 1.0
        assert skipped == [("q2",)]

    def test_empty_ranking_rejected(self):
        with pytest.raises(WsibpError):
            mar_query({("q",): []}, {("q",): {"a"}})

    @given(st.permutations(list(range(6))))
    def test_bounded(self, order):
        ranked = [f"b{i}" for i in order]
        val, _ = mar_query({("q",): ranked}, {("q",): {"b0", "b1"}})
        assert 0.0 <= val <= 1.0

    def test_rank_invariance_under_monotone_transform(self):
        # metric depends only on order, asserted by feeding the same order
        rankings = {("q",): ["a", "c", "b", "d"]}
        rel = {("q",): {"a", "b"}}
        v1, _ = mar_query(rankings, rel)
        v2, _ = mar_query(dict(rankings), dict(rel))
        assert v1 == v2


class TestSegmentationMetrics:
    def test_identity(self):
        maps = {"b": np.array([0, 1, 1, 0])}
        scores = segmentation_metrics(maps, {k: v.copy() for k, v in maps.items()})
        assert scores.mean_iou == 1.0
        assert scores.per_pixel_accuracy == 1.0
        assert scores.per_class_accuracy == 1.0

    def test_disjoint_masks_zero_iou(self):
        pred = {"b": np.array([0, 0, 1, 1])}
        truth = {"b": np.array([1, 1, 0, 0])}
        scores = segmentation_metrics(pred, truth)
        assert scores.mean_iou == 0.0

    def test_half_overlap_one_third(self):
        # equal-size masks overlapping on half their area: IOU = 1/3
        pred = {"b": np.array([0, 0, 1, 1])}
        truth = {"b": np.array([1, 0, 0, 1])}
        scores = segmentation_metrics(pred, truth)
        assert scores.class_iou[0] == pytest.approx(1 / 3)
        assert scores.class_iou[1] == pytest.approx(1 / 3)
        assert scores.mean_iou == pytest.approx(1 / 3)

    def test_pixel_weighting(self):
        pred = {"b": np.array([0, 1])}
        truth = {"b": np.array([0, 0])}
        unweighted = segmentation_metrics(pred, truth)
        weighted = segmentation_metrics(pred, truth,
                                        {"b": np.array([3.0, 1.0])})
        assert unweighted.per_pixel_accuracy == 0.5
        assert weighted.per_pixel_accuracy == 0.75

    def test_uniform_weights_match_unweighted(self):
        rng = np.random.default_rng(1)
        pred = {"b": rng.integers(0, 3, size=20)}
        truth = {"b": rng.integers(0, 3, size=20)}
        a = segmentation_metrics(pred, truth)
        b = segmentation_metrics(pred, truth, {"b": np.full(20, 7.0)})
        assert a.mean_iou == pytest.approx(b.mean_iou)
        assert a.per_pixel_accuracy == pytest.approx(b.per_pixel_accuracy)

    def test_class_absent_from_truth_excluded(self):
        pred = {"b": np.array([2, 2])}
        truth = {"b": np.array([0, 0])}
        scores = segmentation_metrics(pred, truth)
        assert set(scores.class_iou) == {0}

    def test_shape_mismatch(self):
        with pytest.raises(WsibpError):
            segmentation_metrics({"b": np.array([0])}, {"b": np.array([0, 1])})


def segmentation_loop(pred, truth, pixel_counts=None) -> SegmentationScores:
    """The per-bag, per-class loop that ``segmentation_metrics`` replaced, kept as
    its oracle."""
    inter, pred_sz, truth_sz = {}, {}, {}
    correct = total = 0.0
    for bag_id, t_lab in truth.items():
        p_lab = np.asarray(pred[bag_id])
        t_lab = np.asarray(t_lab)
        if p_lab.shape != t_lab.shape:
            raise WsibpError(f"segmentation shape mismatch for bag {bag_id!r}")
        w = (np.ones(t_lab.size) if pixel_counts is None
             else np.asarray(pixel_counts[bag_id], dtype=np.float64))
        if w.shape != t_lab.shape or np.any(w <= 0):
            raise WsibpError(f"invalid pixel counts for bag {bag_id!r}")
        match = p_lab == t_lab
        correct += w[match].sum()
        total += w.sum()
        for c in np.unique(np.concatenate([p_lab, t_lab])):
            pc, tc = p_lab == c, t_lab == c
            inter[c] = inter.get(c, 0.0) + w[pc & tc].sum()
            pred_sz[c] = pred_sz.get(c, 0.0) + w[pc].sum()
            truth_sz[c] = truth_sz.get(c, 0.0) + w[tc].sum()
    present = sorted(c for c, s in truth_sz.items() if s > 0)
    if not present:
        raise WsibpError("truth contains no labelled instances")
    ious = {int(c): inter[c] / (pred_sz[c] + truth_sz[c] - inter[c]) for c in present}
    return SegmentationScores(
        mean_iou=float(np.mean(list(ious.values()))),
        per_pixel_accuracy=correct / total,
        per_class_accuracy=float(np.mean([inter[c] / truth_sz[c] for c in present])),
        class_iou=ious)


@st.composite
def label_maps(draw, weighted: bool):
    """Predicted and true label maps over 1-6 bags of 0-12 instances, labels from -1
    to 4, and positive pixel weights (None when unweighted)."""
    sizes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=6))
    labels = st.integers(-1, 4)
    pred, truth, pixels = {}, {}, {}
    for b, n in enumerate(sizes):
        pred[f"b{b}"] = np.array(draw(st.lists(labels, min_size=n, max_size=n)), dtype=np.int64)
        truth[f"b{b}"] = np.array(draw(st.lists(labels, min_size=n, max_size=n)), dtype=np.int64)
        pixels[f"b{b}"] = np.array(draw(st.lists(
            st.floats(0.01, 500.0), min_size=n, max_size=n)), dtype=np.float64)
    return pred, truth, pixels if weighted else None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WsibpError as exc:
        return str(exc)


class TestSegmentationMetricsAgainstLoop:
    @settings(max_examples=150, deadline=None)
    @given(label_maps(weighted=False))
    def test_unit_weights_equal(self, maps):
        # sums of unit weights are exact integers in any order
        assert _outcome(segmentation_metrics, *maps) == _outcome(segmentation_loop, *maps)

    @settings(max_examples=150, deadline=None)
    @given(label_maps(weighted=True))
    def test_pixel_weights_within_1e12(self, maps):
        got, want = _outcome(segmentation_metrics, *maps), _outcome(segmentation_loop, *maps)
        if isinstance(want, str):  # no labelled instance: the same error
            assert got == want
            return
        assert got.class_iou.keys() == want.class_iou.keys()
        for name in ("mean_iou", "per_pixel_accuracy", "per_class_accuracy"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-12)
        for c, v in want.class_iou.items():
            assert got.class_iou[c] == pytest.approx(v, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(label_maps(weighted=True), st.integers(0, 5), st.sampled_from(
        ["shape", "zero", "negative", "weight shape"]))
    def test_bad_bag_named(self, maps, which, fault):
        pred, truth, pixels = maps
        bag = sorted(truth)[which % len(truth)]
        if fault == "shape":
            pred[bag] = np.append(pred[bag], 0)
        elif fault == "weight shape":
            pixels[bag] = np.append(pixels[bag], 1.0)
        elif truth[bag].size:
            pixels[bag][-1] = 0.0 if fault == "zero" else -2.0
        else:
            return
        want = _outcome(segmentation_loop, pred, truth, pixels)
        assert isinstance(want, str) and repr(bag) in want
        assert _outcome(segmentation_metrics, pred, truth, pixels) == want

    @pytest.mark.parametrize("truth", [{}, {"b": np.array([], dtype=np.int64)}])
    def test_empty_truth_raises(self, truth):
        with pytest.raises(WsibpError, match="no labelled instances"):
            segmentation_metrics({b: v.copy() for b, v in truth.items()}, truth)


@given(st.lists(st.booleans(), min_size=1, max_size=20))
def test_ap_and_ar_bounded(flags):
    assert 0.0 <= average_precision(flags) <= 1.0
    assert 0.0 <= average_recall(flags, max(1, sum(flags))) <= 1.0
