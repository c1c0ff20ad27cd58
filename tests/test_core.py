import dataclasses
import os
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wsibp import (
    Bag,
    ConfigError,
    DatasetError,
    DimensionMismatchError,
    EdgeIndexError,
    EmptyDatasetError,
    ModelConfig,
    WeakLabels,
    validate_dataset,
)
from wsibp.core import digamma
from wsibp.io import save_dataset


def make_bag(n, d, config, bag_id="b0", edges=None):
    rng = np.random.default_rng(0)
    if edges is None:
        edges = np.zeros((0, 2), dtype=np.int64)
    labels = WeakLabels.from_annotated(np.ones(config.k_annotated), config)
    return Bag(features=rng.normal(size=(n, d)).astype(np.float32),
               edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
               labels=labels, id=bag_id)


class TestModelConfig:
    def test_k_max_derived(self):
        cfg = ModelConfig(k_objects=3, k_attributes=4, k_extra=20)
        assert cfg.k_max == 27
        assert cfg.k_annotated == 7

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": -1.0}, {"sigma": 0.0}, {"sigma_a": -0.5},
        {"beta": -0.1}, {"rho": -1e-9}, {"tol": -1.0}, {"max_iters": 0},
    ])
    def test_invalid_scalars_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(k_objects=2, k_attributes=2, k_extra=1, **kwargs)

    @pytest.mark.parametrize("name", ["alpha", "sigma_a", "sigma", "beta", "rho", "tol"])
    def test_nan_rejected(self, name):
        with pytest.raises(ConfigError, match="finite"):
            ModelConfig(k_objects=2, k_attributes=2, k_extra=1, **{name: float("nan")})

    @pytest.mark.parametrize("name", ["alpha", "sigma_a", "sigma", "beta", "rho"])
    def test_infinite_hyperparameters_rejected(self, name):
        with pytest.raises(ConfigError, match="finite"):
            ModelConfig(k_objects=2, k_attributes=2, k_extra=1, **{name: float("inf")})

    @pytest.mark.parametrize("name", ["alpha", "sigma_a", "sigma"])
    def test_scales_past_either_edge_rejected(self, name):
        # inside [1e-150, 1e150] the squares and reciprocals that fit takes stay finite
        for edge in (1e-150, 1e150):
            assert getattr(ModelConfig(k_objects=1, k_attributes=0, **{name: edge}), name) == edge
        for past in (np.nextafter(1e-150, 0.0), np.nextafter(1e150, np.inf), 1e-300, 1e200):
            with pytest.raises(ConfigError) as caught:
                ModelConfig(k_objects=1, k_attributes=0, **{name: float(past)})
            assert str(caught.value) == "alpha, sigma_a and sigma must be in [1e-150, 1e150]"

    def test_infinite_tol_accepted(self):
        # tol = inf stops fit after one iteration
        assert ModelConfig(k_objects=2, k_attributes=2, tol=float("inf")).tol == float("inf")

    def test_zero_factors_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(k_objects=0, k_attributes=0, k_extra=0)

    def test_default_vocab_layout(self):
        cfg = ModelConfig(k_objects=2, k_attributes=1, k_extra=2)
        assert cfg.default_vocab() == ["obj0", "obj1", "att0", "bg0", "bg1"]


class TestWeakLabels:
    def test_padding_keeps_extras_on(self):
        cfg = ModelConfig(k_objects=2, k_attributes=1, k_extra=3)
        lab = WeakLabels.from_annotated([1, 0, 1], cfg)
        assert lab.bits.tolist() == [1, 0, 1, 1, 1, 1]

    def test_wrong_length_rejected(self):
        cfg = ModelConfig(k_objects=2, k_attributes=1, k_extra=3)
        with pytest.raises(DimensionMismatchError):
            WeakLabels.from_annotated([1, 0], cfg)

    def test_masked_extra_slot_rejected(self):
        cfg = ModelConfig(k_objects=1, k_attributes=0, k_extra=2)
        bag = dataclasses.replace(make_bag(2, 3, cfg),
                                  labels=WeakLabels(np.array([1.0, 0.0, 1.0])))
        with pytest.raises(DatasetError, match="unannotated factor slots must have label bit 1"):
            validate_dataset([bag], cfg)


class TestValidateDataset:
    def setup_method(self):
        self.cfg = ModelConfig(k_objects=2, k_attributes=2, k_extra=0)

    def test_valid_dataset_handle(self):
        bags = [make_bag(5, 16, self.cfg, "a"), make_bag(7, 16, self.cfg, "b")]
        assert validate_dataset(bags, self.cfg) == 16
        assert validate_dataset(bags, self.cfg, 16) == 16
        with pytest.raises(DimensionMismatchError, match="bag 'a' has feature dim 16, expected 15"):
            validate_dataset(bags, self.cfg, 15)

    def test_dimension_mismatch_names_bag(self):
        bags = [make_bag(5, 16, self.cfg, "good"), make_bag(5, 15, self.cfg, "bad")]
        with pytest.raises(DimensionMismatchError, match="bad"):
            validate_dataset(bags, self.cfg)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            validate_dataset([], self.cfg)

    def test_out_of_range_edge(self):
        bag = make_bag(4, 8, self.cfg, "e", edges=[(0, 4)])
        with pytest.raises(EdgeIndexError, match="e"):
            validate_dataset([bag], self.cfg)

    def test_self_edge(self):
        bag = make_bag(4, 8, self.cfg, "s", edges=[(1, 1)])
        with pytest.raises(EdgeIndexError):
            validate_dataset([bag], self.cfg)


# each fault validate_dataset names: (exception, message for a bag "b" of 4 instances,
# 8 feature dims, 2 + 1 annotated and 1 extra factor, and a bag with that fault)
FAULTS = {
    "dim": (DimensionMismatchError, "bag 'b' has feature dim 7, expected 8",
            lambda bag: dataclasses.replace(bag, features=bag.features[:, :7])),
    "empty": (DatasetError, "bag 'b' has no instances",
              lambda bag: dataclasses.replace(bag, features=bag.features[:0])),
    "nan": (DatasetError, "bag 'b' has non-finite feature values",
            lambda bag: dataclasses.replace(bag, features=np.where(
                np.arange(8) == 3, np.nan, bag.features).astype(np.float32))),
    "label_shape": (DimensionMismatchError, "bag 'b': label vector has shape (3,), expected (4,)",
                    lambda bag: dataclasses.replace(bag, labels=WeakLabels(np.ones(3)))),
    "label_value": (DatasetError, "bag 'b': label bits must be 0 or 1",
                    lambda bag: dataclasses.replace(bag, labels=WeakLabels(
                        np.array([1.0, 0.5, 0.0, 1.0])))),
    "extra_off": (DatasetError, "bag 'b': unannotated factor slots must have label bit 1",
                  lambda bag: dataclasses.replace(bag, labels=WeakLabels(
                      np.array([1.0, 1.0, 0.0, 0.0])))),
    "edge_shape": (EdgeIndexError, "bag 'b' edge list must be (E, 2)",
                   lambda bag: dataclasses.replace(bag, edges=np.array([[0, 1, 2]]))),
    "edge_range": (EdgeIndexError, "bag 'b' has an edge endpoint outside [0, 4)",
                   lambda bag: dataclasses.replace(bag, edges=np.array([[0, 1], [3, 4]]))),
    "edge_negative": (EdgeIndexError, "bag 'b' has an edge endpoint outside [0, 4)",
                      lambda bag: dataclasses.replace(bag, edges=np.array([[-1, 2]]))),
    "self_edge": (EdgeIndexError, "bag 'b' contains a self-edge",
                  lambda bag: dataclasses.replace(bag, edges=np.array([[0, 1], [2, 2]]))),
}


def _good_bags(cfg):
    return [make_bag(4, 8, cfg, i, edges=[(0, 1), (1, 2)]) for i in ("a", "b", "c", "d")]


@pytest.mark.parametrize("first", sorted(FAULTS))
@pytest.mark.parametrize("second", ["nan", "edge_range", "label_value"])
def test_validate_names_the_first_faulty_bag(first, second):
    # the stacked checks find a fault; the walk then raises the one the earlier
    # faulty bag gives on its own, whatever the later bag's fault
    cfg = ModelConfig(k_objects=2, k_attributes=1, k_extra=1)
    good = _good_bags(cfg)
    bags = [good[0], FAULTS[first][2](good[1]), FAULTS[second][2](good[2]), good[3]]
    error, message, _ = FAULTS[first]
    with pytest.raises(error, match=re.escape(message)) as caught:
        validate_dataset(bags, cfg)
    assert caught.type is error and str(caught.value) == message
    assert validate_dataset(good, cfg) == 8


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("at", [None, 0, 1, 2])
def test_faulty_bag_raises_alone_as_among_good_bags(fault, at):
    # the walk checks each bag with the rules that run over all bags, so a faulty
    # bag's error does not depend on the bags around it (at None: the bag alone); the
    # dim is given, as a model's, so that a faulty first bag does not set it
    cfg = ModelConfig(k_objects=2, k_attributes=1, k_extra=1)
    good = _good_bags(cfg)
    error, message, make = FAULTS[fault]
    others = [good[0], good[2]]  # "a" and "c" around the faulty "b": first, middle or last
    bags = [make(good[1])] if at is None else [*others[:at], make(good[1]), *others[at:]]
    with pytest.raises(error) as caught:
        validate_dataset(bags, cfg, 8)
    assert caught.type is error and str(caught.value) == message


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_save_dataset_raises_what_validate_dataset_raises(tmp_path, fault):
    # the writer runs validate_dataset, the first bag setting the dim, before it makes a file
    cfg = ModelConfig(k_objects=2, k_attributes=1, k_extra=1)
    good = _good_bags(cfg)
    error, message, make = FAULTS[fault]
    bags = [good[0], make(good[1]), good[2]]
    for call in (lambda: validate_dataset(bags, cfg),
                 lambda: save_dataset(str(tmp_path / "ds"), bags, cfg.default_vocab(), 2, 1, 1)):
        with pytest.raises(error) as caught:
            call()
        assert caught.type is error and str(caught.value) == message
    assert os.listdir(tmp_path) == []


# a shape fault with each value fault that leaves it standing (not one on the same array)
SHAPE_AND_VALUE = [(shape, value) for shape in ("dim", "label_shape", "edge_shape")
                   for value in ("empty", "nan", "label_value", "extra_off", "edge_range",
                                 "edge_negative", "self_edge")
                   if not (shape == "label_shape" and value.startswith(("label", "extra"))
                           or shape == "edge_shape" and value.startswith(("edge", "self")))]


@pytest.mark.parametrize("shape, value", SHAPE_AND_VALUE)
@pytest.mark.parametrize("alone", [True, False])
def test_shape_fault_comes_before_value_fault(shape, value, alone):
    cfg = ModelConfig(k_objects=2, k_attributes=1, k_extra=1)
    good = _good_bags(cfg)
    bag = FAULTS[shape][2](FAULTS[value][2](good[1]))
    error, message, _ = FAULTS[shape]
    with pytest.raises(error) as caught:
        validate_dataset([bag] if alone else [good[0], bag, good[2]], cfg, 8)
    assert caught.type is error and str(caught.value) == message


def eight_step_digamma(x):
    """The shift as eight masked steps, each adding one to the x still below 8 and
    subtracting its reciprocal, then the asymptotic series."""
    shifted, acc = x.copy(), np.zeros_like(x)
    for _ in range(8):
        small = shifted < 8.0
        acc -= np.where(small, 1.0 / shifted, 0.0)
        shifted += small
    inv2 = 1.0 / (shifted * shifted)
    series = (np.log(shifted) - 0.5 / shifted
              - inv2 * (1.0 / 12.0
                        - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0))))
    return acc + series


class TestMathUtils:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0])
    def test_digamma_recurrence(self, x):
        assert abs(float(digamma(x + 1) - digamma(x)) - 1.0 / x) < 1e-10

    def test_digamma_known_values(self):
        euler_gamma = 0.5772156649015329
        assert abs(float(digamma(1.0)) + euler_gamma) < 1e-10
        assert abs(float(digamma(0.5)) + euler_gamma + 2 * np.log(2)) < 1e-10

    @given(st.lists(st.floats(1e-8, 100), min_size=1, max_size=60)
           | st.sampled_from([[8.0], [7.999999], [1e-8], [7.0, 8.0, 9.0]]))
    def test_digamma_matches_eight_step_loop(self, values):
        x = np.array(values)
        expected = eight_step_digamma(x)
        assert np.array_equal(digamma(x), expected)
        assert np.array_equal(digamma(x.reshape(-1, 1, 1)), expected.reshape(-1, 1, 1))

    @pytest.mark.parametrize("shape", [(28, 30, 3), (4, 30, 3), (3, 28, 30)])
    def test_digamma_on_group_shapes(self, shape):
        # a fit group's stick arguments: the same bits as the reference on the
        # flattened array and as digamma of it, whatever the layout
        x = np.random.default_rng(7).uniform(1e-3, 40.0, size=shape)
        expected = eight_step_digamma(x.ravel()).reshape(shape)
        assert np.array_equal(digamma(x), expected)
        assert np.array_equal(digamma(x), digamma(x.ravel()).reshape(shape))
        assert np.array_equal(digamma(x.T), expected.T)

    def test_digamma_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            digamma(0.0)
