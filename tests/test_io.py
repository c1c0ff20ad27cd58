import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsibp import (
    AppearanceModel,
    BagPosterior,
    CorrelationMatrix,
    FormatError,
    ModelConfig,
    VocabMismatchError,
    fit,
    infer_test,
    sample_dataset,
)
from wsibp.io import (
    load_dataset,
    load_model,
    load_posteriors,
    save_dataset,
    save_model,
    save_posteriors,
    save_truth,
    write_segmentation,
)
from wsibp.tasks import SegmentationMap


@pytest.fixture
def trained(small_dataset, small_config):
    return fit(small_dataset.bags, small_config)


class TestDatasetRoundTrip:
    @pytest.mark.parametrize("binary", [True, False])
    def test_features_round_trip(self, tmp_path, small_dataset, small_config, binary):
        cfg = small_config
        path = str(tmp_path / "ds")
        save_dataset(path, small_dataset.bags, cfg.default_vocab(),
                     cfg.k_objects, cfg.k_attributes, cfg.k_extra,
                     binary=binary)
        loaded = load_dataset(path)
        assert loaded.k_objects == cfg.k_objects
        assert loaded.vocab == cfg.default_vocab()
        for orig, back in zip(small_dataset.bags, loaded.bags):
            assert back.id == orig.id
            if binary:
                assert back.features.tobytes() == orig.features.tobytes()
            else:
                np.testing.assert_allclose(back.features, orig.features,
                                           atol=1e-6)
            assert np.array_equal(back.edges, orig.edges)
            assert np.array_equal(back.labels.bits, orig.labels.bits)

    def test_unknown_label_name(self, tmp_path, small_dataset, small_config):
        cfg = small_config
        path = str(tmp_path / "ds")
        save_dataset(path, small_dataset.bags, cfg.default_vocab(),
                     cfg.k_objects, cfg.k_attributes, cfg.k_extra)
        bag_file = os.path.join(path, small_dataset.bags[0].id + ".bag")
        data = open(bag_file, "rb").read()
        data = data[: data.rindex(b"labels:")] + b"labels: nosuchfactor\n"
        open(bag_file, "wb").write(data)
        with pytest.raises(VocabMismatchError, match="nosuchfactor"):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ds"
        path.mkdir()
        (path / "manifest.txt").write_text("format: something-else\n")
        with pytest.raises(FormatError):
            load_dataset(str(path))

    def test_unknown_version(self, tmp_path, small_dataset, small_config):
        cfg = small_config
        path = str(tmp_path / "ds")
        save_dataset(path, small_dataset.bags, cfg.default_vocab(),
                     cfg.k_objects, cfg.k_attributes, cfg.k_extra)
        manifest = os.path.join(path, "manifest.txt")
        text = open(manifest).read().replace("version: 1", "version: 99")
        open(manifest, "w").write(text)
        with pytest.raises(FormatError, match="version"):
            load_dataset(str(path))

    def test_large_feature_dim_accepted(self, tmp_path):
        cfg = ModelConfig(k_objects=1, k_attributes=0, k_extra=0,
                          beta=0.0, rho=0.0)
        ds = sample_dataset(cfg, 2, 3, 1024, seed=0, labels=1.0)
        path = str(tmp_path / "ds")
        save_dataset(path, ds.bags, cfg.default_vocab(), 1, 0, 0)
        loaded = load_dataset(path)
        assert loaded.bags[0].feature_dim == 1024


class TestModelRoundTrip:
    def test_round_trip(self, tmp_path, trained):
        path = str(tmp_path / "m.model")
        save_model(path, trained.model, trained.correlation)
        model, corr = load_model(path)
        assert model.means.tobytes() == trained.model.means.tobytes()
        assert model.variances.tobytes() == trained.model.variances.tobytes()
        assert corr.m.tobytes() == trained.correlation.m.tobytes()
        assert model.vocab == trained.model.vocab
        assert model.config == trained.model.config

    def test_corrupted_magic(self, tmp_path, trained):
        path = str(tmp_path / "m.model")
        save_model(path, trained.model, trained.correlation)
        data = bytearray(open(path, "rb").read())
        data[3] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError):
            load_model(path)

    def test_dim_mismatch_surfaces_on_use(self, tmp_path, trained):
        from wsibp import infer_test
        from wsibp.core import Bag, WeakLabels, DimensionMismatchError
        path = str(tmp_path / "m.model")
        save_model(path, trained.model, trained.correlation)
        model, corr = load_model(path)
        bag = Bag(features=np.zeros((2, model.feature_dim + 1), dtype=np.float32),
                  edges=np.zeros((0, 2), dtype=np.int64),
                  labels=WeakLabels(np.ones(model.config.k_max)), id="w")
        with pytest.raises(DimensionMismatchError):
            infer_test(bag, model, corr, model.config)

    def test_config_keys_fixed(self, tmp_path, trained):
        # the on-disk order and names, whatever ModelConfig's field order
        path = tmp_path / "m.model"
        save_model(str(path), trained.model, trained.correlation)
        lines = path.read_bytes().split(b"\n")[3:14]
        assert [line.split(b":")[0].decode() for line in lines] == [
            "k_objects", "k_attributes", "k_extra", "alpha", "sigma_a", "sigma",
            "beta", "rho", "max_iters", "tol", "seed"]


positive = st.floats(1e-300, 1e300)
nonnegative = st.floats(0.0, 1e300)


@given(config=st.builds(
    ModelConfig, k_objects=st.integers(0, 3), k_attributes=st.integers(0, 3),
    k_extra=st.integers(1, 3), alpha=positive, sigma_a=positive, sigma=positive,
    beta=nonnegative, rho=nonnegative, max_iters=st.integers(1, 2 ** 62),
    tol=nonnegative, seed=st.integers(0, 2 ** 64)))
@settings(max_examples=60, deadline=None)
def test_model_config_round_trip(tmp_path_factory, config):
    k = config.k_max
    model = AppearanceModel(means=np.zeros((k, 2)), variances=np.ones(k),
                            vocab=config.default_vocab(), config=config)
    path = str(tmp_path_factory.mktemp("model") / "m.model")
    save_model(path, model, CorrelationMatrix.zeros(k))
    back, _ = load_model(path)
    for name, value in vars(config).items():
        assert getattr(back.config, name) == value
        assert type(getattr(back.config, name)) is type(value)


class TestPosteriorsRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path, trained, small_dataset,
                                  small_config):
        path = str(tmp_path / "p.post")
        pairs = [(b.id, p) for b, p in zip(small_dataset.bags,
                                           trained.posteriors)]
        save_posteriors(path, pairs, small_config.k_max)
        loaded = load_posteriors(path)
        for (ida, pa), (idb, pb) in zip(pairs, loaded):
            assert ida == idb
            assert pa.nu.tobytes() == pb.nu.tobytes()
            assert pa.tau.tobytes() == pb.tau.tobytes()
            assert pa.logits.tobytes() == pb.logits.tobytes()

    def test_factor_major_views_round_trip(self, tmp_path, trained, small_dataset,
                                           small_config):
        # fit's and infer_test's posteriors are strided views of their group's
        # (k_max, rows) arrays; the file holds them row-major, the same bytes as
        # a C-contiguous copy writes, and reads back byte for byte
        test_post = infer_test(small_dataset.bags[0], trained.model, trained.correlation,
                               small_config)
        views = [(b.id, p) for b, p in zip(small_dataset.bags, trained.posteriors)]
        views.append(("test", test_post))
        assert all(not p.nu.flags.c_contiguous for _, p in views)
        copies = [(bag_id, BagPosterior(*(np.ascontiguousarray(a)
                                          for a in (p.tau, p.nu, p.logits))))
                  for bag_id, p in views]
        paths = [str(tmp_path / name) for name in ("views.post", "copies.post")]
        for path, pairs in zip(paths, (views, copies)):
            save_posteriors(path, pairs, small_config.k_max)
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
        for (ida, pa), (idb, pb) in zip(views, load_posteriors(paths[0])):
            assert ida == idb
            for name in ("tau", "nu", "logits"):
                assert getattr(pa, name).tobytes() == getattr(pb, name).tobytes()


    @pytest.mark.parametrize("name, value, needs", [
        ("tau", 0.0, "tau finite and > 0"), ("tau", np.inf, "tau finite and > 0"),
        ("nu", np.nan, "nu in [0, 1]"), ("nu", 7.0, "nu in [0, 1]"),
        ("nu", -0.5, "nu in [0, 1]"), ("logits", np.nan, "logits finite"),
        ("logits", -np.inf, "logits finite")])
    def test_out_of_range_values_rejected(self, tmp_path, name, value, needs):
        ok = BagPosterior(tau=np.ones((2, 2)), nu=np.full((3, 2), 0.5),
                          logits=np.zeros((3, 2)))
        bad = BagPosterior(*(a.copy() for a in (ok.tau, ok.nu, ok.logits)))
        getattr(bad, name)[1, 0] = value
        path = str(tmp_path / "p.post")
        save_posteriors(path, [("ok", ok), ("b1", bad)], 2)
        with pytest.raises(FormatError, match=f"bag 'b1' needs {re.escape(needs)}"):
            load_posteriors(path)

    def test_first_failing_bag_named(self, tmp_path):
        # every bag is checked at once; the message names the first bag that fails
        # and everything it lacks, whatever later bags lack
        ok = BagPosterior(tau=np.ones((2, 2)), nu=np.full((3, 2), 0.5),
                          logits=np.zeros((3, 2)))
        posts = [BagPosterior(*(a.copy() for a in (ok.tau, ok.nu, ok.logits)))
                 for _ in range(3)]
        posts[1].tau[0, 1], posts[1].logits[2, 0] = -1.0, np.nan
        posts[2].nu[0, 0] = 2.0
        path = str(tmp_path / "p.post")
        save_posteriors(path, [("ok", ok)] + [(f"b{i}", p) for i, p in enumerate(posts)], 2)
        with pytest.raises(FormatError) as caught:
            load_posteriors(path)
        assert str(caught.value) == f"{path}: bag 'b1' needs tau finite and > 0, logits finite"

    @pytest.mark.parametrize("good, bad, line, why", [
        (b"num_bags: 1", b"num_bags: one", 4,
         "num_bags: invalid literal for int() with base 10: 'one'"),
        (b"bag: a,3", b"bag: a", 5, "bag: expected 2 comma-separated values, got 1"),
        (b"tau: binary 32", b"tau: binary", 6,
         "tau: invalid literal for int() with base 10: ''")])
    def test_bad_header_names_file_and_line(self, tmp_path, good, bad, line, why):
        path = str(tmp_path / "p.post")
        save_posteriors(path, [("a", BagPosterior(np.ones((2, 2)), np.full((3, 2), 0.5),
                                                  np.zeros((3, 2))))], 2)
        data = open(path, "rb").read()
        open(path, "wb").write(data.replace(good + b"\n", bad + b"\n", 1))
        with pytest.raises(FormatError) as caught:
            load_posteriors(path)
        assert str(caught.value) == f"{path}:{line}: {why}"


class TestWriteSegmentation:
    def test_csv_rows(self, tmp_path):
        seg = SegmentationMap(labels=np.array([0, 1, 0]),
                              scores=np.array([0.9, 0.8, 0.7]))
        path = str(tmp_path / "seg.csv")
        write_segmentation(path, seg, ["cat", "dog"])
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "instance,label_index,label_name,score"
        assert len(lines) == 4
        assert lines[1].startswith("0,0,cat,")

    def test_ppm_raster(self, tmp_path):
        seg = SegmentationMap(labels=np.array([0, 1]),
                              scores=np.array([1.0, 1.0]))
        path = str(tmp_path / "seg.csv")
        raster = np.array([[0, 0], [1, 1]])
        write_segmentation(path, seg, ["a", "b"], raster=raster)
        ppm = open(path + ".ppm").read().split()
        assert ppm[0] == "P3"
        assert ppm[1:4] == ["2", "2", "255"]
        pixels = [tuple(ppm[4 + 3 * i: 7 + 3 * i]) for i in range(4)]
        assert len(set(pixels)) == 2  # two palette colours for two labels

    def test_unknown_instance_in_raster(self, tmp_path):
        seg = SegmentationMap(labels=np.array([0]), scores=np.array([1.0]))
        with pytest.raises(Exception, match="instance"):
            write_segmentation(str(tmp_path / "s.csv"), seg, ["a"],
                               raster=np.array([[0, 5]]))


class TestTruthSidecar:
    def test_round_trip(self, tmp_path, small_dataset):
        path = str(tmp_path / "truth.json")
        save_truth(path, small_dataset.true_z, small_dataset.true_pi,
                   small_dataset.true_a, [b.id for b in small_dataset.bags])
        with open(path, encoding="ascii") as fh:
            back = json.load(fh)
        assert back["bag_ids"] == [b.id for b in small_dataset.bags]
        for a, b in zip(back["true_z"], small_dataset.true_z):
            assert np.array_equal(np.array(a), b)
        np.testing.assert_allclose(back["true_a"], small_dataset.true_a)
