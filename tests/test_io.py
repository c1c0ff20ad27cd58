import dataclasses
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsibp import (
    AppearanceModel,
    Bag,
    BagPosterior,
    CorrelationMatrix,
    DatasetError,
    DimensionMismatchError,
    EdgeIndexError,
    FormatError,
    ModelConfig,
    VocabMismatchError,
    WeakLabels,
    fit,
    infer_test,
    sample_dataset,
    validate_dataset,
)
from wsibp.io import (
    PALETTE,
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

    @pytest.mark.parametrize("bag_id, why", [
        ("../escaped", "'../escaped' is not a plain file name"),
        ("..", "'..' is not a plain file name"),
        ("", "'' is not a plain file name"),
        ("sub\\b", "'sub\\\\b' is not a plain file name"),
        ("bag0000", "duplicate id 'bag0000'")])
    def test_bag_line_id_names_its_line(self, tmp_path, small_dataset, small_config, bag_id,
                                        why):
        # infer copies ids into posteriors and segment names files after them, so an id
        # must be a plain file name, and one id names one bag
        cfg, bags = small_config, small_dataset.bags[:2]
        path = tmp_path / "ds"
        save_dataset(str(path), bags, cfg.default_vocab(), cfg.k_objects, cfg.k_attributes,
                     cfg.k_extra)
        line = f"bag: {bags[1].id},{bags[1].n_instances},{len(bags[1].edges)}\n"
        data = path.read_bytes()
        assert data.count(line.encode()) == 1
        path.write_bytes(data.replace(line.encode(), line.replace(bags[1].id, bag_id).encode()))
        with pytest.raises(FormatError) as caught:
            load_dataset(str(path))
        assert str(caught.value) == f"{path}:10: bag: {why}"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ds"
        path.write_text("format: something-else\n")
        with pytest.raises(FormatError):
            load_dataset(str(path))

    def test_unknown_version(self, tmp_path, small_dataset, small_config):
        cfg = small_config
        path = tmp_path / "ds"
        save_dataset(str(path), small_dataset.bags, cfg.default_vocab(),
                     cfg.k_objects, cfg.k_attributes, cfg.k_extra)
        path.write_bytes(path.read_bytes().replace(b"version: 2\n", b"version: 99\n", 1))
        with pytest.raises(FormatError, match="unknown version 99, this reader reads version 2; "
                                              "re-run synth"):
            load_dataset(str(path))

    def test_version_1_directory_names_its_layout(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("format: wsibp-dataset\nversion: 1\n")
        with pytest.raises(FormatError) as caught:
            load_dataset(str(tmp_path))
        assert str(caught.value) == (f"{tmp_path}: a version-1 dataset directory; re-run "
                                     "synth to write a file")

    def test_large_feature_dim_accepted(self, tmp_path):
        cfg = ModelConfig(k_objects=1, k_attributes=0, k_extra=0,
                          beta=0.0, rho=0.0)
        ds = sample_dataset(cfg, 2, 3, 1024, seed=0, labels=1.0)
        path = str(tmp_path / "ds")
        save_dataset(path, ds.bags, cfg.default_vocab(), 1, 0, 0)
        loaded = load_dataset(path)
        assert loaded.bags[0].feature_dim == 1024


def _save_dataset_per_line(path, bags, vocab, k_objects, k_attributes, k_extra, binary):
    """The dataset writer as one write per line, or per bag's bytes of a binary block, the
    reference for save_dataset's bytes."""
    k_annotated = k_objects + k_attributes
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"format: wsibp-dataset\nversion: 2\nfeature_dim: {bags[0].feature_dim}\n")
        fh.write(f"k_objects: {k_objects}\nk_attributes: {k_attributes}\nk_extra: {k_extra}\n")
        fh.write("vocab: " + ",".join(vocab) + "\n")
        fh.write(f"num_bags: {len(bags)}\n")
        for bag in bags:
            fh.write(f"bag: {bag.id},{bag.n_instances},{len(bag.edges)}\n")
    blocks = [("features", "<f4", [b.features for b in bags], lambda v: repr(float(v))),
              ("edges", "<i8", [b.edges for b in bags], lambda v: str(int(v))),
              ("labels", "u1", [b.labels.bits[None, :k_annotated] for b in bags],
               lambda v: str(int(v)))]
    with open(path, "ab") as fh:
        for key, dtype, arrays, cell in blocks:
            if binary:
                fh.write(f"{key}: binary {sum(np.dtype(dtype).itemsize * a.size for a in arrays)}\n"
                         .encode("ascii"))
                for a in arrays:
                    fh.write(np.asarray(a, dtype=dtype).tobytes())
                fh.write(b"\n")
            else:
                fh.write(f"{key}: text\n".encode("ascii"))
                for a in arrays:
                    for row in a:
                        fh.write((",".join(cell(v) for v in row) + "\n").encode("ascii"))


@pytest.mark.parametrize("binary", [True, False])
def test_save_dataset_bytes_match_per_line_writer(tmp_path, small_dataset, small_config,
                                                  binary):
    cfg = small_config
    args = (small_dataset.bags, cfg.default_vocab(), cfg.k_objects, cfg.k_attributes,
            cfg.k_extra, binary)
    ours, ref = tmp_path / "ours", tmp_path / "ref"
    save_dataset(str(ours), *args)
    _save_dataset_per_line(str(ref), *args)
    assert any(len(b.edges) for b in small_dataset.bags)
    assert any(b.labels.bits[:cfg.k_annotated].any() for b in small_dataset.bags)
    assert ours.read_bytes() == ref.read_bytes()


@st.composite
def datasets(draw):
    """Bags of 1-5 instances with any finite float32 features, edges between distinct
    instances and any annotated label bits, and the factor counts (at least one factor)."""
    k_objects, k_attributes, k_extra = draw(st.tuples(*[st.integers(0, 2)] * 3).filter(any))
    k_max, dim = k_objects + k_attributes + k_extra, draw(st.integers(1, 3))
    bags = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 5))
        feats = draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                              min_size=n * dim, max_size=n * dim))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda e: e[0] != e[1]), max_size=6))
        bits = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=k_max - k_extra,
                             max_size=k_max - k_extra)) + [1.0] * k_extra
        bags.append(Bag(features=np.array(feats, dtype=np.float32).reshape(n, dim),
                        edges=np.array(pairs, dtype=np.int64).reshape(-1, 2),
                        labels=WeakLabels(np.array(bits)), id=f"b{i}"))
    return bags, (k_objects, k_attributes, k_extra)


@given(data=datasets(), binary=st.booleans())
@settings(max_examples=60, deadline=None)
def test_dataset_round_trip_property(tmp_path_factory, data, binary):
    # text rows hold each float32 as the repr of its float64, so both modes are exact
    bags, counts = data
    vocab = [f"f{k}" for k in range(sum(counts))]
    path = tmp_path_factory.mktemp("ds") / "ds"
    save_dataset(str(path), bags, vocab, *counts, binary=binary)
    data = path.read_bytes()
    for key in ("features", "edges", "labels"):  # every block in the encoding asked for
        assert f"\n{key}: {'binary' if binary else 'text'}".encode("ascii") in data
    loaded = load_dataset(str(path))
    assert (loaded.vocab, (loaded.k_objects, loaded.k_attributes, loaded.k_extra)) == \
        (vocab, counts)
    assert [b.id for b in loaded.bags] == [b.id for b in bags]
    assert validate_dataset(loaded.bags, ModelConfig(*counts)) == bags[0].feature_dim
    for orig, back in zip(bags, loaded.bags):
        assert back.features.dtype == np.float32
        assert back.features.tobytes() == orig.features.tobytes()
        assert back.edges.shape == orig.edges.shape and np.array_equal(back.edges, orig.edges)
        assert back.labels.bits.tobytes() == orig.labels.bits.tobytes()  # extra slots too


def test_save_dataset_rejects_an_unannotated_slot_off(tmp_path):
    # only the annotated bits are stored and load_dataset turns the extra slots on, so
    # such a bag would load changed; the writer refuses it before it makes a file
    cfg = ModelConfig(k_objects=2, k_attributes=2, k_extra=1)
    ds = sample_dataset(cfg, 6, 9, 4, seed=0)
    bits = ds.bags[0].labels.bits.copy()
    bits[-1] = 0.0
    bags = [dataclasses.replace(ds.bags[0], labels=WeakLabels(bits)), *ds.bags[1:]]
    path = tmp_path / "ds"
    with pytest.raises(DatasetError) as caught:
        save_dataset(str(path), bags, cfg.default_vocab(), 2, 2, 1)
    assert str(caught.value) == "bag 'bag0000': unannotated factor slots must have label bit 1"
    assert not path.exists()


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


positive = st.floats(1e-150, 1e150)  # ModelConfig's range for alpha, sigma_a and sigma
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


def test_save_model_rejects_what_load_model_rejects(tmp_path, trained, model_fault):
    block, cells, why = model_fault
    arrays = {"means": trained.model.means.copy(), "variances": trained.model.variances.copy(),
              "correlation": trained.correlation.m.copy()}
    for index, value in cells.items():
        arrays[block][index] = value
    model = dataclasses.replace(trained.model, means=arrays["means"],
                                variances=arrays["variances"])
    path = tmp_path / "m.model"
    with pytest.raises(FormatError) as caught:
        save_model(str(path), model, CorrelationMatrix(arrays["correlation"]))
    assert str(caught.value) == f"{path}: the model needs {why}"
    assert not path.exists()


@pytest.mark.parametrize("change, error, why", [
    (lambda model, m: (dataclasses.replace(model, vocab=model.vocab[:-1]), m),
     VocabMismatchError, "vocab length 5 != k_max 6"),
    (lambda model, m: (dataclasses.replace(model, means=model.means[:-1]), m),
     DimensionMismatchError, "means (5, 8), variances (6,) and M (6, 6) do not fit k_max 6"),
    (lambda model, m: (dataclasses.replace(model, variances=model.variances[:, None]), m),
     DimensionMismatchError, "means (6, 8), variances (6, 1) and M (6, 6) do not fit k_max 6"),
    (lambda model, m: (model, m[:, :-1]), DimensionMismatchError,
     "means (6, 8), variances (6,) and M (6, 5) do not fit k_max 6")],
    ids=["vocab", "means", "variances", "correlation"])
def test_save_model_rejects_a_vocab_or_shape_off_the_config(tmp_path, trained, change, error,
                                                             why):
    # load_model reads blocks of the config's sizes, so it would reject these files
    model, m = change(trained.model, trained.correlation.m)
    path = tmp_path / "m.model"
    with pytest.raises(error) as caught:
        save_model(str(path), model, CorrelationMatrix(m))
    assert caught.type is error and str(caught.value) == f"{path}: {why}"
    assert not path.exists()


class TestVocabLength:
    # small_config has 3 + 3 + 0 factors; each file here names 5
    def test_save_dataset_writes_nothing(self, tmp_path, small_dataset, small_config):
        path = tmp_path / "ds"
        with pytest.raises(VocabMismatchError, match="vocab length does not match"):
            save_dataset(str(path), small_dataset.bags, small_config.default_vocab()[:-1],
                         3, 3, 0)
        assert not path.exists()

    def test_load_dataset_names_the_file(self, tmp_path, small_dataset, small_config):
        path = tmp_path / "ds"
        save_dataset(str(path), small_dataset.bags, small_config.default_vocab(), 3, 3, 0)
        path.write_bytes(path.read_bytes().replace(b",att2\n", b"\n", 1))
        with pytest.raises(VocabMismatchError) as caught:
            load_dataset(str(path))
        assert str(caught.value) == f"{path}: vocab length 5 does not match factor counts"

    def test_load_model_names_the_file(self, tmp_path, trained):
        path = tmp_path / "m.model"
        save_model(str(path), trained.model, trained.correlation)
        path.write_bytes(path.read_bytes().replace(b",att2\n", b"\n", 1))
        with pytest.raises(VocabMismatchError) as caught:
            load_model(str(path))
        assert str(caught.value) == f"{path}: vocab length 5 != k_max 6"


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
        (b"k_max: 2", b"k_max: -2", 3, "k_max: -2 is negative"),
        (b"bag: a,3", b"bag: a", 5, "bag: expected 2 comma-separated values, got 1"),
        (b"bag: a,3", b"bag: a,-3", 5, "bag: -3 is negative"),
        (b"bag: a,3", b"bag: a,3000000000000", 5,
         "bag: the blocks need 96000000000032 bytes, the file has 256"),
        (b"tau: binary 32", b"tau: binary", 6,
         "tau: invalid literal for int() with base 10: ''"),
        (b"tau: binary 32", b"tau: binary 40", 6, "tau: block has 40 bytes, expected 32"),
        (b"nu: binary 48", b"nu: binary x", 8,
         "nu: invalid literal for int() with base 10: ' x'"),
        (b"nu: binary 48", b"nu: binary 40", 8, "nu: block has 40 bytes, expected 48"),
        (b"logits: binary 48", b"logits: text 48", 10,
         "logits: unknown encoding 'text 48'"),
        (b"logits: binary 48", b"nu: binary 48", 10, "expected 'logits', got 'nu: binary 48'"),
        (b"logits: binary 48", b"logits: binary 56", 10,
         "logits: block has 56 bytes, expected 48")])
    def test_bad_header_names_file_and_line(self, tmp_path, good, bad, line, why):
        # the line is the physical line: tau's block holds no newline byte and ends
        # with one, so the nu header is line 8 and the logits header line 10
        path = str(tmp_path / "p.post")
        save_posteriors(path, [("a", BagPosterior(np.ones((2, 2)), np.full((3, 2), 0.5),
                                                  np.zeros((3, 2))))], 2)
        data = open(path, "rb").read()
        open(path, "wb").write(data.replace(good + b"\n", bad + b"\n", 1))
        with pytest.raises(FormatError) as caught:
            load_posteriors(path)
        assert str(caught.value) == f"{path}:{line}: {why}"

    def test_block_newline_bytes_count_as_lines(self, tmp_path):
        # every byte of this tau is a newline: 32 more lines before the nu header
        tau = np.frombuffer(b"\n" * 32, dtype="<f8").reshape(2, 2)
        path = str(tmp_path / "p.post")
        save_posteriors(path, [("a", BagPosterior(tau, np.full((3, 2), 0.5),
                                                  np.zeros((3, 2))))], 2)
        data = open(path, "rb").read()
        open(path, "wb").write(data.replace(b"nu: binary 48\n", b"nu: binary 8\n"))
        with pytest.raises(FormatError) as caught:
            load_posteriors(path)
        assert str(caught.value) == f"{path}:{8 + 32}: nu: block has 8 bytes, expected 48"

    @pytest.mark.parametrize("cut, why", [(2, "logits: truncated binary block"),
                                          (1, "logits: missing newline after binary block")])
    def test_short_file_names_the_block(self, tmp_path, cut, why):
        path = str(tmp_path / "p.post")
        save_posteriors(path, [("a", BagPosterior(np.ones((2, 2)), np.full((3, 2), 0.5),
                                                  np.zeros((3, 2))))], 2)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-cut])
        with pytest.raises(FormatError) as caught:
            load_posteriors(path)
        assert str(caught.value) == f"{path}:10: {why}"

    def test_duplicate_id_names_its_line(self, tmp_path):
        # save_posteriors rejects such ids, so the file is edited after it is written
        post = BagPosterior(np.ones((2, 2)), np.full((3, 2), 0.5), np.zeros((3, 2)))
        path = str(tmp_path / "p.post")
        save_posteriors(path, [("a", post), ("b", post), ("c", post)], 2)
        data = open(path, "rb").read()
        open(path, "wb").write(data.replace(b"bag: c,3\n", b"bag: a,3\n"))
        with pytest.raises(FormatError) as caught:
            load_posteriors(path)
        assert str(caught.value) == f"{path}:7: bag: duplicate id 'a'"

    @pytest.mark.parametrize("bag_id", ["../escaped", "", ".", "..", "a/b", "a\\b"])
    def test_id_that_is_not_a_plain_file_name_names_its_line(self, tmp_path, bag_id):
        # segment writes <out-dir>/<id>.csv, so an id must name a file in that directory
        post = BagPosterior(np.ones((2, 2)), np.full((3, 2), 0.5), np.zeros((3, 2)))
        path = str(tmp_path / "p.post")
        save_posteriors(path, [("a", post), ("b", post)], 2)
        data = open(path, "rb").read()
        open(path, "wb").write(data.replace(b"bag: b,3\n", f"bag: {bag_id},3\n".encode()))
        with pytest.raises(FormatError) as caught:
            load_posteriors(path)
        assert str(caught.value) == f"{path}:6: bag: {bag_id!r} is not a plain file name"

    def test_version_1_names_its_version(self, tmp_path):
        path = tmp_path / "p.post"
        path.write_bytes(b"format: wsibp-posteriors\nversion: 1\nk_max: 2\nnum_bags: 0\n")
        with pytest.raises(FormatError, match="unknown version 1, this reader reads version 2; "
                                              "re-run infer or fit --posteriors-out"):
            load_posteriors(str(path))


@st.composite
def posterior_sets(draw):
    """0-4 bags of 0-5 instances with distinct ids, k_max 1-4, and values that pass the
    loader's checks: ids that are plain file names, tau in (0, inf), nu in [0, 1], finite
    logits."""
    k = draw(st.integers(1, 4))
    names = st.text("abcxyz019_-.", min_size=1, max_size=6).filter(lambda i: i not in (".", ".."))
    ids = draw(st.lists(names, max_size=4, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    posts = []
    for bag_id in ids:
        n = draw(st.integers(0, 5))
        tau, nu, logits = (np.array(draw(st.lists(values, min_size=size, max_size=size)))
                           .reshape(shape) for values, size, shape in (
            (st.floats(0.0, exclude_min=True, allow_infinity=False), 2 * k, (k, 2)),
            (st.floats(0.0, 1.0), n * k, (n, k)), (finite, n * k, (n, k))))
        posts.append((bag_id, BagPosterior(tau=tau, nu=nu, logits=logits)))
    return posts, k


@given(data=posterior_sets())
@settings(max_examples=80, deadline=None)
def test_posteriors_round_trip_property(tmp_path_factory, data):
    posts, k = data
    path = str(tmp_path_factory.mktemp("post") / "p.post")
    save_posteriors(path, posts, k)
    loaded = load_posteriors(path)
    assert [i for i, _ in loaded] == [i for i, _ in posts]
    for (_, p), (_, q) in zip(posts, loaded):
        for name in ("tau", "nu", "logits"):
            a, b = getattr(p, name), getattr(q, name)
            assert b.shape == a.shape and b.tobytes() == a.tobytes()
            assert b.flags.aligned and b.flags.writeable
    rows = sum(p.nu.shape[0] for _, p in posts)
    head = ["format: wsibp-posteriors", "version: 2", f"k_max: {k}", f"num_bags: {len(posts)}"]
    head += [f"bag: {i},{p.nu.shape[0]}" for i, p in posts]
    head += [f"{key}: binary {8 * size}" for key, size in (
        ("tau", 2 * k * len(posts)), ("nu", rows * k), ("logits", rows * k))]
    header = sum(len(line) + 1 for line in head)
    assert os.path.getsize(path) == header + 8 * (2 * len(posts) * k + 2 * rows * k) + 3


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

    def test_bytes_match_per_row_writer_over_a_longer_file(self, tmp_path):
        rng = np.random.default_rng(3)
        seg = SegmentationMap(labels=rng.integers(0, 3, 30), scores=rng.random(30))
        vocab, raster = ["a", "b", "c"], rng.integers(0, 30, (4, 5))
        path = tmp_path / "seg.csv"
        path.write_bytes(b"x" * 5000)  # an older, longer file: none of it may remain
        (tmp_path / "seg.csv.ppm").write_bytes(b"x" * 5000)
        write_segmentation(str(path), seg, vocab, raster=raster)
        rows = "".join(f"{j},{int(k)},{vocab[int(k)]},{float(s)!r}\n"
                       for j, (k, s) in enumerate(zip(seg.labels, seg.scores)))
        assert path.read_text() == "instance,label_index,label_name,score\n" + rows
        colour = lambda i: "%d %d %d" % PALETTE[int(seg.labels[i]) % len(PALETTE)]  # noqa: E731
        assert (tmp_path / "seg.csv.ppm").read_text() == "P3\n5 4\n255\n" + "".join(
            " ".join(colour(i) for i in row) + "\n" for row in raster)

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


@pytest.mark.parametrize("cell", ["300", "-1"])
def test_text_cell_out_of_its_dtype_names_its_line(tmp_path, small_dataset, small_config,
                                                   cell):
    # a labels cell (uint8) that parses as an integer but does not fit is named at
    # its own line, the first of the block's four, not at the block's last
    c = small_config
    path = tmp_path / "ds"
    save_dataset(str(path), small_dataset.bags[:4], c.default_vocab(), c.k_objects,
                 c.k_attributes, c.k_extra, binary=False)
    data = path.read_bytes()
    start = data.index(b"\nlabels: text\n") + len(b"\nlabels: text\n")
    end = data.index(b",", start)
    path.write_bytes(data[:start] + cell.encode() + data[end:])
    with pytest.raises(FormatError) as caught:
        load_dataset(str(path))
    line = data.count(b"\n", 0, start) + 1
    assert str(caught.value) == f"{path}:{line}: labels: {cell} does not fit uint8"


def test_edges_cut_short_is_end_of_file(tmp_path, small_dataset, small_config):
    c = small_config
    path = tmp_path / "ds"
    save_dataset(str(path), small_dataset.bags[:1], c.default_vocab(), c.k_objects,
                 c.k_attributes, c.k_extra, binary=False)
    data = path.read_bytes()
    path.write_bytes(data[:data.index(b"\nlabels: ") - 2])  # inside the last edge line
    with pytest.raises(FormatError, match=re.escape(f"{path}: unexpected end of file")):
        load_dataset(str(path))


@pytest.mark.parametrize("block", ["edges", "labels"])
def test_truncated_binary_block_names_the_block(tmp_path, small_dataset, small_config, block):
    c = small_config
    path = tmp_path / "ds"
    save_dataset(str(path), small_dataset.bags[:3], c.default_vocab(), c.k_objects,
                 c.k_attributes, c.k_extra)
    data = path.read_bytes()
    start = data.index(f"\n{block}: binary ".encode("ascii")) + 1
    end = data.index(b"\nlabels: ") if block == "edges" else len(data) - 1
    path.write_bytes(data[:end - 1])  # one byte of the block short, and what follows it
    with pytest.raises(FormatError) as caught:
        load_dataset(str(path))
    line = data.count(b"\n", 0, start) + 1  # the block's header, newline bytes in blocks too
    assert str(caught.value) == f"{path}:{line}: {block}: truncated binary block"


class TestWritersRejectWhatReadersReject:
    """A writer raises, before it opens its file, for what its reader would reject."""

    @pytest.mark.parametrize("change, error, why", [
        (lambda b: dataclasses.replace(b, id="../escaped"), ValueError,
         "'../escaped' is not a plain file name"),
        (lambda b: dataclasses.replace(b, id="bag0000"), ValueError, "duplicate id 'bag0000'"),
        (lambda b: dataclasses.replace(b, labels=WeakLabels(np.full(6, 0.5))), DatasetError,
         "bag 'bag0001': label bits must be 0 or 1"),
        (lambda b: dataclasses.replace(b, id="a,b"), ValueError,
         "'a,b' is not a plain file name"),
        (lambda b: dataclasses.replace(b, id="\u00e9"), ValueError,
         "'\u00e9' is not a plain file name"),
        (lambda b: dataclasses.replace(b, id=" x"), ValueError,
         "' x' is not a plain file name"),
        (lambda b: dataclasses.replace(b, features=b.features[:, :-1]), DimensionMismatchError,
         "bag 'bag0001' has feature dim 7, expected 8"),
        (lambda b: dataclasses.replace(b, edges=np.zeros((4, 3), dtype=np.int64)),
         EdgeIndexError, "bag 'bag0001' edge list must be (E, 2)"),
        (lambda b: dataclasses.replace(b, labels=WeakLabels(np.ones(5))), DimensionMismatchError,
         "bag 'bag0001': label vector has shape (5,), expected (6,)")],
        ids=["escaped-id", "repeated-id", "half-bit", "comma-id", "non-ascii-id",
             "edge-space-id", "feature-dim", "edge-width", "label-shape"])
    def test_save_dataset(self, tmp_path, small_dataset, small_config, change, error, why):
        c, path = small_config, tmp_path / "ds"
        bags = [small_dataset.bags[0], change(small_dataset.bags[1])]
        with pytest.raises(error, match=re.escape(why)):
            save_dataset(str(path), bags, c.default_vocab(), c.k_objects, c.k_attributes,
                         c.k_extra)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("bag_id, shapes, error, why", [
        ("../escaped", ((2, 2), (3, 2), (3, 2)), ValueError,
         "'../escaped' is not a plain file name"),
        ("a", ((2, 2), (3, 2), (3, 2)), ValueError, "duplicate id 'a'"),
        ("b", ((3, 2), (3, 2), (3, 2)), DimensionMismatchError, "need width 2"),
        ("b", ((2, 2), (3, 3), (3, 3)), DimensionMismatchError, "need width 2"),
        ("b", ((2, 2), (3, 2), (3, 3)), DimensionMismatchError, "need width 2"),
        ("a,b", ((2, 2), (3, 2), (3, 2)), ValueError, "'a,b' is not a plain file name"),
        ("\u00e9", ((2, 2), (3, 2), (3, 2)), ValueError, "'\u00e9' is not a plain file name"),
        (" x", ((2, 2), (3, 2), (3, 2)), ValueError, "' x' is not a plain file name")],
        ids=["escaped-id", "repeated-id", "tau-width", "nu-width", "logits-width", "comma-id",
             "non-ascii-id", "edge-space-id"])
    def test_save_posteriors(self, tmp_path, bag_id, shapes, error, why):
        ok = BagPosterior(np.ones((2, 2)), np.full((3, 2), 0.5), np.zeros((3, 2)))
        tau, nu, logits = (np.full(shape, 0.5) for shape in shapes)
        path = tmp_path / "p.post"
        with pytest.raises(error, match=re.escape(why)):
            save_posteriors(str(path), [("a", ok), (bag_id, BagPosterior(tau, nu, logits))], 2)
        assert not path.exists()
