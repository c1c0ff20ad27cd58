import numpy as np
import pytest

from wsibp import DatasetError, ModelConfig, plant_correlation, sample_dataset
from wsibp.generative import grid_edges, smooth_spatially


def test_determinism_bit_identical(small_config):
    a = sample_dataset(small_config, 5, 8, 6, seed=42)
    b = sample_dataset(small_config, 5, 8, 6, seed=42)
    assert np.array_equal(a.true_a, b.true_a)
    for ba, bb, za, zb in zip(a.bags, b.bags, a.true_z, b.true_z):
        assert ba.features.tobytes() == bb.features.tobytes()
        assert np.array_equal(za, zb)
        assert np.array_equal(ba.labels.bits, bb.labels.bits)


def test_different_seed_differs(small_config):
    a = sample_dataset(small_config, 5, 8, 6, seed=1)
    b = sample_dataset(small_config, 5, 8, 6, seed=2)
    assert not np.array_equal(a.true_a, b.true_a)


def test_label_masking_in_truth(small_config):
    ds = sample_dataset(small_config, 20, 10, 6, seed=3, labels=0.4)
    for bag, z in zip(ds.bags, ds.true_z):
        masked = bag.labels.bits == 0.0
        assert np.all(z[:, masked] == 0.0)


def test_explicit_label_vectors(small_config):
    labels = [np.array([1, 0, 0, 0, 0, 0])] * 4
    ds = sample_dataset(small_config, 4, 6, 6, seed=0, labels=labels)
    for bag, z in zip(ds.bags, ds.true_z):
        assert np.all(z[:, 1:] == 0.0)
        assert bag.labels.bits.tolist() == [1, 0, 0, 0, 0, 0]


def test_sigma_zero_limit():
    cfg = ModelConfig(k_objects=2, k_attributes=0, k_extra=0, sigma=1e-6,
                      beta=0.0, rho=0.0)
    ds = sample_dataset(cfg, 5, 10, 4, seed=7, labels=1.0)
    for bag, z in zip(ds.bags, ds.true_z):
        np.testing.assert_allclose(bag.features, z @ ds.true_a, atol=1e-4)


def test_stick_draw_mean_matches_beta():
    # v_1 ~ Beta(alpha, 1) with alpha = 2 has mean 2/3; pi_1 = v_1
    cfg = ModelConfig(k_objects=1, k_attributes=0, k_extra=0, alpha=2.0,
                      beta=0.0, rho=0.0)
    ds = sample_dataset(cfg, 10000, 1, 2, seed=5, grid_adjacency=False,
                        labels=1.0)
    v1 = np.array([pi[0] for pi in ds.true_pi])
    se = v1.std(ddof=1) / np.sqrt(v1.size)
    assert abs(v1.mean() - 2.0 / 3.0) <= 3 * se


def test_activation_rate_concentrates():
    cfg = ModelConfig(k_objects=2, k_attributes=0, k_extra=0, beta=0.0, rho=0.0)
    ds = sample_dataset(cfg, 1, 2000, 4, seed=9, grid_adjacency=False,
                        labels=1.0)
    z, pi = ds.true_z[0], ds.true_pi[0]
    for k in range(2):
        rate = z[:, k].mean()
        se = np.sqrt(pi[k] * (1 - pi[k]) / z.shape[0])
        assert abs(rate - pi[k]) <= 3 * se + 1e-9


def test_invalid_shape_rejected(small_config):
    with pytest.raises(DatasetError):
        sample_dataset(small_config, 0, 5, 4)
    with pytest.raises(DatasetError):
        sample_dataset(small_config, 2, 5, 4, labels=1.5)


def test_grid_edges_structure():
    edges = grid_edges(9)  # 3x3 grid
    assert len(edges) == 12
    assert edges.min() >= 0 and edges.max() < 9
    assert np.all(edges[:, 0] != edges[:, 1])


def test_grid_edges_non_square():
    edges = grid_edges(7)
    assert edges.max() < 7
    assert len(edges) > 0


def loop_grid_edges(n):
    """Per instance j of a row-major grid ceil(sqrt(n)) wide: (j, right), then (j, down)."""
    width = int(np.ceil(np.sqrt(n)))
    edges = []
    for j in range(n):
        if j % width + 1 < width and j + 1 < n:
            edges.append((j, j + 1))
        if j + width < n:
            edges.append((j, j + width))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def test_grid_edges_match_the_loop():
    for n in [*range(1, 201), 4096]:
        edges, expect = grid_edges(n), loop_grid_edges(n)
        assert edges.dtype == expect.dtype and edges.shape == expect.shape, n
        assert np.array_equal(edges, expect), n


class TestPlantCorrelation:
    def setup_method(self):
        self.cfg = ModelConfig(k_objects=3, k_attributes=3, k_extra=0,
                               sigma=0.1, beta=0.0, rho=0.0)

    def test_strength_one_forces_coactivation(self):
        ds = sample_dataset(self.cfg, 20, 15, 6, seed=2, labels=0.7)
        planted = plant_correlation(ds, [(0, 3)], 1.0, seed=4)
        on = np.concatenate([z[:, 0] for z in planted.true_z]) == 1
        other = np.concatenate([z[:, 3] for z in planted.true_z])
        assert on.any()
        assert np.all(other[on] == 1.0)

    def test_strength_zero_noop(self):
        ds = sample_dataset(self.cfg, 10, 10, 6, seed=2)
        planted = plant_correlation(ds, [(0, 3)], 0.0, seed=4)
        for za, zb in zip(ds.true_z, planted.true_z):
            assert np.array_equal(za, zb)

    def test_partial_strength_band(self):
        # binomial concentration: with p = 0.9 and >= 100 trials the
        # empirical rate stays within 0.1 of p with overwhelming probability
        ds = sample_dataset(self.cfg, 50, 20, 6, seed=6, labels=1.0)
        planted = plant_correlation(ds, [(0, 3)], 0.9, seed=8)
        before = np.concatenate([z[:, 3] for z in ds.true_z])
        on = np.concatenate([z[:, 0] for z in planted.true_z]) == 1
        after = np.concatenate([z[:, 3] for z in planted.true_z])
        flipped_or_set = after[on]
        assert on.sum() >= 100
        rate = flipped_or_set.mean()
        assert 0.8 <= rate <= 1.0
        assert before.sum() <= after.sum()

    def test_out_of_range_pair(self):
        ds = sample_dataset(self.cfg, 2, 4, 6, seed=0)
        with pytest.raises(DatasetError):
            plant_correlation(ds, [(0, 6)], 1.0)

    def test_masking_repaired_after_edit(self):
        ds = sample_dataset(self.cfg, 20, 10, 6, seed=3, labels=0.5)
        planted = plant_correlation(ds, [(0, 3)], 1.0, seed=4)
        for bag, z in zip(planted.bags, planted.true_z):
            assert np.all(z[:, bag.labels.bits == 0.0] == 0.0)


def test_smooth_spatially_reduces_disagreements(small_config):
    ds = sample_dataset(small_config, 5, 25, 6, seed=1, labels=1.0)
    smoothed = smooth_spatially(ds, rounds=2, seed=1)

    def disagreements(dataset):
        count = 0
        for bag, z in zip(dataset.bags, dataset.true_z):
            for a, b in bag.edges:
                count += int(np.any(z[a] != z[b]))
        return count

    assert disagreements(smoothed) <= disagreements(ds)
