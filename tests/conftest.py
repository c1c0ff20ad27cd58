import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wsibp import ModelConfig, StickBoundCache, sample_dataset

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def small_config():
    return ModelConfig(k_objects=3, k_attributes=3, k_extra=0, sigma=0.1,
                       beta=0.0, rho=0.0, max_iters=60, tol=1e-4, seed=0)


@pytest.fixture
def small_dataset(small_config):
    return sample_dataset(small_config, num_bags=10, instances_per_bag=12,
                          feature_dim=8, seed=1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def stick_bound():
    """stick_bound(tau, k) for sticks tau (k_max, 2) and a factor k (1-based): the
    multinomial bound's weights q_s = exp(w_s - G_k), s <= k, and the bound G_k on
    E[log(1 - prod_{t<=k} v_t)], read from the stick cache that fit runs."""
    def bound(tau, k):
        cache = StickBoundCache.from_tau(tau)
        g = cache.neg_log_terms[k - 1]
        return np.exp(np.minimum(cache.w[:k] - g, 0.0)), float(g)
    return bound


@pytest.fixture
def fit_files(tmp_path):
    """fit_files(data_dir, flags, blas_threads) runs ``wsibp fit`` in a fresh
    process with OpenBLAS on ``blas_threads`` threads and returns the bytes of
    the model and posterior files it wrote."""
    def run(data_dir, flags, blas_threads):
        model, post = tmp_path / f"{blas_threads}.model", tmp_path / f"{blas_threads}.post"
        path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
                   PYTHONPATH=os.pathsep.join(path))
        subprocess.run([sys.executable, "-m", "wsibp.cli", "fit", "--data", str(data_dir),
                        "--model-out", str(model), "--posteriors-out", str(post), *flags],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        return model.read_bytes(), post.read_bytes()
    return run


@pytest.fixture(params=[
    ("means", {(0, 0): np.nan}, "means finite"),
    ("variances", {(0,): np.nan}, "variances finite and > 0"),
    ("variances", {(0,): np.inf}, "variances finite and > 0"),
    ("variances", {(1,): 0.0}, "variances finite and > 0"),
    ("correlation", {(0, 1): np.inf, (1, 0): np.inf}, "M finite"),
    ("correlation", {(0, 1): np.nan, (1, 0): np.nan}, "M finite"),
    ("correlation", {(0, 1): 0.5, (1, 0): 0.25}, "M symmetric"),
    ("correlation", {(1, 1): 0.5}, "M diagonal zero"),
    ("correlation", {(0, 1): -0.5, (1, 0): -0.5}, "M entries >= 0"),
    ("correlation", {(0, 1): 1e308, (1, 0): -1e308}, "M symmetric, M entries >= 0"),
], ids=["mean-nan", "var-nan", "var-inf", "var-zero", "m-inf-pair", "m-nan-pair",
        "m-asymmetric", "m-diagonal", "m-negative", "m-overflow"])
def model_fault(request):
    """A value the model file rejects: (block, {index: value} set in it, the rule its
    message names after ``<path>: the model needs``)."""
    return request.param
