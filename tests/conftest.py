"""Shared fixtures: toy datasets, trained toy models, and the desk-scale
scene models used by the separation and acceptance tests. Everything is
seeded; session scope keeps the training cost paid once."""

import struct
import tracemalloc

import numpy as np
import pytest

from icad.conformal import calibration_scores
from icad.episodes import SceneGenerator, generate_dataset
from icad.models import (
    SvddModel,
    TrainConfig,
    VaeModel,
    svdd_init_center,
    train_svdd,
    train_vae,
)
from icad.nonconformity import SvddScorer, VaeScorer

# Scene-scale recipe shared by the detection-suite and statistical tests.
SCENE_SIDE = 16
SCENE_DIM = SCENE_SIDE * SCENE_SIDE
VAE_CFG = dict(latent_dim=8, hidden=(64, 32), seed=11)
VAE_TRAIN = TrainConfig(epochs=(150, 50), learning_rates=(1e-3, 1e-4), batch_size=64, seed=12)
# A wide shallow mapper trained gently keeps the corruption direction alive;
# long aggressive training collapses it together with the nuisance factors.
SVDD_CFG = dict(output_dim=64, hidden=(512,), weight_decay=1e-3, seed=21)
SVDD_TRAIN = TrainConfig(epochs=(30, 10), learning_rates=(5e-5, 1e-5), batch_size=64, seed=22)


def reference_adam(params, grads, m, v, t, lr):
    """Out-of-place Adam (Kingma & Ba) over lists of arrays, one array at a
    time: updates the moment lists ``m`` and ``v`` and returns the step-``t``
    parameters."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
    new = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
        new.append(p - lr * ((m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)))
    return new


def traced_peak_mb(call) -> float:
    """The peak of the memory that ``call()`` allocates, in MB. tracemalloc
    sees numpy's buffers, and for fixed shapes its count is deterministic."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def one_value_center(raw: bytes) -> bytes:
    """An SVDD model file's bytes with the center cut to its first value:
    scoring would broadcast that value against every mapper output."""
    (layers,) = struct.unpack_from("<I", raw, 12)
    at = 16 + 10 * layers + 1 + 8  # after the layer descriptors, the model kind, the weight decay
    (length,) = struct.unpack_from("<I", raw, at)
    return raw[:at] + struct.pack("<I", 1) + raw[at + 4 : at + 12] + raw[at + 4 + 8 * length :]


def untrained_scorers(dim):
    """One scorer of each kind on ``dim``-wide inputs, built without training."""
    rng = np.random.default_rng(dim)
    train = rng.normal(size=(30, dim))
    svdd = SvddModel.build(dim, output_dim=3, hidden=(8,), seed=1)
    svdd_init_center(svdd, train)
    return {
        "vae": VaeScorer(VaeModel.build(dim, latent_dim=2, hidden=(8,), seed=2)),
        "svdd": SvddScorer(svdd),
    }


@pytest.fixture(scope="session")
def toy_blob():
    """Anisotropic 2-D Gaussian blob; latent dimension 1 captures it."""
    rng = np.random.default_rng(42)
    direction = np.array([0.8, 0.6])
    along = rng.normal(0.0, 2.0, size=(200, 1)) * direction
    return along + rng.normal(0.0, 0.1, size=(200, 2)) + np.array([1.0, -0.5])


@pytest.fixture(scope="session")
def two_blobs():
    """Well-separated in-distribution / out-of-distribution blobs."""
    rng = np.random.default_rng(7)
    blob_in = rng.normal([0.0, 0.0], 0.5, size=(300, 2))
    blob_out = rng.normal([5.0, 5.0], 0.5, size=(120, 2))
    return blob_in, blob_out


@pytest.fixture(scope="session")
def toy_vae(toy_blob):
    model = VaeModel.build(2, latent_dim=1, hidden=(16, 8), seed=1)
    curve = train_vae(
        model,
        toy_blob,
        TrainConfig(epochs=(150, 50), learning_rates=(1e-2, 1e-3), batch_size=32, seed=2),
    )
    return model, curve


@pytest.fixture(scope="session")
def two_blob_vae(two_blobs):
    blob_in, _ = two_blobs
    model = VaeModel.build(2, latent_dim=1, hidden=(16, 8), seed=5)
    train_vae(
        model,
        blob_in[:200],
        TrainConfig(epochs=(150, 50), learning_rates=(1e-2, 1e-3), batch_size=32, seed=6),
    )
    return model


@pytest.fixture(scope="session")
def toy_svdd(two_blobs):
    blob_in, _ = two_blobs
    model = SvddModel.build(2, output_dim=2, hidden=(16, 8), weight_decay=1e-4, seed=3)
    train_data = blob_in[:200]
    svdd_init_center(model, train_data)
    losses, distances = train_svdd(
        model,
        train_data,
        TrainConfig(epochs=(150, 50), learning_rates=(1e-2, 1e-3), batch_size=32, seed=4),
    )
    return model, losses, distances


@pytest.fixture(scope="session")
def scene_gen():
    return SceneGenerator(side=SCENE_SIDE, seed=42)


@pytest.fixture(scope="session")
def scene_train():
    gen = SceneGenerator(side=SCENE_SIDE, seed=101)
    examples, _ = generate_dataset(gen, 800, (0.0, 20.0))
    return examples


@pytest.fixture(scope="session")
def scene_cal_examples():
    gen = SceneGenerator(side=SCENE_SIDE, seed=202)
    examples, _ = generate_dataset(gen, 2000, (0.0, 20.0))
    return examples


@pytest.fixture(scope="session")
def scene_vae(scene_train):
    model = VaeModel.build(SCENE_DIM, **VAE_CFG)
    train_vae(model, scene_train, VAE_TRAIN)
    return model


@pytest.fixture(scope="session")
def scene_svdd(scene_train):
    model = SvddModel.build(SCENE_DIM, **SVDD_CFG)
    svdd_init_center(model, scene_train)
    train_svdd(model, scene_train, SVDD_TRAIN)
    return model


@pytest.fixture(scope="session")
def scene_vae_cal(scene_vae, scene_cal_examples):
    return calibration_scores(VaeScorer(scene_vae), scene_cal_examples)


@pytest.fixture(scope="session")
def scene_svdd_cal(scene_svdd, scene_cal_examples):
    return calibration_scores(SvddScorer(scene_svdd), scene_cal_examples)
