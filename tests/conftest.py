"""Shared fixtures: toy datasets, trained toy models, and the desk-scale
scene models used by the separation and acceptance tests. Everything is
seeded; session scope keeps the training cost paid once. The oracles here
(Adam, finite differences, a quadrature) are independent of the library."""

import math
import struct
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import logsumexp

from icad.conformal import calibration_scores
from icad.episodes import SceneGenerator, generate_dataset
from icad.models import (
    SvddModel,
    TrainConfig,
    VaeModel,
    _svdd_batch_loss_grads,
    _vae_batch_loss_grads,
    svdd_init_center,
    train_svdd,
    train_vae,
)
from icad.neural import Mlp, forward
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


def mlp_of(*layers):
    """An ``Mlp`` built from the shapes of the given ``(weights, bias,
    activation)`` layers, ``bias`` None for a bias-free layer, with their
    values written into it."""
    net = Mlp([(np.shape(w)[1], np.shape(w)[0], act, b is not None) for w, b, act in layers])
    for layer, (w, b, _) in zip(net.layers, layers):
        layer.weights[:] = w
        if b is not None:
            layer.bias[:] = b
    return net


def assert_views_of_flat(net, x):
    """Every layer array of ``net`` is its own stretch of ``net.flat``, in
    ``parameters()`` order: a write through the vector shows in the arrays
    and in ``forward``. Overwrites the network's parameters, so ``infer``,
    whose weight copy the write does not reach, must not run on it after."""
    net.flat[:] = np.arange(net.flat.size)
    assert np.concatenate([p.ravel() for p in net.parameters()]).tolist() == \
        list(range(net.flat.size))
    net.flat[:] = 0.0  # every activation maps 0 to 0
    assert not forward(net, x)[0].any()


def finite_difference_grads(params, loss_fn, step=1e-5):
    """Central finite differences of ``loss_fn`` w.r.t. each parameter entry.

    The arrays in ``params`` are perturbed in place and restored, so they
    must be the live parameters the loss closure reads.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + step
            hi = loss_fn()
            flat_p[j] = orig - step
            lo = loss_fn()
            flat_p[j] = orig
            flat_g[j] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, denom_floor=1e-3):
    """Worst-case elementwise relative error between two gradient lists.

    The denominator is floored so that finite-difference roundoff on
    near-zero components does not register as disagreement. Returns
    ``(max_error, index_of_worst_array)``.
    """
    worst = 0.0
    worst_idx = 0
    for i, (a, n) in enumerate(zip(analytic, numeric)):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), denom_floor)
        err = np.abs(a - n) / denom
        local = float(err.max()) if err.size else 0.0
        if local > worst:
            worst = local
            worst_idx = i
    return worst, worst_idx


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    worst_param: str


def grad_check_params(params, names, loss_fn, analytic, tolerance=1e-4, step=1e-5):
    """Compare analytic gradients against central finite differences."""
    numeric = finite_difference_grads(params, loss_fn, step=step)
    err, idx = max_relative_error(analytic, numeric)
    return GradCheckReport(err, tolerance, err < tolerance, names[idx])


def vae_loss_grads(model, z, noise):
    """Single-example loss plus copies of the gradients, aligned with
    encoder+decoder parameters."""
    z = np.asarray(z, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    loss, _ = _vae_batch_loss_grads(model, z[None, :], noise[None, :])
    return loss, [g.copy() for g in model.encoder.gradients() + model.decoder.gradients()]


def svdd_loss_grads(model, batch):
    scratch = np.empty(model.mapper.flat.size)
    loss, _ = _svdd_batch_loss_grads(model, np.asarray(batch, dtype=np.float64), scratch)
    return loss, [g.copy() for g in model.mapper.gradients()]


# Simpson grid points (odd) for ``integrate_power_factor``.
_SIMPSON_POINTS = 4001


def integrate_power_factor(epsilon):
    """Quadrature check of the fair-bet identity ``integral_0^1 eps*p^(eps-1) dp``.

    The integrand is singular at p=0, so we substitute s = log p and
    integrate ``exp(log eps + eps*s)`` over [s_lo, 0] by composite Simpson
    in the log domain (the exact tail below the truncation point is added
    back analytically). A correct implementation returns 1 for every
    epsilon in (0, 1].
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0, 1]")
    s_lo = -50.0 / epsilon
    grid = np.linspace(s_lo, 0.0, _SIMPSON_POINTS)
    weights = np.full(_SIMPSON_POINTS, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    h = -s_lo / (_SIMPSON_POINTS - 1)
    body = math.exp(float(logsumexp(np.log(epsilon) + epsilon * grid, b=weights * h / 3.0)))
    tail = math.exp(epsilon * s_lo)
    return body + tail


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


def zero_width_svdd(raw: bytes) -> bytes:
    """A bias-free SVDD model file's bytes with its first layer cut to width
    0 and the weights of the two layers that meet there dropped: every row
    would map to the same point."""
    (layers,) = struct.unpack_from("<I", raw, 12)
    dims = [struct.unpack_from("<II", raw, 16 + 10 * i) for i in range(layers)]
    raw = bytearray(raw)
    struct.pack_into("<I", raw, 16 + 4, 0)  # the first layer's out-dim
    struct.pack_into("<I", raw, 16 + 10, 0)  # the second layer's in-dim
    start = len(raw) - 4 * sum(i * o for i, o in dims)
    dropped = 4 * sum(i * o for i, o in dims[:2])
    return bytes(raw[:start] + raw[start + dropped :])


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
