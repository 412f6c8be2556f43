"""The two learned nonconformity backbones.

A variational autoencoder scores inputs by reconstruction error; a one-class
deep SVDD scores them by squared distance of the learned representation to a
fixed center. Both train with the same two-phase Adam schedule. The SVDD
mapper is constrained at construction: no bias terms, and the center is
frozen the moment it is initialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .neural import (
    BLOCK_ROWS, AdamState, Array, Mlp, adam_step, backward, check_examples, forward, infer, init_mlp,
)


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss becomes non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    """Two-phase schedule: a searching phase followed by a fine-tuning phase."""

    epochs: tuple[int, int] = (300, 100)
    learning_rates: tuple[float, float] = (1e-3, 1e-4)
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.epochs[0] < 1 or self.epochs[1] < 0:
            raise ValueError("first-phase epochs must be >= 1 and second-phase >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if not all(0.0 < lr < np.inf for lr in self.learning_rates):
            raise ValueError(f"learning rates must be positive and finite, got {self.learning_rates}")


class VaeModel:
    """Encoder producing (mean, log-variance) over the latent space, plus decoder."""

    def __init__(self, encoder: Mlp, decoder: Mlp, latent_dim: int):
        if latent_dim < 1:
            raise ValueError("latent dimension must be positive")
        if encoder.output_dim != 2 * latent_dim:
            raise ValueError(
                f"encoder output dim {encoder.output_dim} must be 2*latent_dim={2 * latent_dim}"
            )
        if decoder.input_dim != latent_dim:
            raise ValueError("decoder input dim must equal the latent dimension")
        if decoder.output_dim != encoder.input_dim:
            raise ValueError("decoder output dim must equal the encoder input dim")
        self.encoder = encoder
        self.decoder = decoder
        self.latent_dim = latent_dim

    @property
    def input_dim(self) -> int:
        return self.encoder.input_dim

    @classmethod
    def build(
        cls,
        input_dim: int,
        latent_dim: int = 8,
        hidden: Sequence[int] = (64, 32),
        seed: int = 0,
    ) -> "VaeModel":
        rng = np.random.default_rng(seed)
        hidden = tuple(hidden)
        enc_dims = (input_dim, *hidden, 2 * latent_dim)
        dec_dims = (latent_dim, *reversed(hidden), input_dim)
        acts = ["elu"] * len(hidden) + ["identity"]
        encoder = init_mlp(enc_dims, acts, bias=True, rng=rng)
        decoder = init_mlp(dec_dims, acts, bias=True, rng=rng)
        return cls(encoder, decoder, latent_dim)

    def encode(self, z: Array) -> tuple[Array, Array]:
        out = infer(self.encoder, z)
        d = self.latent_dim
        return out[:, :d], out[:, d:]


def _vae_batch_loss_grads(model: VaeModel, batch: Array, noise: Array):
    """Mean loss over the batch and its parts; the gradients are written
    into the encoder's and decoder's gradient vectors.

    Loss per example: squared reconstruction error of the reparameterized
    sample plus the closed-form KL of the diagonal-Gaussian posterior
    against a standard normal.
    """
    d = model.latent_dim
    enc_out, enc_cache = forward(model.encoder, batch)
    mu, logvar = enc_out[:, :d], enc_out[:, d:]
    if not np.isfinite(logvar).all():
        raise ValueError("encoder produced non-finite log-variance")
    sigma = np.exp(0.5 * logvar)
    x = mu + sigma * noise
    dec_out, dec_cache = forward(model.decoder, x)
    diff = dec_out - batch
    recon = (diff * diff).sum(axis=1)
    var = np.exp(logvar)
    kl = 0.5 * (mu * mu + var - 1.0 - logvar).sum(axis=1)
    n = batch.shape[0]
    loss = float(np.mean(recon + kl))
    _, g_x = backward(model.decoder, dec_cache, 2.0 * diff / n)
    g_mu = g_x + mu / n
    g_logvar = g_x * noise * 0.5 * sigma + 0.5 * (var - 1.0) / n
    backward(model.encoder, enc_cache, np.concatenate([g_mu, g_logvar], axis=1), input_grad=False)
    return loss, (float(recon.mean()), float(kl.mean()))


def sample_reconstructions(
    model: VaeModel, z: Array, count: int, rng: np.random.Generator
) -> Array:
    """Decode ``count`` independent posterior samples of each row of a block
    ``(B, D)``, as ``(B, count, D)``.

    The noise is one ``(B, count, latent_dim)`` draw, which holds the numbers
    of the per-row draws in the same order; all samples decode in one pass.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    z = np.asarray(z, dtype=np.float64)
    mu, logvar = model.encode(z)
    if not np.isfinite(logvar).all():
        raise ValueError("encoder produced non-finite log-variance")
    x = rng.standard_normal((z.shape[0], count, model.latent_dim))
    x *= np.exp(0.5 * logvar)[:, None, :]
    x += mu[:, None, :]
    return infer(model.decoder, x.reshape(-1, model.latent_dim)).reshape(z.shape[0], count, -1)


class SvddModel:
    """Bias-free mapper plus a frozen center in representation space."""

    def __init__(self, mapper: Mlp, weight_decay: float = 1e-4):
        for i, layer in enumerate(mapper.layers):
            if layer.bias is not None:
                raise ValueError(f"SVDD mapper layer {i} has a bias term")
        if not 0.0 <= weight_decay < np.inf:
            raise ValueError(f"weight decay must be nonnegative and finite, got {weight_decay}")
        self.mapper = mapper
        self.weight_decay = weight_decay
        self.center: Array | None = None

    @property
    def input_dim(self) -> int:
        return self.mapper.input_dim

    @classmethod
    def build(
        cls,
        input_dim: int,
        output_dim: int = 8,
        hidden: Sequence[int] = (64, 32),
        weight_decay: float = 1e-4,
        seed: int = 0,
    ) -> "SvddModel":
        rng = np.random.default_rng(seed)
        dims = (input_dim, *hidden, output_dim)
        acts = ["elu"] * len(hidden) + ["identity"]
        mapper = init_mlp(dims, acts, bias=False, rng=rng)
        return cls(mapper, weight_decay)


def svdd_init_center(model: SvddModel, data: Array) -> Array:
    """Set the center to the mean representation of ``data`` and freeze it.

    A near-zero mean would admit the trivial solution that maps everything
    to the origin, so it is nudged off zero.
    """
    if model.center is not None:
        raise RuntimeError("center is already initialized and frozen")
    data = check_examples(data, "training set", model.input_dim)
    # map a block at a time, so one block's hidden layers are held at once;
    # the mean runs over all mapped rows together, in mean(axis=0)'s own order
    blocks = (data[i : i + BLOCK_ROWS] for i in range(0, len(data), BLOCK_ROWS))
    c = np.concatenate([infer(model.mapper, b) for b in blocks]).mean(axis=0)
    if np.linalg.norm(c) < 1e-6:
        offset = np.zeros_like(c)
        offset[0] = 0.1
        c = c + offset
    c.setflags(write=False)
    model.center = c
    return c.copy()


def _svdd_batch_loss_grads(model: SvddModel, batch: Array, scratch: Array):
    """Mean squared distance to center plus the Frobenius weight regularizer,
    and the distance term alone; the gradients are written into the mapper's
    gradient vector.

    The gradient flows through the mapper only; the regularizer's gradient
    is included analytically so the full loss is finite-difference checkable.
    ``scratch`` is a float64 vector as long as the mapper's parameter vector.
    """
    if model.center is None:
        raise RuntimeError("SVDD center is not initialized")
    mapper = model.mapper
    reps, cache = forward(mapper, batch)
    diff = reps - model.center
    sq = (diff * diff).sum(axis=1)
    data_term = float(sq.mean())
    # one sum over each whole matrix of squares keeps the pairwise order of
    # (W*W).sum(); the mapper is bias-free, so its parameters are its weights
    reg = 0.5 * model.weight_decay * sum(
        float(np.square(w, out=s).sum())
        for w, s in zip(mapper.parameters(), mapper.split(scratch))
    )
    n = batch.shape[0]
    backward(mapper, cache, 2.0 * diff / n, input_grad=False)
    if model.weight_decay > 0.0:
        grad = mapper.grad
        grad += np.multiply(mapper.flat, model.weight_decay, out=scratch)
    return data_term + reg, data_term


def _train_two_phase(
    nets: Sequence[Mlp],
    batch_fn: Callable[[Array, np.random.Generator], tuple[float, float]],
    data: Array,
    cfg: TrainConfig,
    what: str,
) -> tuple[list[float], list[float]]:
    """Shared minibatch loop. ``batch_fn`` returns (loss, aux) and leaves the
    batch's gradients in the networks' gradient vectors."""
    data = check_examples(data, "training set", nets[0].input_dim)
    rng = np.random.default_rng(cfg.seed)
    state = AdamState(nets, cfg.learning_rates[0])
    curve: list[float] = []
    aux_curve: list[float] = []
    for phase in range(2):
        state.learning_rate = cfg.learning_rates[phase]
        for _ in range(cfg.epochs[phase]):
            epoch = len(curve)
            perm = rng.permutation(data.shape[0])
            losses: list[float] = []
            auxes: list[float] = []
            for start in range(0, data.shape[0], cfg.batch_size):
                batch = data[perm[start : start + cfg.batch_size]]
                loss, aux = batch_fn(batch, rng)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"{what} training loss diverged at epoch {epoch}")
                adam_step(state)
                losses.append(loss)
                auxes.append(aux)
            curve.append(float(np.mean(losses)))
            aux_curve.append(float(np.mean(auxes)))
    return curve, aux_curve


def train_vae(model: VaeModel, data: Array, cfg: TrainConfig) -> list[float]:
    """Train in place; returns the per-epoch mean loss curve."""

    def batch_fn(batch: Array, rng: np.random.Generator):
        noise = rng.standard_normal((batch.shape[0], model.latent_dim))
        loss, parts = _vae_batch_loss_grads(model, batch, noise)
        return loss, parts[0]

    curve, _ = _train_two_phase([model.encoder, model.decoder], batch_fn, data, cfg, "VAE")
    return curve


def train_svdd(model: SvddModel, data: Array, cfg: TrainConfig) -> tuple[list[float], list[float]]:
    """Train in place; returns (loss curve, mean squared distance-to-center curve)."""
    if model.center is None:
        raise RuntimeError("initialize the SVDD center before training")

    scratch = np.empty(model.mapper.flat.size)

    def batch_fn(batch: Array, rng: np.random.Generator):
        return _svdd_batch_loss_grads(model, batch, scratch)

    return _train_two_phase([model.mapper], batch_fn, data, cfg, "SVDD")


def pretrain_with_autoencoder(model: SvddModel, data: Array, cfg: TrainConfig) -> list[float]:
    """Autoencoder pretraining (Ruff et al., "Deep One-Class Classification",
    ICML 2018): train an autoencoder whose encoder has the mapper's layers
    (same dimensions and activations, bias-free), make the trained encoder
    the mapper, then initialize the center.

    The mapper's own initial weights are discarded. Returns the autoencoder
    loss curve.
    """
    rng = np.random.default_rng(cfg.seed)
    dims = [model.input_dim] + [layer.out_dim for layer in model.mapper.layers]
    acts = [layer.activation for layer in model.mapper.layers]
    encoder = init_mlp(dims, acts, False, rng)
    decoder = init_mlp(dims[::-1], ["elu"] * (len(dims) - 2) + ["identity"], True, rng)

    def batch_fn(batch: Array, _rng: np.random.Generator):
        code, enc_cache = forward(encoder, batch)
        recon, dec_cache = forward(decoder, code)
        diff = recon - batch
        n = batch.shape[0]
        loss = float((diff * diff).sum(axis=1).mean())
        _, g_code = backward(decoder, dec_cache, 2.0 * diff / n)
        backward(encoder, enc_cache, g_code, input_grad=False)
        return loss, loss

    curve, _ = _train_two_phase([encoder, decoder], batch_fn, data, cfg, "autoencoder")
    model.mapper = encoder
    svdd_init_center(model, data)
    return curve
