"""Nonconformity scorers: how strange is an example relative to training data?

Four implementations behind one small interface: exact k-nearest-neighbor
distance, Gaussian kernel density, VAE reconstruction error, and SVDD
distance-to-center. Every scorer is immutable after construction, returns a
finite nonnegative score for finite input, and carries an 8-byte fingerprint
that binds calibration files to the exact scorer that produced them.

Scoring follows ``neural.forward``'s shape convention: one example ``(D,)``
gives a float, a block ``(B, D)`` gives ``(B,)`` scores. A block is checked
once and goes through each network in one pass.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
from scipy.special import logsumexp

from .models import SvddModel, VaeModel, mean_reconstruction, sample_reconstructions
from .neural import ACTIVATIONS, Array, Mlp

SCORER_KINDS = ("knn", "kde", "vae", "svdd")


def _check_examples(arr: Array, what: str) -> Array:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"{what} must be a nonempty 2-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


def _check_frames(z: Array, dim: int | None = None) -> Array:
    """One example ``(D,)`` or a nonempty block ``(B, D)``."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.size == 0:
        raise ValueError(f"expected an example (D,) or a block (B, D), got shape {z.shape}")
    if dim is not None and z.shape[-1] != dim:
        raise ValueError(f"example has dimension {z.shape[-1]}, expected {dim}")
    if not np.all(np.isfinite(z)):
        raise ValueError("example contains non-finite values")
    return z


def _per_frame(z: Array, scores: Array) -> float | Array:
    """A float for one example, the ``(B,)`` scores for a block."""
    return float(scores) if z.ndim == 1 else scores


def _sq_dists(train: Array, z: Array) -> Array:
    """Squared distances to every training point, ``(n,)`` or ``(B, n)``; a
    block is done a row at a time, so it never holds ``B x n x D`` differences."""
    rows = [((train - row) ** 2).sum(axis=1) for row in np.atleast_2d(z)]
    return rows[0] if z.ndim == 1 else np.stack(rows)


def silverman_bandwidth(train: Array) -> float:
    """Silverman's rule-of-thumb bandwidth, averaged over dimensions."""
    train = _check_examples(train, "training set")
    n, d = train.shape
    spread = float(np.mean(np.std(train, axis=0, ddof=1))) if n > 1 else 0.0
    if spread <= 0.0:
        return 1.0
    return spread * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))


def vae_score(z: Array, reconstruction: Array) -> float | Array:
    """Squared error between each input and its generated reconstruction."""
    z = _check_frames(z)
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    if reconstruction.shape != z.shape:
        raise ValueError(
            f"dimension mismatch: input {z.shape} vs reconstruction {reconstruction.shape}"
        )
    diff = z - reconstruction
    return _per_frame(z, (diff * diff).sum(axis=-1))


def svdd_score(model: SvddModel, z: Array) -> float | Array:
    """Squared distance of each mapped example from the frozen center."""
    if model.center is None:
        raise RuntimeError("SVDD center is not initialized")
    z = _check_frames(z, model.input_dim)
    diff = model.represent(z) - model.center
    return _per_frame(z, (diff * diff).sum(axis=-1))


def _hash_chunks(*chunks: bytes) -> bytes:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.digest()[:8]


def _mlp_signature(net: Mlp) -> bytes:
    parts = [struct.pack("<I", len(net.layers))]
    for layer in net.layers:
        parts.append(
            struct.pack("<IIBB", layer.in_dim, layer.out_dim,
                        ACTIVATIONS.index(layer.activation),
                        1 if layer.bias is not None else 0)
        )
        parts.append(layer.weights.astype("<f4").tobytes())
        if layer.bias is not None:
            parts.append(layer.bias.astype("<f4").tobytes())
    return b"".join(parts)


class KnnScorer:
    kind = "knn"

    def __init__(self, train: Array, k: int = 10):
        self.train = _check_examples(train, "training set").copy()
        self.train.setflags(write=False)
        if not 1 <= k <= self.train.shape[0]:
            raise ValueError(f"k={k} out of range for training set of size {self.train.shape[0]}")
        self.k = int(k)

    def score(self, z: Array) -> float | Array:
        """Mean Euclidean distance from ``z`` to its ``k`` nearest training points."""
        z = _check_frames(z, self.train.shape[1])
        d = np.sqrt(_sq_dists(self.train, z))
        return _per_frame(z, np.sort(d, axis=-1)[..., : self.k].mean(axis=-1))

    def fingerprint(self) -> bytes:
        return _hash_chunks(b"knn", struct.pack("<I", self.k), self.train.astype("<f4").tobytes())


class KdeScorer:
    kind = "kde"

    def __init__(self, train: Array, bandwidth: float | None = None):
        self.train = _check_examples(train, "training set").copy()
        self.train.setflags(write=False)
        self.bandwidth = float(bandwidth) if bandwidth is not None else silverman_bandwidth(self.train)
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")

    def score(self, z: Array) -> float | Array:
        """Negative log Gaussian-kernel density, shifted so the minimum is zero.

        The shift puts the score at 0 when ``z`` coincides with every training
        point (the maximum achievable density), which makes all scores >= 0.
        With the normalization constants cancelled this reduces to
        ``log n - logsumexp(-||z - z_i||^2 / (2 h^2))``.
        """
        z = _check_frames(z, self.train.shape[1])
        sq = _sq_dists(self.train, z)
        log_density = logsumexp(-sq / (2.0 * self.bandwidth * self.bandwidth), axis=-1)
        return _per_frame(z, np.log(self.train.shape[0]) - log_density)

    def fingerprint(self) -> bytes:
        return _hash_chunks(b"kde", struct.pack("<d", self.bandwidth), self.train.astype("<f4").tobytes())


class VaeScorer:
    """Reconstruction-error scorer.

    ``score`` uses the noise-free mean reconstruction (one score per example,
    used for calibration); ``score_many`` draws fresh posterior samples of one
    example and returns one score per reconstruction (used at detection time).
    """

    kind = "vae"

    def __init__(self, model: VaeModel):
        self.model = model

    def score(self, z: Array) -> float | Array:
        z = _check_frames(z, self.model.input_dim)
        diff = z - mean_reconstruction(self.model, z)
        return _per_frame(z, (diff * diff).sum(axis=-1))

    def score_many(self, z: Array, count: int, rng: np.random.Generator) -> list[float]:
        """One ``vae_score`` per sampled reconstruction, computed row-wise."""
        z = _check_frames(z, self.model.input_dim)
        if z.ndim != 1:
            raise ValueError(f"score_many takes one example, got shape {z.shape}")
        diff = z - sample_reconstructions(self.model, z, count, rng)
        return (diff * diff).sum(axis=1).tolist()

    def fingerprint(self) -> bytes:
        return _hash_chunks(
            b"vae",
            struct.pack("<I", self.model.latent_dim),
            _mlp_signature(self.model.encoder),
            _mlp_signature(self.model.decoder),
        )


class SvddScorer:
    kind = "svdd"

    def __init__(self, model: SvddModel):
        if model.center is None:
            raise RuntimeError("SVDD center is not initialized")
        self.model = model

    def score(self, z: Array) -> float | Array:
        return svdd_score(self.model, z)

    def fingerprint(self) -> bytes:
        return _hash_chunks(
            b"svdd",
            _mlp_signature(self.model.mapper),
            self.model.center.astype("<f8").tobytes(),
        )
