"""Nonconformity scorers: how strange is an example relative to training data?

Four implementations behind one small interface: exact k-nearest-neighbor
distance, Gaussian kernel density, VAE reconstruction error, and SVDD
distance-to-center. Every scorer is immutable after construction, returns a
finite nonnegative score for finite input, and carries an 8-byte fingerprint
that binds calibration files to the exact scorer that produced them.

A scorer takes a frame ``(D,)`` or a block ``(B, D)``: a frame scores as a
float (``score_many``: a list), a block as ``(B,)`` (``(B, count)``). Only
``_check_frames`` tells them apart; every scorer body gets a block, a frame
as its one-row block, and runs each network once on it via ``neural.infer``.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable

import numpy as np
from scipy.special import logsumexp

from .models import SvddModel, VaeModel, mean_reconstruction, sample_reconstructions
from .neural import Array, Mlp, check_examples, layer_descriptor, layer_payload

SCORER_KINDS = ("knn", "kde", "vae", "svdd")


def _check_frames(z: Array, dim: int) -> tuple[Array, Callable]:
    """Check a frame ``(D,)`` or a nonempty block ``(B, D)``. Return it as a
    block (a frame as its one-row block) and the way back from the block's
    scores: a frame gets row 0 as a float or a list, a block gets them as is."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.size == 0:
        raise ValueError(f"expected an example (D,) or a block (B, D), got shape {z.shape}")
    if z.shape[-1] != dim:
        raise ValueError(f"example has dimension {z.shape[-1]}, expected {dim}")
    if not np.all(np.isfinite(z)):
        raise ValueError("example contains non-finite values")
    if z.ndim == 2:
        return z, lambda scores: scores
    return z[None], lambda scores: scores[0].tolist()


def _sq_dists(train: Array, z: Array) -> Array:
    """Squared distances from each row of ``z`` to every training point,
    ``(B, n)``, a row at a time so it never holds ``B x n x D`` differences."""
    return np.stack([((train - row) ** 2).sum(axis=1) for row in z])


def silverman_bandwidth(train: Array) -> float:
    """Silverman's rule-of-thumb bandwidth, averaged over dimensions."""
    train = check_examples(train, "training set")
    n, d = train.shape
    spread = float(np.mean(np.std(train, axis=0, ddof=1))) if n > 1 else 0.0
    if spread <= 0.0:
        return 1.0
    return spread * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))


def _hash_chunks(*chunks: bytes) -> bytes:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.digest()[:8]


def _mlp_signature(net: Mlp) -> bytes:
    parts = [struct.pack("<I", len(net.layers))]
    for layer in net.layers:
        parts += [layer_descriptor(layer), *layer_payload(layer)]
    return b"".join(parts)


class KnnScorer:
    kind = "knn"

    def __init__(self, train: Array, k: int = 10):
        self.train = check_examples(train, "training set").copy()
        self.train.setflags(write=False)
        if not 1 <= k <= self.train.shape[0]:
            raise ValueError(f"k={k} out of range for training set of size {self.train.shape[0]}")
        self.k = int(k)

    def score(self, z: Array) -> float | Array:
        """Mean Euclidean distance from ``z`` to its ``k`` nearest training points."""
        z, back = _check_frames(z, self.train.shape[1])
        d = np.sqrt(_sq_dists(self.train, z))
        return back(np.sort(d, axis=1)[:, : self.k].mean(axis=1))

    def fingerprint(self) -> bytes:
        return _hash_chunks(b"knn", struct.pack("<I", self.k), self.train.astype("<f4").tobytes())


class KdeScorer:
    kind = "kde"

    def __init__(self, train: Array, bandwidth: float | None = None):
        self.train = check_examples(train, "training set").copy()
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
        z, back = _check_frames(z, self.train.shape[1])
        sq = _sq_dists(self.train, z)
        log_density = logsumexp(-sq / (2.0 * self.bandwidth * self.bandwidth), axis=1)
        return back(np.log(self.train.shape[0]) - log_density)

    def fingerprint(self) -> bytes:
        return _hash_chunks(b"kde", struct.pack("<d", self.bandwidth), self.train.astype("<f4").tobytes())


class VaeScorer:
    """Reconstruction-error scorer.

    ``score`` uses the noise-free mean reconstruction (one score per example,
    used for calibration); ``score_many`` draws fresh posterior samples of each
    example and returns one score per reconstruction (used at detection time).
    """

    kind = "vae"

    def __init__(self, model: VaeModel):
        self.model = model

    def score(self, z: Array) -> float | Array:
        z, back = _check_frames(z, self.model.input_dim)
        diff = z - mean_reconstruction(self.model, z)
        return back((diff * diff).sum(axis=1))

    def score_many(self, z: Array, count: int, rng: np.random.Generator) -> list[float] | Array:
        """One squared error per sampled reconstruction: a list of ``count``
        scores for one example, ``(B, count)`` scores for a block."""
        z, back = _check_frames(z, self.model.input_dim)
        diff = sample_reconstructions(self.model, z, count, rng)
        np.subtract(z[:, None, :], diff, out=diff)
        diff *= diff
        return back(diff.sum(axis=2))

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
        """Squared distance of each mapped example from the frozen center."""
        z, back = _check_frames(z, self.model.input_dim)
        diff = self.model.represent(z) - self.model.center
        return back((diff * diff).sum(axis=1))

    def fingerprint(self) -> bytes:
        return _hash_chunks(
            b"svdd",
            _mlp_signature(self.model.mapper),
            self.model.center.astype("<f8").tobytes(),
        )
