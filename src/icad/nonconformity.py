"""Nonconformity scorers: how strange is an example relative to training data?

Two implementations, the paper's learned measures: VAE reconstruction
error and SVDD distance-to-center. Every scorer is immutable after
construction, returns a finite nonnegative score for finite input, and
carries an 8-byte fingerprint that binds calibration files to the exact
scorer that produced them. The SVDD score is deterministic (``score``); the
VAE's one score is of a sampled reconstruction (``score_many``), for
calibration and detection alike.

A scorer takes a block ``(B, D)`` only, scored as ``(B,)`` (``score``) or
``(B, count)`` (``score_many``): one ``check_examples`` call, then the
unchecked body (``_score``, ``_score_many``), which calibration calls on its
own checked blocks and which runs each network once via ``neural.infer``.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .models import SvddModel, VaeModel, sample_reconstructions
from .neural import Array, Mlp, check_examples, infer, layer_descriptor


def _hash_chunks(*chunks: bytes) -> bytes:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.digest()[:8]


def _mlp_signature(net: Mlp) -> bytes:
    """The layer count, then each layer's descriptor followed by its
    parameters as little-endian f32, weights row-major then bias."""
    views = iter(net.split(net.flat.astype("<f4")))
    parts = [struct.pack("<I", len(net.layers))]
    for layer in net.layers:
        parts += [layer_descriptor(layer), *(next(views) for _ in layer.params)]
    return b"".join(parts)


class VaeScorer:
    """Reconstruction-error scorer.

    Its one measure is ``score_many``: the squared error of a reconstruction
    decoded from a fresh posterior sample. Calibration takes one such score
    per example and detection N per frame, so both sides of a p-value come
    from the same measure.
    """

    kind = "vae"

    def __init__(self, model: VaeModel):
        self.model = model

    def score_many(self, block: Array, count: int, rng: np.random.Generator) -> Array:
        """One squared error per sampled reconstruction of each row of a
        block ``(B, D)``, as ``(B, count)``."""
        return self._score_many(check_examples(block, "example", self.model.input_dim), count, rng)

    def _score_many(self, block: Array, count: int, rng: np.random.Generator) -> Array:
        """``score_many`` on a block that ``check_examples`` has passed."""
        diff = sample_reconstructions(self.model, block, count, rng)
        np.subtract(block[:, None, :], diff, out=diff)
        diff *= diff
        return diff.sum(axis=2)

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

    def score(self, block: Array) -> Array:
        """Squared distance of each mapped row of a block ``(B, D)`` from the
        frozen center, as ``(B,)``."""
        return self._score(check_examples(block, "example", self.model.input_dim))

    def _score(self, block: Array) -> Array:
        """``score`` on a block that ``check_examples`` has passed."""
        diff = infer(self.model.mapper, block) - self.model.center
        return (diff * diff).sum(axis=1)

    def fingerprint(self) -> bytes:
        return _hash_chunks(
            b"svdd",
            _mlp_signature(self.model.mapper),
            self.model.center.astype("<f8").tobytes(),
        )
