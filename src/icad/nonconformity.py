"""Nonconformity scorers: how strange is an example relative to training data?

Two implementations, the paper's learned measures: VAE reconstruction
error and SVDD distance-to-center. Every scorer is immutable after
construction, returns a finite nonnegative score for finite input, and
carries an 8-byte fingerprint that binds calibration files to the exact
scorer that produced them. The SVDD score is deterministic (``score``); the
VAE's one score is of a sampled reconstruction (``score_many``), for
calibration and detection alike.

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

from .models import SvddModel, VaeModel, sample_reconstructions
from .neural import Array, Mlp, check_examples, layer_descriptor, layer_payload


def _check_frames(z: Array, dim: int) -> tuple[Array, Callable]:
    """A frame ``(D,)`` as its one-row block, or a block ``(B, D)``, checked
    by ``check_examples``, and the way back from the block's scores: a frame
    gets row 0 as a float or a list, a block gets them as is."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        return check_examples(z[None], "example", dim), lambda scores: scores[0].tolist()
    return check_examples(z, "example", dim), lambda scores: scores


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

    def score_many(self, z: Array, count: int, rng: np.random.Generator) -> list[float] | Array:
        """One squared error per sampled reconstruction: a list of ``count``
        scores for one example, ``(B, count)`` scores for a block."""
        z, back = _check_frames(z, self.model.input_dim)
        return back(self._score_many(z, count, rng))

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

    def score(self, z: Array) -> float | Array:
        """Squared distance of each mapped example from the frozen center."""
        z, back = _check_frames(z, self.model.input_dim)
        return back(self._score(z))

    def _score(self, block: Array) -> Array:
        """``score`` on a block that ``check_examples`` has passed."""
        diff = self.model.represent(block) - self.model.center
        return (diff * diff).sum(axis=1)

    def fingerprint(self) -> bytes:
        return _hash_chunks(
            b"svdd",
            _mlp_signature(self.model.mapper),
            self.model.center.astype("<f8").tobytes(),
        )
