"""Bit-exact binary serialization for models, calibration sets, and datasets.

All multi-byte values are little-endian. Three formats, each opened by an
8-byte magic string:

ModelFile ("ICADMDL1")
    magic, format version (u32), layer count (u32), then per layer
    in-dim (u32), out-dim (u32), activation code (u8), bias flag (u8);
    model kind (u8: 1=vae, 2=svdd); kind extras — vae: encoder layer count
    (u32) and latent dim (u32); svdd: weight decay (f64), center length
    (u32) and center values (f64); finally the parameter payload: each
    network's ``Mlp.flat`` as f32, the VAE's encoder before its decoder,
    which is every layer's weights row-major and then its bias, in layer
    order. A load checks the payload's length before it allocates any
    network, and refuses a non-finite parameter or center value.

CalibrationFile ("ICADCAL1")
    magic, scorer kind code (u8: 1=knn, 2=kde, 3=vae, 4=svdd), scorer
    fingerprint (8 bytes), count (u32), sorted scores as f64. Scores stay at
    full precision because p-value boundaries are tie-sensitive. Codes 1
    and 2 name scorers the package no longer has; they stay so that older
    calibration files load, and a pipeline refuses them.

DatasetFile ("ICADDAT1")
    magic, count (u32), dimension (u32), corruption-level flag (u8),
    examples as f32 row-major, then (if flagged) one f64 level per example.

Writes go to a temp file in the target directory, part after part without
joining the parts into one buffer, and are renamed into place. Model and
calibration reads parse the file's bytes through a memoryview, so no
section is copied before it is decoded; dataset reads go from the file a
block of rows at a time (``DatasetBlocks``). A plain key=value text format
carries run configuration.
"""

from __future__ import annotations

import os
import secrets
import struct
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .conformal import CalibrationSet
from .models import SvddModel, VaeModel
from .neural import ACTIVATIONS, BLOCK_ROWS, Array, Mlp, layer_descriptor

MAGIC_MODEL = b"ICADMDL1"
MAGIC_CALIBRATION = b"ICADCAL1"
MAGIC_DATASET = b"ICADDAT1"
FORMAT_VERSION = 1

MODEL_KIND_VAE = 1
MODEL_KIND_SVDD = 2

SCORER_CODES = {"knn": 1, "kde": 2, "vae": 3, "svdd": 4}
SCORER_NAMES = {v: k for k, v in SCORER_CODES.items()}


class PersistenceError(Exception):
    """A file could not be read or written in its binary format."""


class BadMagicError(PersistenceError):
    """The file does not open with the expected magic string."""


class VersionMismatchError(PersistenceError):
    """The file was written in another format version."""


class TruncatedPayloadError(PersistenceError):
    """The file ends before its header says it should."""


class UnsortedScoresError(PersistenceError):
    """A calibration file's scores are not sorted ascending."""


class FormatError(PersistenceError):
    """A header field, the file's length or the data to write breaks the format."""


_DATASET_HEADER_SIZE = len(MAGIC_DATASET) + struct.calcsize("<IIB")


def _atomic_write(path: str | Path, parts: Iterable) -> None:
    """Write the parts (C-contiguous buffers) in order, then rename into place.

    ``parts`` may be a generator; if it raises, no file appears at ``path``.
    The temporary file is ``path`` plus a random suffix, created with mode
    0666 under the umask as ``open`` creates files (``tempfile.mkstemp``
    would leave every output 0600).
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes, what: str):
        self.data = memoryview(data)
        self.pos = 0
        self.what = what

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise TruncatedPayloadError(
                f"{self.what}: expected {n} more bytes at offset {self.pos}, "
                f"file has {len(self.data)}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{self.what}: {len(self.data) - self.pos} bytes of trailing data")


def _read_nets(reader: _Reader, groups: list[list[tuple]], path: str | Path) -> list[Mlp]:
    """One network per group of layer descriptors, each ``flat`` read from
    the f32 payload that ends the file.

    The payload's length is checked before any network is allocated, so a
    corrupt dimension raises rather than allocating, and the payload is
    checked once for non-finite values.
    """
    descriptors = [d for group in groups for d in group]
    for *_, code, _ in descriptors:
        if code >= len(ACTIVATIONS):
            raise FormatError(f"unknown activation code {code}")
    size = sum(i * o + (o if b else 0) for i, o, _, b in descriptors)
    payload = np.frombuffer(reader.take(4 * size), dtype="<f4")
    reader.done()
    # a float64 sum of f32 values cannot overflow, so it is finite iff they all are
    if not np.isfinite(payload.sum(dtype=np.float64)):
        raise FormatError(f"{path}: model parameters must be finite")
    nets, start = [], 0
    for group in groups:
        try:
            net = Mlp([(i, o, ACTIVATIONS[code], b) for i, o, code, b in group])
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
        net.flat[:] = payload[start : start + net.flat.size]
        start += net.flat.size
        nets.append(net)
    return nets


def save_model(path: str | Path, model: VaeModel | SvddModel) -> None:
    if isinstance(model, VaeModel):
        nets = [model.encoder, model.decoder]
        kind = MODEL_KIND_VAE
        extras = struct.pack("<II", len(model.encoder.layers), model.latent_dim)
    elif isinstance(model, SvddModel):
        if model.center is None:
            raise FormatError("cannot save an SVDD model without an initialized center")
        nets = [model.mapper]
        kind = MODEL_KIND_SVDD
        center = np.asarray(model.center, dtype="<f8")
        extras = struct.pack("<dI", model.weight_decay, center.size) + center.tobytes()
    else:
        raise FormatError(f"unsupported model type {type(model).__name__}")
    layers = [layer for net in nets for layer in net.layers]
    parts = [MAGIC_MODEL, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(layers))]
    parts.extend(layer_descriptor(layer) for layer in layers)
    parts += [struct.pack("<B", kind), extras]
    parts.extend(net.flat.astype("<f4") for net in nets)
    _atomic_write(path, parts)


def load_model(path: str | Path) -> VaeModel | SvddModel:
    reader = _Reader(Path(path).read_bytes(), f"model file {path}")
    if reader.take(8) != MAGIC_MODEL:
        raise BadMagicError(f"{path} is not a model file")
    (version,) = reader.unpack("<I")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    (layer_count,) = reader.unpack("<I")
    if layer_count < 1:
        raise FormatError(f"{path}: model has no layers")
    descriptors = [reader.unpack("<IIBB") for _ in range(layer_count)]
    (kind,) = reader.unpack("<B")
    if kind == MODEL_KIND_VAE:
        enc_count, latent_dim = reader.unpack("<II")
        if not 0 < enc_count < layer_count:
            raise FormatError(f"{path}: bad encoder layer count {enc_count}")
        encoder, decoder = _read_nets(
            reader, [descriptors[:enc_count], descriptors[enc_count:]], path)
        return VaeModel(encoder, decoder, latent_dim)
    if kind == MODEL_KIND_SVDD:
        weight_decay, center_len = reader.unpack("<dI")
        if center_len != descriptors[-1][1]:
            raise FormatError(
                f"{path}: SVDD center has {center_len} values, mapper outputs {descriptors[-1][1]}"
            )
        center = np.frombuffer(reader.take(center_len * 8), dtype="<f8").astype(np.float64)
        if not np.isfinite(center).all():
            raise FormatError(f"{path}: SVDD center must be finite")
        (mapper,) = _read_nets(reader, [descriptors], path)
        model = SvddModel(mapper, weight_decay)
        center.setflags(write=False)
        model.center = center
        return model
    raise FormatError(f"{path}: unknown model kind {kind}")


def save_calibration(path: str | Path, cal: CalibrationSet) -> None:
    if cal.scorer_kind not in SCORER_CODES:
        raise FormatError(f"unknown scorer kind {cal.scorer_kind!r}")
    parts = [
        MAGIC_CALIBRATION,
        struct.pack("<B", SCORER_CODES[cal.scorer_kind]),
        cal.fingerprint,
        struct.pack("<I", len(cal)),
        np.ascontiguousarray(cal.scores, dtype="<f8"),
    ]
    _atomic_write(path, parts)


def load_calibration(path: str | Path) -> CalibrationSet:
    """Read a calibration file; the pipeline built on it checks the binding."""
    reader = _Reader(Path(path).read_bytes(), f"calibration file {path}")
    if reader.take(8) != MAGIC_CALIBRATION:
        raise BadMagicError(f"{path} is not a calibration file")
    (code,) = reader.unpack("<B")
    if code not in SCORER_NAMES:
        raise FormatError(f"{path}: unknown scorer code {code}")
    fingerprint = bytes(reader.take(8))
    (count,) = reader.unpack("<I")
    if count < 1:
        raise FormatError(f"{path}: empty calibration set")
    # a view into the file's bytes; CalibrationSet keeps its own copy
    scores = np.frombuffer(reader.take(count * 8), dtype="<f8")
    reader.done()
    if not np.isfinite(scores).all():
        raise FormatError(f"{path}: calibration scores must be finite")
    if np.any(np.diff(scores) < 0):
        raise UnsortedScoresError(f"{path}: calibration scores are not sorted")
    return CalibrationSet(scores, SCORER_NAMES[code], fingerprint)


def save_dataset(path: str | Path, examples: Array, r_values: Array | None = None) -> None:
    examples = np.asarray(examples, dtype=np.float64)
    if examples.ndim != 2 or examples.shape[0] < 1:
        raise FormatError("dataset must be a nonempty 2-D array")
    count, dim = examples.shape
    save_dataset_blocks(path, [examples], count, dim, r_values)


def save_dataset_blocks(
    path: str | Path,
    blocks: Iterable[Array],
    count: int,
    dim: int,
    r_values: Array | None = None,
) -> None:
    """Write a dataset whose ``count`` examples arrive as consecutive row blocks.

    The bytes equal ``save_dataset`` of the stacked blocks. Each block is
    converted and written before the next is taken, so a lazy ``blocks``
    (see ``episodes.iter_dataset``) is written without the whole dataset in
    memory.
    """
    if count < 1 or dim < 1:
        raise FormatError("dataset must be a nonempty 2-D array")
    has_r = r_values is not None
    if has_r:
        r_arr = np.ascontiguousarray(r_values, dtype="<f8")
        if r_arr.shape != (count,):
            raise FormatError("need one corruption level per example")

    def parts():
        yield MAGIC_DATASET
        yield struct.pack("<IIB", count, dim, 1 if has_r else 0)
        rows = 0
        for block in blocks:
            block = np.ascontiguousarray(np.asarray(block, dtype=np.float64), dtype="<f4")
            if block.ndim != 2 or block.shape[1] != dim:
                raise FormatError(f"dataset block of shape {block.shape}, expected (rows, {dim})")
            rows += block.shape[0]
            if rows > count:
                raise FormatError(f"dataset blocks hold more than {count} rows")
            yield block
        if rows != count:
            raise FormatError(f"dataset blocks hold {rows} rows, expected {count}")
        if has_r:
            yield r_arr

    _atomic_write(path, parts())


def _read_exact(fh, out: Array, what: str) -> None:
    """Fill the C-contiguous array ``out`` with the file's next bytes."""
    got = fh.readinto(memoryview(out).cast("B"))
    if got != out.nbytes:
        raise TruncatedPayloadError(f"{what}: expected {out.nbytes} more bytes, got {got}")


class DatasetBlocks:
    """A dataset file's examples as float64 blocks of ``BLOCK_ROWS`` rows,
    counted from the file's first example; the last block may be shorter.

    Construction reads the header and checks it against the file's length,
    so a bad magic, a truncated file or trailing bytes raise here, before any
    block. ``len()`` is the example count and ``dim`` the width. Each
    iteration opens the file again and reads one block at a time through one
    f32 buffer, so a reader holds one block, however long the file.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self._what = f"dataset file {path}"
        self._open().close()

    def _open(self):
        """The file, its header checked against its length, positioned at
        the first example; sets ``count``, ``dim`` and ``has_r``."""
        fh = open(self.path, "rb")
        try:
            reader = _Reader(fh.read(_DATASET_HEADER_SIZE), self._what)
            if reader.take(8) != MAGIC_DATASET:
                raise BadMagicError(f"{self.path} is not a dataset file")
            count, dim, has_r = reader.unpack("<IIB")
            if count < 1 or dim < 1:
                raise FormatError(f"{self.path}: empty dataset")
            expected = _DATASET_HEADER_SIZE + count * dim * 4 + (count * 8 if has_r else 0)
            size = os.fstat(fh.fileno()).st_size
            if size < expected:
                raise TruncatedPayloadError(
                    f"{self._what}: expected {expected} bytes, file has {size}")
            if size > expected:
                raise FormatError(f"{self._what}: {size - expected} bytes of trailing data")
        except BaseException:
            fh.close()
            raise
        self.count, self.dim, self.has_r = count, dim, bool(has_r)
        return fh

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        with self._open() as fh:
            buf = np.empty((min(self.count, BLOCK_ROWS), self.dim), dtype="<f4")
            for lo in range(0, self.count, BLOCK_ROWS):
                block = buf[: self.count - lo]
                _read_exact(fh, block, self._what)
                yield block.astype(np.float64)

    def r_values(self) -> Array | None:
        """The corruption level of each example, or None if the file has none."""
        if not self.has_r:
            return None
        with self._open() as fh:
            fh.seek(self.count * self.dim * 4, os.SEEK_CUR)
            r = np.empty(self.count, dtype="<f8")
            _read_exact(fh, r, self._what)
        return r.astype(np.float64, copy=False)


def load_dataset(path: str | Path) -> tuple[Array, Array | None]:
    """Read a dataset file: the blocks of ``DatasetBlocks`` written into one
    float64 array, so neither the file's bytes nor a whole f32 copy is held."""
    blocks = DatasetBlocks(path)
    x = np.empty((len(blocks), blocks.dim))
    lo = 0
    for block in blocks:
        x[lo : lo + len(block)] = block
        lo += len(block)
    return x, blocks.r_values()


def save_config(path: str | Path, config: Mapping[str, object]) -> None:
    lines = [f"{key}={config[key]}" for key in sorted(config)]
    _atomic_write(path, [("\n".join(lines) + "\n").encode()])


def load_config(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise FormatError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value
    return out
