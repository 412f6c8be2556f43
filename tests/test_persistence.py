"""Round-trip exactness and structured failure modes of the binary formats."""

import os
import stat
import struct

import numpy as np
import pytest

from icad.conformal import CalibrationSet, FingerprintMismatchError
from icad.models import SvddModel, VaeModel, svdd_init_center
from icad.neural import BLOCK_ROWS
from icad.nonconformity import SvddScorer
from icad.persistence import (
    BadMagicError,
    DatasetBlocks,
    FormatError,
    PersistenceError,
    TruncatedPayloadError,
    UnsortedScoresError,
    VersionMismatchError,
    load_calibration,
    load_config,
    load_dataset,
    load_model,
    save_calibration,
    save_config,
    save_dataset,
    save_dataset_blocks,
    save_model,
)

from conftest import one_value_center, traced_peak_mb, zero_width_svdd


def _random_svdd(seed):
    rng = np.random.default_rng(seed)
    model = SvddModel.build(5, output_dim=3, hidden=(6, 4), weight_decay=1e-3, seed=seed)
    svdd_init_center(model, rng.normal(size=(8, 5)))
    return model


def _random_vae(seed):
    return VaeModel.build(6, latent_dim=2, hidden=(5, 4), seed=seed)


def test_svdd_round_trip_is_bit_exact(tmp_path):
    for seed in range(10):
        model = _random_svdd(seed)
        path = tmp_path / f"svdd_{seed}.icad"
        save_model(path, model)
        loaded = load_model(path)
        assert isinstance(loaded, SvddModel)
        assert loaded.weight_decay == model.weight_decay
        assert np.array_equal(loaded.center, model.center)
        for a, b in zip(model.mapper.layers, loaded.mapper.layers):
            assert np.array_equal(a.weights.astype("<f4"), b.weights.astype("<f4"))
            assert b.bias is None
        # a second save of the loaded model reproduces the bytes exactly
        path2 = tmp_path / f"svdd_{seed}_again.icad"
        save_model(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()


def test_vae_round_trip_preserves_structure(tmp_path):
    for seed in range(5):
        model = _random_vae(seed)
        path = tmp_path / f"vae_{seed}.icad"
        save_model(path, model)
        loaded = load_model(path)
        assert isinstance(loaded, VaeModel)
        assert loaded.latent_dim == model.latent_dim
        assert len(loaded.encoder.layers) == len(model.encoder.layers)
        assert len(loaded.decoder.layers) == len(model.decoder.layers)
        for a, b in zip(
            model.encoder.layers + model.decoder.layers,
            loaded.encoder.layers + loaded.decoder.layers,
        ):
            assert np.array_equal(a.weights.astype("<f4"), b.weights.astype("<f4"))
            assert np.array_equal(a.bias.astype("<f4"), b.bias.astype("<f4"))
            assert a.activation == b.activation


def test_model_loaded_fingerprint_matches_saved(tmp_path):
    model = _random_svdd(3)
    path = tmp_path / "m.icad"
    save_model(path, model)
    assert SvddScorer(load_model(path)).fingerprint() == SvddScorer(model).fingerprint()


def test_load_model_traced_peak_holds_the_file_and_one_parameter_vector(tmp_path):
    # the benchmark's 256-512-64 mapper: its parameters are read straight into
    # the network's vector, not first into per-layer arrays
    model = SvddModel.build(256, output_dim=64, hidden=(512,), seed=1)
    svdd_init_center(model, np.random.default_rng(1).normal(size=(4, 256)))
    path = tmp_path / "m.icad"
    save_model(path, model)
    bound = 1.1 * (path.stat().st_size + model.mapper.flat.nbytes) / 1e6
    assert traced_peak_mb(lambda: load_model(path)) <= bound


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 7))
    r = rng.uniform(0, 20, size=20)
    path = tmp_path / "data.icad"
    save_dataset(path, x, r)
    x2, r2 = load_dataset(path)
    assert np.array_equal(x.astype("<f4").astype(np.float64), x2)
    assert np.array_equal(r, r2)
    # without corruption levels
    save_dataset(path, x)
    _, r3 = load_dataset(path)
    assert r3 is None


@pytest.mark.parametrize("count", [1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 7])
def test_dataset_blocks_concatenate_to_the_loaded_array(tmp_path, count):
    rng = np.random.default_rng(count)
    path = tmp_path / "data.icad"
    save_dataset(path, rng.normal(size=(count, 3)), rng.uniform(0, 20, size=count))
    blocks = DatasetBlocks(path)
    assert (len(blocks), blocks.dim) == (count, 3)
    got = list(blocks)
    # full blocks counted from the first example, the remainder last
    assert [len(b) for b in got[:-1]] == [BLOCK_ROWS] * (len(got) - 1)
    assert all(b.dtype == np.float64 for b in got)
    x, r = load_dataset(path)
    assert np.concatenate(got).tobytes() == x.tobytes()
    assert np.array_equal(blocks.r_values(), r)
    assert [b.tobytes() for b in blocks] == [b.tobytes() for b in got]  # iterates again


def _load_error(loader, path):
    with pytest.raises(PersistenceError) as info:
        loader(path)
    return type(info.value), str(info.value)


def test_dataset_blocks_refuse_a_bad_file_before_the_first_block(tmp_path):
    # construction raises, so no block is ever yielded; the error's type and
    # text are load_dataset's
    path = tmp_path / "f.icad"
    loader = _write_small_file("dataset", path)
    raw = path.read_bytes()
    bad = {f"cut at {cut}": (raw[:cut], TruncatedPayloadError) for cut in range(len(raw))}
    bad["bad magic"] = (b"NOTMAGIC" + raw[8:], BadMagicError)
    bad["trailing bytes"] = (raw + b"\0\0", FormatError)
    for name, (content, error) in bad.items():
        path.write_bytes(content)
        got = _load_error(DatasetBlocks, path)
        assert got[0] is error and got == _load_error(loader, path), name


def test_calibration_round_trip(tmp_path):
    scores = np.sort(np.random.default_rng(2).normal(size=30))
    cal = CalibrationSet(scores, "svdd", b"12345678")
    path = tmp_path / "cal.icad"
    save_calibration(path, cal)
    loaded = load_calibration(path)
    assert np.array_equal(loaded.scores, cal.scores)
    # p_value's search sequence comes with the load, as Python floats
    assert loaded.score_tuple == tuple(cal.scores.tolist())
    assert all(type(x) is float for x in loaded.score_tuple)
    assert loaded.scorer_kind == "svdd"
    assert loaded.fingerprint == b"12345678"


def test_bad_magic_is_distinct_error(tmp_path):
    path = tmp_path / "junk.icad"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
    with pytest.raises(BadMagicError):
        load_model(path)
    with pytest.raises(BadMagicError):
        load_calibration(path)
    with pytest.raises(BadMagicError):
        load_dataset(path)


def test_version_mismatch_detected(tmp_path):
    model = _random_svdd(4)
    path = tmp_path / "m.icad"
    save_model(path, model)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError):
        load_model(path)


def test_truncated_payload_detected(tmp_path):
    model = _random_svdd(5)
    path = tmp_path / "m.icad"
    save_model(path, model)
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])
    with pytest.raises(TruncatedPayloadError):
        load_model(path)


def test_trailing_bytes_rejected(tmp_path):
    model = _random_svdd(6)
    path = tmp_path / "m.icad"
    save_model(path, model)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError):
        load_model(path)


def test_unsorted_calibration_rejected_at_load(tmp_path):
    cal = CalibrationSet(np.array([1.0, 2.0]), "knn", b"abcdefgh")
    path = tmp_path / "cal.icad"
    save_calibration(path, cal)
    raw = bytearray(path.read_bytes())
    # swap the two little-endian doubles at the tail
    raw[-16:] = raw[-8:] + raw[-16:-8]
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsortedScoresError):
        load_calibration(path)


def test_fingerprint_enforced_against_scorer(tmp_path):
    model = _random_svdd(7)
    scorer = SvddScorer(model)
    cal = CalibrationSet(np.array([0.5, 1.5]), "svdd", scorer.fingerprint())
    path = tmp_path / "cal.icad"
    save_calibration(path, cal)
    loaded = load_calibration(path)
    loaded.check_scorer(scorer)
    with pytest.raises(FingerprintMismatchError):
        loaded.check_scorer(SvddScorer(_random_svdd(8)))


def test_save_rejects_uninitialized_svdd(tmp_path):
    model = SvddModel.build(4, output_dim=2, hidden=(3,), seed=0)
    with pytest.raises(FormatError):
        save_model(tmp_path / "m.icad", model)


def test_save_dataset_validates_shapes(tmp_path):
    with pytest.raises(FormatError):
        save_dataset(tmp_path / "d.icad", np.zeros((0, 3)))
    with pytest.raises(FormatError):
        save_dataset(tmp_path / "d.icad", np.zeros((3, 2)), np.zeros(2))


def test_config_round_trip(tmp_path):
    path = tmp_path / "run.txt"
    save_config(path, {"tau": 14.0, "n": 10, "model": "m.icad"})
    loaded = load_config(path)
    assert loaded == {"tau": "14.0", "n": "10", "model": "m.icad"}
    path.write_text("# comment\n\nkey = value with = sign\n")
    assert load_config(path) == {"key": "value with = sign"}
    path.write_text("no separator here\n")
    with pytest.raises(FormatError):
        load_config(path)
    # a repeated key is as likely a slip as an unknown one, so neither copy wins
    path.write_text("tau=3\n# comment\n tau = 10\n")
    with pytest.raises(FormatError, match=r"run.txt:3: key 'tau' repeats line 1"):
        load_config(path)


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "d.icad"
    save_dataset(path, np.ones((2, 2)))
    save_dataset(path, np.zeros((3, 2)))
    x, _ = load_dataset(path)
    assert x.shape == (3, 2)
    assert not list(tmp_path.glob("d.icad.*"))  # no temp files left behind


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=["022", "077", "002"])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        save_dataset(tmp_path / "d.icad", np.ones((2, 2)))
        save_config(tmp_path / "run.txt", {"seed": 1})
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(previous)
    for name in ("d.icad", "run.txt", "plain.txt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


def _write_small_file(kind, path):
    """Write a small file of one format; returns its loader."""
    if kind == "dataset":
        rng = np.random.default_rng(11)
        save_dataset(path, rng.normal(size=(3, 4)), rng.uniform(0, 20, size=3))
        return load_dataset
    if kind == "calibration":
        save_calibration(path, CalibrationSet(np.arange(5.0), "svdd", b"abcdefgh"))
        return load_calibration
    save_model(path, _random_svdd(12) if kind == "svdd_model" else _random_vae(12))
    return load_model


@pytest.mark.parametrize("kind", ["dataset", "calibration", "svdd_model", "vae_model"])
def test_truncation_at_every_offset_raises_persistence_error(tmp_path, kind):
    path = tmp_path / "f.icad"
    loader = _write_small_file(kind, path)
    raw = path.read_bytes()
    loader(path)
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(PersistenceError):  # any other exception fails the test
            loader(path)


# a model file's offset 16 is its first layer's in-dim
@pytest.mark.parametrize("kind,offset", [("dataset", 8), ("dataset", 12), ("calibration", 17),
                                         ("svdd_model", 16)])
def test_corrupted_count_raises_truncation_before_allocating(tmp_path, kind, offset):
    path = tmp_path / "f.icad"
    loader = _write_small_file(kind, path)
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 4] = (0xFFFFFFFF).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(TruncatedPayloadError):
        loader(path)


def test_dataset_blocks_write_the_same_bytes(tmp_path):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(1300, 6))
    r = rng.uniform(0, 20, size=1300)
    whole, blocked = tmp_path / "whole.icad", tmp_path / "blocked.icad"
    save_dataset(whole, x, r)
    save_dataset_blocks(blocked, (x[i : i + 7] for i in range(0, 1300, 7)), 1300, 6, r)
    assert blocked.read_bytes() == whole.read_bytes()
    assert len(whole.read_bytes()) == 8 + 9 + 1300 * 6 * 4 + 1300 * 8


@pytest.mark.parametrize("blocks", [[np.zeros((2, 3))], [np.zeros((2, 3))] * 3, [np.zeros((4, 2))]])
def test_dataset_blocks_must_match_declared_shape(tmp_path, blocks):
    path = tmp_path / "d.icad"
    with pytest.raises(FormatError):
        save_dataset_blocks(path, iter(blocks), 4, 3)
    assert not list(tmp_path.iterdir())  # neither the file nor a temp file


_LAYERS_AT = 16  # model file: magic, format version, layer count, then layer descriptors


def _set(raw, offset, fmt, value):
    raw = bytearray(raw)
    struct.pack_into(fmt, raw, offset, value)
    return bytes(raw)


def _layer_count(raw):
    return struct.unpack_from("<I", raw, 12)[0]


def _model_kind_at(raw):
    return _LAYERS_AT + struct.calcsize("<IIBB") * _layer_count(raw)


_MALFORMED = {
    "model-without-layers": ("vae_model", lambda raw: _set(raw, 12, "<I", 0), "no layers"),
    "unknown-activation": ("vae_model", lambda raw: _set(raw, _LAYERS_AT + 8, "<B", 200),
                           "unknown activation code 200"),
    # the first code past neural.ACTIVATIONS
    "former-sigmoid-activation": ("vae_model", lambda raw: _set(raw, _LAYERS_AT + 8, "<B", 3),
                                  "unknown activation code 3"),
    "vae-encoder-without-layers": ("vae_model",
                                   lambda raw: _set(raw, _model_kind_at(raw) + 1, "<I", 0),
                                   "bad encoder layer count 0"),
    "vae-encoder-with-every-layer": ("vae_model",
                                     lambda raw: _set(raw, _model_kind_at(raw) + 1, "<I",
                                                      _layer_count(raw)),
                                     "bad encoder layer count 6"),
    "unknown-model-kind": ("svdd_model", lambda raw: _set(raw, _model_kind_at(raw), "<B", 3),
                           "unknown model kind 3"),
    "svdd-center-of-wrong-length": ("svdd_model", one_value_center,
                                    "SVDD center has 1 values, mapper outputs 3"),
    "zero-width-layer": ("svdd_model", zero_width_svdd,
                         r"f\.icad: layer 0 maps 5 -> 0: dimensions must be positive"),
    # the last f32 of the payload, an SVDD mapper weight
    "non-finite-parameter": ("svdd_model", lambda raw: _set(raw, len(raw) - 4, "<f", -np.inf),
                             r"f\.icad: model parameters must be finite"),
    "non-finite-svdd-center": ("svdd_model",
                               lambda raw: _set(raw, _model_kind_at(raw) + 13, "<d", np.nan),
                               r"f\.icad: SVDD center must be finite"),
    "unknown-scorer-code": ("calibration", lambda raw: _set(raw, 8, "<B", 9),
                            "unknown scorer code 9"),
    "empty-calibration": ("calibration", lambda raw: _set(raw, 17, "<I", 0),
                          "empty calibration set"),
    # the third of five scores, after the 21-byte header
    "non-finite-calibration-score": ("calibration", lambda raw: _set(raw, 37, "<d", np.nan),
                                     r"f\.icad: calibration scores must be finite"),
    "empty-dataset": ("dataset", lambda raw: _set(raw, 8, "<I", 0), "empty dataset"),
    "dataset-trailing-bytes": ("dataset", lambda raw: raw + b"\0", "1 bytes of trailing data"),
}


@pytest.mark.parametrize("kind,edit,message", _MALFORMED.values(), ids=list(_MALFORMED))
def test_malformed_header_raises_format_error(tmp_path, kind, edit, message):
    path = tmp_path / "f.icad"
    loader = _write_small_file(kind, path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError, match=message):
        loader(path)


_SAVE_ERRORS = {
    "model-of-unknown-type": (lambda path: save_model(path, object()),
                              "unsupported model type object"),
    "calibration-of-unknown-kind": (lambda path: save_calibration(
        path, CalibrationSet(np.ones(2), "lof", bytes(8))), "unknown scorer kind 'lof'"),
    "dataset-of-zero-rows": (lambda path: save_dataset_blocks(path, [], 0, 4),
                             "dataset must be a nonempty 2-D array"),
}


@pytest.mark.parametrize("save,message", _SAVE_ERRORS.values(), ids=list(_SAVE_ERRORS))
def test_save_rejects_what_it_cannot_write(tmp_path, save, message):
    with pytest.raises(FormatError, match=message):
        save(tmp_path / "f.icad")
    assert not list(tmp_path.iterdir())
