"""Scorer correctness against brute-force oracles, plus the shared invariants:
nonnegativity, finiteness, permutation invariance, and statistical separation."""

import hashlib

import numpy as np
import pytest

from icad.models import SvddModel, VaeModel, sample_reconstructions, svdd_init_center
from icad.neural import forward, infer
from icad.nonconformity import SvddScorer, VaeScorer
from icad.persistence import save_model

from conftest import mlp_of, untrained_scorers

# ---------------------------------------------------------------- vae / svdd

def _affine_vae(encoder_weights, decoder_weights, decoder_bias):
    # one identity layer each way and a posterior sigma of e^-100, whose
    # noise vanishes against the mean, so a sampled reconstruction is known
    # in closed form
    dim, d = decoder_weights.shape
    encoder = mlp_of((np.vstack([encoder_weights, np.zeros((d, dim))]),
                      np.concatenate([np.zeros(d), np.full(d, -200.0)]), "identity"))
    decoder = mlp_of((decoder_weights, decoder_bias, "identity"))
    return VaeScorer(VaeModel(encoder, decoder, d))


def _sampled(scorer, z, count=3):
    return scorer.score_many(z[None], count, np.random.default_rng(0))[0].tolist()


def test_vae_score_identical_is_zero():
    scorer = _affine_vae(np.eye(2), np.eye(2), np.zeros(2))
    assert _sampled(scorer, np.array([0.1, 0.2])) == [0.0] * 3


def test_vae_score_hand_case():
    scorer = _affine_vae(np.zeros((1, 2)), np.zeros((2, 1)), np.array([0.0, 1.0]))
    assert _sampled(scorer, np.array([1.0, 0.0])) == pytest.approx([2.0] * 3)


def test_vae_score_elementwise_oracle():
    rng = np.random.default_rng(5)
    z, w = rng.normal(size=4), rng.normal(size=4)
    scorer = _affine_vae(np.zeros((1, 4)), np.zeros((4, 1)), w)
    assert _sampled(scorer, z) == [sum((a - b) ** 2 for a, b in zip(z, w))] * 3


def test_vae_score_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension 3, expected 4"):
        _sampled(_affine_vae(np.eye(4), np.eye(4), np.zeros(4)), np.zeros(3))


def test_svdd_score_identity_mapper():
    model = SvddModel(mlp_of((np.eye(2), None, "identity")), weight_decay=0.0)
    model.center = np.array([0.0, 0.0])
    assert SvddScorer(model).score(np.array([3.0, 4.0])[None])[0] == pytest.approx(25.0)


def test_svdd_score_zero_at_center_preimage():
    model = SvddModel(mlp_of((np.eye(2), None, "identity")), weight_decay=0.0)
    model.center = np.array([1.0, -2.0])
    assert SvddScorer(model).score(np.array([1.0, -2.0])[None])[0] == 0.0


def test_svdd_score_requires_center():
    model = SvddModel.build(2, output_dim=2, hidden=(4,), seed=0)
    with pytest.raises(RuntimeError, match="center is not initialized"):
        SvddScorer(model)


def _loop_forward(net, h):
    # independent forward pass written with explicit loops
    for layer in net.layers:
        pre = np.array([float(np.dot(row, h)) for row in layer.weights])
        if layer.bias is not None:
            pre = pre + layer.bias
        if layer.activation == "elu":
            h = np.array([v if v >= 0 else np.expm1(v) for v in pre])
        elif layer.activation == "identity":
            h = pre
        else:
            raise AssertionError(layer.activation)
    return h


def _squared_error(z, reconstruction):
    diff = z - reconstruction
    return float((diff * diff).sum())


def test_svdd_score_matches_reimplemented_forward(toy_svdd):
    model, _, _ = toy_svdd
    z = np.random.default_rng(6).normal(size=2)
    expected = float(((_loop_forward(model.mapper, z) - model.center) ** 2).sum())
    assert abs(SvddScorer(model).score(z[None])[0] - expected) < 1e-9


def test_vae_score_matches_reimplemented_forward(toy_vae):
    model, _ = toy_vae
    d = model.latent_dim
    z = np.random.default_rng(6).normal(size=2)
    posterior = _loop_forward(model.encoder, z)
    noise = np.random.default_rng(7).standard_normal((4, d))
    expected = [_squared_error(z, _loop_forward(model.decoder, posterior[:d]
                                                + np.exp(0.5 * posterior[d:]) * eps))
                for eps in noise]
    got = VaeScorer(model).score_many(z[None], 4, np.random.default_rng(7))[0]
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-9)


# ---------------------------------------------------------------- shared invariants

def test_scores_nonnegative_and_finite(toy_vae, toy_svdd):
    rng = np.random.default_rng(7)
    vae_model, _ = toy_vae
    svdd_model, _, _ = toy_svdd
    scorers = {
        "vae": lambda z: VaeScorer(vae_model).score_many(z, 3, rng),
        "svdd": SvddScorer(svdd_model).score,
    }
    for kind, score in scorers.items():
        for _ in range(25):
            s = np.asarray(score(rng.normal(scale=5.0, size=2)[None])[0])
            assert np.all(np.isfinite(s)) and np.all(s >= 0.0), kind


def test_scorers_reject_non_finite_examples():
    scorers = untrained_scorers(2)
    for bad in (np.array([np.nan, 0.0]), np.array([0.0, -np.inf])):
        with pytest.raises(ValueError, match="non-finite"):
            _sampled(scorers["vae"], bad)
        with pytest.raises(ValueError, match="non-finite"):
            scorers["svdd"].score(bad[None])


def test_permutation_invariance():
    # the SVDD center is the mean of the mapped training set, so the set's
    # order moves a score in the last bits at most
    rng = np.random.default_rng(8)
    train = rng.normal(size=(25, 2))
    z = rng.normal(size=2)
    scores = []
    for rows in (train, train[rng.permutation(25)]):
        model = SvddModel.build(2, output_dim=3, hidden=(8,), seed=1)
        svdd_init_center(model, rows)
        scores.append(SvddScorer(model).score(z[None])[0])
    assert scores[0] == pytest.approx(scores[1], rel=1e-12, abs=0.0)


def test_fingerprints_distinguish_scorers():
    vaes = [VaeModel.build(16, latent_dim=2, hidden=(8,), seed=seed) for seed in (5, 6)]
    svdds = [SvddModel.build(16, output_dim=3, hidden=(8,), seed=5) for _ in range(2)]
    svdds[0].center = np.array([0.5, -0.25, 1.0])
    svdds[1].center = np.array([0.5, -0.25, 1.5])
    prints = {VaeScorer(m).fingerprint() for m in vaes}
    prints |= {SvddScorer(m).fingerprint() for m in svdds}
    assert len(prints) == 4
    assert all(len(p) == 8 for p in prints)
    # deterministic
    assert VaeScorer(vaes[0]).fingerprint() == VaeScorer(vaes[0]).fingerprint()


def test_model_fingerprints_are_pinned(tmp_path):
    # calibration files store these digests, so their bytes must not drift;
    # the SVDD center is set by hand so no matrix product enters the digest
    vae = VaeModel.build(16, latent_dim=2, hidden=(8,), seed=5)
    assert VaeScorer(vae).fingerprint().hex() == "56488e6bfbc3c336"
    svdd = SvddModel.build(16, output_dim=3, hidden=(8,), seed=5)
    svdd.center = np.array([0.5, -0.25, 1.0])
    assert SvddScorer(svdd).fingerprint().hex() == "1e27dd5e4950ad05"
    # the model files are written by the same layer encoder
    file_digests = (
        (vae, "167900b1206fe0d768e7807b384a38e6a752b8eff805da6ad4b33d4d7d1942ee"),
        (svdd, "68e657607027c5973911964800c71f612280c50ef716b969c9914321bebe4368"),
    )
    for model, digest in file_digests:
        save_model(tmp_path / "m.icad", model)
        assert hashlib.sha256((tmp_path / "m.icad").read_bytes()).hexdigest() == digest


def test_vae_scorer_score_many_is_seeded(toy_vae):
    model, _ = toy_vae
    z = np.array([1.0, -0.5])
    a = VaeScorer(model).score_many(z[None], 5, np.random.default_rng(123))[0].tolist()
    b = VaeScorer(model).score_many(z[None], 5, np.random.default_rng(123))[0].tolist()
    assert a == b
    assert all(np.isfinite(s) and s >= 0 for s in a)


@pytest.mark.parametrize("dim", [2, 7, 64, 256, 300])
def test_vae_score_many_equals_vae_score_per_reconstruction(dim):
    # row-wise scoring must give the bits of one squared error per sample
    model = VaeModel.build(dim, latent_dim=3, hidden=(16,), seed=dim)
    z = np.random.default_rng(dim).random(dim)
    samples = sample_reconstructions(model, z[None], 20, np.random.default_rng(9))[0]
    expected = [_squared_error(z, r) for r in samples]
    assert VaeScorer(model).score_many(z[None], 20, np.random.default_rng(9))[0].tolist() == expected


@pytest.mark.parametrize("kind", ["svdd"])
def test_block_score_equals_per_row_scores(kind):
    # a block runs through gemm where a row ran through gemv, so the score
    # may move in the last bits (the VAE's one measure, score_many, has its
    # own block test below)
    scorer = untrained_scorers(16)[kind]
    block = np.random.default_rng(8).normal(scale=2.0, size=(37, 16))
    got = scorer.score(block)
    rows = [scorer.score(z[None])[0] for z in block]
    assert isinstance(got, np.ndarray) and got.shape == (37,)
    np.testing.assert_allclose(got, rows, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", ["vae", "svdd"])
def test_scorers_reject_malformed_blocks(kind):
    scorer = untrained_scorers(4)[kind]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    score = (lambda z: scorer.score_many(z, 3, rng)) if kind == "vae" else scorer.score
    for bad in (np.zeros((2, 3, 4)), np.zeros((0, 4)), np.zeros((3, 5)), np.zeros(5)):
        with pytest.raises(ValueError):
            score(bad)
    # a frame (D,) of the right width is not a block
    with pytest.raises(ValueError, match=r"example must be a nonempty 2-D array, got shape \(4,\)"):
        score(np.zeros(4))
    block = np.zeros((3, 4))
    block[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        score(block)
    assert rng.bit_generator.state == state  # every refusal comes before a draw


@pytest.mark.parametrize("count", [1, 5, 20])
def test_vae_score_many_block_equals_per_row_calls(count):
    # a block draws the noise of its rows in row order and decodes it in one
    # gemm, where a row decoded its samples alone, so scores move in the last bits
    model = VaeModel.build(12, latent_dim=3, hidden=(10,), seed=count)
    block = np.random.default_rng(count).normal(size=(9, 12))
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = VaeScorer(model).score_many(block, count, rng)
    rows = [VaeScorer(model).score_many(z[None], count, ref_rng)[0] for z in block]
    assert isinstance(got, np.ndarray) and got.shape == (9, count)
    np.testing.assert_allclose(got, rows, rtol=1e-14, atol=0.0)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_vae_score_many_frame_keeps_its_arithmetic():
    # one example: a (count, latent) draw, mu + sigma * noise, one decode, row sums
    model = VaeModel.build(64, latent_dim=4, hidden=(16,), seed=3)
    scorer = VaeScorer(model)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    for z in np.random.default_rng(8).random((100, 64)):
        mu, logvar = model.encode(z[None])
        diff = z - infer(model.decoder, mu + np.exp(0.5 * logvar) * ref_rng.standard_normal((10, 4)))
        assert scorer.score_many(z[None], 10, rng)[0].tolist() == (diff * diff).sum(axis=1).tolist()


@pytest.mark.parametrize("rows,count", [(1, 20), (9, 5), (40, 1)])
def test_vae_score_reduction_equals_reference_formula_bitwise(rows, count):
    # _score_many squares reconstruction minus frame in place; the reference
    # squares frame minus reconstruction, the same bits with the sign flipped
    model = VaeModel.build(64, latent_dim=4, hidden=(32, 16), seed=rows)
    block = np.random.default_rng(count).normal(scale=3.0, size=(rows, 64))
    rec = sample_reconstructions(model, block, count, np.random.default_rng(21))
    want = ((block[:, None, :] - rec) ** 2).sum(axis=2)
    got = VaeScorer(model)._score_many(block, count, np.random.default_rng(21))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 9, 600])
def test_svdd_score_reduction_equals_reference_formula_bitwise(rows):
    # 600 rows map in two blocks' worth of elu slices
    model = SvddModel.build(32, output_dim=8, hidden=(128, 16), seed=rows)
    block = np.random.default_rng(rows).normal(size=(rows, 32))
    svdd_init_center(model, block)
    want = ((infer(model.mapper, block) - model.center) ** 2).sum(axis=1)
    assert SvddScorer(model)._score(block).tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [1, 7, 20])
def test_sample_reconstructions_draws_and_decodes_like_single_rows(count):
    model = VaeModel.build(12, latent_dim=3, hidden=(10,), seed=count)
    z = np.random.default_rng(count).normal(size=12)
    rng, ref_rng = np.random.default_rng(99), np.random.default_rng(99)
    got = sample_reconstructions(model, z[None], count, rng)
    mu, logvar = model.encode(z[None])
    for sample in got[0]:
        ref, _ = forward(model.decoder, mu + np.exp(0.5 * logvar) * ref_rng.standard_normal((1, 3)))
        assert np.max(np.abs(sample - ref[0])) <= 1e-14 * np.max(np.abs(ref))
    assert got.shape == (1, count, 12)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_separation_on_two_blob_task(two_blob_vae, toy_svdd, two_blobs):
    """Median OOD score must exceed the 90th percentile of in-distribution
    calibration scores for both learned scorers."""
    blob_in, blob_out = two_blobs
    cal = blob_in[200:]
    rng = np.random.default_rng(10)
    vae = VaeScorer(two_blob_vae)
    scores = {"vae": lambda z: vae.score_many(z, 1, rng)[:, 0],
              "svdd": SvddScorer(toy_svdd[0]).score}
    for kind, score in scores.items():
        q90 = np.percentile(score(cal), 90)
        med = np.median(score(blob_out))
        print(f"{kind}: ood median {med:.4f} vs in-dist q90 {q90:.4f}")
        assert med > q90
