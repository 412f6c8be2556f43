"""Scorer correctness against brute-force oracles, plus the shared invariants:
nonnegativity, finiteness, permutation invariance, and statistical separation."""

import hashlib

import numpy as np
import pytest

from icad.episodes import SceneGenerator
from icad.models import SvddModel, VaeModel, sample_reconstructions
from icad.neural import DenseLayer, Mlp, forward, infer
from icad.nonconformity import (
    KdeScorer,
    KnnScorer,
    SvddScorer,
    VaeScorer,
    silverman_bandwidth,
)
from icad.persistence import save_model

from conftest import untrained_scorers

# ---------------------------------------------------------------- knn

def test_knn_equidistant_pair():
    train = np.array([[0.0, 0.0], [0.0, 2.0]])
    assert KnnScorer(train, k=2).score(np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_knn_self_distance_zero():
    train = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert KnnScorer(train, k=1).score(train[0]) == 0.0


def test_knn_matches_pairwise_sort_oracle():
    rng = np.random.default_rng(0)
    train = rng.normal(size=(20, 3))
    z = rng.normal(size=3)
    got = KnnScorer(train, k=5).score(z)
    dists = sorted(np.sqrt(((p - z) ** 2).sum()) for p in train)
    assert abs(got - np.mean(dists[:5])) < 1e-12


def test_knn_rejects_bad_k():
    train = np.zeros((3, 2))
    with pytest.raises(ValueError):
        KnnScorer(train, k=0)
    with pytest.raises(ValueError):
        KnnScorer(train, k=4)


def test_knn_adding_point_never_increases_score():
    rng = np.random.default_rng(4)
    train = rng.normal(size=(15, 2))
    z = rng.normal(size=2)
    base = KnnScorer(train, k=5).score(z)
    for _ in range(20):
        grown = np.vstack([train, rng.normal(size=2)])
        assert KnnScorer(grown, k=5).score(z) <= base + 1e-12


# ---------------------------------------------------------------- kde

def test_kde_coincident_point_scores_zero():
    train = np.array([[0.5, -0.5]])
    assert KdeScorer(train, bandwidth=0.7).score(np.array([0.5, -0.5])) == pytest.approx(0.0)


def test_kde_grows_with_distance():
    rng = np.random.default_rng(1)
    train = rng.normal(size=(10, 2))
    kde = KdeScorer(train, bandwidth=1.0)
    scores = [kde.score(np.array([d, 0.0])) for d in (5.0, 10.0, 20.0)]
    assert scores[0] < scores[1] < scores[2]
    assert scores[2] > 100.0


def test_kde_matches_density_sum_oracle():
    rng = np.random.default_rng(2)
    train = rng.normal(size=(10, 3))
    z = rng.normal(size=3)
    h = 0.8
    d = train.shape[1]
    norm = (2 * np.pi) ** (-d / 2) * h**-d
    dens = np.mean([norm * np.exp(-((p - z) ** 2).sum() / (2 * h * h)) for p in train])
    expected = -np.log(dens) + np.log(norm)
    assert abs(KdeScorer(train, bandwidth=h).score(z) - expected) < 1e-10


def test_kde_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        KdeScorer(np.zeros((2, 2)), bandwidth=0.0)
    with pytest.raises(ValueError):
        KdeScorer(np.zeros((2, 2)), bandwidth=-1.0)


def test_silverman_bandwidth_positive_and_scale_aware():
    rng = np.random.default_rng(3)
    small = rng.normal(0, 1.0, size=(50, 2))
    assert silverman_bandwidth(small) > 0
    assert silverman_bandwidth(small * 10) == pytest.approx(10 * silverman_bandwidth(small))
    # degenerate data falls back to a usable value
    assert silverman_bandwidth(np.ones((5, 2))) > 0


# ---------------------------------------------------------------- vae / svdd

def _affine_vae(encoder_weights, decoder_weights, decoder_bias):
    # one identity layer each way, so the mean reconstruction is known in closed form
    dim, d = decoder_weights.shape
    encoder = Mlp([DenseLayer(np.vstack([encoder_weights, np.zeros((d, dim))]),
                              np.zeros(2 * d), "identity")])
    decoder = Mlp([DenseLayer(decoder_weights, decoder_bias, "identity")])
    return VaeScorer(VaeModel(encoder, decoder, d))


def test_vae_score_identical_is_zero():
    scorer = _affine_vae(np.eye(2), np.eye(2), np.zeros(2))
    assert scorer.score(np.array([0.1, 0.2])) == 0.0


def test_vae_score_hand_case():
    scorer = _affine_vae(np.zeros((1, 2)), np.zeros((2, 1)), np.array([0.0, 1.0]))
    assert scorer.score(np.array([1.0, 0.0])) == pytest.approx(2.0)


def test_vae_score_elementwise_oracle():
    rng = np.random.default_rng(5)
    z, w = rng.normal(size=4), rng.normal(size=4)
    scorer = _affine_vae(np.zeros((1, 4)), np.zeros((4, 1)), w)
    assert scorer.score(z) == sum((a - b) ** 2 for a, b in zip(z, w))


def test_vae_score_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension 3, expected 4"):
        _affine_vae(np.eye(4), np.eye(4), np.zeros(4)).score(np.zeros(3))


def test_svdd_score_identity_mapper():
    model = SvddModel(Mlp([DenseLayer(np.eye(2), None, "identity")]), weight_decay=0.0)
    model.center = np.array([0.0, 0.0])
    assert SvddScorer(model).score(np.array([3.0, 4.0])) == pytest.approx(25.0)


def test_svdd_score_zero_at_center_preimage():
    model = SvddModel(Mlp([DenseLayer(np.eye(2), None, "identity")]), weight_decay=0.0)
    model.center = np.array([1.0, -2.0])
    assert SvddScorer(model).score(np.array([1.0, -2.0])) == 0.0


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
    assert abs(SvddScorer(model).score(z) - expected) < 1e-9


def test_vae_score_matches_reimplemented_forward(toy_vae):
    model, _ = toy_vae
    z = np.random.default_rng(6).normal(size=2)
    mu = _loop_forward(model.encoder, z)[: model.latent_dim]
    expected = _squared_error(z, _loop_forward(model.decoder, mu))
    assert abs(VaeScorer(model).score(z) - expected) < 1e-9


# ---------------------------------------------------------------- shared invariants

def test_scores_nonnegative_and_finite(toy_vae, toy_svdd):
    rng = np.random.default_rng(7)
    train = rng.normal(size=(30, 2))
    vae_model, _ = toy_vae
    svdd_model, _, _ = toy_svdd
    scorers = [
        KnnScorer(train, k=5),
        KdeScorer(train),
        VaeScorer(vae_model),
        SvddScorer(svdd_model),
    ]
    for scorer in scorers:
        for _ in range(25):
            s = scorer.score(rng.normal(scale=5.0, size=2))
            assert np.isfinite(s) and s >= 0.0, scorer.kind


def test_scorers_reject_non_finite_examples():
    train = np.zeros((3, 2))
    bad = np.array([np.nan, 0.0])
    with pytest.raises(ValueError):
        KnnScorer(train, k=1).score(bad)
    with pytest.raises(ValueError):
        KdeScorer(train, bandwidth=1.0).score(bad)


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    train = rng.normal(size=(25, 2))
    z = rng.normal(size=2)
    perm = rng.permutation(25)
    knn, knn_perm = KnnScorer(train, k=7), KnnScorer(train[perm], k=7)
    assert knn.score(z) == pytest.approx(knn_perm.score(z), abs=1e-12)
    kde, kde_perm = KdeScorer(train, bandwidth=0.9), KdeScorer(train[perm], bandwidth=0.9)
    assert kde.score(z) == pytest.approx(kde_perm.score(z), abs=1e-12)


def test_knn_tie_break_is_order_stable():
    # four corners at equal distance: any k neighbors have the same mean
    train = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    z = np.zeros(2)
    for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
        assert KnnScorer(train[perm], k=2).score(z) == pytest.approx(1.0)


def test_fingerprints_distinguish_scorers(toy_vae, toy_svdd):
    rng = np.random.default_rng(9)
    train = rng.normal(size=(10, 2))
    prints = {
        KnnScorer(train, k=3).fingerprint(),
        KnnScorer(train, k=4).fingerprint(),
        KdeScorer(train, bandwidth=1.0).fingerprint(),
        VaeScorer(toy_vae[0]).fingerprint(),
        SvddScorer(toy_svdd[0]).fingerprint(),
    }
    assert len(prints) == 5
    assert all(len(p) == 8 for p in prints)
    # deterministic
    assert KnnScorer(train, k=3).fingerprint() == KnnScorer(train, k=3).fingerprint()


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
    a = VaeScorer(model).score_many(z, 5, np.random.default_rng(123))
    b = VaeScorer(model).score_many(z, 5, np.random.default_rng(123))
    assert a == b
    assert all(np.isfinite(s) and s >= 0 for s in a)


@pytest.mark.parametrize("dim", [2, 7, 64, 256, 300])
def test_vae_score_many_equals_vae_score_per_reconstruction(dim):
    # row-wise scoring must give the bits of one squared error per sample
    model = VaeModel.build(dim, latent_dim=3, hidden=(16,), seed=dim)
    z = np.random.default_rng(dim).random(dim)
    samples = sample_reconstructions(model, z[None], 20, np.random.default_rng(9))[0]
    expected = [_squared_error(z, r) for r in samples]
    assert VaeScorer(model).score_many(z, 20, np.random.default_rng(9)) == expected


@pytest.mark.parametrize("kind", ["knn", "kde", "vae", "svdd"])
def test_block_score_equals_per_row_scores(kind):
    # a block runs through gemm where a row ran through gemv, so the learned
    # scorers may move in the last bits; the distance scorers may not
    scorer = untrained_scorers(16)[kind]
    block = np.random.default_rng(8).normal(scale=2.0, size=(37, 16))
    got = scorer.score(block)
    rows = [scorer.score(z) for z in block]
    assert isinstance(got, np.ndarray) and got.shape == (37,)
    assert all(type(s) is float for s in rows)
    rtol = 0.0 if kind in ("knn", "kde") else 1e-14
    np.testing.assert_allclose(got, rows, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("kind", ["knn", "kde", "vae", "svdd"])
def test_scorers_reject_malformed_blocks(kind):
    scorer = untrained_scorers(4)[kind]
    for bad in (np.zeros((2, 3, 4)), np.zeros((0, 4)), np.zeros((3, 5)), np.zeros(5)):
        with pytest.raises(ValueError):
            scorer.score(bad)
    block = np.zeros((3, 4))
    block[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        scorer.score(block)


def _frame_cases(toy_blob, toy_vae, toy_svdd, two_blob_vae):
    """(kind, scorer, frames): untrained scorers on 256-dim scene frames, and
    the trained toy scorers on toy frames."""
    gen = SceneGenerator(side=16, seed=5)
    rng = np.random.default_rng(6)
    scene = [gen.example(r, rng) for r in (0.0, 3.5, 12.0, 40.0)]
    toy = list(np.random.default_rng(7).normal(scale=2.0, size=(5, 2)))
    cases = [(kind, scorer, scene) for kind, scorer in untrained_scorers(256).items()]
    return cases + [
        ("knn", KnnScorer(toy_blob, k=5), toy),
        ("kde", KdeScorer(toy_blob), toy),
        ("vae", VaeScorer(toy_vae[0]), toy),
        ("vae", VaeScorer(two_blob_vae), toy),
        ("svdd", SvddScorer(toy_svdd[0]), toy),
    ]


def test_frame_score_is_the_float_of_its_one_row_block(toy_blob, toy_vae, toy_svdd, two_blob_vae):
    for kind, scorer, frames in _frame_cases(toy_blob, toy_vae, toy_svdd, two_blob_vae):
        for z in frames:
            got = scorer.score(z)
            assert type(got) is float, kind
            assert got == scorer.score(z[None])[0], kind


def test_frame_score_many_is_row_zero_of_its_one_row_block(toy_blob, toy_vae, toy_svdd,
                                                           two_blob_vae):
    for kind, scorer, frames in _frame_cases(toy_blob, toy_vae, toy_svdd, two_blob_vae):
        if kind != "vae":
            continue
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        for z in frames:
            for count in (1, 5, 20):
                got = scorer.score_many(z, count, rng)
                assert type(got) is list and all(type(s) is float for s in got)
                assert got == scorer.score_many(z[None], count, ref_rng)[0].tolist()
                assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("count", [1, 5, 20])
def test_vae_score_many_block_equals_per_row_calls(count):
    # a block draws the noise of its rows in row order and decodes it in one
    # gemm, where a row decoded its samples alone, so scores move in the last bits
    model = VaeModel.build(12, latent_dim=3, hidden=(10,), seed=count)
    block = np.random.default_rng(count).normal(size=(9, 12))
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = VaeScorer(model).score_many(block, count, rng)
    rows = [VaeScorer(model).score_many(z, count, ref_rng) for z in block]
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
        assert scorer.score_many(z, 10, rng) == (diff * diff).sum(axis=1).tolist()


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
    for scorer in (VaeScorer(two_blob_vae), SvddScorer(toy_svdd[0])):
        cal_scores = [scorer.score(z) for z in cal]
        ood_scores = [scorer.score(z) for z in blob_out]
        q90 = np.percentile(cal_scores, 90)
        med = np.median(ood_scores)
        print(f"{scorer.kind}: ood median {med:.4f} vs in-dist q90 {q90:.4f}")
        assert med > q90
