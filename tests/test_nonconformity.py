"""Scorer correctness against brute-force oracles, plus the shared invariants:
nonnegativity, finiteness, permutation invariance, and statistical separation."""

import numpy as np
import pytest

from icad.models import SvddModel, VaeModel, sample_reconstructions
from icad.neural import DenseLayer, Mlp, forward
from icad.nonconformity import (
    KdeScorer,
    KnnScorer,
    SvddScorer,
    VaeScorer,
    kde_score,
    knn_score,
    silverman_bandwidth,
    svdd_score,
    vae_score,
)

from conftest import untrained_scorers

# ---------------------------------------------------------------- knn

def test_knn_equidistant_pair():
    train = np.array([[0.0, 0.0], [0.0, 2.0]])
    assert knn_score(train, np.array([0.0, 1.0]), k=2) == pytest.approx(1.0)


def test_knn_self_distance_zero():
    train = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert knn_score(train, train[0], k=1) == 0.0


def test_knn_matches_pairwise_sort_oracle():
    rng = np.random.default_rng(0)
    train = rng.normal(size=(20, 3))
    z = rng.normal(size=3)
    got = knn_score(train, z, k=5)
    dists = sorted(np.sqrt(((p - z) ** 2).sum()) for p in train)
    assert abs(got - np.mean(dists[:5])) < 1e-12


def test_knn_rejects_bad_k():
    train = np.zeros((3, 2))
    with pytest.raises(ValueError):
        knn_score(train, np.zeros(2), k=0)
    with pytest.raises(ValueError):
        knn_score(train, np.zeros(2), k=4)


def test_knn_adding_point_never_increases_score():
    rng = np.random.default_rng(4)
    train = rng.normal(size=(15, 2))
    z = rng.normal(size=2)
    base = knn_score(train, z, k=5)
    for _ in range(20):
        grown = np.vstack([train, rng.normal(size=2)])
        assert knn_score(grown, z, k=5) <= base + 1e-12


# ---------------------------------------------------------------- kde

def test_kde_coincident_point_scores_zero():
    train = np.array([[0.5, -0.5]])
    assert kde_score(train, np.array([0.5, -0.5]), bandwidth=0.7) == pytest.approx(0.0)


def test_kde_grows_with_distance():
    rng = np.random.default_rng(1)
    train = rng.normal(size=(10, 2))
    scores = [kde_score(train, np.array([d, 0.0]), bandwidth=1.0) for d in (5.0, 10.0, 20.0)]
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
    assert abs(kde_score(train, z, h) - expected) < 1e-10


def test_kde_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        kde_score(np.zeros((2, 2)), np.zeros(2), bandwidth=0.0)


def test_silverman_bandwidth_positive_and_scale_aware():
    rng = np.random.default_rng(3)
    small = rng.normal(0, 1.0, size=(50, 2))
    assert silverman_bandwidth(small) > 0
    assert silverman_bandwidth(small * 10) == pytest.approx(10 * silverman_bandwidth(small))
    # degenerate data falls back to a usable value
    assert silverman_bandwidth(np.ones((5, 2))) > 0


# ---------------------------------------------------------------- vae / svdd

def test_vae_score_identical_is_zero():
    z = np.array([0.1, 0.2])
    assert vae_score(z, z) == 0.0


def test_vae_score_hand_case():
    assert vae_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(2.0)


def test_vae_score_elementwise_oracle():
    rng = np.random.default_rng(5)
    z, w = rng.normal(size=4), rng.normal(size=4)
    assert vae_score(z, w) == sum((a - b) ** 2 for a, b in zip(z, w))


def test_vae_score_dimension_mismatch():
    with pytest.raises(ValueError):
        vae_score(np.zeros(3), np.zeros(4))


def test_svdd_score_identity_mapper():
    model = SvddModel(Mlp([DenseLayer(np.eye(2), None, "identity")]), weight_decay=0.0)
    model.center = np.array([0.0, 0.0])
    assert svdd_score(model, np.array([3.0, 4.0])) == pytest.approx(25.0)


def test_svdd_score_zero_at_center_preimage():
    model = SvddModel(Mlp([DenseLayer(np.eye(2), None, "identity")]), weight_decay=0.0)
    model.center = np.array([1.0, -2.0])
    assert svdd_score(model, np.array([1.0, -2.0])) == 0.0


def test_svdd_score_requires_center():
    model = SvddModel.build(2, output_dim=2, hidden=(4,), seed=0)
    with pytest.raises(RuntimeError):
        svdd_score(model, np.zeros(2))


def test_svdd_score_matches_reimplemented_forward(toy_svdd):
    model, _, _ = toy_svdd
    rng = np.random.default_rng(6)
    z = rng.normal(size=2)

    # independent forward pass written with explicit loops
    h = z
    for layer in model.mapper.layers:
        pre = np.array([float(np.dot(row, h)) for row in layer.weights])
        if layer.activation == "elu":
            h = np.array([v if v >= 0 else np.expm1(v) for v in pre])
        elif layer.activation == "identity":
            h = pre
        else:
            raise AssertionError(layer.activation)
    expected = float(((h - model.center) ** 2).sum())
    assert abs(svdd_score(model, z) - expected) < 1e-9


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
        knn_score(train, bad, k=1)
    with pytest.raises(ValueError):
        kde_score(train, bad, 1.0)


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    train = rng.normal(size=(25, 2))
    z = rng.normal(size=2)
    perm = rng.permutation(25)
    assert knn_score(train, z, 7) == pytest.approx(knn_score(train[perm], z, 7), abs=1e-12)
    assert kde_score(train, z, 0.9) == pytest.approx(kde_score(train[perm], z, 0.9), abs=1e-12)


def test_knn_tie_break_is_order_stable():
    # four corners at equal distance: any k neighbors have the same mean
    train = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    z = np.zeros(2)
    for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
        assert knn_score(train[perm], z, 2) == pytest.approx(1.0)


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


def test_model_fingerprints_are_pinned():
    # calibration files store these digests, so their bytes must not drift;
    # the SVDD center is set by hand so no matrix product enters the digest
    vae = VaeModel.build(16, latent_dim=2, hidden=(8,), seed=5)
    assert VaeScorer(vae).fingerprint().hex() == "56488e6bfbc3c336"
    svdd = SvddModel.build(16, output_dim=3, hidden=(8,), seed=5)
    svdd.center = np.array([0.5, -0.25, 1.0])
    assert SvddScorer(svdd).fingerprint().hex() == "1e27dd5e4950ad05"


def test_vae_scorer_score_many_is_seeded(toy_vae):
    model, _ = toy_vae
    z = np.array([1.0, -0.5])
    a = VaeScorer(model).score_many(z, 5, 123)
    b = VaeScorer(model).score_many(z, 5, 123)
    assert a == b
    assert all(np.isfinite(s) and s >= 0 for s in a)


@pytest.mark.parametrize("dim", [2, 7, 64, 256, 300])
def test_vae_score_many_equals_vae_score_per_reconstruction(dim):
    # row-wise scoring must give the bits of one vae_score call per sample
    model = VaeModel.build(dim, latent_dim=3, hidden=(16,), seed=dim)
    z = np.random.default_rng(dim).random(dim)
    expected = [vae_score(z, r) for r in sample_reconstructions(model, z, 20, 9)]
    assert VaeScorer(model).score_many(z, 20, 9) == expected


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


def test_vae_score_many_rejects_a_block(toy_vae):
    with pytest.raises(ValueError, match="one example"):
        VaeScorer(toy_vae[0]).score_many(np.zeros((3, 2)), 5, 0)


@pytest.mark.parametrize("count", [1, 7, 20])
def test_sample_reconstructions_draws_and_decodes_like_single_rows(count):
    model = VaeModel.build(12, latent_dim=3, hidden=(10,), seed=count)
    z = np.random.default_rng(count).normal(size=12)
    rng, ref_rng = np.random.default_rng(99), np.random.default_rng(99)
    got = sample_reconstructions(model, z, count, rng)
    mu, logvar = model.encode(z)
    for sample in got:
        ref, _ = forward(model.decoder, mu + np.exp(0.5 * logvar) * ref_rng.standard_normal(3))
        assert np.max(np.abs(sample - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert got.shape == (count, 12)
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
