"""VAE and SVDD: losses, training contracts, constraint enforcement."""

import numpy as np
import pytest

from conftest import (
    assert_views_of_flat,
    grad_check_params,
    mlp_of,
    reference_adam,
    svdd_loss_grads,
    traced_peak_mb,
    vae_loss_grads,
)
from icad.models import (
    SvddModel,
    TrainConfig,
    TrainingDivergedError,
    VaeModel,
    _vae_batch_loss_grads,
    pretrain_with_autoencoder,
    sample_reconstructions,
    svdd_init_center,
    train_svdd,
    train_vae,
)
from icad.neural import (
    ADAM_SLICE,
    BLOCK_ROWS,
    Mlp,
    backward,
    forward,
    infer,
    init_mlp,
)
from icad.nonconformity import SvddScorer, VaeScorer
from icad.persistence import load_model, save_model


def _identity_mapper(dim):
    return mlp_of((np.eye(dim), None, "identity"))


class _ZeroRng:
    """A generator whose every normal draw is zero: a posterior sample is
    then the posterior mean."""

    def standard_normal(self, shape):
        return np.zeros(shape)


# ---------------------------------------------------------------- VAE loss

def _training_kl(mu, logvar):
    """The KL part of the training loss for an encoder that outputs
    ``(mu, logvar)`` whatever its input: zero weights, the pair as bias."""
    d = len(mu)
    encoder = mlp_of((np.zeros((2 * d, 1)), np.concatenate([mu, logvar]), "identity"))
    decoder = mlp_of((np.zeros((1, d)), np.zeros(1), "identity"))
    _, (_, kl) = _vae_batch_loss_grads(VaeModel(encoder, decoder, d), np.zeros((1, 1)),
                                       np.zeros((1, d)))
    return kl


def test_kl_zero_at_standard_normal_posterior():
    assert _training_kl(np.zeros(5), np.zeros(5)) == 0.0


def test_kl_closed_form_unit_mean():
    # d=1, mu=1, logvar=0: 0.5*(mu^2 + sigma^2 - 1 - ln sigma^2) = 0.5
    assert _training_kl(np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)


@pytest.mark.parametrize("seed", range(10))
def test_kl_nonnegative_and_zero_only_at_origin(seed):
    rng = np.random.default_rng(seed)
    mu = rng.normal(size=4)
    logvar = rng.normal(size=4)
    assert _training_kl(mu, logvar) > 0.0
    assert _training_kl(np.zeros(4), np.zeros(4)) == 0.0


def test_kl_matches_monte_carlo_estimate():
    """Closed form vs a 10^6-sample Monte Carlo estimate of
    E_q[log q(x) - log p(x)], within 3 standard errors."""
    rng = np.random.default_rng(123)
    mu = np.array([0.5, -1.0, 0.3])
    logvar = np.array([0.2, -0.5, 0.8])
    sigma = np.exp(0.5 * logvar)
    n = 1_000_000
    x = mu + sigma * rng.standard_normal((n, 3))
    log_q = -0.5 * (((x - mu) / sigma) ** 2 + np.log(2 * np.pi) + logvar).sum(axis=1)
    log_p = -0.5 * (x**2 + np.log(2 * np.pi)).sum(axis=1)
    samples = log_q - log_p
    estimate = samples.mean()
    stderr = samples.std(ddof=1) / np.sqrt(n)
    closed = _training_kl(mu, logvar)
    print(f"KL closed={closed:.6f} mc={estimate:.6f} +- {stderr:.2g}")
    assert abs(closed - estimate) < 3 * stderr


def test_vae_loss_parts_and_reparameterization():
    model = VaeModel.build(4, latent_dim=2, hidden=(6,), seed=0)
    z = np.array([0.1, -0.2, 0.3, 0.0])
    loss, (recon, kl) = _vae_batch_loss_grads(model, z[None, :], np.zeros((1, 2)))
    assert loss == pytest.approx(recon + kl)
    assert recon >= 0.0 and kl >= 0.0
    # with zero noise the reconstruction term is the error of the sampled score
    assert recon == pytest.approx(VaeScorer(model).score_many(z[None], 1, _ZeroRng())[0][0])


@pytest.mark.parametrize("seed", range(5))
def test_vae_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    model = VaeModel.build(5, latent_dim=2, hidden=(4,), seed=seed)
    z = rng.normal(size=5)
    noise = rng.normal(size=2)
    _, grads = vae_loss_grads(model, z, noise)
    params = model.encoder.parameters() + model.decoder.parameters()
    names = model.encoder.parameter_names() + model.decoder.parameter_names()
    report = grad_check_params(params, names, lambda: vae_loss_grads(model, z, noise)[0], grads)
    assert report.passed, report


def test_sample_reconstructions_zero_noise_equals_mean():
    model = VaeModel.build(4, latent_dim=2, hidden=(6,), seed=1)
    z = np.array([[0.3, 0.1, -0.4, 0.2]])
    mu, _ = model.encode(z)
    # zero noise reduces every sample to the decoded posterior mean
    recon = sample_reconstructions(model, z, 3, _ZeroRng())
    assert np.allclose(recon, infer(model.decoder, mu)[:, None], rtol=1e-14, atol=0.0)


def test_sample_reconstructions_deterministic_per_seed():
    model = VaeModel.build(4, latent_dim=2, hidden=(6,), seed=1)
    z = np.array([[0.3, 0.1, -0.4, 0.2]])
    a = sample_reconstructions(model, z, 10, np.random.default_rng(99))
    b = sample_reconstructions(model, z, 10, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_memorizing_vae_scores_below_calibration_q3():
    """A VAE trained to memorize one point reconstructs it with an error far
    below the third quartile of scores of nearby unseen points."""
    rng = np.random.default_rng(0)
    point = np.tile([0.3, 0.7], (50, 1))
    model = VaeModel.build(2, latent_dim=1, hidden=(16, 8), seed=1)
    train_vae(model, point, TrainConfig(epochs=(300, 100), learning_rates=(1e-2, 1e-3),
                                        batch_size=32, seed=2))
    scorer = VaeScorer(model)
    cal_scores = scorer.score_many(point[0] + rng.normal(0.0, 0.3, size=(60, 2)), 1, rng)
    own = scorer.score_many(point[0][None], 20, rng)[0]
    assert max(own) < np.percentile(cal_scores, 75)


def test_train_vae_improves_and_stays_finite(toy_vae, toy_blob):
    model, curve = toy_vae
    assert np.all(np.isfinite(curve))
    assert curve[-1] < curve[0]
    recon = np.mean(VaeScorer(model).score_many(toy_blob, 1, np.random.default_rng(0)))
    total_variance = toy_blob.var(axis=0).sum()
    print(f"toy VAE recon {recon:.4f} vs variance {total_variance:.4f}")
    assert recon < 0.25 * total_variance


def test_train_vae_memorizes_single_point():
    point = np.tile([0.3, 0.7], (50, 1))
    model = VaeModel.build(2, latent_dim=1, hidden=(16, 8), seed=1)
    train_vae(model, point, TrainConfig(epochs=(300, 100), learning_rates=(1e-2, 1e-3),
                                        batch_size=32, seed=2))
    assert max(VaeScorer(model).score_many(point[0][None], 20, np.random.default_rng(0))[0]) < 1e-3


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=(0, 10))
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rates=(0.0, 1e-4))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="learning rates must be positive and finite"):
            TrainConfig(learning_rates=(1e-3, bad))


# ---------------------------------------------------------------- SVDD

def test_svdd_center_is_mean_for_identity_mapper():
    model = SvddModel(_identity_mapper(2), weight_decay=0.0)
    c = svdd_init_center(model, np.array([[1.0, 1.0], [3.0, 3.0]]))
    assert np.array_equal(c, [2.0, 2.0])


def test_svdd_center_single_point_is_its_representation():
    model = SvddModel.build(3, output_dim=2, hidden=(5,), seed=2)
    z = np.array([[0.4, -0.2, 0.9]])
    c = svdd_init_center(model, z)
    assert np.allclose(c, infer(model.mapper, z)[0])


def test_svdd_center_matches_mean_of_forward_passes_oracle():
    rng = np.random.default_rng(5)
    # one short block, and three blocks with a short last one
    for rows in (20, 2 * BLOCK_ROWS + 76):
        model = SvddModel.build(4, output_dim=3, hidden=(6,), seed=5)
        data = rng.normal(size=(rows, 4))
        c = svdd_init_center(model, data)
        oracle = np.mean([infer(model.mapper, z[None])[0] for z in data], axis=0)
        assert np.max(np.abs(c - oracle)) < 1e-12


def test_svdd_center_traced_peak_stays_under_5_mb():
    # the README's 256-512-64 mapper on 800 frames: mapped a block at a time,
    # the center holds one block's 2 MB hidden layer, not all 800 rows' 3.3 MB
    model = SvddModel.build(256, output_dim=64, hidden=(512,), seed=1)
    data = np.random.default_rng(1).normal(size=(800, 256))
    assert traced_peak_mb(lambda: svdd_init_center(model, data)) < 5.0


def test_svdd_center_degeneracy_guard():
    # a zero-weight mapper maps everything to 0; the guard nudges the center
    mapper = mlp_of((np.zeros((2, 2)), None, "identity"))
    model = SvddModel(mapper, weight_decay=0.0)
    c = svdd_init_center(model, np.array([[1.0, 2.0]]))
    assert np.linalg.norm(c) > 1e-6


def test_svdd_center_cannot_be_reinitialized():
    model = SvddModel.build(2, output_dim=2, hidden=(4,), seed=0)
    svdd_init_center(model, np.zeros((3, 2)) + 1.0)
    with pytest.raises(RuntimeError, match="frozen"):
        svdd_init_center(model, np.ones((3, 2)))


def test_svdd_center_frozen_through_training(two_blobs):
    blob_in, _ = two_blobs
    model = SvddModel.build(2, output_dim=2, hidden=(8,), weight_decay=1e-4, seed=9)
    c = svdd_init_center(model, blob_in[:50])
    before = c.tobytes()
    train_svdd(model, blob_in[:50],
               TrainConfig(epochs=(20, 5), learning_rates=(1e-2, 1e-3), batch_size=16, seed=10))
    assert model.center.tobytes() == before


def test_svdd_loss_hand_case():
    model = SvddModel(_identity_mapper(2), weight_decay=0.0)
    model.center = np.array([0.0, 0.0])
    assert svdd_loss_grads(model, np.array([[3.0, 4.0]]))[0] == pytest.approx(25.0)


def test_svdd_loss_zero_at_center():
    model = SvddModel(_identity_mapper(2), weight_decay=0.0)
    model.center = np.array([1.0, -1.0])
    batch = np.tile([1.0, -1.0], (4, 1))
    assert svdd_loss_grads(model, batch)[0] == pytest.approx(0.0)


def test_svdd_loss_regularizer_only_for_zero_distance_batch():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = SvddModel(mlp_of((w, None, "identity")), weight_decay=0.3)
    z = np.array([0.5, -0.25])
    model.center = (w @ z).copy()
    expected = 0.5 * 0.3 * float((w * w).sum())
    assert svdd_loss_grads(model, z[None, :])[0] == pytest.approx(expected)


def test_svdd_loss_requires_center():
    model = SvddModel.build(2, output_dim=2, hidden=(4,), seed=0)
    with pytest.raises(RuntimeError, match="center"):
        svdd_loss_grads(model, np.zeros((1, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_svdd_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    model = SvddModel.build(4, output_dim=3, hidden=(5,), weight_decay=0.05, seed=seed)
    data = rng.normal(size=(6, 4))
    svdd_init_center(model, data)
    _, grads = svdd_loss_grads(model, data)
    report = grad_check_params(
        model.mapper.parameters(), model.mapper.parameter_names(),
        lambda: svdd_loss_grads(model, data)[0], grads,
    )
    assert report.passed, report


def test_svdd_rejects_bias_and_bounded_activation():
    rng = np.random.default_rng(0)
    biased = mlp_of((rng.normal(size=(2, 2)), np.zeros(2), "elu"))
    with pytest.raises(ValueError, match="bias"):
        SvddModel(biased)
    # a bounded activation cannot even be built: the activation set has none
    with pytest.raises(ValueError, match="unknown activation 'sigmoid'"):
        Mlp([(2, 2, "sigmoid", False)])


def test_train_svdd_collapses_identical_data():
    model = SvddModel.build(2, output_dim=2, hidden=(8,), weight_decay=0.0, seed=5)
    same = np.tile([1.0, 2.0], (50, 1))
    svdd_init_center(model, same)
    _, dists = train_svdd(model, same,
                          TrainConfig(epochs=(200, 100), learning_rates=(1e-2, 1e-3),
                                      batch_size=32, seed=6))
    assert dists[-1] < 1e-4


def test_train_svdd_contract_and_separation(toy_svdd, two_blobs):
    model, losses, dists = toy_svdd
    blob_in, blob_out = two_blobs
    assert losses[-1] < losses[0]
    assert dists[-1] <= 0.5 * dists[0]
    held_in = blob_in[200:]
    in_q3 = np.percentile([svdd_loss_grads(model, z[None, :])[0] for z in held_in], 75)
    out_mean = np.mean([svdd_loss_grads(model, z[None, :])[0] for z in blob_out])
    print(f"toy SVDD held-out OOD mean {out_mean:.4f} vs in-dist Q3 {in_q3:.4f}")
    assert out_mean > in_q3


def test_train_svdd_requires_center(two_blobs):
    model = SvddModel.build(2, output_dim=2, hidden=(4,), seed=1)
    with pytest.raises(RuntimeError, match="center"):
        train_svdd(model, two_blobs[0], TrainConfig(epochs=(1, 0)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_training_divergence_raises_with_epoch():
    model = VaeModel.build(2, latent_dim=1, hidden=(8,), seed=0)
    data = np.random.default_rng(0).normal(size=(32, 2))
    with pytest.raises(TrainingDivergedError, match=r"^VAE training loss diverged at epoch \d+$"):
        # an absurd learning rate blows the loss up to non-finite values
        train_vae(model, data, TrainConfig(epochs=(50, 0), learning_rates=(1e6, 1e6),
                                           batch_size=32, seed=1))


# ------------------------------------------------- training against a reference

def _reference_training(nets, batch_grads, data, cfg):
    """The two-phase minibatch loop over ``nets`` with gradients from
    ``batch_grads(batch, rng) -> (grads, loss, aux)``, which runs the full
    ``backward``, and the out-of-place reference Adam written back into the
    live arrays. Returns the per-epoch mean loss and aux curves."""
    rng = np.random.default_rng(cfg.seed)
    params = [p for net in nets for p in net.parameters()]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0
    curve, aux_curve = [], []
    for phase in range(2):
        for _ in range(cfg.epochs[phase]):
            perm = rng.permutation(data.shape[0])
            losses, auxes = [], []
            for start in range(0, data.shape[0], cfg.batch_size):
                grads, loss, aux = batch_grads(data[perm[start : start + cfg.batch_size]], rng)
                t += 1
                for p, new in zip(params, reference_adam(params, grads, m, v, t,
                                                         cfg.learning_rates[phase])):
                    p[...] = new
                losses.append(loss)
                auxes.append(aux)
            curve.append(float(np.mean(losses)))
            aux_curve.append(float(np.mean(auxes)))
    return curve, aux_curve


_REF_CFG = TrainConfig(epochs=(3, 2), learning_rates=(1e-3, 1e-4), batch_size=32, seed=5)


def _same_weights(a, b):
    return all(p.tobytes() == q.tobytes() for p, q in zip(a.parameters(), b.parameters(),
                                                          strict=True))


def test_train_svdd_with_weight_decay_equals_reference_loop():
    # a mapper whose first matrix spans two slices of Adam's flat pass
    data = np.random.default_rng(1).normal(size=(80, 256))
    trained, ref = (SvddModel.build(256, output_dim=8, hidden=(300,), weight_decay=1e-2,
                                    seed=2) for _ in range(2))
    assert trained.mapper.layers[0].weights.size > ADAM_SLICE
    svdd_init_center(trained, data)
    svdd_init_center(ref, data)

    def grads(batch, _rng):
        reps, cache = forward(ref.mapper, batch)
        diff = reps - ref.center
        dist = float((diff * diff).sum(axis=1).mean())
        reg = 0.5 * ref.weight_decay * sum(
            float((layer.weights * layer.weights).sum()) for layer in ref.mapper.layers)
        g, _ = backward(ref.mapper, cache, 2.0 * diff / batch.shape[0])
        g = [gw + ref.weight_decay * layer.weights for gw, layer in zip(g, ref.mapper.layers)]
        return g, dist + reg, dist

    curves = train_svdd(trained, data, _REF_CFG)
    ref_curves = _reference_training([ref.mapper], grads, data, _REF_CFG)
    assert _same_weights(trained.mapper, ref.mapper)
    assert curves == ref_curves  # loss and distance curves, bit for bit


def test_train_vae_equals_reference_loop(toy_blob):
    trained, ref = (VaeModel.build(2, latent_dim=1, hidden=(8, 4), seed=3) for _ in range(2))
    d = ref.latent_dim

    def grads(batch, rng):
        noise = rng.standard_normal((batch.shape[0], d))
        enc_out, enc_cache = forward(ref.encoder, batch)
        mu, logvar = enc_out[:, :d], enc_out[:, d:]
        sigma = np.exp(0.5 * logvar)
        dec_out, dec_cache = forward(ref.decoder, mu + sigma * noise)
        n = batch.shape[0]
        recon = ((dec_out - batch) * (dec_out - batch)).sum(axis=1)
        kl = 0.5 * (mu * mu + np.exp(logvar) - 1.0 - logvar).sum(axis=1)
        dec_grads, g_x = backward(ref.decoder, dec_cache, 2.0 * (dec_out - batch) / n)
        g_logvar = g_x * noise * 0.5 * sigma + 0.5 * (np.exp(logvar) - 1.0) / n
        enc_grads, _ = backward(ref.encoder, enc_cache,
                                np.concatenate([g_x + mu / n, g_logvar], axis=1))
        return enc_grads + dec_grads, float(np.mean(recon + kl)), float(recon.mean())

    curve = train_vae(trained, toy_blob, _REF_CFG)
    ref_curve, _ = _reference_training([ref.encoder, ref.decoder], grads, toy_blob, _REF_CFG)
    assert _same_weights(trained.encoder, ref.encoder)
    assert _same_weights(trained.decoder, ref.decoder)
    assert curve == ref_curve


def test_pretrain_with_autoencoder_equals_reference_loop(toy_blob):
    model = SvddModel.build(2, output_dim=2, hidden=(8,), seed=4)
    # the autoencoder pretrain_with_autoencoder builds from the config's seed
    rng = np.random.default_rng(_REF_CFG.seed)
    encoder = init_mlp((2, 8, 2), ["elu", "identity"], False, rng)
    decoder = init_mlp((2, 8, 2), ["elu", "identity"], True, rng)

    def grads(batch, _rng):
        code, enc_cache = forward(encoder, batch)
        recon, dec_cache = forward(decoder, code)
        loss = float(((recon - batch) * (recon - batch)).sum(axis=1).mean())
        dec_grads, g_code = backward(decoder, dec_cache, 2.0 * (recon - batch) / batch.shape[0])
        enc_grads, _ = backward(encoder, enc_cache, g_code)
        return enc_grads + dec_grads, loss, loss

    curve = pretrain_with_autoencoder(model, toy_blob, _REF_CFG)
    ref_curve, _ = _reference_training([encoder, decoder], grads, toy_blob, _REF_CFG)
    assert _same_weights(model.mapper, encoder)
    assert curve == ref_curve


# ---------------------------------------------------------------- pretraining

def test_pretrain_copies_encoder_weights(toy_blob):
    model = SvddModel.build(2, output_dim=2, hidden=(8,), weight_decay=1e-4, seed=7)
    pretrain_with_autoencoder(
        model, toy_blob,
        TrainConfig(epochs=(20, 5), learning_rates=(1e-2, 1e-3), batch_size=32, seed=8),
    )
    assert model.center is not None
    # mapper forward equals an encoder rebuilt from the copied weights
    clone = mlp_of(*[(l.weights.copy(), None, l.activation) for l in model.mapper.layers])
    z = toy_blob[3:4]
    assert np.array_equal(infer(model.mapper, z), infer(clone, z))


def test_both_initialization_paths_produce_valid_models(toy_blob):
    cfg = TrainConfig(epochs=(5, 0), learning_rates=(1e-3, 1e-4), batch_size=32, seed=3)
    pre = SvddModel.build(2, output_dim=2, hidden=(8,), seed=3)
    pretrain_with_autoencoder(pre, toy_blob, cfg)
    raw = SvddModel.build(2, output_dim=2, hidden=(8,), seed=3)
    svdd_init_center(raw, toy_blob)
    for model in (pre, raw):
        losses, _ = train_svdd(model, toy_blob, cfg)
        assert np.all(np.isfinite(losses))
        assert np.isfinite(svdd_loss_grads(model, toy_blob[:4])[0])


# ------------------------------------------------ parameter and gradient storage

_STORE_CFG = TrainConfig(epochs=(2, 1), learning_rates=(1e-3, 1e-4), batch_size=32, seed=9)


def _svdd_trained(data, pretrain):
    model = SvddModel.build(2, output_dim=2, hidden=(8,), weight_decay=1e-2, seed=9)
    if pretrain:
        pretrain_with_autoencoder(model, data, _STORE_CFG)
    else:
        svdd_init_center(model, data)
    train_svdd(model, data, _STORE_CFG)
    return model


def _vae_trained(data):
    model = VaeModel.build(2, latent_dim=1, hidden=(8, 4), seed=9)
    train_vae(model, data, _STORE_CFG)
    return model


_TRAINED = {
    "train_svdd": lambda data: _svdd_trained(data, pretrain=False),
    "pretrain_then_train_svdd": lambda data: _svdd_trained(data, pretrain=True),
    "train_vae": _vae_trained,
}


def _networks(model):
    return [model.mapper] if isinstance(model, SvddModel) else [model.encoder, model.decoder]


def _score(model, block):
    if isinstance(model, SvddModel):
        return SvddScorer(model).score(block)
    return VaeScorer(model).score_many(block, 3, np.random.default_rng(0))


@pytest.mark.parametrize("train", _TRAINED.values(), ids=list(_TRAINED))
def test_trained_and_loaded_networks_keep_their_arrays_in_the_flat_vector(train, toy_blob,
                                                                          tmp_path):
    model = train(toy_blob)
    save_model(tmp_path / "model.icad", model)
    loaded = load_model(tmp_path / "model.icad")
    _score(loaded, toy_blob[:5])
    assert all(net.grad is not None for net in _networks(model))
    # loading and scoring allocate no gradients: an inference-only network holds none
    assert all(net.grad is None for net in _networks(loaded))
    for net in _networks(model) + _networks(loaded):
        assert_views_of_flat(net, toy_blob[:5] if net.input_dim == 2 else np.ones((5, 1)))


@pytest.mark.xfail(
    strict=True,
    reason="at desk scale random-init dense mappers collapse more easily than "
    "autoencoder-initialized ones, so pretraining does not reach a lower loss "
    "(see the decisions ledger); kept as the documented expectation",
)
def test_pretraining_reaches_lower_final_loss(toy_blob):
    wins = 0
    for seed in range(20):
        cfg = TrainConfig(epochs=(8, 2), learning_rates=(1e-3, 1e-4), batch_size=32, seed=seed)
        pre = SvddModel.build(2, output_dim=2, hidden=(16, 8), weight_decay=1e-4, seed=seed)
        pretrain_with_autoencoder(
            pre, toy_blob,
            TrainConfig(epochs=(40, 10), learning_rates=(1e-2, 1e-3), batch_size=32, seed=seed),
        )
        pre_losses, _ = train_svdd(pre, toy_blob, cfg)
        raw = SvddModel.build(2, output_dim=2, hidden=(16, 8), weight_decay=1e-4, seed=seed)
        svdd_init_center(raw, toy_blob)
        raw_losses, _ = train_svdd(raw, toy_blob, cfg)
        wins += pre_losses[-1] < raw_losses[-1]
    print(f"pretraining wins {wins}/20")
    assert wins >= 14


def _nets(*dims):
    rng = np.random.default_rng(0)
    return [init_mlp(d, ["identity"], True, rng) for d in dims]


def _vae():
    return VaeModel.build(3, latent_dim=1, hidden=(4,))


def _svdd(centered=False):
    model = SvddModel.build(3, output_dim=2, hidden=(4,))
    if centered:
        svdd_init_center(model, np.ones((5, 3)))
    return model


_ONE_EPOCH = TrainConfig(epochs=(1, 0), batch_size=4)
_NAN_DATA = np.where(np.eye(5, 3) > 0, np.nan, 1.0)
_ERRORS = {
    "vae-latent-zero": (lambda: VaeModel(*_nets((3, 2), (1, 3)), 0),
                        "latent dimension must be positive"),
    "vae-encoder-output": (lambda: VaeModel(*_nets((3, 3), (1, 3)), 1),
                           r"encoder output dim 3 must be 2\*latent_dim=2"),
    "vae-decoder-input": (lambda: VaeModel(*_nets((3, 2), (2, 3)), 1),
                          "decoder input dim must equal the latent dimension"),
    "vae-decoder-output": (lambda: VaeModel(*_nets((3, 2), (1, 4)), 1),
                           "decoder output dim must equal the encoder input dim"),
    "svdd-negative-weight-decay": (lambda: SvddModel.build(3, weight_decay=-1e-4),
                                   "weight decay must be nonnegative"),
    "svdd-nan-weight-decay": (lambda: SvddModel.build(3, weight_decay=np.nan),
                              "weight decay must be nonnegative and finite, got nan"),
    "svdd-inf-weight-decay": (lambda: SvddModel.build(3, weight_decay=np.inf),
                              "weight decay must be nonnegative and finite, got inf"),
    "zero-reconstructions": (lambda: sample_reconstructions(_vae(), np.zeros((1, 3)), 0,
                                                            np.random.default_rng(0)),
                             "count must be >= 1"),
    "train-vae-non-finite": (lambda: train_vae(_vae(), _NAN_DATA, _ONE_EPOCH),
                             "training set contains non-finite values"),
    "train-svdd-non-finite": (lambda: train_svdd(_svdd(centered=True), _NAN_DATA, _ONE_EPOCH),
                              "training set contains non-finite values"),
    "svdd-center-non-finite": (lambda: svdd_init_center(_svdd(), _NAN_DATA),
                               "training set contains non-finite values"),
    "pretrain-non-finite": (lambda: pretrain_with_autoencoder(_svdd(), _NAN_DATA, _ONE_EPOCH),
                            "training set contains non-finite values"),
    "train-vae-one-example-1d": (lambda: train_vae(_vae(), np.ones(3), _ONE_EPOCH),
                                 "training set must be a nonempty 2-D array"),
    "train-vae-wrong-width": (lambda: train_vae(_vae(), np.ones((5, 2)), _ONE_EPOCH),
                              "training set has dimension 2, expected 3"),
    "svdd-center-wrong-width": (lambda: svdd_init_center(_svdd(), np.ones((5, 2))),
                                "training set has dimension 2, expected 3"),
}


@pytest.mark.parametrize("call,message", _ERRORS.values(), ids=list(_ERRORS))
def test_invalid_arguments_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
