"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The statistical criteria run on the desk-scale synthetic scene with fixed
seeds; the detection-suite criterion drives the real CLI (tune, then
simulate) on models trained by the session fixtures.
"""

import csv
import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from icad.cli import EXIT_OK, main
from icad.conformal import (
    MartingaleState,
    SvddPipeline,
    calibration_scores,
    mixture_martingale_log,
)
from icad.episodes import SceneGenerator, benchmark_timing, generate_dataset
from icad.models import SvddModel, VaeModel, svdd_init_center
from icad.nonconformity import SvddScorer
from icad.persistence import (
    BadMagicError,
    UnsortedScoresError,
    load_calibration,
    load_model,
    save_calibration,
    save_config,
    save_dataset,
    save_model,
)

from conftest import (
    SCENE_SIDE, finite_difference_grads, grad_check_params, integrate_power_factor,
    max_relative_error, svdd_loss_grads, vae_loss_grads,
)


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"acceptance criterion {criterion:2d}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def big_svdd_cal(scene_svdd):
    """A large calibration set keeps its own sampling error well inside the
    KS allowance of the uniformity criterion."""
    gen = SceneGenerator(side=SCENE_SIDE, seed=303)
    examples, _ = generate_dataset(gen, 20000, (0.0, 20.0))
    return calibration_scores(SvddScorer(scene_svdd), examples)


@pytest.fixture(scope="module")
def indist_pvalue_stream(scene_svdd, big_svdd_cal):
    """5000 held-out in-distribution examples streamed through the SVDD
    pipeline; returns (p_values, elapsed_seconds)."""
    gen = SceneGenerator(side=SCENE_SIDE, seed=404)
    rng = np.random.default_rng(404)
    pipe = SvddPipeline(scene_svdd, big_svdd_cal, window=10, tau=math.inf, seed=5)
    start = time.perf_counter()
    r_values = rng.uniform(0.0, 20.0, size=5000)
    ps = np.array([pipe.step(gen.example(r, rng)).p for r in r_values])
    return ps, time.perf_counter() - start


def test_criterion_1_calibration_guarantee(indist_pvalue_stream):
    ps, elapsed = indist_pvalue_stream
    rates = {eps: float(np.mean(ps < eps)) for eps in (0.01, 0.05, 0.1)}
    ok = all(rate <= eps + 0.02 for eps, rate in rates.items()) and elapsed < 60.0
    detail = ", ".join(f"P(p<{eps})={rate:.4f}" for eps, rate in rates.items())
    _report(1, ok, f"{detail}, runtime {elapsed:.1f}s")


def test_criterion_2_pvalue_uniformity(indist_pvalue_stream, big_svdd_cal):
    ps, _ = indist_pvalue_stream
    ks = stats.kstest(ps, "uniform").statistic
    bound = stats.kstwo.isf(0.01, len(ps)) + 1.0 / (len(big_svdd_cal) + 1)
    _report(2, ks < bound, f"KS={ks:.5f} vs 1% critical + smoothing = {bound:.5f}")


def test_criterion_3_martingale_closed_forms():
    worst_closed = max(
        abs(mixture_martingale_log(0.0, n) - (-math.log(n + 1.0))) for n in range(1, 51)
    )
    worst_n1 = 0.0
    for p in (0.9, 0.5, 0.1, 0.01, 0.005, 0.001):
        oracle, _ = quad(lambda e: e * p ** (e - 1.0), 0.0, 1.0, epsabs=1e-10, epsrel=1e-12)
        worst_n1 = max(worst_n1, abs(mixture_martingale_log(math.log(p), 1) - math.log(oracle)))
    worst_unit = max(
        abs(integrate_power_factor(0.1 * k) - 1.0) for k in range(1, 10)
    )
    ok = worst_closed < 1e-6 and worst_n1 < 1e-8 and worst_unit < 1e-6
    _report(3, ok, f"all-p=1 err {worst_closed:.2e}, N=1 vs quad err {worst_n1:.2e}, "
                   f"unit-mean err {worst_unit:.2e}")


def test_criterion_4_recursive_window_exactness():
    rng = np.random.default_rng(44)
    state = MartingaleState.warmed_up(10, rng)
    worst = 0.0
    for _ in range(10000):
        state.push(float(np.log(1.0 - rng.random())))
        recursive = state.mixture_log()
        scratch = mixture_martingale_log(float(sum(state.window)), len(state.window))
        worst = max(worst, abs(recursive - scratch))
    _report(4, worst < 1e-9, f"max |recursive - from-scratch| = {worst:.2e} over 10000 steps")


def test_criterion_5_gradient_correctness():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        vae = VaeModel.build(5, latent_dim=2, hidden=(4,), seed=seed)
        z, noise = rng.normal(size=5), rng.normal(size=2)
        _, grads = vae_loss_grads(vae, z, noise)
        params = vae.encoder.parameters() + vae.decoder.parameters()
        names = vae.encoder.parameter_names() + vae.decoder.parameter_names()
        rep = grad_check_params(params, names, lambda: vae_loss_grads(vae, z, noise)[0], grads)
        worst = max(worst, rep.max_rel_error)

        svdd = SvddModel.build(4, output_dim=3, hidden=(5,), weight_decay=0.01, seed=seed)
        data = rng.normal(size=(6, 4))
        svdd_init_center(svdd, data)
        _, sgrads = svdd_loss_grads(svdd, data)
        rep = grad_check_params(
            svdd.mapper.parameters(), svdd.mapper.parameter_names(),
            lambda: svdd_loss_grads(svdd, data)[0], sgrads,
        )
        worst = max(worst, rep.max_rel_error)

    # negative control: doubling the gradients must fail the check
    rng = np.random.default_rng(0)
    vae = VaeModel.build(5, latent_dim=2, hidden=(4,), seed=0)
    z, noise = rng.normal(size=5), rng.normal(size=2)
    _, grads = vae_loss_grads(vae, z, noise)
    params = vae.encoder.parameters() + vae.decoder.parameters()
    numeric = finite_difference_grads(params, lambda: vae_loss_grads(vae, z, noise)[0])
    corrupted_err, _ = max_relative_error([2.0 * g for g in grads], numeric)
    ok = worst < 1e-4 and corrupted_err > 1e-4
    _report(5, ok, f"max rel err {worst:.2e} over 100 seeds x 2 losses; "
                   f"corrupted-gradient control err {corrupted_err:.2e}")


def test_criterion_6_svdd_training_contract(toy_svdd, two_blobs):
    model, _, dists = toy_svdd
    blob_in, blob_out = two_blobs
    scorer = SvddScorer(model)
    held_in = [scorer.score(z[None])[0] for z in blob_in[200:]]
    ood = [scorer.score(z[None])[0] for z in blob_out]
    ratio = dists[-1] / dists[0]
    q3 = float(np.percentile(held_in, 75))
    med = float(np.median(ood))
    ok = ratio <= 0.5 and med > q3
    _report(6, ok, f"distance ratio {ratio:.3f} (<=0.5), OOD median {med:.3f} > in Q3 {q3:.3f}")


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory, scene_vae, scene_svdd, scene_vae_cal, scene_svdd_cal):
    """Scene models and calibrations saved to disk, plus simulate configs."""
    root = tmp_path_factory.mktemp("acceptance_cli")
    paths = {"root": root}
    save_model(root / "vae.icad", scene_vae)
    save_model(root / "svdd.icad", scene_svdd)
    save_calibration(root / "vae_cal.icad", scene_vae_cal)
    save_calibration(root / "svdd_cal.icad", scene_svdd_cal)
    for method in ("vae", "svdd"):
        save_config(root / f"{method}_base.txt", {
            "model": root / f"{method}.icad",
            "cal": root / f"{method}_cal.icad",
            "n": 10, "delta": 6.0, "tau": 156.0 if method == "vae" else 14.0,
            "max_steps": 150, "ood_fraction": 0.5, "ood_margin": 5.0, "seed": 500,
        })
        paths[method] = root / f"{method}_base.txt"
    return paths


def _best_grid_point(grid_csv):
    with open(grid_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    feasible = [r for r in rows if int(r["false_positives"]) == 0]
    assert feasible, "tune produced no zero-false-positive grid point"
    return min(feasible, key=lambda r: (int(r["false_negatives"]), float(r["objective"])))


def test_criterion_7_detection_suite(cli_artifacts):
    start = time.perf_counter()
    outcomes = {}
    grids = {
        "vae": "delta=2,4,6,8,10,12,16,20,24;tau=20,40,80,120,160,240",
        "svdd": "tau=4,5,6,8,10,12,14,17,20",
    }
    for method in ("vae", "svdd"):
        root = cli_artifacts["root"]
        grid_csv = root / f"{method}_grid.csv"
        code = main(["tune", "--method", method, "--config", str(cli_artifacts[method]),
                     "--grid", grids[method], "--episodes", "30", "--seed", "500",
                     "--out", str(grid_csv)])
        assert code == EXIT_OK
        best = _best_grid_point(grid_csv)
        eval_cfg = root / f"{method}_eval.txt"
        tau = float(best["tau"])
        delta = float(best["delta"]) if best["delta"] else 6.0
        save_config(eval_cfg, {
            "model": root / f"{method}.icad", "cal": root / f"{method}_cal.icad",
            "n": 10, "delta": delta, "tau": tau, "max_steps": 150,
            "ood_fraction": 0.5, "ood_margin": 5.0, "seed": 900,
        })
        out_dir = root / f"{method}_eval"
        code = main(["simulate", "--episodes", "50", "--method", method,
                     "--config", str(eval_cfg), "--out", str(out_dir)])
        assert code == EXIT_OK
        with open(out_dir / "episodes.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        fp = sum(r["verdict"] == "false_positive" for r in rows)
        fn = sum(r["verdict"] == "false_negative" for r in rows)
        delays = [int(r["delay_frames"]) for r in rows if r["delay_frames"]]
        mean_delay = float(np.mean(delays)) if delays else math.inf
        outcomes[method] = (fp, fn, mean_delay, delta, tau)
    elapsed = time.perf_counter() - start
    ok = elapsed < 600.0
    details = []
    for method, (fp, fn, mean_delay, delta, tau) in outcomes.items():
        ok = ok and fn == 0 and fp <= 1 and mean_delay <= 25.0
        details.append(f"{method}(delta={delta:g},tau={tau:g}): FP {fp}/25, FN {fn}/25, "
                       f"delay {mean_delay:.1f}")
    _report(7, ok, "; ".join(details) + f"; runtime {elapsed:.0f}s")


def test_criterion_8_timing_properties(scene_gen, scene_vae, scene_svdd,
                                       scene_vae_cal, scene_svdd_cal):
    svdd_rows = benchmark_timing(
        lambda n: SvddPipeline(scene_svdd, scene_svdd_cal, window=n, tau=math.inf, seed=0),
        scene_gen, [5, 10, 20], steps=1000, seed=8,
    )
    svdd_medians = [row.q2_ms for row in svdd_rows]
    svdd_spread = max(svdd_medians) / min(svdd_medians)

    from icad.conformal import VaePipeline

    vae_rows = benchmark_timing(
        lambda n: VaePipeline(scene_vae, scene_vae_cal, n_samples=n, delta=6.0,
                              tau=math.inf, seed=0),
        scene_gen, [5, 10, 20], steps=1000, seed=8,
    )
    vae_medians = [row.q2_ms for row in vae_rows]
    inc1 = vae_medians[1] - vae_medians[0]
    inc2 = vae_medians[2] - vae_medians[1]
    monotone = vae_medians[0] < vae_medians[1] < vae_medians[2]
    # doubling N should roughly double the marginal cost
    linearish = inc1 > 0 and 1.0 <= inc2 / inc1 <= 4.0
    ok = svdd_spread < 1.2 and monotone and linearish
    _report(8, ok, f"svdd medians {['%.3f' % m for m in svdd_medians]} ms "
                   f"(spread x{svdd_spread:.2f}); vae medians "
                   f"{['%.3f' % m for m in vae_medians]} ms (increment ratio "
                   f"{inc2 / inc1:.2f})")


def test_criterion_9_persistence_round_trips(tmp_path):
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        svdd = SvddModel.build(5, output_dim=3, hidden=(6,), weight_decay=1e-3, seed=seed)
        svdd_init_center(svdd, rng.normal(size=(6, 5)))
        path = tmp_path / "m.icad"
        save_model(path, svdd)
        save_model(tmp_path / "m2.icad", load_model(path))
        if path.read_bytes() != (tmp_path / "m2.icad").read_bytes():
            failures += 1

        vae = VaeModel.build(6, latent_dim=2, hidden=(5,), seed=seed)
        vpath = tmp_path / "v.icad"
        save_model(vpath, vae)
        save_model(tmp_path / "v2.icad", load_model(vpath))
        if vpath.read_bytes() != (tmp_path / "v2.icad").read_bytes():
            failures += 1

        scores = np.sort(rng.normal(size=20))
        from icad.conformal import CalibrationSet

        cal = CalibrationSet(scores, "svdd", SvddScorer(svdd).fingerprint())
        cpath = tmp_path / "c.icad"
        save_calibration(cpath, cal)
        save_calibration(tmp_path / "c2.icad", load_calibration(cpath))
        if cpath.read_bytes() != (tmp_path / "c2.icad").read_bytes():
            failures += 1

        x = rng.normal(size=(5, 4))
        dpath = tmp_path / "d.icad"
        save_dataset(dpath, x, rng.uniform(0, 20, 5))
        from icad.persistence import load_dataset

        x2, r2 = load_dataset(dpath)
        save_dataset(tmp_path / "d2.icad", x2, r2)
        if dpath.read_bytes() != (tmp_path / "d2.icad").read_bytes():
            failures += 1

    bad_magic_ok = False
    (tmp_path / "bad.icad").write_bytes(b"WRONGMAG" + b"\x00" * 64)
    try:
        load_model(tmp_path / "bad.icad")
    except BadMagicError:
        bad_magic_ok = True

    unsorted_ok = False
    cal = CalibrationSet(np.array([1.0, 2.0]), "knn", b"abcdefgh")
    save_calibration(tmp_path / "c.icad", cal)
    raw = bytearray((tmp_path / "c.icad").read_bytes())
    raw[-16:] = raw[-8:] + raw[-16:-8]
    (tmp_path / "c.icad").write_bytes(bytes(raw))
    try:
        load_calibration(tmp_path / "c.icad")
    except UnsortedScoresError:
        unsorted_ok = True

    ok = failures == 0 and bad_magic_ok and unsorted_ok
    _report(9, ok, f"{failures} round-trip failures over 100 seeds x 4 formats; "
                   f"bad-magic error {'raised' if bad_magic_ok else 'MISSING'}, "
                   f"unsorted-scores error {'raised' if unsorted_ok else 'MISSING'}")


def test_criterion_10_reproducibility(cli_artifacts, tmp_path):
    root = cli_artifacts["root"]
    stream = tmp_path / "stream.icad"
    gen = SceneGenerator(side=SCENE_SIDE, seed=1010)
    examples, r_values = generate_dataset(gen, 60, (0.0, 20.0))
    save_dataset(stream, examples, r_values)

    detect_outs = []
    for name in ("det1.csv", "det2.csv"):
        out = tmp_path / name
        code = main(["detect", "--method", "vae", "--model", str(root / "vae.icad"),
                     "--cal", str(root / "vae_cal.icad"), "--input", str(stream),
                     "--N", "10", "--delta", "6", "--tau", "156", "--seed", "3",
                     "--out", str(out)])
        assert code in (0, 2)
        detect_outs.append(out.read_bytes())

    sim_dirs = []
    for name in ("sim1", "sim2"):
        out_dir = tmp_path / name
        code = main(["simulate", "--episodes", "6", "--method", "svdd",
                     "--config", str(cli_artifacts["svdd"]), "--out", str(out_dir),
                     "--seed", "77"])
        assert code == EXIT_OK
        sim_dirs.append(out_dir)
    sim_identical = all(
        (sim_dirs[0] / p.name).read_bytes() == (sim_dirs[1] / p.name).read_bytes()
        for p in sorted(sim_dirs[0].glob("*.csv"))
    ) and len(list(sim_dirs[0].glob("*.csv"))) == len(list(sim_dirs[1].glob("*.csv")))

    ok = detect_outs[0] == detect_outs[1] and sim_identical
    _report(10, ok, f"detect CSVs identical: {detect_outs[0] == detect_outs[1]}; "
                    f"simulate outputs identical: {sim_identical}")
