"""End-to-end CLI behavior on a miniature scene: exit codes, file contracts,
reproducibility. Everything runs in-process through main(argv)."""

import csv
import errno
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from icad.cli import EXIT_ALARM, EXIT_ERROR, EXIT_OK, _parse_grid, _sim_params, main
from icad.persistence import load_calibration, load_config, load_dataset, save_config, save_dataset


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A miniature end-to-end workspace: data, models, calibrations."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "train": root / "train.icad",
        "cal_data": root / "cal_data.icad",
        "in_stream": root / "in_stream.icad",
        "ood_stream": root / "ood_stream.icad",
        "vae": root / "vae.icad",
        "svdd": root / "svdd.icad",
        "vae_cal": root / "vae_cal.icad",
        "svdd_cal": root / "svdd_cal.icad",
        "root": root,
    }
    base = ["--dim", "64", "--r-min", "0", "--r-max", "20"]
    assert main(["gen-data", "--out", str(paths["train"]), "--count", "150", *base,
                 "--seed", "1"]) == EXIT_OK
    assert main(["gen-data", "--out", str(paths["cal_data"]), "--count", "120", *base,
                 "--seed", "2"]) == EXIT_OK
    assert main(["gen-data", "--out", str(paths["in_stream"]), "--count", "40", *base,
                 "--seed", "3"]) == EXIT_OK
    assert main(["gen-data", "--out", str(paths["ood_stream"]), "--count", "40",
                 "--dim", "64", "--r-min", "60", "--r-max", "80", "--seed", "4"]) == EXIT_OK
    assert main(["train-vae", "--data", str(paths["train"]), "--out", str(paths["vae"]),
                 "--epochs", "15", "--epochs2", "5", "--lr", "1e-3", "--lr2", "1e-4",
                 "--hidden", "32,16", "--latent", "4", "--batch", "32", "--seed", "5"]) == EXIT_OK
    assert main(["train-svdd", "--data", str(paths["train"]), "--out", str(paths["svdd"]),
                 "--epochs", "10", "--epochs2", "5", "--lr", "5e-5", "--lr2", "1e-5",
                 "--hidden", "128", "--out-dim", "16", "--batch", "32", "--seed", "6"]) == EXIT_OK
    assert main(["calibrate", "--scorer", "vae", "--model", str(paths["vae"]),
                 "--cal-data", str(paths["cal_data"]), "--out", str(paths["vae_cal"])]) == EXIT_OK
    assert main(["calibrate", "--scorer", "svdd", "--model", str(paths["svdd"]),
                 "--cal-data", str(paths["cal_data"]), "--out", str(paths["svdd_cal"])]) == EXIT_OK
    return paths


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_gen_data_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.icad", tmp_path / "b.icad"
    args = ["--count", "20", "--dim", "64", "--r-min", "0", "--r-max", "20", "--seed", "9"]
    assert main(["gen-data", "--out", str(a), *args]) == EXIT_OK
    assert main(["gen-data", "--out", str(b), *args]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args,sha256", [
    (["--count", "1100", "--dim", "64", "--seed", "7"],
     "ae35e879812c5f8eef0edc6111f495226d38c4d0edc822f1d4683e718d548dac"),
    (["--count", "3", "--dim", "16", "--r-min", "5", "--r-max", "30", "--seed", "0"],
     "bfb3abfb2b6d9e5c11de427c5d527b70d594bf5581698a4770df970f09c0b04f"),
    # r in [30, 60]: 12 to 24 streaks a frame, overlapping and clipping
    (["--count", "64", "--dim", "256", "--r-min", "30", "--r-max", "60", "--seed", "11"],
     "810648e5e525b69c13a76fff33713474d727158d0009f766162a0f05d575b704"),
])
def test_gen_data_file_bytes_are_pinned(tmp_path, args, sha256):
    # digests of files written when gen-data still stacked every frame and
    # wrote the file in one piece, and (the r in [30, 60] row) when each
    # streak still drew its own position; neither block-wise generation nor
    # the array draws may move a byte
    out = tmp_path / "d.icad"
    assert main(["gen-data", "--out", str(out), *args]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_gen_data_rejects_zero_count(tmp_path, capsys):
    code = main(["gen-data", "--out", str(tmp_path / "x.icad"), "--count", "0", "--dim", "64"])
    assert code == EXIT_ERROR
    assert "positive integer" in capsys.readouterr().err


def test_gen_data_rejects_non_square_dim(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path / "x.icad"), "--count", "2",
                 "--dim", "60"]) == EXIT_ERROR


def test_gen_data_records_run_config(work):
    sidecar = work["train"].with_name(work["train"].name + ".config.txt")
    text = sidecar.read_text()
    assert "command=gen-data" in text and "seed=1" in text


def test_train_smoke_single_epoch(work, tmp_path):
    out = tmp_path / "tiny.icad"
    code = main(["train-vae", "--data", str(work["train"]), "--out", str(out),
                 "--epochs", "1", "--epochs2", "0", "--hidden", "8", "--latent", "2",
                 "--seed", "0"])
    assert code == EXIT_OK
    assert out.exists()
    loss_rows = _rows(out.with_name(out.name + ".loss.csv"))
    assert loss_rows[0] == ["epoch", "loss"]
    assert len(loss_rows) == 2


def test_train_rerun_reproduces_loss_curve(work, tmp_path):
    outs = []
    for name in ("r1.icad", "r2.icad"):
        out = tmp_path / name
        assert main(["train-vae", "--data", str(work["train"]), "--out", str(out),
                     "--epochs", "3", "--epochs2", "1", "--hidden", "8", "--latent", "2",
                     "--seed", "11"]) == EXIT_OK
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    curves = [
        (outs[0].with_name(outs[0].name + ".loss.csv")).read_bytes(),
        (outs[1].with_name(outs[1].name + ".loss.csv")).read_bytes(),
    ]
    assert curves[0] == curves[1]


def test_train_svdd_pretrain_flag(work, tmp_path):
    out = tmp_path / "pre.icad"
    assert main(["train-svdd", "--data", str(work["train"]), "--out", str(out),
                 "--epochs", "2", "--epochs2", "0", "--pretrain", "--pre-epochs", "2",
                 "--pre-epochs2", "0", "--hidden", "16", "--out-dim", "4",
                 "--seed", "1"]) == EXIT_OK
    assert out.exists()


def test_calibrate_split_mode_matches_algorithm(work, tmp_path):
    # one file of l=10 split at m=8 gives a sorted 2-score calibration set
    data = tmp_path / "ten.icad"
    assert main(["gen-data", "--out", str(data), "--count", "10", "--dim", "64",
                 "--seed", "21"]) == EXIT_OK
    out = tmp_path / "knn_cal.icad"
    assert main(["calibrate", "--scorer", "knn", "--train-data", str(data),
                 "--split-m", "8", "--k", "3", "--out", str(out)]) == EXIT_OK
    cal = load_calibration(out)
    assert len(cal) == 2
    assert cal.scorer_kind == "knn"
    assert np.all(np.diff(cal.scores) >= 0)


def test_calibrate_kde_needs_train_data(work, tmp_path, capsys):
    code = main(["calibrate", "--scorer", "kde", "--cal-data", str(work["cal_data"]),
                 "--out", str(tmp_path / "c.icad")])
    assert code == EXIT_ERROR
    assert "train-data" in capsys.readouterr().err


def test_calibrate_kde_with_explicit_bandwidth(work, tmp_path):
    out = tmp_path / "kde_cal.icad"
    assert main(["calibrate", "--scorer", "kde", "--train-data", str(work["train"]),
                 "--cal-data", str(work["cal_data"]), "--bandwidth", "0.5",
                 "--out", str(out)]) == EXIT_OK
    cal = load_calibration(out)
    assert cal.scorer_kind == "kde"
    assert len(cal) == 120


def test_calibrate_vae_sampled_scores(work, tmp_path):
    out = tmp_path / "sampled_cal.icad"
    assert main(["calibrate", "--scorer", "vae", "--model", str(work["vae"]),
                 "--cal-data", str(work["cal_data"]), "--cal-samples", "3",
                 "--seed", "1", "--out", str(out)]) == EXIT_OK
    assert len(load_calibration(out)) == 120 * 3


def test_calibrate_dimension_mismatch_is_error(work, tmp_path, capsys):
    wrong = tmp_path / "wrong_dim.icad"
    assert main(["gen-data", "--out", str(wrong), "--count", "10", "--dim", "144",
                 "--seed", "1"]) == EXIT_OK
    code = main(["calibrate", "--scorer", "vae", "--model", str(work["vae"]),
                 "--cal-data", str(wrong), "--out", str(tmp_path / "c.icad")])
    assert code == EXIT_ERROR
    assert "dimension" in capsys.readouterr().err


def test_detect_clean_stream_exits_zero(work, tmp_path):
    out = tmp_path / "diag.csv"
    code = main(["detect", "--method", "svdd", "--model", str(work["svdd"]),
                 "--cal", str(work["svdd_cal"]), "--input", str(work["in_stream"]),
                 "--N", "10", "--tau", "20", "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    rows = _rows(out)
    assert rows[0] == ["step", "score", "p", "log_m", "s", "alarm"]
    assert len(rows) == 41
    assert all(row[5] == "0" for row in rows[1:])


def test_detect_ood_stream_exits_two_with_alarm_step(work, tmp_path):
    out = tmp_path / "diag_ood.csv"
    code = main(["detect", "--method", "svdd", "--model", str(work["svdd"]),
                 "--cal", str(work["svdd_cal"]), "--input", str(work["ood_stream"]),
                 "--N", "10", "--tau", "8", "--seed", "0", "--out", str(out)])
    assert code == EXIT_ALARM
    rows = _rows(out)
    alarms = [row for row in rows[1:] if row[5] == "1"]
    assert alarms, "expected at least one alarm row in the diagnostics CSV"


def test_detect_vae_diagnostics_have_per_sample_pvalues(work, tmp_path):
    out = tmp_path / "diag_vae.csv"
    code = main(["detect", "--method", "vae", "--model", str(work["vae"]),
                 "--cal", str(work["vae_cal"]), "--input", str(work["in_stream"]),
                 "--N", "5", "--delta", "6", "--tau", "156", "--seed", "0",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = _rows(out)
    assert rows[0] == ["step", "score", "p_1", "p_2", "p_3", "p_4", "p_5", "log_m", "s", "alarm"]


def test_detect_rejects_n_zero(work, tmp_path, capsys):
    code = main(["detect", "--method", "svdd", "--model", str(work["svdd"]),
                 "--cal", str(work["svdd_cal"]), "--input", str(work["in_stream"]),
                 "--N", "0", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_ERROR
    assert "positive integer" in capsys.readouterr().err


def test_detect_rejects_mismatched_calibration(work, tmp_path, capsys):
    code = main(["detect", "--method", "svdd", "--model", str(work["svdd"]),
                 "--cal", str(work["vae_cal"]), "--input", str(work["in_stream"]),
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "calibration" in err


@pytest.mark.parametrize("method", ["vae", "svdd"])
def test_detect_non_finite_frame_is_error_without_output(work, tmp_path, capsys, method):
    frames, _ = load_dataset(work["in_stream"])
    frames[5, 3] = np.nan
    bad = tmp_path / "nan.icad"
    save_dataset(bad, frames)
    out = tmp_path / "diag.csv"
    code = main(["detect", "--method", method, "--model", str(work[method]),
                 "--cal", str(work[f"{method}_cal"]), "--input", str(bad), "--out", str(out)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("icad: error: ") and "example contains non-finite values" in err
    assert not out.exists() and not out.with_name(out.name + ".config.txt").exists()


def test_detect_rerun_is_byte_identical(work, tmp_path):
    outs = []
    for name in ("d1.csv", "d2.csv"):
        out = tmp_path / name
        assert main(["detect", "--method", "vae", "--model", str(work["vae"]),
                     "--cal", str(work["vae_cal"]), "--input", str(work["in_stream"]),
                     "--N", "5", "--delta", "6", "--tau", "156", "--seed", "7",
                     "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _sim_config(work, path, method, tau):
    save_config(path, {
        "model": work["vae" if method == "vae" else "svdd"],
        "cal": work["vae_cal" if method == "vae" else "svdd_cal"],
        "n": 10, "delta": 6.0, "tau": tau, "max_steps": 60,
        "ood_fraction": 0.5, "ood_margin": 5.0, "seed": 3,
    })


def test_readme_sim_config_reads_as_printed(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("read a plain `key=value` config file:\n\n```\n", 1)[1]
    path = tmp_path / "sim.txt"
    path.write_text(block.split("```", 1)[0])
    cfg = load_config(path)
    assert (cfg["model"], cfg["cal"]) == ("svdd.icad", "svdd_cal.icad")
    assert _sim_params(cfg, "svdd", None) == (10, 6.0, 10.0, 150, 0.5, 5.0, 500)


def test_simulate_smoke_one_episode(work, tmp_path):
    import time

    cfg = tmp_path / "sim.txt"
    _sim_config(work, cfg, "svdd", tau=10.0)
    out_dir = tmp_path / "sim_out"
    start = time.perf_counter()
    code = main(["simulate", "--episodes", "1", "--method", "svdd",
                 "--config", str(cfg), "--out", str(out_dir)])
    assert time.perf_counter() - start < 10.0
    assert code == EXIT_OK
    episodes = _rows(out_dir / "episodes.csv")
    assert episodes[0] == ["episode", "label", "onset_step", "alarm_step", "verdict",
                           "delay_frames"]
    assert len(episodes) == 2
    summary = _rows(out_dir / "summary.csv")
    assert summary[0] == ["parameters", "false_positive", "false_negative",
                          "avg_delay_frames"]
    assert (out_dir / "episode_000.csv").exists()
    assert (out_dir / "config.txt").exists()


def test_simulate_rerun_is_byte_identical(work, tmp_path):
    cfg = tmp_path / "sim.txt"
    _sim_config(work, cfg, "svdd", tau=10.0)
    dirs = []
    for name in ("s1", "s2"):
        out_dir = tmp_path / name
        assert main(["simulate", "--episodes", "4", "--method", "svdd",
                     "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        dirs.append(out_dir)
    for rel in ("episodes.csv", "summary.csv", "episode_000.csv", "episode_003.csv"):
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel


def test_simulate_refuses_a_directory_with_another_runs_episodes(work, tmp_path, capsys):
    cfg = tmp_path / "sim.txt"
    _sim_config(work, cfg, "svdd", tau=10.0)
    out_dir = tmp_path / "sim_out"

    def simulate(episodes):
        return main(["simulate", "--episodes", str(episodes), "--method", "svdd",
                     "--config", str(cfg), "--out", str(out_dir)])

    assert simulate(4) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert "episode_003.csv" in before
    capsys.readouterr()
    assert simulate(2) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("icad: error: ") and err.count("\n") == 1
    assert str(out_dir / "episode_002.csv") in err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
    # the same count reruns in place
    assert simulate(4) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


@pytest.mark.parametrize("fail_at", [1, 3, 7])
def test_simulate_write_error_leaves_only_whole_files(work, tmp_path, capsys, monkeypatch,
                                                      fail_at):
    # an earlier run fills the directory; a rerun with another seed fails to
    # write its 1st (episodes.csv), 3rd (episode_000.csv) or last file
    # (config.txt, the completion mark): each file is the rerun's whole or
    # the earlier run's whole, and no temporary file is left
    cfg = tmp_path / "sim.txt"
    _sim_config(work, cfg, "svdd", tau=10.0)

    def simulate(out_dir, seed):
        return main(["simulate", "--episodes", "4", "--method", "svdd", "--config", str(cfg),
                     "--seed", str(seed), "--out", str(out_dir)])

    def files(out_dir):
        return {p.name: p.read_bytes() for p in out_dir.iterdir()}

    assert simulate(tmp_path / "rerun", 8) == EXIT_OK
    assert simulate(tmp_path / "out", 7) == EXIT_OK
    rerun, earlier = files(tmp_path / "rerun"), files(tmp_path / "out")
    assert rerun["episode_000.csv"] != earlier["episode_000.csv"]
    written = []
    replace = os.replace

    def failing_replace(src, dst):
        written.append(Path(dst).name)
        if len(written) == fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    capsys.readouterr()
    assert simulate(tmp_path / "out", 8) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "icad: error: [Errno 28] No space left on device\n"
    order = ["episodes.csv", "summary.csv", *(f"episode_{i:03d}.csv" for i in range(4)),
             "config.txt"]
    assert written == order[:fail_at]
    done = written[:-1]
    assert files(tmp_path / "out") == {
        name: rerun[name] if name in done else old for name, old in earlier.items()}


def test_tune_reports_feasible_point(work, tmp_path, capsys):
    cfg = tmp_path / "sim.txt"
    _sim_config(work, cfg, "svdd", tau=10.0)
    out = tmp_path / "grid.csv"
    code = main(["tune", "--method", "svdd", "--config", str(cfg),
                 "--grid", "tau=6,10,14,1000000", "--episodes", "6", "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "best:" in printed and "fp=0" in printed
    rows = _rows(out)
    assert rows[0] == ["delta", "tau", "false_positives", "false_negatives",
                       "mean_delay", "objective"]
    assert len(rows) == 5
    # the degenerate threshold never alarms: zero FP, all OOD missed
    degenerate = rows[-1]
    assert degenerate[2] == "0" and int(degenerate[3]) > 0


def test_tune_without_feasible_point_exits_one_and_keeps_the_grid(work, tmp_path, capsys):
    # a threshold far below zero alarms on the first step of every episode
    cfg = tmp_path / "sim.txt"
    _sim_config(work, cfg, "svdd", tau=10.0)
    out = tmp_path / "grid.csv"
    code = main(["tune", "--method", "svdd", "--config", str(cfg),
                 "--grid", "tau=-1000,-999", "--episodes", "4", "--out", str(out)])
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert "no grid point achieved zero false positives" in captured.err
    assert "best:" not in captured.out
    rows = _rows(out)
    assert [row[1] for row in rows[1:]] == ["-1000", "-999"]
    assert all(int(row[2]) > 0 for row in rows[1:])
    assert "command=tune" in out.with_name(out.name + ".config.txt").read_text()


def test_tune_requires_delta_for_vae(work, tmp_path, capsys):
    cfg = tmp_path / "sim.txt"
    _sim_config(work, cfg, "vae", tau=156.0)
    code = main(["tune", "--method", "vae", "--config", str(cfg),
                 "--grid", "tau=1,2", "--episodes", "2", "--out", str(tmp_path / "g.csv")])
    assert code == EXIT_ERROR
    assert "delta" in capsys.readouterr().err


def test_tune_rejects_delta_for_svdd(work, tmp_path, capsys):
    cfg = tmp_path / "sim.txt"
    _sim_config(work, cfg, "svdd", tau=10.0)
    out = tmp_path / "g.csv"
    code = main(["tune", "--method", "svdd", "--config", str(cfg),
                 "--grid", "delta=1,2;tau=12", "--episodes", "2", "--out", str(out)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "icad: error:" in err and "delta" in err
    assert not out.exists()


def test_bench_has_five_quartile_columns(work, tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--method", "svdd", "--model", str(work["svdd"]),
                 "--cal", str(work["svdd_cal"]), "--N-list", "5,10", "--steps", "30",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = _rows(out)
    assert rows[0] == ["method", "n", "min", "q1", "q2", "q3", "max"]
    assert len(rows) == 3
    for row in rows[1:]:
        quartile_values = [float(v) for v in row[2:]]
        assert len(quartile_values) == 5
        assert quartile_values == sorted(quartile_values)


def test_unknown_command_usage_error():
    assert main(["frobnicate"]) == EXIT_ERROR


def test_missing_file_is_reported_as_error(tmp_path, capsys):
    code = main(["detect", "--method", "svdd", "--model", str(tmp_path / "nope.icad"),
                 "--cal", str(tmp_path / "nope2.icad"), "--input", str(tmp_path / "n.icad"),
                 "--out", str(tmp_path / "d.csv")])
    assert code == EXIT_ERROR
    assert "error" in capsys.readouterr().err


# Every case exits 1 with a single "icad: error:" line naming the problem and
# leaves the output directory empty: no output file, no sidecar, no directory.
_ERROR_CASES = {
    "r-min-above-r-max": (["gen-data", "--out", "{out}/d.icad", "--count", "5", "--dim", "64",
                           "--r-min", "5", "--r-max", "1"], "r-min <= r-max"),
    "empty-hidden": (["train-vae", "--data", "{train}", "--out", "{out}/m.icad",
                      "--hidden", ""], "bad hidden layer spec"),
    "vae-model-as-svdd": (["calibrate", "--scorer", "svdd", "--model", "{vae}",
                           "--cal-data", "{cal_data}", "--out", "{out}/c.icad"],
                          "holds a vae model, expected svdd"),
    "split-m-too-large": (["calibrate", "--scorer", "knn", "--train-data", "{train}",
                           "--split-m", "150", "--out", "{out}/c.icad"], "--split-m must be in"),
    "split-m-zero": (["calibrate", "--scorer", "knn", "--train-data", "{train}",
                      "--split-m", "0", "--out", "{out}/c.icad"], "--split-m must be in"),
    "split-m-with-cal-data": (["calibrate", "--scorer", "knn", "--train-data", "{train}",
                               "--split-m", "100", "--cal-data", "{cal_data}",
                               "--out", "{out}/c.icad"], "--split-m and --cal-data"),
    "svdd-with-train-data": (["calibrate", "--scorer", "svdd", "--model", "{svdd}",
                              "--train-data", "{train}", "--cal-data", "{cal_data}",
                              "--out", "{out}/c.icad"], "takes no --train-data or --split-m"),
    "svdd-with-split-m": (["calibrate", "--scorer", "svdd", "--model", "{svdd}",
                           "--split-m", "100", "--cal-data", "{cal_data}",
                           "--out", "{out}/c.icad"], "takes no --train-data or --split-m"),
    "vae-without-model": (["calibrate", "--scorer", "vae", "--cal-data", "{cal_data}",
                           "--out", "{out}/c.icad"], "needs --model"),
    "knn-with-model": (["calibrate", "--scorer", "knn", "--model", "{root}/nonexistent.icad",
                        "--train-data", "{train}", "--cal-data", "{cal_data}",
                        "--out", "{out}/c.icad"], "the knn scorer takes no --model"),
    "knn-without-cal-data": (["calibrate", "--scorer", "knn", "--train-data", "{train}",
                              "--out", "{out}/c.icad"], "need --cal-data"),
    "k-above-training-size": (["calibrate", "--scorer", "knn", "--train-data", "{train}",
                               "--cal-data", "{cal_data}", "--k", "151",
                               "--out", "{out}/c.icad"], "k=151 out of range"),
    "negative-bandwidth": (["calibrate", "--scorer", "kde", "--train-data", "{train}",
                            "--cal-data", "{cal_data}", "--bandwidth", "-1",
                            "--out", "{out}/c.icad"], "bandwidth must be positive"),
    "negative-cal-samples": (["calibrate", "--scorer", "vae", "--model", "{vae}",
                              "--cal-data", "{cal_data}", "--cal-samples", "-1",
                              "--out", "{out}/c.icad"], "samples must be >= 0"),
    "detect-other-models-calibration": (["detect", "--method", "vae", "--model", "{vae}",
                                         "--cal", "{svdd_cal}", "--input", "{in_stream}",
                                         "--out", "{out}/d.csv"],
                                        "calibration was built with the 'svdd' scorer"),
    "sim-config-without-cal": (["simulate", "--episodes", "2", "--method", "svdd",
                                "--config", "{cfg_no_cal}", "--out", "{out}/sim"],
                               "missing 'cal'"),
    "sim-max-steps-zero": (["simulate", "--episodes", "2", "--method", "svdd",
                            "--config", "{cfg_zero_steps}", "--out", "{out}/sim"],
                           "max_steps must be >= 1"),
    "sim-config-unknown-keys": (["simulate", "--episodes", "2", "--method", "svdd",
                                 "--config", "{cfg_typo}", "--out", "{out}/sim"],
                                "has unknown keys: max_step, tua"),
    "sim-config-repeated-key": (["simulate", "--episodes", "2", "--method", "svdd",
                                 "--config", "{cfg_repeat}", "--out", "{out}/sim"],
                                "repeat.txt:4: key 'tau' repeats line 2"),
    "detect-tau-nan": (["detect", "--method", "svdd", "--model", "{svdd}", "--cal", "{svdd_cal}",
                        "--input", "{ood_stream}", "--tau", "nan", "--out", "{out}/d.csv"],
                       "tau must be finite, got nan"),
    "detect-tau-inf": (["detect", "--method", "svdd", "--model", "{svdd}", "--cal", "{svdd_cal}",
                        "--input", "{ood_stream}", "--tau", "inf", "--out", "{out}/d.csv"],
                       "tau must be finite, got inf"),
    "detect-delta-nan": (["detect", "--method", "vae", "--model", "{vae}", "--cal", "{vae_cal}",
                          "--input", "{ood_stream}", "--delta", "nan", "--out", "{out}/d.csv"],
                         "delta must be finite, got nan"),
    "sim-config-tau-nan": (["simulate", "--episodes", "2", "--method", "svdd",
                            "--config", "{cfg_tau_nan}", "--out", "{out}/sim"],
                           "tau must be finite, got nan"),
    "grid-tau-nan": (["tune", "--method", "svdd", "--config", "{cfg_svdd}",
                      "--grid", "tau=10,nan", "--episodes", "2", "--out", "{out}/g.csv"],
                     "tau must be finite, got nan"),
    "grid-without-tau": (["tune", "--method", "vae", "--config", "{cfg_vae}",
                          "--grid", "delta=6", "--episodes", "2", "--out", "{out}/g.csv"],
                         "grid must include tau"),
    "grid-unknown-dimension": (["tune", "--method", "svdd", "--config", "{cfg_svdd}",
                                "--grid", "tau=1;foo=2", "--episodes", "2",
                                "--out", "{out}/g.csv"], "unknown grid dimension 'foo'"),
    "grid-empty-values": (["tune", "--method", "svdd", "--config", "{cfg_svdd}",
                           "--grid", "tau=", "--episodes", "2", "--out", "{out}/g.csv"],
                          "empty grid for 'tau'"),
    "grid-without-equals": (["tune", "--method", "svdd", "--config", "{cfg_svdd}",
                             "--grid", "tau", "--episodes", "2", "--out", "{out}/g.csv"],
                            "bad grid component 'tau'"),
    "detect-svdd-delta": (["detect", "--method", "svdd", "--model", "{svdd}", "--cal", "{svdd_cal}",
                           "--input", "{in_stream}", "--delta", "99", "--out", "{out}/d.csv"],
                          "--delta is read only by the vae method"),
    "bench-svdd-delta": (["bench", "--method", "svdd", "--model", "{svdd}", "--cal", "{svdd_cal}",
                          "--delta", "nan", "--steps", "5", "--out", "{out}/b.csv"],
                         "--delta is read only by the vae method"),
    "svdd-with-k": (["calibrate", "--scorer", "svdd", "--model", "{svdd}", "--cal-data",
                     "{cal_data}", "--k", "3", "--out", "{out}/c.icad"],
                    "--k is read only by the knn scorer"),
    "svdd-with-bandwidth": (["calibrate", "--scorer", "svdd", "--model", "{svdd}", "--cal-data",
                             "{cal_data}", "--bandwidth", "-5", "--out", "{out}/c.icad"],
                            "--bandwidth is read only by the kde scorer"),
    "pre-epochs-without-pretrain": (["train-svdd", "--data", "{train}", "--out", "{out}/m.icad",
                                     "--pre-epochs", "5"],
                                    "--pre-epochs is read only with --pretrain"),
    "pre-epochs2-without-pretrain": (["train-svdd", "--data", "{train}", "--out", "{out}/m.icad",
                                      "--pre-epochs2", "5"],
                                     "--pre-epochs2 is read only with --pretrain"),
    "bench-empty-n-list": (["bench", "--method", "svdd", "--model", "{svdd}",
                            "--cal", "{svdd_cal}", "--N-list", "", "--steps", "5",
                            "--out", "{out}/b.csv"], "expected at least one integer"),
    "bench-bad-n-list": (["bench", "--method", "svdd", "--model", "{svdd}",
                          "--cal", "{svdd_cal}", "--N-list", "5,x", "--steps", "5",
                          "--out", "{out}/b.csv"], "expected comma-separated integers"),
}


@pytest.mark.parametrize("argv,message", _ERROR_CASES.values(), ids=list(_ERROR_CASES))
def test_error_exits_one_and_writes_nothing(work, tmp_path, capsys, argv, message):
    cfg_dir, out_dir = tmp_path / "cfg", tmp_path / "out"
    cfg_dir.mkdir()
    out_dir.mkdir()
    _sim_config(work, cfg_dir / "svdd.txt", "svdd", tau=10.0)
    _sim_config(work, cfg_dir / "vae.txt", "vae", tau=156.0)
    save_config(cfg_dir / "no_cal.txt", {"model": work["svdd"]})
    save_config(cfg_dir / "zero_steps.txt",
                {"model": work["svdd"], "cal": work["svdd_cal"], "max_steps": 0})
    save_config(cfg_dir / "typo.txt",
                {"model": work["svdd"], "cal": work["svdd_cal"], "tua": 3, "max_step": 20})
    (cfg_dir / "repeat.txt").write_text(f"model={work['svdd']}\ntau=3\ncal={work['svdd_cal']}\n"
                                        "tau=10\n")
    _sim_config(work, cfg_dir / "tau_nan.txt", "svdd", tau=float("nan"))
    paths = {name: str(path) for name, path in work.items()}
    paths.update(out=str(out_dir), cfg_svdd=str(cfg_dir / "svdd.txt"),
                 cfg_vae=str(cfg_dir / "vae.txt"), cfg_no_cal=str(cfg_dir / "no_cal.txt"),
                 cfg_zero_steps=str(cfg_dir / "zero_steps.txt"), cfg_typo=str(cfg_dir / "typo.txt"),
                 cfg_repeat=str(cfg_dir / "repeat.txt"), cfg_tau_nan=str(cfg_dir / "tau_nan.txt"))
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    errors = [line for line in captured.err.splitlines() if line.startswith("icad: error:")]
    assert len(errors) == 1 and message in errors[0], captured.err
    assert captured.out == ""
    assert not list(out_dir.iterdir())


def test_grid_skips_empty_parts():
    assert _parse_grid(";delta=2,6;; tau=10 ;", "vae") == ([2.0, 6.0], [10.0])


@pytest.mark.parametrize("method,delta", [("vae", "6"), ("svdd", "")])
def test_detect_sidecar_records_delta_only_where_read(work, tmp_path, method, delta):
    out = tmp_path / "d.csv"
    main(["detect", "--method", method, "--model", str(work[method]), "--cal",
          str(work[f"{method}_cal"]), "--input", str(work["in_stream"]), "--out", str(out)])
    assert load_config(out.with_name(out.name + ".config.txt"))["delta"] == delta
