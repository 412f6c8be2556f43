"""End-to-end CLI behavior on a miniature scene: exit codes, file contracts,
reproducibility. Everything runs in-process through main(argv), except one
run in a fresh interpreter where scipy cannot be imported."""

import argparse
import csv
import errno
import hashlib
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icad
from icad import conformal, episodes
from icad.cli import (EXIT_ALARM, EXIT_ERROR, EXIT_OK, CliError, _fmt, _parse_grid,
                      _sim_params, _step_lines, build_parser, main)
from icad.conformal import (CalibrationSet, StepResult, SvddPipeline, VaePipeline,
                            calibration_scores)
from icad.models import SvddModel, VaeModel, svdd_init_center
from icad.neural import BLOCK_ROWS
from icad.nonconformity import SvddScorer, VaeScorer
from icad.persistence import (load_calibration, load_config, load_dataset, load_model,
                              save_calibration, save_config, save_dataset, save_model)

from conftest import one_value_center, traced_peak_mb


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


def test_calibrate_vae_sampled_scores(work, tmp_path):
    # one sampled score per example, from the generator --seed seeds
    outs = {}
    for name, seed in (("a", "7"), ("b", "7"), ("c", "8")):
        outs[name] = tmp_path / f"{name}.icad"
        assert main(["calibrate", "--scorer", "vae", "--model", str(work["vae"]),
                     "--cal-data", str(work["cal_data"]), "--seed", seed,
                     "--out", str(outs[name])]) == EXIT_OK
    examples, _ = load_dataset(work["cal_data"])
    expected = calibration_scores(VaeScorer(load_model(work["vae"])), examples, seed=7)
    assert np.array_equal(load_calibration(outs["a"]).scores, expected.scores)
    assert len(expected) == 120
    assert outs["a"].read_bytes() == outs["b"].read_bytes() != outs["c"].read_bytes()


@pytest.fixture(scope="module")
def blocks_data(work):
    """Frames across two block edges: two full ``BLOCK_ROWS`` blocks and 7 rows."""
    path = work["root"] / "blocks.icad"
    assert main(["gen-data", "--out", str(path), "--count", str(2 * BLOCK_ROWS + 7),
                 "--dim", "64", "--seed", "12"]) == EXIT_OK
    return path


@pytest.mark.parametrize("scorer", ["vae", "svdd"])
def test_calibrate_file_blocks_give_the_array_bytes(work, blocks_data, tmp_path, scorer):
    # calibrate scores the file a block at a time as it reads it; the bytes
    # are those of calibration_scores on the whole loaded array
    out, expected = tmp_path / "cal.icad", tmp_path / "expected.icad"
    assert main(["calibrate", "--scorer", scorer, "--model", str(work[scorer]),
                 "--cal-data", str(blocks_data), "--out", str(out)]) == EXIT_OK
    examples, _ = load_dataset(blocks_data)
    scorer_cls = VaeScorer if scorer == "vae" else SvddScorer
    save_calibration(expected, calibration_scores(scorer_cls(load_model(work[scorer])), examples))
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("command", ["calibrate", "detect"])
@pytest.mark.parametrize("method", ["vae", "svdd"])
def test_non_finite_value_in_last_block_writes_nothing(work, blocks_data, tmp_path, capsys,
                                                       command, method):
    # the earlier blocks are scored before the bad one is read; the output
    # is written after the last block, so neither it nor a temporary file
    # appears
    frames, _ = load_dataset(blocks_data)
    frames[-1, 3] = np.nan
    bad = tmp_path / "nan.icad"
    save_dataset(bad, frames)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    if command == "calibrate":
        argv = ["calibrate", "--scorer", method, "--cal-data", str(bad),
                "--out", str(out_dir / "cal.icad")]
    else:
        argv = ["detect", "--method", method, "--cal", str(work[f"{method}_cal"]),
                "--input", str(bad), "--out", str(out_dir / "diag.csv")]
    assert main([*argv, "--model", str(work[method])]) == EXIT_ERROR
    assert "contains non-finite values" in capsys.readouterr().err
    assert not list(out_dir.iterdir())


@pytest.mark.parametrize("scorer,bound_mb", [("svdd", 8.0), ("vae", 5.0)])
def test_calibrate_traced_peak_stays_below_one_whole_file(tmp_path, scorer, bound_mb):
    # README model shapes, untrained, on 5,000 frames of 16x16: the file as
    # one float64 array is 10 MB, more than either bound
    rng = np.random.default_rng(8)
    if scorer == "vae":
        model = VaeModel.build(256, latent_dim=8, hidden=(64, 32), seed=1)
    else:
        model = SvddModel.build(256, output_dim=64, hidden=(512,), seed=1)
        svdd_init_center(model, rng.normal(size=(30, 256)))
    save_model(tmp_path / "model.icad", model)
    save_dataset(tmp_path / "cal.icad", rng.normal(size=(5000, 256)))
    argv = ["calibrate", "--scorer", scorer, "--model", str(tmp_path / "model.icad"),
            "--cal-data", str(tmp_path / "cal.icad"), "--out", str(tmp_path / "out.icad")]
    codes = []
    assert traced_peak_mb(lambda: codes.append(main(argv))) < bound_mb
    assert codes == [EXIT_OK]


@pytest.mark.parametrize("method,n", [("vae", 20), ("svdd", 10)])
def test_detect_traced_peak_does_not_grow_with_its_input(tmp_path, method, n):
    # untrained dim-64 models: the CSV is streamed a chunk at a time, so 16
    # times the frames, 8,000 of them, add no more than 1 MB to the peak
    rng = np.random.default_rng(9)
    if method == "vae":
        model = VaeModel.build(64, latent_dim=4, hidden=(16,), seed=1)
        scorer = VaeScorer(model)
    else:
        model = SvddModel.build(64, hidden=(16,), seed=1)
        svdd_init_center(model, rng.normal(size=(30, 64)))
        scorer = SvddScorer(model)
    save_model(tmp_path / "model.icad", model)
    save_calibration(tmp_path / "cal.icad", calibration_scores(scorer, rng.normal(size=(50, 64))))
    peaks = []
    for frames in (500, 8000):
        save_dataset(tmp_path / f"in{frames}.icad", rng.normal(size=(frames, 64)))
        argv = ["detect", "--method", method, "--model", str(tmp_path / "model.icad"),
                "--cal", str(tmp_path / "cal.icad"), "--input", str(tmp_path / f"in{frames}.icad"),
                "--N", str(n), "--out", str(tmp_path / f"diag{frames}.csv")]
        codes = []
        peaks.append(traced_peak_mb(lambda: codes.append(main(argv))))
        assert codes[0] in (EXIT_OK, EXIT_ALARM)
        assert len(_rows(tmp_path / f"diag{frames}.csv")) == frames + 1
    assert peaks[1] - peaks[0] < 1.0, peaks


@pytest.mark.parametrize("method,stream,tau", [
    ("vae", "blocks", 156.0), ("svdd", "blocks", 14.0),
    ("vae", "ood_stream", 20.0), ("svdd", "ood_stream", 8.0),
])
def test_detect_chunks_match_a_per_step_replay(work, blocks_data, tmp_path, method, stream,
                                               tau):
    # detect feeds steps chunks of EPISODE_CHUNK frames; a replay steps the
    # same pipeline frame by frame. A chunk's network rows may differ from
    # one-row passes in their last bits, so only score cells may move
    source = blocks_data if stream == "blocks" else work[stream]
    out = tmp_path / "diag.csv"
    code = main(["detect", "--method", method, "--model", str(work[method]),
                 "--cal", str(work[f"{method}_cal"]), "--input", str(source), "--N", "10",
                 "--tau", str(tau), "--seed", "3", "--out", str(out)])
    model, cal = load_model(work[method]), load_calibration(work[f"{method}_cal"])
    pipe = (VaePipeline(model, cal, 10, 6.0, tau, 3) if method == "vae"
            else SvddPipeline(model, cal, 10, tau, 3))
    replay = [pipe.step(z) for z in load_dataset(source)[0]]
    rows = _rows(out)[1:]
    assert len(rows) == len(replay)
    for t, (row, res) in enumerate(zip(rows, replay)):
        assert abs(float(row[1]) - res.score) <= 1e-12 * abs(res.score), t
        assert row[:1] + row[2:] == [_fmt(v) for v in (t, *res.p_values, res.m_log, res.s,
                                                         res.alarm)], t
    alarms = [t for t, res in enumerate(replay) if res.alarm]
    assert code == (EXIT_ALARM if alarms else EXIT_OK)
    assert (stream == "ood_stream") == bool(alarms)


@pytest.mark.parametrize("scorer,seed", [("vae", "0"), ("svdd", "")])
def test_calibrate_sidecar_records_seed_only_where_read(work, scorer, seed):
    cal = work[f"{scorer}_cal"]
    assert load_config(cal.with_name(cal.name + ".config.txt"))["seed"] == seed


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
    assert _sim_params(cfg, str(path), "svdd", None) == (10, 6.0, 12.0, 150, 0.5, 5.0, 500)


@pytest.mark.parametrize("key,value,expected", [
    ("n", "1.5", "an integer"), ("delta", "abc", "a number"), ("tau", "abc", "a number"),
    ("max_steps", "10x", "an integer"), ("ood_fraction", "half", "a number"),
    ("ood_margin", "", "a number"), ("seed", "x", "an integer"),
])
def test_sim_config_bad_value_names_key_and_file(work, tmp_path, capsys, key, value, expected):
    cfg, out_dir = tmp_path / "sim.txt", tmp_path / "out"
    _sim_config(work, cfg, "svdd", tau=10.0)
    cfg.write_text(re.sub(rf"(?m)^{key}=.*$", f"{key}={value}", cfg.read_text()))
    out_dir.mkdir()
    code = main(["simulate", "--episodes", "2", "--method", "svdd", "--config", str(cfg),
                 "--out", str(out_dir / "sim")])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err.splitlines() == [
        f"icad: error: simulation config {cfg}: {key}={value} is not {expected}"]
    assert captured.out == ""
    assert not list(out_dir.iterdir())
    # --seed overrides the file's seed but does not hide a bad value
    with pytest.raises(CliError, match=f"{key}={value} is not"):
        _sim_params(load_config(cfg), str(cfg), "svdd", 5)


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


@pytest.mark.parametrize("method", ["vae", "svdd"])
def test_simulate_searches_one_score_tuple_built_once(work, tmp_path, monkeypatch, method):
    # one calibration load per command: every episode's fresh pipeline
    # searches the tuple that load built, and nothing builds another
    cfg = tmp_path / "sim.txt"
    _sim_config(work, cfg, method, tau=10.0)
    built, searched = [], set()
    post_init, p_value = CalibrationSet.__post_init__, conformal.p_value

    def counting_post_init(self):
        post_init(self)
        built.append(self.score_tuple)

    def recording_p_value(score, cal):
        searched.add(id(cal.score_tuple))
        return p_value(score, cal)

    monkeypatch.setattr(CalibrationSet, "__post_init__", counting_post_init)
    monkeypatch.setattr(conformal, "p_value", recording_p_value)
    assert main(["simulate", "--episodes", "3", "--method", method,
                 "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(built) == 1 and searched == {id(built[0])}


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


def _csv_oracle(header, rows) -> bytes:
    """What ``csv.writer`` writes for ``rows``, each cell through ``_fmt``:
    the bytes the per-step tables, written a line at a time, must keep."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return text.getvalue().encode()


def _episode_oracle(steps) -> bytes:
    """An ``episode_NNN.csv`` of ``(t, r, step result)`` triples."""
    return _csv_oracle(
        ["step", "r", "score", "p_values", "log_m", "s", "alarm"],
        [(t, r, res.score, ";".join(_fmt(p) for p in res.p_values), res.m_log, res.s,
          res.alarm) for t, r, res in steps],
    )


def _diag_oracle(method, results) -> bytes:
    """A ``detect`` diagnostics CSV of ``results``, one per step in order."""
    n = len(results[0].p_values)
    p_cols = [f"p_{k + 1}" for k in range(n)] if method == "vae" else ["p"]
    return _csv_oracle(
        ["step", "score", *p_cols, "log_m", "s", "alarm"],
        [(t, res.score, *res.p_values, res.m_log, res.s, res.alarm)
         for t, res in enumerate(results)],
    )


_EDGES = (-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 3.0, 0.0, 1e17, 0.1, -2.5, 1234.5)


def _edge_results(n, count):
    """``count`` step results of ``n`` samples whose cells cycle through
    ``_EDGES``, alarms both ways. The first score is the edge value and the
    rest are -0.0, so no mean overflows and one-score means are edge values."""
    def edge(k):
        return _EDGES[k % len(_EDGES)]

    return [StepResult(k % 3 == 0, (edge(k),) + (-0.0,) * (n - 1),
                       tuple(edge(k + j) for j in range(n)), edge(k + 1), edge(k + 2))
            for k in range(count)]


@pytest.mark.parametrize("n", [1, 20])
@pytest.mark.parametrize("command", ["simulate", "detect"])
def test_step_tables_give_csv_writer_bytes_on_edge_values(work, tmp_path, monkeypatch,
                                                          command, n):
    # the per-step tables skip csv.writer and _fmt; on signed zeros,
    # subnormals, the largest double and integral floats, at N = 1 and 20,
    # their bytes are still the csv module's
    crafted = _edge_results(n, 40)
    out = tmp_path / "out"
    if command == "simulate":
        run_suite = episodes.run_suite
        diagnostics = [[(t, _EDGES[(t + 3) % len(_EDGES)], res) for t, res in enumerate(part)]
                       for part in (crafted[:25], crafted[25:])]

        def crafted_suite(*args, **kwargs):
            return run_suite(*args, **kwargs)[0], diagnostics

        monkeypatch.setattr(episodes, "run_suite", crafted_suite)
        cfg = tmp_path / "sim.txt"
        _sim_config(work, cfg, "svdd", tau=10.0)
        assert main(["simulate", "--episodes", "2", "--method", "svdd", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        for i, steps in enumerate(diagnostics):
            assert (out / f"episode_{i:03d}.csv").read_bytes() == _episode_oracle(steps), i
    else:
        method = "svdd" if n == 1 else "vae"
        results = iter(crafted)
        pipeline_type = VaePipeline if method == "vae" else SvddPipeline
        monkeypatch.setattr(pipeline_type, "steps",
                            lambda self, frames: [next(results) for _ in frames])
        assert main(["detect", "--method", method, "--model", str(work[method]),
                     "--cal", str(work[f"{method}_cal"]), "--input", str(work["in_stream"]),
                     "--N", str(n), "--out", str(out)]) == EXIT_ALARM
        assert out.read_bytes() == _diag_oracle(method, crafted)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 20, 129])
def test_step_lines_score_has_the_bits_of_step_result_score(n):
    # one mean per chunk in place of StepResult.score per row, bit for bit;
    # 17 significant digits read back as the same double, -0.0 included
    rng = np.random.default_rng(n)
    rows = rng.lognormal(0.0, 4.0, size=(300, n)) * rng.choice([-1.0, 1.0], size=(300, n))
    rows[::11] = -0.0
    rows[5::11] = 5e-324
    results = [StepResult(False, tuple(row), (0.5,) * n, 0.0, 0.0) for row in rows.tolist()]
    scores = [float(line.split(",")[1]) for line in _step_lines(range(300), results, ",")]
    assert [s.hex() for s in scores] == [res.score.hex() for res in results]


@pytest.mark.parametrize("method", ["vae", "svdd"])
def test_step_tables_are_the_csv_rendering_of_their_step_results(work, blocks_data, tmp_path,
                                                                 monkeypatch, method):
    # every StepResult detect and simulate made, recorded as it was made and
    # rendered by csv.writer, gives the bytes of the files they wrote
    suites, chunks = [], []
    pipeline_type = VaePipeline if method == "vae" else SvddPipeline
    run_suite, steps = episodes.run_suite, pipeline_type.steps

    def recording_run_suite(*args, **kwargs):
        suites.append(run_suite(*args, **kwargs))
        return suites[-1]

    def recording_steps(self, frames):
        chunks.append(steps(self, frames))
        return chunks[-1]

    monkeypatch.setattr(episodes, "run_suite", recording_run_suite)
    monkeypatch.setattr(pipeline_type, "steps", recording_steps)
    diag = tmp_path / "diag.csv"
    code = main(["detect", "--method", method, "--model", str(work[method]),
                 "--cal", str(work[f"{method}_cal"]), "--input", str(blocks_data),
                 "--tau", "8", "--seed", "3", "--out", str(diag)])
    results = [res for chunk in chunks for res in chunk]
    assert len(results) == 2 * BLOCK_ROWS + 7
    assert code == (EXIT_ALARM if any(res.alarm for res in results) else EXIT_OK)
    assert diag.read_bytes() == _diag_oracle(method, results)

    cfg, out = tmp_path / "sim.txt", tmp_path / "sim"
    _sim_config(work, cfg, method, tau=10.0)
    assert main(["simulate", "--episodes", "4", "--method", method, "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    (_, diagnostics), = suites
    for i, episode in enumerate(diagnostics):
        assert (out / f"episode_{i:03d}.csv").read_bytes() == _episode_oracle(episode), i


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
    "r-max-inf": (["gen-data", "--out", "{out}/d.icad", "--count", "5", "--dim", "64",
                   "--r-max", "inf"], "need finite 0 <= r-min <= r-max, got 0.0 and inf"),
    "r-min-nan": (["gen-data", "--out", "{out}/d.icad", "--count", "5", "--dim", "64",
                   "--r-min", "nan"], "need finite 0 <= r-min <= r-max, got nan and"),
    # refused before a draw: these once asked numpy for a 5.8 TiB array of
    # streak bounds, and for more dimensions than it allows
    "r-max-1e12": (["gen-data", "--out", "{out}/d.icad", "--count", "2", "--dim", "64",
                    "--r-min", "1e12", "--r-max", "1e12"],
                   "--r-max 1e+12 is above the largest corruption level, 1000"),
    "r-max-1e20": (["gen-data", "--out", "{out}/d.icad", "--count", "2", "--dim", "64",
                    "--r-min", "1e20", "--r-max", "1e20"],
                   "--r-max 1e+20 is above the largest corruption level, 1000"),
    "r-max-just-above-cap": (["gen-data", "--out", "{out}/d.icad", "--count", "2",
                              "--dim", "64", "--r-max", "1000.5"],
                             "--r-max 1000.5 is above the largest corruption level, 1000"),
    # one batch per epoch: a non-finite rate would train and save without a step failing
    "train-vae-lr-nan": (["train-vae", "--data", "{train}", "--out", "{out}/m.icad", "--lr", "nan",
                          "--batch", "256", "--epochs", "1", "--epochs2", "0"],
                         "learning rates must be positive and finite, got (nan, "),
    "train-svdd-lr-inf": (["train-svdd", "--data", "{train}", "--out", "{out}/m.icad",
                           "--lr", "inf", "--batch", "256", "--epochs", "1", "--epochs2", "0"],
                          "learning rates must be positive and finite, got (inf, "),
    "train-svdd-weight-decay-nan": (["train-svdd", "--data", "{train}", "--out", "{out}/m.icad",
                                     "--weight-decay", "nan", "--batch", "256", "--epochs", "1",
                                     "--epochs2", "0"],
                                    "weight decay must be nonnegative and finite, got nan"),
    "empty-hidden": (["train-vae", "--data", "{train}", "--out", "{out}/m.icad",
                      "--hidden", ""], "bad hidden layer spec"),
    "vae-model-as-svdd": (["calibrate", "--scorer", "svdd", "--model", "{vae}",
                           "--cal-data", "{cal_data}", "--out", "{out}/c.icad"],
                          "holds a vae model, expected svdd"),
    "svdd-with-train-data": (["calibrate", "--scorer", "svdd", "--model", "{svdd}",
                              "--train-data", "{train}", "--cal-data", "{cal_data}",
                              "--out", "{out}/c.icad"], "unrecognized arguments: --train-data"),
    "svdd-with-split-m": (["calibrate", "--scorer", "svdd", "--model", "{svdd}",
                           "--split-m", "100", "--cal-data", "{cal_data}",
                           "--out", "{out}/c.icad"], "unrecognized arguments: --split-m 100"),
    "vae-without-model": (["calibrate", "--scorer", "vae", "--cal-data", "{cal_data}",
                           "--out", "{out}/c.icad"],
                          "the following arguments are required: --model"),
    "svdd-without-cal-data": (["calibrate", "--scorer", "svdd", "--model", "{svdd}",
                               "--out", "{out}/c.icad"],
                              "the following arguments are required: --cal-data"),
    "knn-with-model": (["calibrate", "--scorer", "knn", "--model", "{root}/nonexistent.icad",
                        "--train-data", "{train}", "--cal-data", "{cal_data}",
                        "--out", "{out}/c.icad"], "argument --scorer: invalid choice: 'knn'"),
    "kde-scorer": (["calibrate", "--scorer", "kde", "--cal-data", "{cal_data}",
                    "--out", "{out}/c.icad"], "argument --scorer: invalid choice: 'kde'"),
    "vae-with-cal-samples": (["calibrate", "--scorer", "vae", "--model", "{vae}",
                              "--cal-data", "{cal_data}", "--cal-samples", "3",
                              "--out", "{out}/c.icad"], "unrecognized arguments: --cal-samples 3"),
    "svdd-with-seed": (["calibrate", "--scorer", "svdd", "--model", "{svdd}",
                        "--cal-data", "{cal_data}", "--seed", "3", "--out", "{out}/c.icad"],
                       "--seed is read only by the vae scorer"),
    # no prefix matching: detect's --N is not bench's --N-list, --del not --delta
    "bench-prefix-of-n-list": (["bench", "--method", "svdd", "--model", "{svdd}",
                                "--cal", "{svdd_cal}", "--N", "7", "--steps", "5",
                                "--out", "{out}/b.csv"], "unrecognized arguments: --N 7"),
    "detect-prefix-of-delta": (["detect", "--method", "vae", "--model", "{vae}",
                                "--cal", "{vae_cal}", "--input", "{in_stream}", "--del", "6",
                                "--out", "{out}/d.csv"], "unrecognized arguments: --del 6"),
    "detect-other-models-calibration": (["detect", "--method", "vae", "--model", "{vae}",
                                         "--cal", "{svdd_cal}", "--input", "{in_stream}",
                                         "--out", "{out}/d.csv"],
                                        "calibration was built with the 'svdd' scorer"),
    # kind code 1 still loads, and no pipeline takes it
    "detect-knn-calibration": (["detect", "--method", "svdd", "--model", "{svdd}",
                                "--cal", "{knn_cal}", "--input", "{in_stream}",
                                "--out", "{out}/d.csv"],
                               "calibration was built with the 'knn' scorer"),
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
    # a negative margin would label some sampled OOD episodes in-distribution
    "sim-ood-margin-negative": (["simulate", "--episodes", "2", "--method", "svdd",
                                 "--config", "{cfg_margin}", "--out", "{out}/sim"],
                                "ood margin must be finite and >= 0, got -1.0"),
    "detect-svdd-center-too-short": (["detect", "--method", "svdd", "--model", "{short_center}",
                                      "--cal", "{svdd_cal}", "--input", "{in_stream}",
                                      "--out", "{out}/d.csv"],
                                     "SVDD center has 1 values, mapper outputs 16"),
    "sim-config-tau-nan": (["simulate", "--episodes", "2", "--method", "svdd",
                            "--config", "{cfg_tau_nan}", "--out", "{out}/sim"],
                           "tau must be finite, got nan"),
    "grid-tau-nan": (["tune", "--method", "svdd", "--config", "{cfg_svdd}",
                      "--grid", "tau=10,nan", "--episodes", "2", "--out", "{out}/g.csv"],
                     "tau must be finite, got nan"),
    # a bad delta fails before any episode runs, as a bad tau does
    "grid-delta-nan": (["tune", "--method", "vae", "--config", "{cfg_vae}",
                        "--grid", "delta=6,nan;tau=10", "--episodes", "2",
                        "--out", "{out}/g.csv"], "delta must be finite, got nan"),
    "grid-delta-inf": (["tune", "--method", "vae", "--config", "{cfg_vae}",
                        "--grid", "delta=inf;tau=10", "--episodes", "2",
                        "--out", "{out}/g.csv"], "delta must be finite, got inf"),
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
    # a threshold far below zero alarms on the first step of every episode
    "tune-no-zero-fp-point": (["tune", "--method", "svdd", "--config", "{cfg_svdd}",
                               "--grid", "tau=-1000,-999", "--episodes", "4",
                               "--out", "{out}/g.csv"],
                              "no grid point achieved zero false positives"),
    "detect-svdd-delta": (["detect", "--method", "svdd", "--model", "{svdd}", "--cal", "{svdd_cal}",
                           "--input", "{in_stream}", "--delta", "99", "--out", "{out}/d.csv"],
                          "--delta is read only by the vae method"),
    "bench-svdd-delta": (["bench", "--method", "svdd", "--model", "{svdd}", "--cal", "{svdd_cal}",
                          "--delta", "nan", "--steps", "5", "--out", "{out}/b.csv"],
                         "--delta is read only by the vae method"),
    "svdd-with-k": (["calibrate", "--scorer", "svdd", "--model", "{svdd}", "--cal-data",
                     "{cal_data}", "--k", "3", "--out", "{out}/c.icad"],
                    "unrecognized arguments: --k 3"),
    "svdd-with-bandwidth": (["calibrate", "--scorer", "svdd", "--model", "{svdd}", "--cal-data",
                             "{cal_data}", "--bandwidth", "-5", "--out", "{out}/c.icad"],
                            "unrecognized arguments: --bandwidth -5"),
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
    # refused before math.isqrt, which raises on a negative argument
    "gen-data-dim-negative": (["gen-data", "--out", "{out}/d.icad", "--count", "5",
                               "--dim", "-4"],
                              "frame dimension must be a perfect square >= 16, got -4"),
    # numpy's seeding refuses a negative seed with a message that names no flag
    **{f"{argv[0]}-seed-negative": ([*argv, "--seed", "-5"],
                                    "argument --seed: expected a non-negative integer, got -5")
       for argv in (
           ["gen-data", "--out", "{out}/d.icad", "--count", "5", "--dim", "64"],
           ["train-vae", "--data", "{train}", "--out", "{out}/m.icad"],
           ["train-svdd", "--data", "{train}", "--out", "{out}/m.icad"],
           ["calibrate", "--scorer", "vae", "--model", "{vae}", "--cal-data", "{cal_data}",
            "--out", "{out}/c.icad"],
           ["detect", "--method", "svdd", "--model", "{svdd}", "--cal", "{svdd_cal}",
            "--input", "{in_stream}", "--out", "{out}/d.csv"],
           ["simulate", "--episodes", "2", "--method", "svdd", "--config", "{cfg_svdd}",
            "--out", "{out}/sim"],
           ["tune", "--method", "svdd", "--config", "{cfg_svdd}", "--grid", "tau=10",
            "--episodes", "2", "--out", "{out}/g.csv"],
           ["bench", "--method", "svdd", "--model", "{svdd}", "--cal", "{svdd_cal}",
            "--steps", "5", "--out", "{out}/b.csv"],
       )},
    "sim-config-seed-negative": (["simulate", "--episodes", "2", "--method", "svdd",
                                  "--config", "{cfg_seed_negative}", "--out", "{out}/sim"],
                                 "seed_negative.txt: seed=-5 is not a non-negative integer"),
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
    save_config(cfg_dir / "margin.txt",
                {"model": work["svdd"], "cal": work["svdd_cal"], "ood_margin": -1})
    save_config(cfg_dir / "seed_negative.txt",
                {"model": work["svdd"], "cal": work["svdd_cal"], "seed": -5})
    (cfg_dir / "short_center.icad").write_bytes(one_value_center(work["svdd"].read_bytes()))
    save_calibration(cfg_dir / "knn_cal.icad",
                     CalibrationSet(np.array([1.0, 2.0]), "knn", b"abcdefgh"))
    paths = {name: str(path) for name, path in work.items()}
    paths.update(out=str(out_dir), cfg_svdd=str(cfg_dir / "svdd.txt"),
                 cfg_vae=str(cfg_dir / "vae.txt"), cfg_no_cal=str(cfg_dir / "no_cal.txt"),
                 cfg_zero_steps=str(cfg_dir / "zero_steps.txt"), cfg_typo=str(cfg_dir / "typo.txt"),
                 cfg_repeat=str(cfg_dir / "repeat.txt"), cfg_tau_nan=str(cfg_dir / "tau_nan.txt"),
                 cfg_margin=str(cfg_dir / "margin.txt"),
                 cfg_seed_negative=str(cfg_dir / "seed_negative.txt"),
                 short_center=str(cfg_dir / "short_center.icad"),
                 knn_cal=str(cfg_dir / "knn_cal.icad"))
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    errors = [line for line in captured.err.splitlines() if line.startswith("icad: error:")]
    assert len(errors) == 1 and message in errors[0], captured.err
    assert captured.out == ""
    assert not list(out_dir.iterdir())


def test_grid_skips_empty_parts():
    assert _parse_grid(";delta=2,6;; tau=10 ;", "vae") == ([2.0, 6.0], [10.0])


@pytest.mark.parametrize("grid", ["delta=nan;tau=10", "delta=6,-inf;tau=10"])
def test_grid_rejects_nonfinite_delta_while_parsing(grid):
    with pytest.raises(CliError, match="delta must be finite"):
        _parse_grid(grid, "vae")


@pytest.mark.parametrize("method,delta", [("vae", "6"), ("svdd", "")])
def test_detect_sidecar_records_delta_only_where_read(work, tmp_path, method, delta):
    out = tmp_path / "d.csv"
    main(["detect", "--method", method, "--model", str(work[method]), "--cal",
          str(work[f"{method}_cal"]), "--input", str(work["in_stream"]), "--out", str(out)])
    assert load_config(out.with_name(out.name + ".config.txt"))["delta"] == delta


def _options():
    """Each subcommand's option strings."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings}
            for name, p in sub.choices.items()}


def test_calibrate_takes_a_model_and_calibration_data_only():
    assert _options()["calibrate"] == {"-h", "--help", "--scorer", "--out", "--model", "--cal-data",
                                       "--seed"}


def test_readme_names_only_real_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("icad ")]
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    assert commands and spans
    flag = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")
    named = {f for text in commands + spans for f in flag.findall(text)}
    real = set().union(*_options().values())
    assert named - real == set()


def test_readme_code_names_resolve():
    # every `module.name` of an icad module, and every `Class.method` of an
    # icad export, in the README's prose names something the package has;
    # file names such as `episodes.csv` are not code
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    modules = {m.name: importlib.import_module(f"icad.{m.name}")
               for m in pkgutil.iter_modules(icad.__path__)}
    classes = {name: obj for name, obj in vars(icad).items() if isinstance(obj, type)}
    owners = {**modules, **classes}
    named = {(owner, name) for span in re.findall(r"`([^`]+)`", prose)
             for owner, name in re.findall(r"(?<![\w.])(?:icad\.)?(\w+)\.(\w+)", span)
             if owner in owners and name not in {"csv", "icad", "txt"}}
    assert len(named) >= 10
    assert {f"{owner}.{name}" for owner, name in named
            if not hasattr(owners[owner], name)} == set()


# Every command once, on tiny sizes, in an interpreter where any scipy import
# fails: the program declares numpy as its one dependency, scipy being a test
# dependency only.
_WITHOUT_SCIPY = r"""
import sys
sys.modules["scipy"] = None
import icad.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m])
assert not loaded, loaded

def run(*argv, codes=(0,)):
    code = icad.cli.main(list(argv))
    assert code in codes, (argv[0], code)

scene = ("--dim", "64", "--r-min", "0", "--r-max", "20")
run("gen-data", "--out", "d.icad", "--count", "40", *scene, "--seed", "1")
run("train-vae", "--data", "d.icad", "--out", "vae.icad", "--epochs", "2", "--epochs2", "1",
    "--hidden", "16", "--latent", "2", "--seed", "2")
run("train-svdd", "--data", "d.icad", "--out", "svdd.icad", "--epochs", "2", "--epochs2", "1",
    "--hidden", "16", "--out-dim", "4", "--seed", "3")
for m in ("vae", "svdd"):
    run("calibrate", "--scorer", m, "--model", f"{m}.icad", "--cal-data", "d.icad",
        "--out", f"{m}_cal.icad")
    run("detect", "--method", m, "--model", f"{m}.icad", "--cal", f"{m}_cal.icad",
        "--input", "d.icad", "--N", "5", "--tau", "3", "--out", f"{m}.csv", codes=(0, 2))
open("sim.txt", "w").write("model=svdd.icad\ncal=svdd_cal.icad\nn=5\ntau=3\nmax_steps=20\n")
run("tune", "--method", "svdd", "--config", "sim.txt", "--grid", "tau=3,1000000",
    "--episodes", "2", "--out", "grid.csv")
run("simulate", "--episodes", "2", "--method", "svdd", "--config", "sim.txt", "--out", "sim")
run("bench", "--method", "svdd", "--model", "svdd.icad", "--cal", "svdd_cal.icad",
    "--N-list", "2,4", "--steps", "5", "--out", "bench.csv")
"""


def test_commands_run_without_scipy(tmp_path):
    src = Path(icad.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
