"""Negative controls for the benchmark's own output checks.

Usage, from the repository root:

    python3 perfbench/controls.py

Runs tiny real pipelines and a tiny ``simulate`` suite, confirms the checks
pass on the clean outputs, then corrupts one output at a time (a p-value, a
log-martingale off by 1e-6, an alarm, an episode verdict) and confirms that
each corruption is counted as a failure. It also confirms that a percentile
without 10 samples beyond it is refused, and measures how far the program's
martingale is from the closed-form oracle over the reachable range. Exits 1
if any control does not behave.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
from run import CAL_COUNT, import_icad, read_csv, step_record  # noqa: E402

DIM, CAL, STEPS = 16, 400, 300


def tiny_models(icad):
    rng = np.random.default_rng(0)
    train = rng.normal(0.3, 0.1, size=(200, DIM))
    svdd = icad.SvddModel.build(DIM, output_dim=4, hidden=(8,), seed=1)
    icad.svdd_init_center(svdd, train)
    vae = icad.VaeModel.build(DIM, latent_dim=2, hidden=(8,), seed=2)
    cal_x = rng.normal(0.3, 0.1, size=(CAL, DIM))
    svdd_cal = icad.calibration_scores(icad.SvddScorer(svdd), cal_x)
    vae_cal = icad.calibration_scores(icad.VaeScorer(vae), cal_x)
    # in-distribution frames, then a block shifted far enough to alarm
    stream = rng.normal(0.3, 0.1, size=(STEPS, DIM))
    stream[STEPS // 2: STEPS // 2 + 40] += 1.5
    return svdd, svdd_cal, vae, vae_cal, stream


def corrupt(rec, key, step, fn):
    out = {k: [list(v) if isinstance(v, tuple) else v for v in vals] for k, vals in rec.items()}
    out[key][step] = fn(out[key][step])
    return out


def stream_controls(icad, report):
    svdd, svdd_cal, vae, vae_cal, stream = tiny_models(icad)
    cases = {
        "svdd": (icad.SvddPipeline(svdd, svdd_cal, window=10, tau=6.0, seed=3), svdd_cal,
                 dict(n=10, mode="svdd", tau=6.0)),
        "vae": (icad.VaePipeline(vae, vae_cal, n_samples=5, delta=1.0, tau=5.0, seed=4),
                vae_cal, dict(n=5, mode="vae", tau=5.0, delta=1.0)),
    }
    for method, (pipeline, cal, kw) in cases.items():
        rec = step_record([pipeline.step(z) for z in stream])
        alarms = int(sum(rec["alarm"]))

        def failures(r):
            return int(checks.StreamChecker(cal.scores, **kw).feed(r).sum())

        report(f"{method} clean stream ({alarms} alarms)", failures(rec) == 0 and alarms > 0,
               f"{failures(rec)} failures")
        checker = checks.StreamChecker(cal.scores, **kw)
        split = sum(int(checker.feed({k: v[lo:lo + 7] for k, v in rec.items()}).sum())
                    for lo in range(0, STEPS, 7))
        report(f"{method} clean stream checked in batches of 7", split == 0, f"{split} failures")
        step = STEPS // 2 + 5
        n = len(cal)
        for what, key, fn in (
            ("p-value perturbed by 1/n", "p", lambda v: [v[0] + 1.0 / n, *v[1:]]),
            ("m_log off by 1e-6", "m_log", lambda v: v + 1e-6),
            ("alarm flipped", "alarm", lambda v: not v),
        ):
            bad = failures(corrupt(rec, key, step, fn))
            report(f"{method} {what}", bad > 0, f"error_rate {bad}/{STEPS}")


def verdict_controls(icad, report):
    import icad.cli

    svdd, svdd_cal, *_ = tiny_models(icad)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        icad.persistence.save_model(tmp / "m.icad", svdd)
        icad.persistence.save_calibration(tmp / "c.icad", svdd_cal)
        (tmp / "sim.txt").write_text(
            f"model={tmp / 'm.icad'}\ncal={tmp / 'c.icad'}\nn=10\ntau=6\nmax_steps=150\n"
            "ood_fraction=0.5\nood_margin=5.0\nseed=77\n")
        with contextlib.redirect_stdout(io.StringIO()):
            code = icad.cli.main(["simulate", "--episodes", "8", "--method", "svdd",
                                  "--config", str(tmp / "sim.txt"), "--out", str(tmp / "res")])
        report("simulate exit code", code == 0, f"exit {code}")
        rows = read_csv(tmp / "res" / "episodes.csv")
        steps = [read_csv(tmp / "res" / f"episode_{i:03d}.csv") for i in range(len(rows))]
        values = [s.value for s in icad.make_suite_schedules(8, 0.5, 77, 5.0)]
        clean = checks.count_verdict_failures(rows, steps, values, 150)
        report("clean verdicts", clean == 0, f"{clean} failures")
        flip = {"true_positive": "false_negative", "false_negative": "true_positive",
                "true_negative": "false_positive", "false_positive": "true_negative"}
        changed = [dict(r) for r in rows]
        changed[0]["verdict"] = flip[changed[0]["verdict"]]
        bad = checks.count_verdict_failures(changed, steps, values, 150)
        report("verdict changed", bad > 0, f"error_rate {bad}/{len(rows)}")


def percentile_controls(report):
    try:
        checks.percentile(np.arange(999.0), 0.99)
        refused = False
    except ValueError:
        refused = True
    report("p99 of 999 samples refused (9 beyond)", refused, "")
    value = checks.percentile(np.arange(1000.0), 0.99)
    report("p99 of 1000 samples accepted (10 beyond)", value == 989.0, f"value {value}")


def martingale_oracle(icad, report, cal_size=CAL_COUNT):
    worst = 0.0
    for n in range(1, 21):
        for a in np.linspace(0.0, n * math.log(cal_size + 1), 400):
            diff = abs(icad.mixture_martingale_log(-a, n) - checks.mixture_log(a, n))
            worst = max(worst, diff)
    report("program martingale vs closed form over the reachable range",
           worst < checks.M_LOG_TOLERANCE, f"max |diff| {worst:.2e}")


def main() -> int:
    icad = import_icad()
    failed = []

    def report(name, ok, detail):
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed.append(name)

    stream_controls(icad, report)
    verdict_controls(icad, report)
    percentile_controls(report)
    martingale_oracle(icad, report)
    print(f"{len(failed)} control(s) misbehaved" if failed else "all controls behave")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
