"""Layered benchmark of the ``icad`` detector: one workload per method.

Usage, from the repository root:

    python3 perfbench/run.py --workload svdd --seed 1 --seconds 20 --trace 0

Each workload runs the README workflow for one method in process through
``icad.cli.main`` and then a long closed-loop stream through that method's
pipeline. Set-up (gen-data, training, stream frame rendering) runs three
times and must give byte-identical files; the measured phase is calibrate,
tune, simulate with the tuned thresholds, repeated, and the stream for
``--seconds``. Times are reported in reference seconds (see ``hostspeed``).
Every output is checked against independent oracles after the timing ends.
With ``--trace 1`` a fixed amount of the same work runs with spans around
every call from one layer of ``icad`` into the next, and per-layer metrics
are printed instead.
The last line of standard output is one JSON object with the result; see
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy loads: the benchmark
# is one process on one thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up and the offline pass are repeated and their medians reported. The
# stream runs in windows of WINDOW_STEPS steps; its p50 is taken over every
# step, and its p99 is the median over runs of P99_STEPS steps (20 samples
# beyond each), since a burst of host noise in one stretch would otherwise
# set it. Every time is scaled by the host speed sampled around it (see
# hostspeed.py). The traced run streams a fixed TRACED_WINDOWS windows.
SETUP_REPEATS = 3
OFFLINE_REPEATS = 5
WINDOW_STEPS = 500
P99_STEPS = 2000
TRACED_WINDOWS = 6
STREAM_EPISODES = 20
MAX_STEPS = 150
WARMUP_STEPS = 100

# README workflow (steps 1-5) with shorter training, so that three set-ups
# fit in a run; architectures, learning rates and detector settings are the
# README's.
WORKLOADS = {
    "svdd": {
        "train": ["train-svdd", "--epochs", "15", "--epochs2", "5", "--lr", "5e-5",
                  "--lr2", "1e-5", "--hidden", "512", "--out-dim", "64"],
        "grid": "tau=4,5,6,8,10,12,14,17,20",
        "stream": {"window": 10, "tau": 14.0},
    },
    "vae": {
        "train": ["train-vae", "--epochs", "60", "--epochs2", "20", "--lr", "1e-3",
                  "--lr2", "1e-4", "--hidden", "64,32", "--latent", "8"],
        "grid": "delta=2,4,6,8,10,12,16,20,24;tau=20,40,80,120,160,240",
        "stream": {"n_samples": 20, "delta": 6.0, "tau": 156.0},
    },
}
TRAIN_COUNT, CAL_COUNT, DIM = 800, 5000, 256
TUNE_EPISODES, SIM_EPISODES = 8, 12


class BenchError(Exception):
    """The benchmark cannot run here, or its workload cannot go on."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def import_icad():
    if not (SRC / "icad" / "__init__.py").is_file():
        raise BenchError(f"no icad sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import icad

    if Path(icad.__file__).resolve().parent != (SRC / "icad").resolve():
        raise BenchError(f"imported icad from {icad.__file__}, not from {SRC}")
    return icad


def derive_seeds(seed: int) -> dict[str, int]:
    rng = random.Random(seed)
    names = ("train_data", "cal_data", "train", "tune", "simulate", "stream", "pipeline")
    return {name: rng.randrange(1, 2**31 - 1) for name in names}


def sha256_tree(path: Path) -> dict[str, str]:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def digest(hashes: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()[:16]


class Run:
    """One benchmark run: counts checked operations and their failures."""

    def __init__(self, icad, workload: str, seed: int, seconds: int):
        self.icad = icad
        self.method = workload
        self.spec = WORKLOADS[workload]
        self.seeds = derive_seeds(seed)
        self.seconds = seconds
        self.speed = HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: dict = {}

    def check(self, ok: bool, what: str, count: int = 1, bad: int | None = None) -> None:
        self.attempted += count
        bad = (0 if ok else count) if bad is None else bad
        self.failed += bad
        if bad:
            self.failures.append(f"{what}: {bad}/{count}")

    def cli(self, *argv: str) -> int:
        """Run one ``icad`` command in process; returns its exit code."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = self.icad.cli.main(list(argv))
        self.check(code == 0, f"icad {argv[0]} exit code {code} {err.getvalue().strip()}")
        return code

    # ---- set-up: gen-data, training, stream frames -------------------------

    def setup(self, workdir: Path):
        """README steps 1-2 plus the stream's pre-rendered frames, in ``workdir``."""
        icad, s = self.icad, self.seeds
        workdir.mkdir()
        os.chdir(workdir)
        self.cli("gen-data", "--out", "train.icad", "--count", str(TRAIN_COUNT),
                 "--dim", str(DIM), "--seed", str(s["train_data"]))
        self.cli("gen-data", "--out", "cal.icad", "--count", str(CAL_COUNT),
                 "--dim", str(DIM), "--seed", str(s["cal_data"]))
        self.cli(*self.spec["train"], "--data", "train.icad", "--out", "model.icad",
                 "--seed", str(s["train"]))
        gen = icad.SceneGenerator(side=16, seed=s["stream"])
        rng = np.random.default_rng(s["stream"])
        schedules = icad.make_suite_schedules(STREAM_EPISODES, 0.5, s["stream"], 5.0)
        frames = np.stack([gen.example(sched.value(t), rng)
                           for sched in schedules for t in range(MAX_STEPS)])
        return frames

    def timed_setups(self, work: Path):
        times, hashes, frames = [], [], None
        for k in range(SETUP_REPEATS):
            start = time.perf_counter_ns()
            frames = self.setup(work / f"setup{k}")
            end = time.perf_counter_ns()
            times.append((self.speed.ref_s(start, end), self.speed.wall_s(start, end)))
            hashes.append(sha256_tree(work / f"setup{k}"))
            hashes[-1]["frames"] = hashlib.sha256(frames.tobytes()).hexdigest()
        same = sum(h == hashes[0] for h in hashes[1:])
        self.check(True, "set-up outputs identical across repeats",
                   count=SETUP_REPEATS - 1, bad=SETUP_REPEATS - 1 - same)
        self.info["setup_hash"] = digest(hashes[0])
        self.info["setup_wall_s"] = [wall for _, wall in times]
        return statistics.median(ref for ref, _ in times), frames

    # ---- measured phase 1: calibrate, tune, simulate -----------------------

    def offline(self) -> dict[str, tuple[int, int]]:
        """README steps 3 and 5 in the set-up directory; returns each phase's
        start and end in ``perf_counter_ns`` time."""
        m, s = self.method, self.seeds
        base = {"model": "model.icad", "cal": "cal_scores.icad", "n": 10, "delta": 6.0,
                "max_steps": MAX_STEPS, "ood_fraction": 0.5, "ood_margin": 5.0}
        times = {}
        start = time.perf_counter_ns()
        self.cli("calibrate", "--scorer", m, "--model", "model.icad",
                 "--cal-data", "cal.icad", "--out", "cal_scores.icad")
        times["calibrate_s"] = (start, time.perf_counter_ns())
        write_config("sim.txt", {**base, "seed": s["tune"]})
        start = time.perf_counter_ns()
        code = self.cli("tune", "--method", m, "--config", "sim.txt", "--grid", self.spec["grid"],
                        "--episodes", str(TUNE_EPISODES), "--seed", str(s["tune"]),
                        "--out", "grid.csv")
        times["tune_s"] = (start, time.perf_counter_ns())
        if code != 0:
            raise BenchError(f"no tuned thresholds for seed {s['tune']}: {self.failures[-1]}")
        best = checks.best_grid_point(read_csv("grid.csv"))
        tuned = {"tau": float(best["tau"])}
        if best["delta"]:
            tuned["delta"] = float(best["delta"])
        self.info["tuned"] = tuned
        write_config("eval.txt", {**base, **tuned, "seed": s["simulate"]})
        start = time.perf_counter_ns()
        self.cli("simulate", "--episodes", str(SIM_EPISODES), "--method", m,
                 "--config", "eval.txt", "--out", "results")
        times["simulate_s"] = (start, time.perf_counter_ns())
        return times

    def check_offline(self) -> None:
        """Re-check every simulate step and re-derive every verdict."""
        icad = self.icad
        rows = read_csv("results/episodes.csv")
        steps = [read_csv(f"results/episode_{i:03d}.csv") for i in range(len(rows))]
        schedules = icad.make_suite_schedules(SIM_EPISODES, 0.5, self.seeds["simulate"], 5.0)
        bad = checks.count_verdict_failures(
            rows, steps, [sched.value for sched in schedules], MAX_STEPS)
        self.check(True, "episode verdicts", count=len(schedules), bad=bad)
        cal = icad.persistence.load_calibration("cal_scores.icad")
        tuned = self.info["tuned"]
        bad = 0
        for episode in steps:
            rec = {
                # the VAE rows hold the mean of the step's scores only
                "scores": None if self.method == "vae" else [[float(r["score"])] for r in episode],
                "p": [[float(v) for v in r["p_values"].split(";")] for r in episode],
                "m_log": [float(r["log_m"]) for r in episode],
                "s": [float(r["s"]) for r in episode],
                "alarm": [r["alarm"] == "1" for r in episode],
            }
            checker = checks.StreamChecker(cal.scores, 10, self.method, tuned["tau"],
                                           tuned.get("delta", 0.0))
            bad += int(checker.feed(rec).sum())
        self.check(True, "simulate steps", count=sum(map(len, steps)), bad=bad)
        ood = sum(r["label"] == "ood" for r in rows)
        verdicts = [r["verdict"] for r in rows]
        summary = read_csv("results/summary.csv")[0]
        fp, fn = verdicts.count("false_positive"), verdicts.count("false_negative")
        self.check(summary["false_positive"] == f"{fp}/{len(rows) - ood}"
                   and summary["false_negative"] == f"{fn}/{ood}", "summary.csv counts")
        delays = [int(r["delay_frames"]) for r in rows if r["delay_frames"]]
        self.info["quality"] = {
            "episodes": len(rows),
            "false_alarm_rate": fp / max(1, len(rows) - ood),
            "miss_rate": fn / max(1, ood),
            "mean_delay_frames": statistics.fmean(delays) if delays else None,
        }

    # ---- measured phase 2: one long closed-loop stream ---------------------

    def pipeline(self):
        icad = self.icad
        model = icad.persistence.load_model("model.icad")
        cal = icad.persistence.load_calibration("cal_scores.icad")
        if self.method == "vae":
            return icad.VaePipeline(model, cal, seed=self.seeds["pipeline"], **self.spec["stream"])
        return icad.SvddPipeline(model, cal, seed=self.seeds["pipeline"], **self.spec["stream"])

    def stream(self, frames) -> "Stream":
        """A fresh pipeline, after a warm-up on a throwaway one."""
        warm = self.pipeline()
        for z in frames[:WARMUP_STEPS]:
            warm.step(z)
        spec = self.spec["stream"]
        n = spec.get("n_samples") or spec["window"]
        cal = self.icad.persistence.load_calibration("cal_scores.icad")
        checker = checks.StreamChecker(cal.scores, n, self.method, spec["tau"],
                                       spec.get("delta", 0.0))
        return Stream(self.pipeline(), frames, checker)

    def count_stream(self, stream: "Stream") -> None:
        self.check(True, "stream steps", count=len(stream.times), bad=stream.failed)
        self.info["stream_alarms"] = stream.alarms


def step_record(results) -> dict:
    """Per-step arrays of a list of step results, for ``StreamChecker.feed``.

    The scores are left out when a result does not carry one score per
    p-value (a mean score only), since the p-values cannot be re-derived.
    """
    scores = [getattr(r, "scores", None) or (r.score,) for r in results]
    p = [getattr(r, "p_values", None) or (r.p,) for r in results]
    if any(len(a) != len(b) for a, b in zip(scores, p)):
        scores = None
    return {
        "scores": scores,
        "p": p,
        "m_log": [r.m_log for r in results],
        "s": [r.s if hasattr(r, "s") else r.window_log_p_sum for r in results],
        "alarm": [r.alarm for r in results],
    }


class Stream:
    """One pipeline fed frames round-robin, one ``step()`` at a time.

    It runs in whole windows of WINDOW_STEPS steps and keeps each step's
    start and duration and each window's step range and wall-clock span.
    After each window, outside its span, the window's results are checked and
    dropped, so memory does not grow with the number of steps.
    """

    def __init__(self, pipeline, frames, checker):
        self.pipeline = pipeline
        self.frames = frames
        self.checker = checker
        self.starts: list[int] = []
        self.times: list[int] = []
        self.windows: list[tuple[int, int, int, int]] = []
        self.failed = 0
        self.alarms = 0

    def run(self, seconds: float) -> None:
        """Run and check whole windows until ``seconds`` have passed."""
        deadline = time.perf_counter_ns() + int(1e9 * seconds)
        while True:
            self.check(self.window())
            if time.perf_counter_ns() >= deadline:
                return

    def window(self) -> list:
        """Run one window; returns its step results."""
        clock = time.perf_counter_ns
        lo = len(self.times)
        results = []
        start = clock()
        for i in range(lo, lo + WINDOW_STEPS):
            z = self.frames[i % len(self.frames)]
            t0 = clock()
            res = self.pipeline.step(z)
            t1 = clock()
            self.starts.append(t0)
            self.times.append(t1 - t0)
            results.append(res)
        self.windows.append((lo, lo + WINDOW_STEPS, start, t1))
        return results

    def check(self, results) -> None:
        rec = step_record(results)
        self.failed += int(self.checker.feed(rec).sum())
        self.alarms += sum(rec["alarm"])

    def window_s(self, k: int) -> float:
        _, _, start, end = self.windows[k]
        return (end - start) / 1e9

    def metrics(self, speed: HostSpeed) -> tuple[dict[str, float], dict[str, float]]:
        """The p50 over every timed step, the median p99 of consecutive runs
        of P99_STEPS steps, and the frame rate, in reference time and in wall
        time. Each step loses the sampler's time inside it and is scaled by
        the host speed around it."""
        starts = np.asarray(self.starts, dtype=np.int64)
        net = speed.net_ns(starts, self.times)
        scaled = net * speed.local_factors(starts + net // 2)
        ref_s = sum(speed.ref_s(start, end) for _, _, start, end in self.windows)
        wall_s = sum(speed.wall_s(start, end) for _, _, start, end in self.windows)

        def stats(times, seconds):
            runs = times[:times.size - times.size % P99_STEPS].reshape(-1, P99_STEPS)
            return {
                "step_p50_ms": checks.percentile(times, 0.50) / 1e6,
                "step_p99_ms": statistics.median(checks.percentile(r, 0.99) for r in runs) / 1e6,
                "frames_per_s": net.size / seconds,
            }

        return stats(scaled, ref_s), stats(net, wall_s)


def write_config(path: str, values: dict) -> None:
    Path(path).write_text("".join(f"{k}={v}\n" for k, v in values.items()))


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def openblas_version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError):
        return None


def os_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "os_threads": os_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_version(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": list(os.getloadavg()),
    }


def measure(run: Run, work: Path) -> dict:
    """Untraced run: end-to-end metrics. The offline passes and the stream's
    chunks alternate, so that both sample the whole run."""
    passes, hashes, stream = [], [], None
    with run.speed:
        setup_s, frames = run.timed_setups(work)
        for _ in range(OFFLINE_REPEATS):
            passes.append(run.offline())
            hashes.append(sha256_tree(Path(".")))
            if stream is None:
                stream = run.stream(frames)
            stream.run(seconds=run.seconds / OFFLINE_REPEATS)
    same = sum(h == hashes[0] for h in hashes[1:])
    run.check(True, "offline outputs identical across repeats",
              count=OFFLINE_REPEATS - 1, bad=OFFLINE_REPEATS - 1 - same)
    ref = [{key: run.speed.ref_s(*span) for key, span in p.items()} for p in passes]
    wall = [{key: run.speed.wall_s(*span) for key, span in p.items()} for p in passes]
    # simulate stops each episode at its alarm, so its work depends on the
    # seed's tuned thresholds; its time is reported per simulated step
    steps = sum(len(read_csv(f)) for f in Path("results").glob("episode_*.csv"))
    for p in ref + wall:
        p["simulate_step_ms"] = p.pop("simulate_s") * 1e3 / steps
    metrics = {"setup_s": setup_s}
    metrics.update({key: statistics.median(p[key] for p in ref) for key in ref[0]})
    stream_ref, stream_wall = stream.metrics(run.speed)
    metrics.update(stream_ref)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.info["offline_hash"] = digest(hashes[0])
    run.info["wall"] = {
        "setup_s": statistics.median(run.info["setup_wall_s"]),
        **{key: statistics.median(p[key] for p in wall) for key in wall[0]},
        **stream_wall,
    }
    run.info["offline_passes_ref_s"] = ref
    run.info["reference_ms"] = {
        "samples": len(run.speed.durations),
        "p10": float(np.percentile(run.speed.durations, 10)) / 1e6,
        "p50": float(np.percentile(run.speed.durations, 50)) / 1e6,
        "p90": float(np.percentile(run.speed.durations, 90)) / 1e6,
    }
    run.info["stream_steps"] = len(stream.times)
    run.info["simulate_steps"] = steps
    run.count_stream(stream)
    run.check_offline()
    return metrics


STREAM_LAYERS = ("conformal.detect_step", "models.sample_reconstructions", "neural.forward",
                 "nonconformity.vae_score", "nonconformity.svdd_score", "conformal.p_value",
                 "conformal.mixture_martingale_log", "conformal.detector")
SETUP_LAYERS = ("models.train_vae", "models.train_svdd", "neural.backward", "neural.adam_step")
# Share of a traced phase that may stay outside every layer's spans.
MAX_ROOT_SELF_FRAC = 0.05


def traced(run: Run, work: Path, tracer) -> dict:
    """Traced run: one set-up, one offline pass and TRACED_WINDOWS stream
    windows, each under top-level spans. The work is fixed, so calls and
    counts do not depend on the host's speed. Per-layer metrics cover the
    offline pass and the stream; the training layers come from the set-up."""
    tracer.install(run.icad)
    try:
        root_setup = tracer.open("setup")
        frames = run.setup(work / "setup0")
        tracer.close(root_setup)
        root_offline = tracer.open("offline")
        run.offline()
        tracer.close(root_offline)
        tracer.restore()
        # untraced and traced windows alternate, so that both see the same
        # machine and their ratio gives the tracing overhead
        plain, traced_stream = run.stream(frames), run.stream(frames)
        stream_roots = []
        for _ in range(TRACED_WINDOWS):
            plain.check(plain.window())
            tracer.install(run.icad)
            stream_roots.append(tracer.open("stream"))
            results = traced_stream.window()
            tracer.close(stream_roots[-1])
            tracer.restore()
            traced_stream.check(results)
    finally:
        tracer.restore()
    run.count_stream(traced_stream)
    run.count_stream(plain)
    run.check_offline()

    roots = (root_setup, root_offline, *stream_roots)
    self_s = tracer.self_times()
    for root in roots:
        frac = self_s[root] / tracer.duration_s(root)
        run.check(frac <= MAX_ROOT_SELF_FRAC,
                  f"{tracer.names[root]} phase {frac:.3f} outside every layer's spans")
    measured = tracer.summary((root_offline, *stream_roots))
    setup = tracer.summary((root_setup,))
    stream = tracer.summary(stream_roots)

    def stat(table, name, key):
        return table.get(name, {}).get(key, 0)

    metrics = {}
    for name in ("conformal.mixture_martingale_log", "neural.forward",
                 "models.sample_reconstructions", "nonconformity.vae_score",
                 "nonconformity.svdd_score", "conformal.p_value", "conformal.detector",
                 "episodes.SceneGenerator.example", "nonconformity.fingerprint"):
        metrics[f"{name}.calls"] = stat(measured, name, "calls")
    for name in ("conformal.mixture_martingale_log", "neural.forward",
                 "models.sample_reconstructions", "nonconformity.vae_score",
                 "nonconformity.svdd_score", "conformal.p_value", "conformal.detector",
                 "conformal.detect_step", "episodes.tune_thresholds",
                 "episodes.SceneGenerator.example", "episodes.collect_traces",
                 "episodes.run_suite", "episodes.run_episode", "nonconformity.fingerprint",
                 "conformal.calibration_scores", "persistence.load", "persistence.save",
                 "cli.main"):
        metrics[f"{name}.self_s"] = stat(measured, name, "self_s")
    for name in SETUP_LAYERS:
        metrics[f"{name}.self_s"] = stat(setup, name, "self_s")
    for name in STREAM_LAYERS:
        metrics[f"stream.{name}.self_s"] = stat(stream, name, "self_s")

    def per_call(name, key):
        values = measured.get(name, {}).get(key, [])
        return sum(values) / len(values) if values else 0.0

    metrics["neural.forward.rows_per_call"] = per_call("neural.forward", "rows")
    metrics["models.sample_reconstructions.samples_per_call"] = per_call(
        "models.sample_reconstructions", "samples")
    digests = measured.get("nonconformity.fingerprint", {}).get("digest", [])
    metrics["nonconformity.fingerprint.distinct_ratio"] = (
        len(set(digests)) / len(digests) if digests else 0.0)
    examples = sum(measured.get("conformal.calibration_scores", {}).get("examples", []))
    cal_total = sum(tracer.duration_s(i) for i in tracer.subtree(root_offline)
                    if tracer.names[i] == "conformal.calibration_scores")
    metrics["conformal.calibration_scores.examples_per_s"] = (
        examples / cal_total if cal_total else 0.0)
    metrics["persistence.bytes_read"] = sum(measured.get("persistence.load", {}).get("bytes", []))
    metrics["persistence.bytes_written"] = sum(
        measured.get("persistence.save", {}).get("bytes", []))
    metrics["trace.overhead_frac"] = statistics.median(
        traced_stream.window_s(k) / plain.window_s(k) for k in range(len(stream_roots))) - 1.0
    metrics["trace.phase_s"] = sum(tracer.duration_s(r) for r in (root_offline, *stream_roots))
    metrics["trace.root_self_s"] = float(sum(self_s[r] for r in (root_offline, *stream_roots)))
    run.info["absent_layers"] = tracer.absent
    run.info["stream_largest_layer"] = max(
        (n for n in stream if n != "stream"), key=lambda n: stream[n]["self_s"])
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{run.method}.spans.csv.gz")
    return metrics


UNITS = {"setup_s": "s", "calibrate_s": "s", "tune_s": "s", "simulate_step_ms": "ms",
         "step_p50_ms": "ms", "step_p99_ms": "ms", "frames_per_s": "1/s", "peak_rss_mb": "MB"}
STAT_UNITS = {"calls": "count", "self_s": "s", "rows_per_call": "rows",
              "samples_per_call": "samples", "distinct_ratio": "ratio",
              "examples_per_s": "1/s", "bytes_read": "bytes", "bytes_written": "bytes",
              "overhead_frac": "ratio", "phase_s": "s", "root_self_s": "s"}


def unit(name: str) -> str:
    return UNITS.get(name) or STAT_UNITS[name.rsplit(".", 1)[1]]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        icad = import_icad()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import icad.cli  # noqa: F401  (the CLI module is not imported by the package)

    # a termination request unwinds normally, so the scratch directory goes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    info = {"provenance": provenance(args)}
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    cwd = os.getcwd()
    run = Run(icad, args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            metrics = traced(run, work, spans.Tracer())
        else:
            metrics = measure(run, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    info.update(run.info)
    info["provenance"]["loadavg_end"] = list(os.getloadavg())
    info["error_rate"] = run.failed / run.attempted
    info["failures"] = run.failures
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1, default=str))
    print(json.dumps({"info": info}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
