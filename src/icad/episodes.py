"""Synthetic drift episodes: data generator, harness, metrics, benchmarks.

The scene is a stand-in for camera frames at desk scale: a bright disk with
random position and radius (nuisance variation the detectors must tolerate)
on a noisy background, corrupted by precipitation-like effects (rain
streaks plus a global veil) whose strength grows linearly with a scalar
level ``r``. Training data uses ``r`` in [0, 20]; an episode is
ground-truth out-of-distribution as soon as its schedule pushes ``r``
past 20.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .conformal import StepResult, _finite
from .neural import BLOCK_ROWS, Array

OOD_THRESHOLD = 20.0

IN_DIST = "in_dist"
OOD = "ood"

TRUE_POSITIVE = "true_positive"
FALSE_POSITIVE = "false_positive"
TRUE_NEGATIVE = "true_negative"
FALSE_NEGATIVE = "false_negative"


@dataclass(frozen=True)
class DriftSchedule:
    """Piecewise-linear corruption level: flat, ramp, plateau."""

    r0: float
    t0: int
    t1: int
    beta: float

    def __post_init__(self):
        if self.t0 >= self.t1:
            raise ValueError("ramp must start before it ends (t0 < t1)")
        if not (0.0 <= self.r0 < np.inf and 0.0 <= self.beta < np.inf):
            raise ValueError("initial level and slope must be nonnegative and finite")

    def value(self, t: int) -> float:
        if t < 0:
            raise ValueError("time step must be >= 0")
        if t < self.t0:
            return self.r0
        if t <= self.t1:
            return self.r0 + self.beta * (t - self.t0)
        return self.plateau

    @property
    def plateau(self) -> float:
        return self.r0 + self.beta * (self.t1 - self.t0)

    def onset_step(self) -> int | None:
        """First step with corruption strictly above the training bound."""
        if self.value(0) > OOD_THRESHOLD:
            return 0
        if self.plateau <= OOD_THRESHOLD:
            return None
        t = self.t0
        while self.value(t) <= OOD_THRESHOLD:
            t += 1
        return t


def sample_schedule(rng: np.random.Generator) -> DriftSchedule:
    """Draw a schedule from the standard ranges: r0 ~ U[0,10], t0 in {10..30},
    t1 in {90..110}, slope in [0.1, 0.5]."""
    return DriftSchedule(
        r0=float(rng.uniform(0.0, 10.0)),
        t0=int(rng.integers(10, 31)),
        t1=int(rng.integers(90, 111)),
        beta=float(rng.uniform(0.1, 0.5)),
    )


def sample_schedule_labeled(
    rng: np.random.Generator, ood: bool, ood_margin: float = 0.0
) -> DriftSchedule:
    """Rejection-sample a schedule with the requested ground-truth label.

    ``ood_margin`` requires OOD plateaus to clear the training bound by at
    least that much, which keeps suites away from undetectable borderline
    episodes (a plateau of 20.01 is out-of-distribution in name only).
    """
    for _ in range(10000):
        sched = sample_schedule(rng)
        if ood and sched.plateau > OOD_THRESHOLD + ood_margin:
            return sched
        if not ood and sched.plateau <= OOD_THRESHOLD:
            return sched
    raise RuntimeError("could not sample a schedule with the requested label")


# Scene rendering: grey levels in [0, 1], per-pixel sensor noise, and the
# per-unit-``r`` rates of the two corruption effects.
BACKGROUND = 0.1
DISK_VALUE = 0.9
NOISE_SIGMA = 0.02
STREAK_RATE = 0.4
STREAK_VALUE = 0.5
STREAK_LENGTH = 4
HAZE_RATE = 0.006
HAZE_VALUE = 0.7


# The largest corruption level a frame may take. Its 400 streaks cover a
# 16x16 frame six times over and the veil saturates at r = 166.7, so a higher
# level shows nothing new; the cap keeps a block's streak arrays to a few MB.
MAX_LEVEL = 1000.0


@functools.lru_cache(maxsize=8)
def _layout(side: int) -> tuple[Array, Array, Array | None, Array]:
    """Per-side constants of the renderer, read-only since every caller
    shares them: the pixel axis, the flat pixel indices of a streak for every
    ``(col, row)`` start, and the ranges of the column and row draws with
    their Lemire rejection thresholds ``2**32 mod range`` (ranges ``None``
    when the row range is 1, for which numpy draws nothing)."""
    rows = side - STREAK_LENGTH + 1
    i = np.arange(STREAK_LENGTH)
    col, row = np.ogrid[:side, :rows]
    pixels = (row[..., None] + i) * side + np.minimum(side - 1, col[..., None] + i // 2)
    ranges = np.array([side, rows], dtype=np.uint64)
    thresholds = np.array([2**32 % side, 2**32 % rows], dtype=np.uint32)
    axis = np.arange(side, dtype=np.float64)
    for a in (axis, pixels, ranges, thresholds):
        a.setflags(write=False)
    return axis, pixels, ranges if rows > 1 else None, thresholds


def _lemire_pairs(words: Array, ranges: Array, thresholds: Array) -> Array | None:
    """numpy's ``integers(0, [range_col, range_row] * n)`` replayed on ``n``
    raw PCG64 words, as an ``(n, 2)`` array of ``(col, row)``.

    ``Generator.integers`` draws each value from one 32-bit half of a word,
    the low half first (``next_uint32``), by Lemire's rule: a half ``x`` maps
    to ``(x * R) >> 32`` and is rejected, and drawn again, when
    ``(x * R) mod 2**32 < 2**32 mod R``. ``None`` if any half would be
    rejected. Little-endian, a word's ``uint32`` view is its (low, high) pair.
    """
    m = words.astype("<u8", copy=False).view("<u4").reshape(-1, 2).astype(np.uint64) * ranges
    if (m.astype(np.uint32) < thresholds).any():
        return None
    return m >> 32


def _frame_draws(
    rng: np.random.Generator, levels: list[float], out: Array, u: Array,
    draw: Callable[[int], Array],
) -> tuple[list[Array], list[int], list[int]]:
    """Each frame's draws, in frame order: three uniforms into ``u[k]``, the
    standard normals into ``out[k]``, one Bernoulli uniform, then
    ``draw(n)`` for its ``n`` streaks. Returns the streak draws with the
    frame and streak count of each."""
    draws, owners, counts = [], [], []
    for k, r in enumerate(levels):
        rng.random(out=u[k])
        rng.standard_normal(out=out[k])
        expected = STREAK_RATE * r
        n_streaks = int(expected) + (1 if rng.random() < expected - int(expected) else 0)
        if n_streaks:
            draws.append(draw(n_streaks))
            owners.append(k)
            counts.append(n_streaks)
    return draws, owners, counts


@dataclass(frozen=True)
class SceneGenerator:
    """Disk-plus-rain image generator; flattened frames are the examples.

    Only the image side and the dataset seed vary; the rendering constants
    are the module's ``BACKGROUND`` through ``HAZE_VALUE``. A frame is a
    disk of value ``DISK_VALUE`` and radius in [0.2, 0.3] x ``side`` on a
    ``BACKGROUND`` field, plus Gaussian noise of scale ``NOISE_SIGMA``. The
    corruption level ``r`` drives two precipitation-like effects: an
    additive grey veil over the whole frame (``HAZE_RATE * r * HAZE_VALUE``,
    at most ``HAZE_VALUE``) and rain streaks of ``STREAK_LENGTH`` pixels
    whose expected count is ``STREAK_RATE * r``. At ``r = 0`` the frame is
    the uncorrupted scene.

    ``examples`` is the one renderer. It makes each frame's draws in frame
    order, and the pinned dataset bytes rest on that order: three uniforms
    (disk radius, centre row, centre column), ``side**2`` standard normals,
    one Bernoulli uniform, then a ``(col, row)`` pair per streak. After the
    draws it renders the whole block at once: disk, noise scale, veil,
    streaks and clip. So a block's frames and the generator's end state do
    not depend on how the levels are split into blocks.

    A streak's ``(col, row)`` pair is one raw 64-bit word: the two 32-bit
    halves numpy's ``integers`` would draw for it, column from the low half.
    The block's words are mapped together by Lemire's bounded-integer rule,
    as numpy maps them (``_lemire_pairs``), and the state's spare half is set
    as numpy leaves it. numpy's own ``integers`` call draws the pairs
    instead, the block's draws made again from its start, when a half would
    be rejected, when a 32-bit half is pending at the start of the block,
    for a bit generator other than PCG64, and at side 4, where numpy draws
    nothing for the row. Either way the frames and the generator's end
    state are numpy's, bit for bit.
    """

    side: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.side < max(4, STREAK_LENGTH):
            raise ValueError(f"image side must be at least {max(4, STREAK_LENGTH)}")

    @property
    def dim(self) -> int:
        return self.side * self.side

    def example(self, r: float, rng: np.random.Generator) -> Array:
        """One frame at corruption level ``r``: ``examples((r,), rng)[0]``."""
        return self.examples((r,), rng)[0]

    def examples(self, r_values: Sequence[float], rng: np.random.Generator) -> Array:
        """Render one flattened frame per corruption level, in order, as a
        ``(len(r_values), dim)`` block.

        Streak count is ``floor(rate*r)`` plus a Bernoulli on the fractional
        part, so the expected count is exactly ``rate*r`` (zero at r=0).
        Every level must be finite and in [0, ``MAX_LEVEL``]; a bad one
        raises ``ValueError`` before the first draw.
        """
        levels = np.asarray(r_values, dtype=np.float64)
        rs = levels.tolist()
        for r in rs:
            if not 0.0 <= r <= MAX_LEVEL:
                raise ValueError("corruption level must be nonnegative and finite, "
                                 f"at most {MAX_LEVEL:g}, got {r}")
        side, count = self.side, len(rs)
        axis, pixels, ranges, thresholds = _layout(side)
        out = np.empty((count, self.dim))
        u = np.empty((count, 3))
        bits = rng.bit_generator
        state = bits.state
        raw = ranges is not None and type(bits) is np.random.PCG64 and not state["has_uint32"]
        if raw:
            draws, owners, counts = _frame_draws(rng, rs, out, u, bits.random_raw)
            if draws:
                pairs = _lemire_pairs(np.concatenate(draws), ranges, thresholds)
                if pairs is None:  # numpy draws again: the block starts over
                    bits.state = state
                    raw = False
                else:  # numpy's last row draw leaves its word's high half spare
                    end = bits.state
                    end["uinteger"] = int(draws[-1][-1]) >> 32
                    bits.state = end
        if not raw:
            most = int(STREAK_RATE * max(rs, default=0.0)) + 1  # streaks of the busiest frame
            bounds = np.full((most, 2), (side, side - STREAK_LENGTH + 1), dtype=np.int64).ravel()
            draws, owners, counts = _frame_draws(
                rng, rs, out, u, lambda n: rng.integers(0, bounds[: 2 * n]))
            if draws:
                pairs = np.concatenate(draws).reshape(-1, 2)
        out *= NOISE_SIGMA  # normal(0, sigma) is 0 + sigma * standard_normal
        # uniform(lo, hi) is lo + (hi - lo) * u; rows then columns of the centre
        rad = 0.2 * side + (0.3 * side - 0.2 * side) * u[:, :1]
        span = (side - rad) - rad
        d2 = (axis - (rad + span * u[:, 1:])[:, :, None]) ** 2
        disk = d2[:, 0, :, None] + d2[:, 1, None, :] <= (rad * rad)[:, :, None]
        out += np.where(disk.reshape(out.shape), DISK_VALUE, BACKGROUND)
        out += (np.minimum(1.0, HAZE_RATE * levels) * HAZE_VALUE)[:, None]
        if draws:
            first = np.repeat(owners, counts) * self.dim  # each streak's frame, flat
            np.add.at(out.reshape(-1), pixels[pairs[:, 0], pairs[:, 1]] + first[:, None],
                      STREAK_VALUE)
        np.clip(out, 0.0, 1.0, out=out)
        return out


def _dataset_levels(
    gen: SceneGenerator, count: int, r_range: tuple[float, float]
) -> tuple[Array, np.random.Generator]:
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = r_range
    if not 0.0 <= lo <= hi <= MAX_LEVEL:
        raise ValueError(f"corruption range must lie in [0, {MAX_LEVEL:g}], got [{lo}, {hi}]")
    rng = np.random.default_rng(gen.seed)
    return rng.uniform(lo, hi, size=count), rng


def generate_dataset(
    gen: SceneGenerator, count: int, r_range: tuple[float, float]
) -> tuple[Array, Array]:
    """Deterministically generate ``count`` examples with r ~ U[r_range].

    Returns ``(examples, r_values)``; reproducible from the generator's seed.
    """
    r_values, rng = _dataset_levels(gen, count, r_range)
    return gen.examples(r_values, rng), r_values


def iter_dataset(
    gen: SceneGenerator, count: int, r_range: tuple[float, float]
) -> tuple[Array, Iterator[Array]]:
    """The dataset of ``generate_dataset`` as ``(r_values, blocks)``.

    ``blocks`` yields the same examples in consecutive blocks of at most
    ``BLOCK_ROWS`` rows, drawn lazily from the same random stream, so a
    caller that writes each block out never holds the whole dataset.
    """
    r_values, rng = _dataset_levels(gen, count, r_range)
    step = BLOCK_ROWS
    blocks = (gen.examples(r_values[i : i + step], rng) for i in range(0, count, step))
    return r_values, blocks


@dataclass(frozen=True)
class EpisodeResult:
    label: str
    alarm_step: int | None
    onset_step: int | None
    verdict: str
    delay_frames: int | None


def _episode_result(label: str, onset: int | None, alarm: int | None) -> EpisodeResult:
    if alarm is None:
        verdict = FALSE_NEGATIVE if label == OOD else TRUE_NEGATIVE
        return EpisodeResult(label, None, onset, verdict, None)
    if onset is not None and alarm >= onset:
        return EpisodeResult(label, alarm, onset, TRUE_POSITIVE, alarm - onset)
    return EpisodeResult(label, alarm, onset, FALSE_POSITIVE, None)


def _ground_truth(schedule: DriftSchedule, max_steps: int) -> tuple[int | None, str]:
    """``(onset_step, label)``; an onset at or past the horizon does not count."""
    onset = schedule.onset_step()
    if onset is not None and onset >= max_steps:
        onset = None
    return onset, OOD if onset is not None else IN_DIST


# Frames rendered and scored per ``pipeline.steps`` call in an episode. A
# block scores for less than its frames one by one, but the frames of the
# alarm's chunk past the alarm are rendered and scored for nothing. Of 1, 8,
# 16, 32 and 150, 16 ran the 50-episode README suites fastest for both
# methods (see CHANGES.md); a constant, since tune and simulate must agree.
EPISODE_CHUNK = 16


def _steps(gen: SceneGenerator, schedule: DriftSchedule, pipeline, max_steps: int, seed: int):
    """Feed an episode's frames to ``pipeline`` in chunks of ``EPISODE_CHUNK``;
    yields ``(t, r, step result)``. A live run and a replay see the same
    chunks, so they score with the same block arithmetic."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    rng = np.random.default_rng(seed)
    for start in range(0, max_steps, EPISODE_CHUNK):
        ts = range(start, min(start + EPISODE_CHUNK, max_steps))
        rs = [schedule.value(t) for t in ts]
        yield from zip(ts, rs, pipeline.steps(gen.examples(rs, rng)))


def run_episode(
    gen: SceneGenerator,
    schedule: DriftSchedule,
    pipeline,
    max_steps: int = 150,
    seed: int = 0,
) -> tuple[EpisodeResult, list[tuple[int, float, StepResult]]]:
    """Stream one episode through a detection pipeline, stopping at the first
    alarm; returns the verdict and the ``(t, r, step result)`` triples. The
    ground-truth label depends only on the schedule and horizon."""
    onset, label = _ground_truth(schedule, max_steps)
    steps = []
    alarm_step: int | None = None
    for t, r, res in _steps(gen, schedule, pipeline, max_steps, seed):
        steps.append((t, r, res))
        if res.alarm:
            alarm_step = t
            break
    return _episode_result(label, onset, alarm_step), steps


@dataclass(frozen=True)
class SuiteMetrics:
    results: tuple[EpisodeResult, ...]

    @property
    def false_positives(self) -> int:
        return sum(r.verdict == FALSE_POSITIVE for r in self.results)

    @property
    def false_negatives(self) -> int:
        return sum(r.verdict == FALSE_NEGATIVE for r in self.results)

    @property
    def in_dist_count(self) -> int:
        return sum(r.label == IN_DIST for r in self.results)

    @property
    def ood_count(self) -> int:
        return sum(r.label == OOD for r in self.results)

    @property
    def mean_delay(self) -> float | None:
        delays = [r.delay_frames for r in self.results if r.delay_frames is not None]
        return float(np.mean(delays)) if delays else None


def run_suite(
    gen: SceneGenerator,
    schedules: Sequence[DriftSchedule],
    pipeline_factory: Callable[[], object],
    max_steps: int = 150,
    seed: int = 0,
) -> tuple[SuiteMetrics, list[list[tuple[int, float, StepResult]]]]:
    """Run independent episodes (fresh pipeline each) and aggregate verdicts;
    also returns each episode's ``run_episode`` triples."""
    results = []
    diagnostics = []
    for i, sched in enumerate(schedules):
        res, steps = run_episode(gen, sched, pipeline_factory(), max_steps, seed=seed + i)
        results.append(res)
        diagnostics.append(steps)
    return SuiteMetrics(tuple(results)), diagnostics


def make_suite_schedules(
    count: int, ood_fraction: float, seed: int, ood_margin: float = 0.0
) -> list[DriftSchedule]:
    """A reproducible episode mix: the first ``round(count * ood_fraction)``
    are OOD, and Python's ``round`` takes a half to the even integer (at
    fraction 0.5, counts 1, 3, 5, 7 and 9 give 0, 2, 2, 4 and 4 OOD episodes).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 <= ood_fraction <= 1.0:
        raise ValueError("ood fraction must be in [0, 1]")
    if not 0.0 <= ood_margin < np.inf:
        raise ValueError(f"ood margin must be finite and >= 0, got {ood_margin}")
    rng = np.random.default_rng(seed)
    n_ood = int(round(count * ood_fraction))
    flags = [True] * n_ood + [False] * (count - n_ood)
    return [sample_schedule_labeled(rng, flag, ood_margin) for flag in flags]


@dataclass(frozen=True)
class Trace:
    m_logs: tuple[float, ...]
    onset_step: int | None
    label: str

    def __post_init__(self):
        # no pipeline makes one (p-values lie in (0, 1]); a NaN never alarms a
        # detector but sorts above every tau in a numpy running maximum
        if not all(map(math.isfinite, self.m_logs)):
            raise ValueError("trace log M values must be finite")


def collect_traces(
    gen: SceneGenerator,
    schedules: Sequence[DriftSchedule],
    pipeline_factory: Callable[[], object],
    max_steps: int = 150,
    seed: int = 0,
) -> list[Trace]:
    """Run episodes to the full horizon recording log M.

    Alarms do not stop the run: ``log M`` does not depend on the detector.
    """
    traces = []
    for i, sched in enumerate(schedules):
        steps = _steps(gen, sched, pipeline_factory(), max_steps, seed + i)
        m_logs = tuple(res.m_log for _, _, res in steps)
        traces.append(Trace(m_logs, *_ground_truth(sched, max_steps)))
    return traces


@dataclass(frozen=True)
class GridPoint:
    delta: float | None
    tau: float
    false_positives: int
    false_negatives: int
    mean_delay: float | None
    objective: float


def _first_alarms(m_logs: Sequence[float], taus: Array, delta: float | None) -> list[int | None]:
    """The step at which a fresh detector first alarms on ``m_logs``, for
    every threshold in ``taus`` at once; ``None`` for no alarm. ``delta``
    picks CUSUM, ``None`` the threshold detector.

    Up to its first alarm a detector's statistic does not depend on tau:
    CUSUM resets only when it alarms, and the threshold detector keeps no
    state. So tau first alarms at the first step whose running maximum of the
    statistic exceeds it. The CUSUM statistic repeats ``CusumDetector.update``'s
    float operations in its order, one-step lag included, so the steps are
    exact; its step 0, which never alarms, enters the maximum as -inf.
    """
    if delta is None:
        stat = np.array(m_logs, dtype=np.float64)
    else:
        stats, s = [-math.inf], 0.0
        for m_log in m_logs[:-1]:
            s = (s + m_log) - delta
            s = s if s > 0.0 else 0.0  # max(0.0, s) without the call
            stats.append(s)
        stat = np.array(stats[: len(m_logs)])  # an empty trace has no step 0
    first = np.maximum.accumulate(stat).searchsorted(taus, side="right").tolist()
    return [None if t == len(stat) else t for t in first]


def tune_thresholds(
    traces: Sequence[Trace],
    taus: Sequence[float],
    deltas: Sequence[float] | None = None,
) -> tuple[GridPoint | None, list[GridPoint]]:
    """Grid-search detector thresholds on recorded traces.

    With a ``deltas`` grid the detector is CUSUM over every (delta, tau);
    without one it is a plain threshold over ``taus``. Feasible points have
    zero false positives; among them the winner minimizes (false negatives,
    mean delay with misses charged the full remaining horizon). Returns
    ``(best_or_None, all_points)``. A trace's alarms for every tau come
    from one statistic pass per delta (``_first_alarms``): the steps at which
    a fresh detector replayed over the trace would alarm.
    """
    for tau in taus:
        _finite("tau", tau, inf_ok=True)
    for delta in deltas or ():
        _finite("delta", delta)
    tau_array = np.asarray(taus, dtype=np.float64)
    points: list[GridPoint] = []
    for delta in [None] if deltas is None else deltas:
        alarms = [_first_alarms(trace.m_logs, tau_array, delta) for trace in traces]
        for k, tau in enumerate(taus):
            results = []
            padded: list[float] = []
            for trace, trace_alarms in zip(traces, alarms):
                result = _episode_result(trace.label, trace.onset_step, trace_alarms[k])
                results.append(result)
                if result.verdict == FALSE_NEGATIVE:
                    padded.append(float(len(trace.m_logs) - trace.onset_step))
                elif result.verdict == TRUE_POSITIVE:
                    padded.append(float(result.delay_frames))
            suite = SuiteMetrics(tuple(results))
            objective = float(np.mean(padded)) if padded else 0.0
            points.append(GridPoint(delta, tau, suite.false_positives, suite.false_negatives,
                                    suite.mean_delay, objective))
    feasible = [p for p in points if p.false_positives == 0]
    best = min(feasible, key=lambda p: (p.false_negatives, p.objective)) if feasible else None
    return best, points


def quartiles(values: Sequence[float]) -> tuple[float, float, float, float, float]:
    """(min, Q1, median, Q3, max) with linear interpolation."""
    q = np.percentile(np.asarray(values, dtype=np.float64), [0, 25, 50, 75, 100])
    return tuple(float(v) for v in q)


@dataclass(frozen=True)
class TimingRow:
    method: str
    n: int
    min_ms: float
    q1_ms: float
    q2_ms: float
    q3_ms: float
    max_ms: float


# Untimed steps per configuration before ``benchmark_timing`` measures.
BENCH_WARMUP = 50


def benchmark_timing(
    pipeline_factory: Callable[[int], object],
    gen: SceneGenerator,
    n_values: Sequence[int],
    steps: int = 1000,
    seed: int = 0,
) -> list[TimingRow]:
    """Wall-clock per detection step, quartiles over ``steps`` measurements.

    One row per window/sample count, all fed the same pre-generated
    in-distribution stream (r ~ U[0, 20]), whose first ``BENCH_WARMUP``
    frames warm each pipeline up untimed. Measurements are interleaved
    round-robin across the configurations so process-level throughput drift
    (cache and frequency warm-up) does not bias one configuration against
    another.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    r_values = rng.uniform(0.0, OOD_THRESHOLD, size=BENCH_WARMUP + steps)
    stream = gen.examples(r_values, rng)
    pipelines = [pipeline_factory(n) for n in n_values]
    for pipeline in pipelines:
        for z in stream[:BENCH_WARMUP]:
            pipeline.step(z)
    times_ms = np.empty((len(pipelines), steps))
    for i, z in enumerate(stream[BENCH_WARMUP:]):
        for j, pipeline in enumerate(pipelines):
            start = time.perf_counter()
            pipeline.step(z)
            times_ms[j, i] = (time.perf_counter() - start) * 1e3
    rows = []
    for j, (n, pipeline) in enumerate(zip(n_values, pipelines)):
        mn, q1, q2, q3, mx = quartiles(times_ms[j])
        rows.append(TimingRow(pipeline.method, int(n), mn, q1, q2, q3, mx))
    return rows
