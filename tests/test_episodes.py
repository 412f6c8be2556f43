"""Drift schedules, scene generation, the episode harness, tuning, timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icad import episodes
from icad.conformal import (
    CusumDetector,
    StepResult,
    SvddPipeline,
    ThresholdDetector,
    VaePipeline,
    calibration_scores,
)
from icad.episodes import (
    FALSE_NEGATIVE,
    FALSE_POSITIVE,
    IN_DIST,
    OOD,
    OOD_THRESHOLD,
    TRUE_NEGATIVE,
    TRUE_POSITIVE,
    DriftSchedule,
    SceneGenerator,
    Trace,
    benchmark_timing,
    collect_traces,
    generate_dataset,
    iter_dataset,
    make_suite_schedules,
    quartiles,
    run_episode,
    run_suite,
    sample_schedule,
    sample_schedule_labeled,
    tune_thresholds,
)
from icad.neural import BLOCK_ROWS
from icad.nonconformity import SvddScorer, VaeScorer


# ---------------------------------------------------------------- schedules

def test_schedule_piecewise_values():
    s = DriftSchedule(r0=5.0, t0=10, t1=20, beta=0.5)
    assert s.value(5) == 5.0
    assert s.value(15) == pytest.approx(7.5)
    assert s.value(25) == pytest.approx(10.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        DriftSchedule(r0=1.0, t0=20, t1=10, beta=0.1)
    with pytest.raises(ValueError):
        DriftSchedule(r0=-1.0, t0=1, t1=2, beta=0.1)
    # r0 = inf would put the onset at step 0; a NaN would fail only at the first frame
    for r0, beta in ((np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            DriftSchedule(r0=r0, t0=1, t1=2, beta=beta)


def test_schedule_onset_is_first_step_above_threshold():
    s = DriftSchedule(r0=10.0, t0=10, t1=110, beta=0.5)
    onset = s.onset_step()
    assert s.value(onset) > 20.0
    assert s.value(onset - 1) <= 20.0


def test_schedule_onset_none_when_plateau_below_threshold():
    s = DriftSchedule(r0=2.0, t0=10, t1=60, beta=0.1)
    assert s.plateau <= 20.0
    assert s.onset_step() is None


def test_sampled_schedules_respect_standard_ranges():
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = sample_schedule(rng)
        assert 0.0 <= s.r0 <= 10.0
        assert 10 <= s.t0 <= 30
        assert 90 <= s.t1 <= 110
        assert 0.1 <= s.beta <= 0.5


def test_labeled_sampling_and_margin():
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert sample_schedule_labeled(rng, ood=False).plateau <= 20.0
        assert sample_schedule_labeled(rng, ood=True, ood_margin=5.0).plateau > 25.0


# ---------------------------------------------------------------- scene

def test_generate_dataset_is_deterministic():
    gen = SceneGenerator(side=8, seed=3)
    a, ra = generate_dataset(gen, 5, (0.0, 20.0))
    b, rb = generate_dataset(gen, 5, (0.0, 20.0))
    assert np.array_equal(a, b)
    assert np.array_equal(ra, rb)


def _scalar_example(side, r, rng):
    """The renderer as first written: scalar draws and one write per pixel."""
    img = np.full((side, side), episodes.BACKGROUND)
    rad = rng.uniform(0.2 * side, 0.3 * side)
    cy = rng.uniform(rad, side - rad)
    cx = rng.uniform(rad, side - rad)
    yy, xx = np.ogrid[:side, :side]
    img[(yy - cy) ** 2 + (xx - cx) ** 2 <= rad * rad] = episodes.DISK_VALUE
    img += rng.normal(0.0, episodes.NOISE_SIGMA, size=(side, side))
    haze = min(1.0, episodes.HAZE_RATE * r)
    if haze > 0.0:
        img += haze * episodes.HAZE_VALUE
    expected = episodes.STREAK_RATE * r
    n_streaks = int(expected) + (1 if rng.random() < expected - int(expected) else 0)
    for _ in range(n_streaks):
        col = int(rng.integers(0, side))
        row = int(rng.integers(0, side - episodes.STREAK_LENGTH + 1))
        for i in range(episodes.STREAK_LENGTH):
            img[row + i, min(side - 1, col + i // 2)] += episodes.STREAK_VALUE
    np.clip(img, 0.0, 1.0, out=img)
    return img.ravel()


@pytest.mark.parametrize("side", [4, 5, 16, 17])
def test_example_matches_scalar_renderer_bit_for_bit(side):
    # r = 60 draws 24 streaks, so streaks overlap and clip at 1.0; 7.49 and
    # 20.01 sit just off whole streak counts, 0.3 gives a Bernoulli streak
    gen = SceneGenerator(side=side, seed=0)
    for seed in range(6):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        for r in (0.0, 0.3, 2.5, 7.49, 20.0, 20.01, 33.3, 60.0, 60.0, 0.0):
            assert np.array_equal(gen.example(r, rng_a), _scalar_example(side, r, rng_b))
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_examples_equal_stacked_single_frames():
    # the scalar renderer is the oracle for the block path: blocks of 1, 7,
    # 16 and 60 rows at levels up to 60 (24 streaks), state checked per block
    levels = np.random.default_rng(8).uniform(0.0, 60.0, size=84)
    for side in (4, 5, 16, 17):
        gen = SceneGenerator(side=side, seed=3)
        rng_a, rng_b = np.random.default_rng(side), np.random.default_rng(side)
        start = 0
        for rows in (1, 7, 16, 60):
            r_values = levels[start : start + rows]
            start += rows
            batch = gen.examples(r_values, rng_a)
            single = np.stack([_scalar_example(side, r, rng_b) for r in r_values])
            assert batch.dtype == np.float64 and batch.flags.c_contiguous
            assert batch.tobytes() == single.tobytes()
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_examples_split_anywhere_draw_the_same_frames():
    gen = SceneGenerator(side=16, seed=3)
    r_values = np.random.default_rng(2).uniform(0.0, 60.0, size=40).tolist()
    rng_whole = np.random.default_rng(4)
    whole = gen.examples(r_values, rng_whole)
    for k in (0, 1, 17, 39, 40):
        rng = np.random.default_rng(4)
        parts = np.concatenate([gen.examples(r_values[:k], rng), gen.examples(r_values[k:], rng)])
        assert parts.tobytes() == whole.tobytes()
        assert rng.bit_generator.state == rng_whole.bit_generator.state


def _full_state(rng):
    """The bit generator's whole state, arrays as lists (MT19937 keeps one)."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(rng.bit_generator.state)


def _assert_block_is_scalar(gen, r_values, rng_a, rng_b):
    block = gen.examples(r_values, rng_a)
    single = np.array([_scalar_example(gen.side, r, rng_b) for r in r_values])
    assert block.shape == (len(r_values), gen.dim) and block.tobytes() == single.tobytes()
    assert _full_state(rng_a) == _full_state(rng_b)


class _CountingGenerator(np.random.Generator):
    """A Generator that counts its ``integers`` calls: the renderer's numpy draw."""

    integer_calls = 0

    def integers(self, *args, **kwargs):
        self.integer_calls += 1
        return super().integers(*args, **kwargs)


def _pending_half(seed):
    rng = np.random.default_rng(seed)
    rng.integers(0, 5)  # one 32-bit draw: the word's high half waits for the next
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


# the cases in which numpy's own integers call draws the streak pairs
_NUMPY_DRAW_CASES = {
    "pending-half": (16, _pending_half),
    "mt19937": (16, lambda seed: np.random.Generator(np.random.MT19937(seed))),
    "side-4": (4, np.random.default_rng),  # a row range of 1: numpy draws no row
}


@pytest.mark.parametrize("case", list(_NUMPY_DRAW_CASES))
def test_numpy_draw_cases_match_scalar_renderer(case):
    side, make = _NUMPY_DRAW_CASES[case]
    gen = SceneGenerator(side=side)
    levels = [60.0, 0.3, 0.0, 33.3, 7.49, 60.0]
    for seed in range(4):
        rng_a, rng_b = make(seed), make(seed)
        _assert_block_is_scalar(gen, levels[:1], rng_a, rng_b)
        _assert_block_is_scalar(gen, levels, rng_a, rng_b)


# word 71,676,296 of default_rng(0): its high half 330,382,100 leaves
# 330,382,100 * 13 mod 2**32 = 4 < 2**32 mod 13 = 9, so numpy rejects it as a
# side-16 row draw (range 13) and draws again
_REJECTED_WORD = 71_676_296


def test_rejected_row_draw_falls_back_to_numpy():
    probe = np.random.default_rng(0)
    probe.bit_generator.advance(_REJECTED_WORD)
    word = probe.bit_generator.random_raw(1)
    assert word[0] >> 32 == 330_382_100
    assert episodes._lemire_pairs(word, *episodes._layout(16)[2:]) is None
    gen = SceneGenerator(side=16)
    fallbacks = 0
    for j in range(250, 300):  # the word lands on frame 0's streaks at some offsets
        rng_a, rng_b = _CountingGenerator(np.random.PCG64(0)), np.random.default_rng(0)
        rng_a.bit_generator.advance(_REJECTED_WORD - j)
        rng_b.bit_generator.advance(_REJECTED_WORD - j)
        _assert_block_is_scalar(gen, [60.0, 60.0], rng_a, rng_b)
        fallbacks += rng_a.integer_calls > 0
    assert fallbacks >= 1


@pytest.mark.parametrize("side", [5, 16, 17, 33])
def test_lemire_pairs_equal_numpy_integers(side):
    _, _, ranges, thresholds = episodes._layout(side)
    for seed in range(200):
        words = np.random.default_rng(seed).bit_generator.random_raw(24)
        pairs = episodes._lemire_pairs(words, ranges, thresholds)
        expected = np.random.default_rng(seed).integers(0, [side, side - 3] * 24)
        assert pairs is not None and pairs.ravel().tolist() == expected.tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), side=st.integers(5, 33), pending=st.booleans(),
       levels=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=12), data=st.data())
def test_any_block_split_matches_scalar_renderer(seed, side, pending, levels, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(levels)), max_size=3)))
    gen = SceneGenerator(side=side)
    make = _pending_half if pending else np.random.default_rng
    rng_a, rng_b = make(seed), make(seed)
    for lo, hi in zip([0, *cuts], [*cuts, len(levels)]):
        _assert_block_is_scalar(gen, levels[lo:hi], rng_a, rng_b)


def test_max_level_renders_and_higher_ranges_are_refused():
    gen = SceneGenerator(side=8, seed=3)
    _assert_block_is_scalar(gen, [episodes.MAX_LEVEL], np.random.default_rng(1),
                            np.random.default_rng(1))
    x, r = generate_dataset(gen, 3, (episodes.MAX_LEVEL, episodes.MAX_LEVEL))
    assert x.shape == (3, 64) and r.tolist() == [episodes.MAX_LEVEL] * 3
    with pytest.raises(ValueError, match=r"corruption range must lie in \[0, 1000\]"):
        iter_dataset(gen, 2, (0.0, 1e12))


@pytest.mark.parametrize("r_values", [[float("nan")], [float("inf")], [2.0, -float("inf")],
                                      [1.0, -1.0], [3.0, float("nan"), 4.0],
                                      [5.0, np.nextafter(episodes.MAX_LEVEL, np.inf)], [1e12]],
                         ids=["nan", "inf", "minus-inf", "negative-second", "nan-middle",
                              "above-max-level", "huge"])
def test_bad_level_is_rejected_before_any_draw(r_values):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="corruption level must be nonnegative and finite"):
        SceneGenerator(side=8).examples(r_values, rng)
    assert rng.bit_generator.state == before


def test_iter_dataset_blocks_concatenate_to_generate_dataset():
    gen = SceneGenerator(side=8, seed=5)
    count = 2 * BLOCK_ROWS + 7
    x, r = generate_dataset(gen, count, (0.0, 30.0))
    r_iter, blocks = iter_dataset(gen, count, (0.0, 30.0))
    blocks = list(blocks)
    assert [len(b) for b in blocks] == [BLOCK_ROWS, BLOCK_ROWS, 7]
    assert np.array_equal(np.concatenate(blocks), x)
    assert np.array_equal(r_iter, r)


def test_generate_dataset_validates_args():
    gen = SceneGenerator(side=8, seed=3)
    with pytest.raises(ValueError):
        generate_dataset(gen, 0, (0.0, 20.0))
    with pytest.raises(ValueError):
        generate_dataset(gen, 1, (5.0, 1.0))
    with pytest.raises(ValueError):
        iter_dataset(gen, 0, (0.0, 20.0))


def test_zero_corruption_adds_no_streak_pixels(monkeypatch):
    monkeypatch.setattr(episodes, "NOISE_SIGMA", 0.0)
    gen = SceneGenerator(side=16, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        img = gen.example(0.0, rng)
        assert set(np.unique(img)) <= {episodes.BACKGROUND, episodes.DISK_VALUE}


def test_mean_pixel_energy_increases_with_corruption():
    gen = SceneGenerator(side=16, seed=6)
    rng = np.random.default_rng(7)
    means = []
    for r in (0.0, 5.0, 15.0, 30.0):
        means.append(np.mean([gen.example(r, rng).mean() for _ in range(1000)]))
    print("mean energy by r:", [f"{m:.4f}" for m in means])
    assert all(a < b for a, b in zip(means, means[1:]))


def test_example_dimension_and_range():
    gen = SceneGenerator(side=12, seed=8)
    img = gen.example(40.0, np.random.default_rng(9))
    assert img.shape == (144,)
    assert img.min() >= 0.0 and img.max() <= 1.0


# ---------------------------------------------------------------- harness

class _StubPipeline:
    """Alarms at a fixed step; counts how many steps it was fed."""

    def __init__(self, alarm_at=None):
        self.alarm_at = alarm_at
        self.calls = 0

    def step(self, z):
        t = self.calls
        self.calls += 1
        alarm = self.alarm_at is not None and t == self.alarm_at
        return StepResult(alarm, (0.0,), (0.5,), 0.0, -1.0)

    def steps(self, frames):
        return [self.step(z) for z in frames]


def _gen():
    return SceneGenerator(side=8, seed=1)


def test_episode_stops_at_first_alarm():
    pipe = _StubPipeline(alarm_at=12)
    sched = DriftSchedule(r0=1.0, t0=10, t1=60, beta=0.1)
    result, steps = run_episode(_gen(), sched, pipe, max_steps=100, seed=0)
    # frames come in chunks, so the pipeline scores to the end of the alarm's chunk
    chunk = episodes.EPISODE_CHUNK
    assert pipe.calls == min(100, (12 // chunk + 1) * chunk)
    assert [t for t, _, _ in steps] == list(range(13))
    assert [res.alarm for _, _, res in steps] == [False] * 12 + [True]
    assert [r for _, r, _ in steps] == [sched.value(t) for t in range(13)]
    assert result.alarm_step == 12


def test_episode_delay_arithmetic():
    # onset at step 40, alarm at step 55 -> delay 15
    sched = DriftSchedule(r0=10.0, t0=20, t1=110, beta=0.5)
    assert sched.onset_step() == 41
    pipe = _StubPipeline(alarm_at=56)
    result, _ = run_episode(_gen(), sched, pipe, max_steps=150, seed=0)
    assert result.verdict == TRUE_POSITIVE
    assert result.delay_frames == 56 - 41


def test_episode_true_negative_without_alarm():
    sched = DriftSchedule(r0=1.0, t0=10, t1=60, beta=0.1)
    result, steps = run_episode(_gen(), sched, _StubPipeline(), max_steps=50, seed=0)
    assert result.label == IN_DIST
    assert result.verdict == TRUE_NEGATIVE
    assert result.alarm_step is None and result.delay_frames is None
    assert len(steps) == 50


def test_episode_false_positive_before_onset():
    sched = DriftSchedule(r0=10.0, t0=20, t1=110, beta=0.5)
    result, _ = run_episode(_gen(), sched, _StubPipeline(alarm_at=5), max_steps=150, seed=0)
    assert result.label == OOD
    assert result.verdict == FALSE_POSITIVE
    assert result.delay_frames is None


def test_episode_false_negative_when_never_alarming():
    sched = DriftSchedule(r0=10.0, t0=20, t1=110, beta=0.5)
    result, _ = run_episode(_gen(), sched, _StubPipeline(), max_steps=150, seed=0)
    assert result.verdict == FALSE_NEGATIVE


def test_episode_label_ignores_onset_beyond_horizon():
    sched = DriftSchedule(r0=10.0, t0=20, t1=110, beta=0.5)
    result, _ = run_episode(_gen(), sched, _StubPipeline(), max_steps=30, seed=0)
    assert result.label == IN_DIST
    assert result.verdict == TRUE_NEGATIVE


def test_episode_determinism_with_real_pipeline(scene_gen, scene_svdd, scene_svdd_cal):
    from icad.conformal import SvddPipeline

    sched = DriftSchedule(r0=8.0, t0=10, t1=90, beta=0.4)
    outs = []
    for _ in range(2):
        pipe = SvddPipeline(scene_svdd, scene_svdd_cal, window=10, tau=10.0, seed=2)
        result, steps = run_episode(scene_gen, sched, pipe, max_steps=120, seed=3)
        outs.append((result, tuple((res.m_log, res.alarm) for _, _, res in steps)))
    assert outs[0] == outs[1]


def test_suite_vacuous_false_negatives():
    schedules = [DriftSchedule(r0=1.0, t0=10, t1=60, beta=0.1)] * 3
    metrics, _ = run_suite(_gen(), schedules, _StubPipeline, max_steps=40, seed=0)
    assert metrics.ood_count == 0
    assert metrics.false_negatives == 0
    assert metrics.mean_delay is None


def test_suite_infinite_threshold_counts_misses():
    schedules = [
        DriftSchedule(r0=10.0, t0=20, t1=110, beta=0.5),
        DriftSchedule(r0=1.0, t0=10, t1=60, beta=0.1),
    ]
    metrics, _ = run_suite(_gen(), schedules, _StubPipeline, max_steps=150, seed=0)
    assert metrics.false_positives == 0
    assert metrics.false_negatives == 1  # every OOD episode missed


def test_make_suite_schedules_mix_and_determinism():
    a = make_suite_schedules(10, 0.5, seed=1, ood_margin=5.0)
    b = make_suite_schedules(10, 0.5, seed=1, ood_margin=5.0)
    assert a == b
    ood = [s for s in a if s.plateau > 20.0]
    assert len(ood) == 5
    assert all(s.plateau > 25.0 for s in ood)


@pytest.mark.parametrize("count,n_ood", [(1, 0), (3, 2), (5, 2), (7, 4), (9, 4)])
def test_make_suite_schedules_rounds_half_to_even(count, n_ood):
    schedules = make_suite_schedules(count, 0.5, seed=1)
    flags = [s.plateau > OOD_THRESHOLD for s in schedules]
    assert flags == [True] * n_ood + [False] * (count - n_ood)


# ---------------------------------------------------------------- tuning

def alarm_step_from_trace(m_logs, detector):
    """Oracle: the first step at which ``detector`` alarms when it gets a
    trace's ``update`` calls one by one, as in a live run."""
    for t, m_log in enumerate(m_logs):
        alarm, _ = detector.update(m_log)
        if alarm:
            return t
    return None


def _detector(tau, delta):
    return ThresholdDetector(tau) if delta is None else CusumDetector(tau, delta)


def tune_by_replay(traces, taus, deltas=None):
    """Oracle: the grid search as a loop over points, a fresh detector
    replayed over every trace at each (delta, tau)."""
    grid = [(None, t) for t in taus] if deltas is None else [(d, t) for d in deltas for t in taus]
    points = []
    for delta, tau in grid:
        results = []
        padded = []
        for trace in traces:
            alarm = alarm_step_from_trace(trace.m_logs, _detector(tau, delta))
            result = episodes._episode_result(trace.label, trace.onset_step, alarm)
            results.append(result)
            if result.verdict == FALSE_NEGATIVE:
                padded.append(float(len(trace.m_logs) - trace.onset_step))
            elif result.verdict == TRUE_POSITIVE:
                padded.append(float(result.delay_frames))
        suite = episodes.SuiteMetrics(tuple(results))
        objective = float(np.mean(padded)) if padded else 0.0
        points.append(episodes.GridPoint(delta, tau, suite.false_positives,
                                         suite.false_negatives, suite.mean_delay, objective))
    feasible = [p for p in points if p.false_positives == 0]
    best = min(feasible, key=lambda p: (p.false_negatives, p.objective)) if feasible else None
    return best, points


def _first_alarm(m_logs, tau, delta):
    """The closed form ``tune`` runs, for one tau."""
    (alarm,) = episodes._first_alarms(m_logs, np.array([tau]), delta)
    return alarm


def test_alarm_step_from_trace_matches_live_cusum():
    m_logs = [10.0, 10.0, 10.0, 10.0]
    # delta=6, tau=5: s after t=1 is 4, after t=2 is 8 > 5 -> alarm at t=2
    assert alarm_step_from_trace(m_logs, CusumDetector(tau=5.0, delta=6.0)) == 2
    assert alarm_step_from_trace(m_logs, ThresholdDetector(tau=9.0)) == 0
    assert alarm_step_from_trace([1.0, 2.0], ThresholdDetector(tau=9.0)) is None


def test_first_alarms_cusum_lag_and_ties():
    # the CUSUM never alarms at step 0, even below a negative tau; S_1 = 4
    # ties tau = 4 and does not alarm, S_2 = 8 does; a threshold alarms at once
    m_logs = (10.0, 10.0, 10.0)
    assert episodes._first_alarms(m_logs, np.array([-1.0, 4.0, 8.0, np.inf]), 6.0) == [
        1, 2, None, None]
    assert episodes._first_alarms(m_logs, np.array([-1.0, 10.0]), None) == [0, None]
    assert episodes._first_alarms((), np.array([-1.0]), 6.0) == [None]


_M_LOG = st.floats(-60.0, 60.0)


@settings(max_examples=300, deadline=None)
@given(
    m_logs=st.lists(st.one_of(_M_LOG, st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=60),
    delta=st.one_of(st.none(), st.floats(0.0, 30.0)),
    data=st.data(),
)
def test_first_alarms_equal_detector_replay(m_logs, delta, data):
    # the statistic's own values as taus exercise ties at tau
    probe = _detector(np.inf, delta)
    stats = [probe.update(m)[1] for m in m_logs]
    taus = data.draw(st.lists(
        st.one_of(st.floats(-100.0, 100.0), st.just(np.inf), st.sampled_from(stats)),
        min_size=1, max_size=12))
    expected = [alarm_step_from_trace(m_logs, _detector(tau, delta)) for tau in taus]
    assert episodes._first_alarms(tuple(m_logs), np.array(taus), delta) == expected


def test_first_alarms_tie_with_every_statistic_value():
    # full-mantissa log M values: a statistic that rounds one step differently
    # from CusumDetector.update misses a tie at one of its own values
    rng = np.random.default_rng(0)
    for delta in [None, *rng.uniform(0.0, 10.0, size=20)]:
        m_logs = tuple(rng.normal(3.0, 10.0, size=40).tolist())
        probe = _detector(np.inf, delta)
        taus = [probe.update(m)[1] for m in m_logs]
        expected = [alarm_step_from_trace(m_logs, _detector(tau, delta)) for tau in taus]
        assert episodes._first_alarms(m_logs, np.array(taus), delta) == expected


@st.composite
def _traces(draw):
    traces = []
    for _ in range(draw(st.integers(1, 6))):
        m_logs = tuple(draw(st.lists(_M_LOG, min_size=1, max_size=60)))
        onset = draw(st.one_of(st.none(), st.integers(0, len(m_logs) - 1)))
        traces.append(Trace(m_logs, onset, IN_DIST if onset is None else OOD))
    return traces


@settings(max_examples=100, deadline=None)
@given(
    traces=_traces(),
    taus=st.lists(st.one_of(st.floats(-20.0, 80.0), st.just(np.inf)), min_size=1, max_size=8),
    deltas=st.one_of(st.none(), st.lists(st.floats(0.0, 30.0), min_size=1, max_size=5)),
)
def test_tune_equals_replay_loop(traces, taus, deltas):
    assert tune_thresholds(traces, taus, deltas) == tune_by_replay(traces, taus, deltas)


def test_tune_rejects_nonfinite_thresholds():
    trace = Trace((1.0, 2.0), None, IN_DIST)
    for taus, deltas, name in (([np.nan], None, "tau"), ([-np.inf], [6.0], "tau"),
                               ([5.0], [np.nan], "delta"), ([5.0], [np.inf], "delta"),
                               ([5.0], [-np.inf], "delta")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            tune_thresholds([trace], taus, deltas)
    # inf is the detectors' "never alarm", admitted on purpose
    _, (point,) = tune_thresholds([trace], [np.inf], [6.0])
    assert point.false_positives == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_rejects_nonfinite_log_m(bad):
    with pytest.raises(ValueError, match="trace log M values must be finite"):
        Trace((1.0, bad, 2.0), None, IN_DIST)


class _BlobGen:
    """Two-dimensional frames for the toy models: the training blob at the origin
    that drifts away along the diagonal as the corruption level grows."""

    def example(self, r, rng):
        return rng.normal(0.0, 0.5, size=2) + r / 10.0

    def examples(self, r_values, rng):
        return np.stack([self.example(r, rng) for r in r_values])


@pytest.fixture(scope="module")
def toy_pipelines(two_blob_vae, toy_svdd, two_blobs):
    cal_examples = two_blobs[0][200:]
    vae_cal = calibration_scores(VaeScorer(two_blob_vae), cal_examples)
    svdd_cal = calibration_scores(SvddScorer(toy_svdd[0]), cal_examples)
    return {
        "vae": lambda tau, delta, seed: VaePipeline(
            two_blob_vae, vae_cal, n_samples=5, delta=delta, tau=tau, seed=seed),
        "svdd": lambda tau, delta, seed: SvddPipeline(
            toy_svdd[0], svdd_cal, window=5, tau=tau, seed=seed),
    }


@pytest.mark.parametrize("method", ["vae", "svdd"])
@settings(max_examples=25, deadline=None)
@given(
    tau=st.floats(0.0, 12.0),
    delta=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
    schedule_seed=st.integers(0, 2**32 - 1),
)
def test_replay_equals_live_run(toy_pipelines, method, tau, delta, seed, schedule_seed):
    make = toy_pipelines[method]
    sched = sample_schedule(np.random.default_rng(schedule_seed))
    result, steps = run_episode(_BlobGen(), sched, make(tau, delta, seed), 60, seed=seed)
    (trace,) = collect_traces(_BlobGen(), [sched], lambda: make(tau, delta, seed), 60, seed=seed)
    assert _first_alarm(trace.m_logs, tau, delta if method == "vae" else None) == result.alarm_step
    assert trace.m_logs[: len(steps)] == tuple(res.m_log for _, _, res in steps)
    assert (trace.onset_step, trace.label) == (result.onset_step, result.label)


@pytest.fixture(scope="module")
def scene_runs(scene_gen, scene_vae, scene_vae_cal, scene_svdd, scene_svdd_cal):
    """Per method: a pipeline factory (criterion 7's n = 10), six schedules,
    and their traces."""
    makers = {
        "vae": lambda: VaePipeline(scene_vae, scene_vae_cal, n_samples=10, delta=6.0, tau=40.0,
                                   seed=5),
        "svdd": lambda: SvddPipeline(scene_svdd, scene_svdd_cal, window=10, tau=10.0, seed=5),
    }
    schedules = make_suite_schedules(6, 0.5, seed=8, ood_margin=5.0)
    return {method: (make, schedules, collect_traces(scene_gen, schedules, make, 150, seed=20))
            for method, make in makers.items()}


@pytest.mark.parametrize("method", ["vae", "svdd"])
def test_replay_equals_live_run_on_scene_models(scene_gen, scene_runs, method):
    # at scene width a block's network rows differ from one-row passes in the
    # last bits; the live run stops at its alarm and the replay runs to the
    # horizon, and both score the same chunks
    make, schedules, traces = scene_runs[method]
    alarms = 0
    for i, (sched, trace) in enumerate(zip(schedules, traces)):
        result, steps = run_episode(scene_gen, sched, make(), 150, seed=20 + i)
        alarms += result.alarm_step is not None
        assert trace.m_logs[: len(steps)] == tuple(res.m_log for _, _, res in steps)
        delta = 6.0 if method == "vae" else None
        tau = 40.0 if method == "vae" else 10.0
        assert _first_alarm(trace.m_logs, tau, delta) == result.alarm_step
    assert alarms >= 3


# criterion 7's tune grids
_SCENE_GRIDS = {
    "vae": ([20.0, 40.0, 80.0, 120.0, 160.0, 240.0],
            [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 24.0]),
    "svdd": ([4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 14.0, 17.0, 20.0], None),
}


@pytest.mark.parametrize("method", ["vae", "svdd"])
def test_tune_equals_replay_loop_on_scene_models(scene_runs, method):
    _, _, traces = scene_runs[method]
    taus, deltas = _SCENE_GRIDS[method]
    best, points = tune_thresholds(traces, taus, deltas)
    assert (best, points) == tune_by_replay(traces, taus, deltas)
    assert len({(p.false_positives, p.false_negatives) for p in points}) > 1


def test_tune_picks_zero_fp_minimal_delay():
    # hand-built traces: in-dist peaks at 5; OOD jumps to 20 at step 10
    in_trace = Trace(tuple([1.0] * 8 + [5.0] + [1.0] * 11), None, IN_DIST)
    ood_trace = Trace(tuple([1.0] * 10 + [20.0] * 10), 10, OOD)
    best, points = tune_thresholds([in_trace, ood_trace], taus=[3.0, 10.0, 30.0])
    assert best is not None
    # tau=3 alarms on the in-dist spike; tau=30 misses; tau=10 is the winner
    assert best.tau == 10.0
    assert best.false_positives == 0 and best.false_negatives == 0
    assert best.mean_delay == 0.0
    by_tau = {p.tau: p for p in points}
    assert by_tau[3.0].false_positives == 1
    assert by_tau[30.0].false_negatives == 1


def test_tune_delta_grid_selects_cusum():
    # log M = 10 from the onset on: the threshold alarms at once, the CUSUM
    # (delta=6, tau=5) two steps later, one of them its lag
    trace = Trace((10.0,) * 4, 0, OOD)
    _, (threshold,) = tune_thresholds([trace], taus=[5.0])
    _, (cusum,) = tune_thresholds([trace], taus=[5.0], deltas=[6.0])
    assert threshold.delta is None and threshold.mean_delay == 0.0
    assert cusum.delta == 6.0 and cusum.mean_delay == 2.0


def test_tune_returns_none_when_no_feasible_point():
    noisy = Trace(tuple([50.0] * 5), None, IN_DIST)
    best, points = tune_thresholds([noisy], taus=[1.0, 10.0])
    assert best is None
    assert all(p.false_positives == 1 for p in points)


# ---------------------------------------------------------------- timing

def test_quartiles_median_definition():
    assert quartiles([1, 2, 3, 4, 5]) == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_benchmark_timing_smoke(scene_gen, scene_svdd, scene_svdd_cal):
    from icad.conformal import SvddPipeline

    rows = benchmark_timing(
        lambda n: SvddPipeline(scene_svdd, scene_svdd_cal, window=n, tau=np.inf, seed=0),
        scene_gen, [5, 10], steps=50, seed=1,
    )
    assert [r.n for r in rows] == [5, 10]
    for row in rows:
        assert row.min_ms <= row.q1_ms <= row.q2_ms <= row.q3_ms <= row.max_ms
        assert row.method == "svdd"


def test_onset_is_step_zero_when_the_stream_starts_out_of_distribution():
    assert DriftSchedule(r0=25.0, t0=10, t1=20, beta=0.0).onset_step() == 0


_ERRORS = {
    "side-below-4": (lambda: SceneGenerator(side=3), "image side must be at least 4"),
    "negative-r": (lambda: SceneGenerator(side=8).example(-1.0, np.random.default_rng(0)),
                   "corruption level must be nonnegative"),
    "negative-step": (lambda: DriftSchedule(r0=1.0, t0=1, t1=2, beta=0.1).value(-1),
                      "time step must be >= 0"),
    "zero-schedules": (lambda: make_suite_schedules(0, 0.5, 0), "count must be >= 1"),
    "ood-fraction-above-1": (lambda: make_suite_schedules(4, 1.5, 0),
                             r"ood fraction must be in \[0, 1\]"),
    # -15 would let OOD-flagged schedules plateau in distribution; inf would never sample
    "negative-ood-margin": (lambda: make_suite_schedules(10, 0.5, 1, -15.0),
                            "ood margin must be finite and >= 0, got -15.0"),
    "infinite-ood-margin": (lambda: make_suite_schedules(4, 0.5, 0, float("inf")),
                            "ood margin must be finite and >= 0, got inf"),
    "nan-ood-margin": (lambda: make_suite_schedules(4, 0.5, 0, float("nan")),
                       "ood margin must be finite and >= 0, got nan"),
    "zero-bench-steps": (lambda: benchmark_timing(None, SceneGenerator(side=8), [5], steps=0),
                         "steps must be >= 1"),
}


@pytest.mark.parametrize("call,message", _ERRORS.values(), ids=list(_ERRORS))
def test_invalid_arguments_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
