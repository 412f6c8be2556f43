"""Calibration, p-values, martingales, detectors, and the two step pipelines."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from icad.conformal import (
    _REFRESH_INTERVAL,
    CalibrationSet,
    CusumDetector,
    FingerprintMismatchError,
    MartingaleState,
    StepResult,
    SvddPipeline,
    ThresholdDetector,
    VaePipeline,
    calibrate,
    calibration_scores,
    integrate_power_factor,
    mixture_martingale_log,
    p_value,
    p_values,
)
from icad.neural import BLOCK_ROWS
from icad.nonconformity import KnnScorer, SvddScorer, VaeScorer

from conftest import untrained_scorers


def _cal(scores):
    return CalibrationSet(np.asarray(scores, dtype=float), "knn", b"\x00" * 8)


# ---------------------------------------------------------------- calibration

def test_calibrate_split_sizes_and_sorting():
    rng = np.random.default_rng(0)
    train = rng.normal(size=(10, 2))
    cal = calibrate(train, 8, lambda proper: KnnScorer(proper, k=3))
    assert len(cal) == 2
    assert np.all(np.diff(cal.scores) >= 0)


def test_calibrate_knn_collinear_hand_computed():
    # points on a line at x = 0..5; proper train = first 4, calibration = last 2
    train = np.array([[float(i), 0.0] for i in range(6)])
    cal = calibrate(train, 4, lambda proper: KnnScorer(proper, k=2))
    # example (4,0): nearest in {0,1,2,3} are 3 and 2 -> (1+2)/2 = 1.5
    # example (5,0): nearest are 3 and 2 -> (2+3)/2 = 2.5
    assert np.allclose(cal.scores, [1.5, 2.5])


def test_calibrate_result_invariant_to_calibration_order():
    rng = np.random.default_rng(1)
    train = rng.normal(size=(12, 2))
    base = calibrate(train, 6, lambda p: KnnScorer(p, k=2))
    shuffled = np.vstack([train[:6], train[6:][::-1]])
    again = calibrate(shuffled, 6, lambda p: KnnScorer(p, k=2))
    assert np.allclose(base.scores, again.scores)


def test_calibrate_m_out_of_range():
    train = np.zeros((5, 2))
    for m in (0, 5, 7):
        with pytest.raises(ValueError):
            calibrate(train, m, lambda p: KnnScorer(p, k=1))


def test_calibration_set_validation():
    with pytest.raises(ValueError):
        _cal([])
    with pytest.raises(ValueError):
        _cal([2.0, 1.0])
    with pytest.raises(ValueError):
        _cal([np.inf])
    with pytest.raises(ValueError):
        CalibrationSet(np.array([1.0]), "knn", b"short")


def test_sampled_calibration_pools_scores(two_blob_vae, two_blobs):
    blob_in, _ = two_blobs
    scorer = VaeScorer(two_blob_vae)
    pooled = calibration_scores(scorer, blob_in[200:220], samples=5, seed=1)
    assert len(pooled) == 20 * 5
    with pytest.raises(ValueError, match="sampled calibration"):
        calibration_scores(KnnScorer(blob_in[:50], 3), blob_in[200:210], samples=2)


@pytest.mark.parametrize("kind", ["knn", "kde", "vae", "svdd"])
def test_calibration_blocks_equal_per_row_scores(kind):
    # two full blocks and a short one, so every block edge is crossed
    scorer = untrained_scorers(16)[kind]
    examples = np.random.default_rng(4).normal(size=(2 * BLOCK_ROWS + 7, 16))
    cal = calibration_scores(scorer, examples)
    expected = np.sort([scorer.score(z) for z in examples])
    rtol = 0.0 if kind in ("knn", "kde") else 1e-14
    np.testing.assert_allclose(cal.scores, expected, rtol=rtol, atol=0.0)


def test_sampled_calibration_blocks_equal_per_example_scores():
    scorer = untrained_scorers(16)["vae"]
    examples = np.random.default_rng(6).normal(size=(2 * BLOCK_ROWS + 7, 16))
    cal = calibration_scores(scorer, examples, samples=3, seed=2)
    rng = np.random.default_rng(2)
    expected = np.sort([s for z in examples for s in scorer.score_many(z, 3, rng)])
    np.testing.assert_allclose(cal.scores, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", ["vae", "svdd"])
def test_calibration_rejects_non_finite_row_past_first_block(kind):
    examples = np.random.default_rng(5).normal(size=(2 * BLOCK_ROWS, 16))
    examples[BLOCK_ROWS + 3, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite values"):
        calibration_scores(untrained_scorers(16)[kind], examples)


# ---------------------------------------------------------------- p-values

def test_p_value_direct_count():
    assert p_value(2.5, _cal([1, 2, 3, 4])) == pytest.approx(0.5)


def test_p_value_below_min_is_one():
    assert p_value(0.5, _cal([1, 2, 3, 4])) == 1.0


def test_p_value_above_max_hits_floor():
    assert p_value(5.0, _cal([1, 2, 3, 4])) == pytest.approx(0.2)


def test_p_value_ties_count_as_greater_equal():
    assert p_value(2.0, _cal([1, 2, 2, 4])) == pytest.approx(0.75)


def test_p_value_monotone_in_score():
    rng = np.random.default_rng(2)
    cal = _cal(np.sort(rng.normal(size=50)))
    scores = np.sort(rng.normal(size=30))
    ps = [p_value(s, cal) for s in scores]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_p_value_rejects_non_finite():
    with pytest.raises(ValueError):
        p_value(np.nan, _cal([1.0]))


_finite = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_finite, min_size=1, max_size=40), _finite, _finite)
def test_p_value_floor_monotone_and_ties(values, a, b):
    cal = _cal(sorted(values))
    n = len(cal)
    lo, hi = min(a, b), max(a, b)
    p_lo, p_hi = p_value(lo, cal), p_value(hi, cal)
    assert 1.0 / (n + 1) <= p_hi <= p_lo <= 1.0
    for c in cal.scores:
        # a score equal to a calibration value counts that value
        assert p_value(c, cal) == np.count_nonzero(cal.scores >= c) / n


# calibration values on a coarse grid, so that ties and duplicates are common,
# mixed with arbitrary finite floats
_grid_or_any = st.one_of(st.integers(-4, 4).map(float), _finite)
# scores also fall below the smallest and above the largest calibration value
_score = st.one_of(_grid_or_any, st.sampled_from([-2e6, 2e6]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_grid_or_any, min_size=1, max_size=30), st.lists(_score, max_size=25))
@example([1.0, 2.0, 2.0, 2.0, 4.0], [2.0, 0.5, 5.0, 4.0, 1.0, 2.0])
@example([3.0], [3.0, 2.0, 4.0])
def test_p_values_match_count_oracle_bitwise(values, scores):
    cal = _cal(sorted(values))
    n = len(cal)
    got = p_values(scores, cal)
    oracle = [max(np.count_nonzero(cal.scores >= s) / n, 1 / (n + 1)) for s in scores]
    assert [p.hex() for p in got] == [float(p).hex() for p in oracle]
    assert [p.hex() for p in got] == [p_value(s, cal).hex() for s in scores]


@settings(max_examples=100, deadline=None)
@given(st.lists(_finite, max_size=10), st.data(),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_p_values_reject_non_finite_at_any_position(scores, data, bad):
    position = data.draw(st.integers(0, len(scores)))
    scores.insert(position, bad)
    with pytest.raises(ValueError, match="finite"):
        p_values(scores, _cal([0.0, 1.0, 2.0]))


# ---------------------------------------------------------------- martingales

def test_mixture_all_p_one_closed_form_n3():
    assert mixture_martingale_log(0.0, 3) == pytest.approx(-math.log(4.0), abs=1e-6)


def test_mixture_single_p_one_is_half():
    assert mixture_martingale_log(0.0, 1) == pytest.approx(math.log(0.5), abs=1e-6)


@pytest.mark.parametrize("n", range(1, 51))
def test_mixture_closed_forms_all_n(n):
    assert mixture_martingale_log(0.0, n) == pytest.approx(-math.log(n + 1.0), abs=1e-6)


@pytest.mark.parametrize("p", [0.9, 0.5, 0.1, 0.01, 0.005, 0.001])
def test_mixture_n1_matches_adaptive_quadrature(p):
    oracle, err = quad(lambda e: e * p ** (e - 1.0), 0.0, 1.0, epsabs=1e-10, epsrel=1e-12)
    assert err < 1e-10
    assert mixture_martingale_log(math.log(p), 1) == pytest.approx(math.log(oracle), abs=1e-8)


def _mixture_oracle(a, n):
    """log of the defining integral ``integral_0^1 eps^n e^(a(1-eps)) d eps``
    by adaptive quadrature, scaled by the integrand's peak at ``min(1, n/a)``
    so that it stays finite for large ``a``."""
    peak = min(1.0, n / a)
    log_peak = n * math.log(peak) + a * (1.0 - peak)

    def scaled(eps):
        return math.exp(n * math.log(eps) + a * (1.0 - eps) - log_peak) if eps > 0.0 else 0.0

    value, err = quad(scaled, 0.0, 1.0, points=[peak] if peak < 1.0 else None,
                      epsabs=0.0, epsrel=1e-13, limit=200)
    assert err <= 1e-12 * value
    return log_peak + math.log(value)


_ORACLE_A = sorted({*np.geomspace(1e-6, 5000.0, 19).tolist(), 0.5, 1.0, 2.0, 7.3, 60.0})


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 50])
def test_mixture_matches_quadrature_oracle(n):
    for a in _ORACLE_A:
        oracle = _mixture_oracle(a, n)
        assert abs(mixture_martingale_log(-a, n) - oracle) <= 1e-11 * max(1.0, abs(oracle)), a


def test_mixture_n1_large_sum_matches_exact_form():
    # n=1: M = (e^a - 1 - a) / a^2 exactly; at a=5000 a 1001-point Simpson
    # rule is off by about 1.5 nats, the closed form by rounding only
    a = 5000.0
    exact = a + math.log1p(-(1.0 + a) * math.exp(-a)) - 2.0 * math.log(a)
    assert mixture_martingale_log(-a, 1) == pytest.approx(exact, rel=1e-15)
    assert mixture_martingale_log(-a, 1) == pytest.approx(_mixture_oracle(a, 1), rel=1e-13)


@pytest.mark.parametrize("n", [1, 10, 50])
def test_mixture_both_sides_of_series_switch(n):
    # a < 1 sums the series, a >= 1 uses the incomplete gamma form
    below, at, above = (mixture_martingale_log(-a, n) for a in (1.0 - 1e-12, 1.0, 1.0 + 1e-12))
    oracle = _mixture_oracle(1.0, n)
    for value in (below, at, above):
        assert abs(value - oracle) <= 1e-12
    assert below <= at <= above


@pytest.mark.parametrize("n,a", [(200, 1.5), (200, 50.0), (1000, 1.5), (1000, 300.0)])
def test_mixture_series_covers_underflowing_incomplete_gamma(n, a):
    # P(n+1, a) underflows for these long windows; the series takes over
    oracle = _mixture_oracle(a, n)
    assert abs(mixture_martingale_log(-a, n) - oracle) <= 1e-11 * max(1.0, abs(oracle))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    sums=st.lists(st.floats(min_value=-5000.0, max_value=0.0), min_size=2, max_size=2),
)
def test_mixture_monotone_non_increasing_in_log_p_sum(n, sums):
    lo, hi = sorted(sums)
    m_lo, m_hi = mixture_martingale_log(lo, n), mixture_martingale_log(hi, n)
    # smaller p-values (a more negative sum) never lower the martingale;
    # the slack covers rounding where both sums are one ulp apart
    assert m_lo >= m_hi - 1e-12 * max(1.0, abs(m_hi))


def test_mixture_rejects_empty_window_and_bad_sum():
    with pytest.raises(ValueError):
        mixture_martingale_log(0.0, 0)
    with pytest.raises(ValueError):
        mixture_martingale_log(1.0, 3)
    with pytest.raises(ValueError):
        mixture_martingale_log(np.nan, 3)


def test_mixture_order_invariance():
    rng = np.random.default_rng(3)
    logs = np.log(rng.uniform(0.01, 1.0, size=10))
    a = mixture_martingale_log(float(np.sum(logs)), 10)
    b = mixture_martingale_log(float(np.sum(rng.permutation(logs))), 10)
    assert a == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("eps", [round(0.1 * k, 1) for k in range(1, 10)])
def test_power_factor_unit_mean(eps):
    assert integrate_power_factor(eps) == pytest.approx(1.0, abs=1e-6)


def test_martingale_state_running_sum_stays_exact():
    rng = np.random.default_rng(4)
    state = MartingaleState(window_size=10)
    for _ in range(3000):
        state.push(float(np.log(1.0 - rng.random())))
        assert abs(state.log_p_sum - sum(state.window)) < 1e-9


_log_p = st.one_of(
    st.floats(-1e6, 0.0),
    st.floats(-1e-9, 0.0),
    st.sampled_from([0.0, -1e6, -5e-324]),
)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.lists(_log_p, min_size=1, max_size=50))
# rounding in this cycle drifts one way, about 0.2 * eps * window * max|log p|
# per push, so without the periodic refresh the sum leaves the bound
@example(5, [-0.8656619002872337, -1.2540997403176715, -0.6666666666666666])
def test_martingale_state_sum_tracks_fsum_across_refreshes(window, pattern):
    # a repeated pattern of huge and tiny log p-values, long enough to cross
    # two refreshes; the running sum may drift only by the rounding of the
    # pushes since the last refresh (and of the refresh's own sum)
    pushes = (pattern * (2 * _REFRESH_INTERVAL // len(pattern) + 2))[: 2 * _REFRESH_INTERVAL + 50]
    state = MartingaleState(window_size=window)
    bound = window * max(abs(v) for v in pushes) * np.finfo(float).eps
    for k, log_p in enumerate(pushes, start=1):
        state.push(log_p)
        exact = math.fsum(state.window)
        assert abs(state.log_p_sum - exact) <= 2.0 * bound * (k % _REFRESH_INTERVAL + window)


def test_martingale_state_warmup_is_seeded_and_full():
    a = MartingaleState.warmed_up(10, np.random.default_rng(5))
    b = MartingaleState.warmed_up(10, np.random.default_rng(5))
    assert len(a.window) == 10
    assert list(a.window) == list(b.window)


def test_martingale_state_rejects_bad_log_p():
    state = MartingaleState(window_size=3)
    with pytest.raises(ValueError):
        state.push(0.5)
    with pytest.raises(ValueError):
        state.push(-np.inf)
    with pytest.raises(ValueError):
        MartingaleState(window_size=0)


# ---------------------------------------------------------------- detectors
#
# CusumDetector.update consumes the previous step's log M, so each CUSUM
# trace below primes the detector with one update that never alarms.

def test_cusum_first_update_never_alarms():
    det = CusumDetector(tau=0.0, delta=0.0)
    assert det.update(1e6) == (False, 0.0)
    assert det.update(0.0) == (True, 1e6)


def test_cusum_stays_zero_at_exact_drift():
    det = CusumDetector(tau=5.0, delta=6.0)
    for _ in range(50):
        alarm, s = det.update(6.0)
        assert not alarm and s == 0.0


def test_cusum_hand_trace_with_reset():
    det = CusumDetector(tau=5.0, delta=6.0)
    det.update(10.0)
    alarm, s = det.update(10.0)
    assert not alarm and s == pytest.approx(4.0)
    alarm, s = det.update(10.0)
    assert alarm and s == pytest.approx(8.0)
    assert det.s == 0.0


def test_cusum_nonnegative_under_any_inputs():
    rng = np.random.default_rng(6)
    det = CusumDetector(tau=1e9, delta=2.0)
    for _ in range(500):
        _, s = det.update(float(rng.normal()))
        assert s >= 0.0


def test_cusum_stays_zero_below_drift():
    rng = np.random.default_rng(7)
    det = CusumDetector(tau=10.0, delta=3.0)
    for _ in range(200):
        det.update(float(rng.uniform(-5.0, 3.0)))
        assert det.s == 0.0


def test_reference_operating_points_are_valid():
    # stateful (N, delta, tau) = (10, 6, 156); stateless (N, tau) = (10, 14)
    det = CusumDetector(tau=156.0, delta=6.0)
    det.update(45.0)
    steps = 0
    while True:
        steps += 1
        alarm, _ = det.update(45.0)
        if alarm:
            break
    assert steps == math.ceil(156.0 / (45.0 - 6.0)) + 1
    threshold = ThresholdDetector(tau=14.0)
    assert not threshold.update(13.9)[0]
    assert threshold.update(14.1)[0]


def test_stateless_threshold_is_strict():
    det = ThresholdDetector(tau=12.0)
    assert det.update(11.9) == (False, 11.9)
    assert det.update(12.0) == (False, 12.0)
    assert det.update(12.1) == (True, 12.1)


@given(_finite, _finite, st.floats(1e-3, 1e6))
def test_finite_thresholds_alarm_above_tau_plus_delta(tau, delta, excess):
    assert ThresholdDetector(tau).update(tau + excess)[0]
    cusum = CusumDetector(tau, delta)
    assert not cusum.update(tau + delta + excess)[0]  # the one-step lag
    assert cusum.update(tau + delta + excess)[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_detectors_reject_non_finite_thresholds(bad):
    # a NaN tau or any non-finite delta would switch alarms off or make them
    # meaningless; tau = inf alone is kept, as the detector that never alarms
    if bad != math.inf:
        with pytest.raises(ValueError, match=f"tau must be finite, got {bad}"):
            ThresholdDetector(bad)
        with pytest.raises(ValueError, match=f"tau must be finite, got {bad}"):
            CusumDetector(bad, 1.0)
    with pytest.raises(ValueError, match=f"delta must be finite, got {bad}"):
        CusumDetector(1.0, bad)


def test_infinite_tau_never_alarms():
    threshold, cusum = ThresholdDetector(math.inf), CusumDetector(math.inf, 0.0)
    for _ in range(3):
        assert not threshold.update(1e300)[0] and not cusum.update(1e300)[0]


def test_stateless_never_alarms_on_all_ones_window():
    det = ThresholdDetector(tau=0.0)
    for n in range(1, 20):
        assert not det.update(mixture_martingale_log(0.0, n))[0]


# ---------------------------------------------------------------- pipelines

@pytest.fixture(scope="module")
def two_blob_setup(two_blob_vae, toy_svdd, two_blobs):
    blob_in, blob_out = two_blobs
    cal_examples = blob_in[200:]
    vae_cal = calibration_scores(VaeScorer(two_blob_vae), cal_examples)
    svdd_cal = calibration_scores(SvddScorer(toy_svdd[0]), cal_examples)
    return two_blob_vae, toy_svdd[0], vae_cal, svdd_cal, blob_in, blob_out


def test_vae_pipeline_no_alarm_on_in_distribution(two_blob_setup):
    vae, _, vae_cal, _, blob_in, _ = two_blob_setup
    pipe = VaePipeline(vae, vae_cal, n_samples=10, delta=6.0, tau=156.0, seed=0)
    rng = np.random.default_rng(8)
    for _ in range(100):
        res = pipe.step(blob_in[rng.integers(0, 200)])
        assert not res.alarm
    # the statistic may wander a little above zero but stays far from tau
    assert pipe.detector.s < 156.0 / 4


def test_vae_pipeline_alarms_fast_on_far_ood(two_blob_setup):
    vae, _, vae_cal, _, _, blob_out = two_blob_setup
    pipe = VaePipeline(vae, vae_cal, n_samples=10, delta=6.0, tau=40.0, seed=0)
    first = pipe.step(blob_out[0])
    m_log = first.m_log
    # all p-values at the floor; the CUSUM needs ceil(tau/(m-delta)) more steps
    assert all(p == 1.0 / (len(vae_cal) + 1) for p in first.p_values)
    expected_steps = math.ceil(40.0 / (m_log - 6.0)) + 1
    steps = 1
    while True:
        steps += 1
        if pipe.step(blob_out[steps % len(blob_out)]).alarm:
            break
    assert steps == expected_steps


def test_vae_pipeline_reproducible(two_blob_setup):
    vae, _, vae_cal, _, blob_in, _ = two_blob_setup
    runs = []
    for _ in range(2):
        pipe = VaePipeline(vae, vae_cal, n_samples=5, delta=6.0, tau=156.0, seed=42)
        runs.append([pipe.step(z).m_log for z in blob_in[:20]])
    assert runs[0] == runs[1]


def test_svdd_pipeline_step_change_alarms_within_window(two_blob_setup):
    _, svdd, _, svdd_cal, blob_in, blob_out = two_blob_setup
    pipe = SvddPipeline(svdd, svdd_cal, window=10, tau=14.0, seed=3)
    rng = np.random.default_rng(9)
    for _ in range(50):
        res = pipe.step(blob_in[rng.integers(0, 200)])
        assert not res.alarm
    steps_to_alarm = None
    for k in range(10):
        if pipe.step(blob_out[k]).alarm:
            steps_to_alarm = k + 1
            break
    assert steps_to_alarm is not None and steps_to_alarm <= 10
    print(f"svdd alarm after {steps_to_alarm} OOD steps")


def test_svdd_recursive_window_matches_from_scratch(two_blob_setup):
    _, svdd, _, svdd_cal, blob_in, blob_out = two_blob_setup
    pipe = SvddPipeline(svdd, svdd_cal, window=10, tau=np.inf, seed=4)
    rng = np.random.default_rng(10)
    for t in range(500):
        source = blob_in if t % 7 else blob_out
        res = pipe.step(source[rng.integers(0, len(source))])
        scratch = mixture_martingale_log(float(sum(pipe.martingale.window)), 10)
        assert abs(res.m_log - scratch) < 1e-9


def test_pipeline_rejects_foreign_calibration(two_blob_setup):
    vae, svdd, vae_cal, svdd_cal, _, _ = two_blob_setup
    with pytest.raises(FingerprintMismatchError):
        VaePipeline(vae, svdd_cal, n_samples=5, delta=6.0, tau=156.0, seed=0)
    with pytest.raises(FingerprintMismatchError):
        SvddPipeline(svdd, vae_cal, window=10, tau=14.0, seed=0)
    # same kind, different model
    from icad.models import SvddModel, svdd_init_center

    other = SvddModel.build(2, output_dim=2, hidden=(16, 8), weight_decay=1e-4, seed=77)
    svdd_init_center(other, np.zeros((5, 2)) + 2.0)
    with pytest.raises(FingerprintMismatchError):
        SvddPipeline(other, svdd_cal, window=10, tau=14.0, seed=0)


def test_calibration_rate_is_well_calibrated(two_blob_setup):
    """In-distribution stream: the fraction of p-values below epsilon stays
    within epsilon + 0.02 (module-scale version of the acceptance check)."""
    _, svdd, _, svdd_cal, blob_in, _ = two_blob_setup
    pipe = SvddPipeline(svdd, svdd_cal, window=10, tau=np.inf, seed=5)
    rng = np.random.default_rng(11)
    fresh = rng.normal([0.0, 0.0], 0.5, size=(2000, 2))
    ps = np.array([pipe.step(z).p for z in fresh])
    for eps in (0.01, 0.05, 0.1):
        rate = float(np.mean(ps < eps))
        print(f"P(p < {eps}) = {rate:.4f}")
        assert rate <= eps + 0.02


def test_vae_step_equals_composition_of_public_pieces(two_blob_setup):
    # pins the step's order of operations, including the order of the log-p sum
    vae, _, vae_cal, _, blob_in, blob_out = two_blob_setup
    pipe = VaePipeline(vae, vae_cal, n_samples=7, delta=6.0, tau=40.0, seed=11)
    scorer = VaeScorer(vae)
    detector = CusumDetector(40.0, 6.0)
    for z in np.concatenate([blob_in[:15], blob_out[:15], blob_in[15:20]]):
        scores = scorer.score_many(z, 7, copy.deepcopy(pipe._rng))
        ps = [p_value(s, vae_cal) for s in scores]
        m_log = mixture_martingale_log(sum(math.log(p) for p in ps), 7)
        alarm, s = detector.update(m_log)
        assert pipe.step(z) == StepResult(alarm, tuple(scores), tuple(ps), m_log, s)


def test_vae_step_takes_math_log_of_each_p_value(two_blob_vae, monkeypatch):
    # on these p-values np.log and math.log differ in the last bit, and so do
    # the two sums of logs
    cal = CalibrationSet(np.arange(1000.0), "vae", VaeScorer(two_blob_vae).fingerprint())
    scores = [32.0, 83.0, 194.0, 309.0, 338.0]
    pipe = VaePipeline(two_blob_vae, cal, n_samples=5, delta=6.0, tau=156.0, seed=0)
    monkeypatch.setattr(pipe.scorer, "score_many", lambda z, count, rng: scores)
    ps = [(1000.0 - s) / 1000.0 for s in scores]
    result = pipe.step(np.zeros(2))
    assert result.p_values == tuple(ps)
    assert result.m_log == mixture_martingale_log(sum(math.log(p) for p in ps), 5)


def test_svdd_step_equals_composition_of_public_pieces(two_blob_setup):
    _, svdd, _, svdd_cal, blob_in, blob_out = two_blob_setup
    pipe = SvddPipeline(svdd, svdd_cal, window=10, tau=14.0, seed=12)
    scorer = SvddScorer(svdd)
    martingale = MartingaleState.warmed_up(10, np.random.default_rng(12))
    for z in np.concatenate([blob_in[:15], blob_out[:15], blob_in[15:20]]):
        score = scorer.score(z)
        p = p_value(score, svdd_cal)
        martingale.push(math.log(p))
        m_log = mixture_martingale_log(martingale.log_p_sum, 10)
        expected = StepResult(m_log > 14.0, (score,), (p,), m_log, martingale.log_p_sum)
        assert pipe.step(z) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_steps_reject_non_finite_score_from_finite_frame(two_blob_setup, monkeypatch, bad):
    vae, svdd, vae_cal, svdd_cal, blob_in, _ = two_blob_setup
    vae_pipe = VaePipeline(vae, vae_cal, n_samples=5, delta=6.0, tau=156.0, seed=0)
    monkeypatch.setattr(vae_pipe.scorer, "score_many",
                        lambda z, count, rng: [1.0] * (count - 2) + [bad, 1.0])
    svdd_pipe = SvddPipeline(svdd, svdd_cal, window=10, tau=14.0, seed=0)
    monkeypatch.setattr(svdd_pipe.scorer, "score", lambda z: bad)
    for pipe in (vae_pipe, svdd_pipe):
        with pytest.raises(ValueError, match="score must be finite"):
            pipe.step(blob_in[0])


# ---------------------------------------------------------------- block steps

@pytest.fixture(scope="module")
def scene_pipelines(scene_vae, scene_vae_cal, scene_svdd, scene_svdd_cal):
    return {
        "vae": lambda: VaePipeline(scene_vae, scene_vae_cal, n_samples=10, delta=6.0, tau=40.0,
                                   seed=3),
        "svdd": lambda: SvddPipeline(scene_svdd, scene_svdd_cal, window=10, tau=10.0, seed=3),
    }


@pytest.mark.parametrize("method", ["vae", "svdd"])
def test_block_steps_equal_frame_steps(scene_pipelines, scene_gen, method):
    # a ramp from in-distribution far past the training bound, so both
    # pipelines alarm, in blocks of uneven sizes, the one-row block included
    r_values = np.linspace(0.0, 60.0, 90)
    frames = scene_gen.examples(r_values, np.random.default_rng(4))
    by_block, by_frame = scene_pipelines[method](), scene_pipelines[method]()
    cuts = [0, 1, 8, 9, 25, 57, 90]
    block = [res for a, b in zip(cuts, cuts[1:]) for res in by_block.steps(frames[a:b])]
    frame = [by_frame.step(z) for z in frames]
    assert any(res.alarm for res in frame)
    for got, want in zip(block, frame, strict=True):
        # a block's rows are not bit-equal to one-row network passes; the
        # rest of a step is a function of the p-values, which do not move
        assert got.p_values == want.p_values and got.alarm == want.alarm
        assert (got.m_log, got.s) == (want.m_log, want.s)
        np.testing.assert_allclose(got.scores, want.scores, rtol=1e-13, atol=0.0)
    if method == "vae":
        assert by_block._rng.bit_generator.state == by_frame._rng.bit_generator.state


# (a bad input made from a good four-row block, the row of it that step
# refuses, the message both raise)
_REFUSED = {
    "frame": (lambda z: z[0], None, "expected a block"),
    "non-finite": (lambda z: z * np.array([[1.0], [np.nan], [1.0], [1.0]]), 1,
                   "example contains non-finite values"),
    "wrong-width": (lambda z: z[:, :1], 0, "example has dimension 1, expected 2"),
}


@pytest.mark.parametrize("method", ["vae", "svdd"])
@pytest.mark.parametrize("bad,row,message", _REFUSED.values(), ids=list(_REFUSED))
def test_block_steps_refuse_what_step_refuses(two_blob_setup, method, bad, row, message):
    vae, svdd, vae_cal, svdd_cal, blob_in, _ = two_blob_setup
    if method == "vae":
        pipe = VaePipeline(vae, vae_cal, n_samples=5, delta=6.0, tau=156.0, seed=0)
    else:
        pipe = SvddPipeline(svdd, svdd_cal, window=10, tau=14.0, seed=0)
    block = bad(blob_in[:4])
    before = copy.deepcopy(pipe)
    with pytest.raises(ValueError, match=message):
        pipe.steps(block)
    # a refused block changes nothing: no draw, no window push, no detector update
    if method == "vae":
        assert pipe._rng.bit_generator.state == before._rng.bit_generator.state
        assert pipe.detector._prev_m_log is None
    else:
        assert list(pipe.martingale.window) == list(before.martingale.window)
    if row is not None:
        with pytest.raises(ValueError, match=message):
            pipe.step(block[row])


_ERRORS = {
    "vae-zero-samples": (lambda: VaePipeline(untrained_scorers(4)["vae"].model, None, 0, 6.0,
                                             10.0, 0),
                         "need at least one reconstruction sample per step"),
    "power-factor-epsilon-zero": (lambda: integrate_power_factor(0.0),
                                  r"epsilon must be in \(0, 1\]"),
}


@pytest.mark.parametrize("call,message", _ERRORS.values(), ids=list(_ERRORS))
def test_invalid_arguments_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
