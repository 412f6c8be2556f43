"""Conformal detection core.

Offline calibration produces a sorted list of nonconformity scores; at
runtime each input turns into a p-value (fraction of calibration scores at
least as strange), a mixture martingale over recent p-values measures how
implausibly small they have been, and either a CUSUM accumulator or a plain
threshold turns the martingale into alarms. A p-value depends on its score
only through the score's rank among the sorted calibration scores, which
``p_value`` finds by ``bisect`` over the calibration's tuple of floats.
Both step functions share one per-frame tail, from a frame's scores to its
p-values to its ``StepResult``, a ``NamedTuple``; the only per-method part
is each pipeline's martingale and detector ``_update``.

All martingale arithmetic lives in the log domain: the simple mixture
martingale ``M = integral_0^1 prod_i eps * p_i^(eps-1) d eps`` (Vovk,
Nouretdinov & Gammerman, "Testing exchangeability on-line", ICML 2003)
takes astronomically large values once p-values collapse. With
``a = -sum_i log p_i >= 0`` over a window of ``n`` p-values the integral is
an incomplete gamma function, ``M = e^a * n! * P(n+1, a) / a^(n+1)``. Its
shape ``n + 1`` is an integer, so ``P(n+1, a) = 1 - Q`` with ``Q`` the finite
Poisson sum ``e^-a * sum_{k<=n} a^k/k!``, and ``log M`` is evaluated in that
closed form where ``P`` is at least 0.135, ``a >= n + 1 - sqrt(n+1)``.
Below that, and for ``a < 1``, the positive series
``M = sum_k a^k * n!/(n+k+1)!`` is summed instead; its terms never cancel.
``M`` depends on the window only through ``a``, which is what makes the
recursive sliding-window update exact.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .models import SvddModel, VaeModel
from .neural import BLOCK_ROWS, Array, check_examples
from .nonconformity import SvddScorer, VaeScorer

# e^-700: the Poisson sum of a long window applies e^-a in factors of this
_E700 = math.exp(-700.0)

# Number of sliding-window pushes between exact recomputations of the
# running log-p sum (bounds float drift over long streams).
_REFRESH_INTERVAL = 1024


class FingerprintMismatchError(RuntimeError):
    """Calibration scores were produced by a different scorer/model."""


@dataclass(frozen=True, eq=False)
class CalibrationSet:
    """Sorted calibration nonconformity scores bound to their scorer. Sets
    compare and hash by identity: an array has no one truth value."""

    scores: Array
    scorer_kind: str
    fingerprint: bytes
    # the scores as Python floats, for p_value's bisect
    score_tuple: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size < 1:
            raise ValueError("calibration needs at least one score")
        if not np.isfinite(scores).all():
            raise ValueError("calibration scores must be finite")
        if np.any(np.diff(scores) < 0):
            raise ValueError("calibration scores must be sorted ascending")
        scores = scores.copy()
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "score_tuple", tuple(scores.tolist()))
        if len(self.fingerprint) != 8:
            raise ValueError("fingerprint must be 8 bytes")

    def __len__(self) -> int:
        return int(self.scores.size)

    def check_scorer(self, scorer) -> None:
        """Raise ``FingerprintMismatchError`` unless ``scorer`` produced these scores."""
        if scorer.kind != self.scorer_kind:
            raise FingerprintMismatchError(
                f"calibration was built with the {self.scorer_kind!r} scorer, "
                f"expected {scorer.kind!r}"
            )
        if scorer.fingerprint() != self.fingerprint:
            raise FingerprintMismatchError(
                f"calibration fingerprint does not match this {scorer.kind} model"
            )


def calibration_scores(scorer, cal_examples, seed: int = 0) -> CalibrationSet:
    """Score the calibration examples a block at a time, one network pass per
    block, and return the sorted result.

    ``cal_examples`` is a 2-D array, taken in blocks of ``BLOCK_ROWS`` rows,
    or an iterable of such blocks, e.g. ``persistence.DatasetBlocks``, which
    reads them from a file as they are scored, so the set is never held
    whole. Each block passes ``check_examples`` once and is then scored
    unchecked. A VAE example gets one sampled-reconstruction score, with one
    generator seeded by ``seed`` for the whole set: the measure the VAE
    detector takes, so its p-values are valid. The SVDD scorer reads no
    ``seed``.
    """
    if isinstance(cal_examples, np.ndarray):
        rows = range(0, len(cal_examples), BLOCK_ROWS)
        cal_examples = [cal_examples[i : i + BLOCK_ROWS] for i in rows]

    def check(block):
        return check_examples(block, "calibration set", scorer.model.input_dim)

    if isinstance(scorer, VaeScorer):
        rng = np.random.default_rng(seed)
        scores = [scorer._score_many(check(b), 1, rng)[:, 0] for b in cal_examples]
    else:
        scores = [scorer._score(check(b)) for b in cal_examples]
    if not scores:
        raise ValueError("calibration set must be a nonempty 2-D array")
    return CalibrationSet(np.sort(np.concatenate(scores)), scorer.kind, scorer.fingerprint())


def p_value(score: float, cal: CalibrationSet) -> float:
    """The fraction of calibration scores >= ``score``, floored away from zero.

    The floor ``1/(len(cal)+1)`` is the smallest resolvable nonzero fraction
    and keeps ``log p`` finite for the martingale. ``bisect_left`` gives
    ``searchsorted(side="left")``'s rank of a finite float, as an ``int``.
    """
    if not math.isfinite(score):
        raise ValueError("nonconformity score must be finite")
    scores = cal.score_tuple
    n = len(scores)
    i = bisect_left(scores, score)
    return max((n - i) / n, 1.0 / (n + 1))


def mixture_martingale_log(window_log_p_sum: float, count: int) -> float:
    """Log of the simple mixture martingale over a window of ``count`` p-values.

    The power martingale is integrated over its exponent on [0, 1] in closed
    form; only the window's log-p sum enters, so callers can maintain it
    recursively. With ``a`` the negated sum and ``n = count``, one switch
    splits two cases. At or above ``a = max(1, n + 1 - sqrt(n + 1))``, where
    ``P(n+1, a) = 1 - Q`` is at least 0.135 and ``log1p(-Q)`` loses
    less than a digit, ``log M = a + log1p(-Q) + lgamma(n+1) - (n+1) log a``
    with ``Q`` the Poisson sum ``_poisson_cdf``. Below it the positive series
    ``_mixture_series`` is summed.
    """
    if count < 1:
        raise ValueError("window must contain at least one p-value")
    if not math.isfinite(window_log_p_sum) or window_log_p_sum > 1e-12:
        raise ValueError("sum of log p-values must be finite and <= 0")
    a = -min(window_log_p_sum, 0.0)
    if a < max(1.0, count + 1 - math.sqrt(count + 1)):
        return math.log(_mixture_series(a, count))
    q = _poisson_cdf(a, count)
    return a + math.log1p(-q) + math.lgamma(count + 1) - (count + 1) * math.log(a)


def _poisson_cdf(a: float, count: int) -> float:
    """``Q = e^-a * sum_{k<=count} a^k/k!``, so that ``P(count+1, a) = 1 - Q``.

    The terms follow ``t_k = t_(k-1) * a/k``. ``e^-a`` underflows past
    ``a ~ 708``, so the sum starts at ``e^-r``, ``r = fmod(a, 700)``, with
    ``m = (a - r)/700`` factors of ``e^-700`` still to apply: one each time
    a term passes 1, the rest at the end, where two or more give 0. Every
    ``exp`` gets an exact argument.
    """
    r = math.fmod(a, 700.0)
    m = (a - r) / 700.0
    term = total = math.exp(-r)
    for k in range(1, count + 1):
        term *= a / k
        total += term
        if m and term > 1.0:
            term *= _E700
            total *= _E700
            m -= 1.0
    return total * _E700**m


def _mixture_series(a: float, count: int) -> float:
    """``sum_k a^k * count!/(count+k+1)!``, summed until a term stops counting.

    Used where ``a < count + 1``, so the term ratio ``a/(count+k+2)`` is
    below one from the first term on and the sum converges geometrically.
    """
    term = total = 1.0 / (count + 1)
    k = count + 2
    while term > total * 1e-17:
        term *= a / k
        total += term
        k += 1
    return total


class MartingaleState:
    """Sliding window of log p-values with an exactly-maintained running sum."""

    def __init__(self, window_size: int):
        if window_size < 1:
            raise ValueError("window size must be >= 1")
        self.window_size = int(window_size)
        self.window: deque[float] = deque(maxlen=self.window_size)
        self.log_p_sum = 0.0
        self._pushes = 0

    @classmethod
    def warmed_up(cls, window_size: int, rng: np.random.Generator) -> "MartingaleState":
        """Pre-fill the window with independent uniform p-values in (0, 1]."""
        state = cls(window_size)
        for _ in range(window_size):
            state.push(math.log(1.0 - rng.random()))
        return state

    def push(self, log_p: float) -> None:
        if not math.isfinite(log_p) or log_p > 0.0:
            raise ValueError("log p must be finite and <= 0")
        if len(self.window) == self.window.maxlen:
            self.log_p_sum -= self.window[0]
        self.window.append(log_p)
        self.log_p_sum += log_p
        self._pushes += 1
        if self._pushes % _REFRESH_INTERVAL == 0:
            self.log_p_sum = float(sum(self.window))

    def mixture_log(self) -> float:
        return mixture_martingale_log(self.log_p_sum, len(self.window))


def _finite(name: str, value: float, inf_ok: bool = False) -> float:
    """``value`` unless NaN or infinite (never alarms); ``inf_ok`` admits ``tau = inf`` on purpose."""
    if not (math.isfinite(value) or (inf_ok and value == math.inf)):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


class CusumDetector:
    """CUSUM accumulator over the log-martingale, with a one-step lag.

    Each update consumes the *previous* step's ``log M``
    (``S <- max(0, S + log M_prev - delta)``, ``S_1 = 0``), so the first
    update never alarms. ``tau`` and ``delta`` are log-domain quantities.
    """

    def __init__(self, tau: float, delta: float):
        self.tau = _finite("tau", tau, inf_ok=True)
        self.delta = _finite("delta", delta)
        self.s = 0.0
        self._prev_m_log: float | None = None

    def update(self, m_log: float) -> tuple[bool, float]:
        """Returns ``(alarm, s)``, ``s`` taken before the post-alarm reset to zero."""
        prev, self._prev_m_log = self._prev_m_log, m_log
        if prev is None:
            return False, self.s
        self.s = max(0.0, self.s + prev - self.delta)
        s = self.s
        alarm = s > self.tau
        if alarm:
            self.s = 0.0
        return alarm, s


class ThresholdDetector:
    """Alarm iff the current log-martingale value exceeds ``tau``."""

    def __init__(self, tau: float):
        self.tau = _finite("tau", tau, inf_ok=True)

    def update(self, m_log: float) -> tuple[bool, float]:
        """Returns ``(alarm, m_log)``; the detector keeps no state."""
        return m_log > self.tau, m_log


class StepResult(NamedTuple):
    """One detection step of either pipeline, a plain tuple of its five fields.

    ``scores`` and ``p_values`` hold one entry per scored sample: N
    reconstructions for the VAE, the single input for SVDD. ``s`` is the
    CUSUM statistic (VAE) or the sliding window's log-p sum (SVDD).
    """

    alarm: bool
    scores: tuple[float, ...]
    p_values: tuple[float, ...]
    m_log: float
    s: float

    @property
    def score(self) -> float:
        """Mean of ``scores``."""
        # np.mean takes about 6 us, a tenth of an SVDD step; one score is its own mean
        return self.scores[0] if len(self.scores) == 1 else float(np.mean(self.scores))

    @property
    def p(self) -> float:
        """The p-value of a one-sample step."""
        (p,) = self.p_values
        return p


def _decide(pipeline: "_Pipeline", rows: list[list[float]]) -> list[StepResult]:
    """Each frame's row of scores, in frame order, to p-values, ``_update`` and result."""
    results = []
    for row in rows:
        # one search per sample: one search for all N left so little cost per
        # sample that acceptance criterion 8 (cost linear in N) failed 1 run in 8
        ps = tuple(p_value(s, pipeline.cal) for s in row)
        alarm, m_log, s = pipeline._update(ps)
        results.append(StepResult(alarm, tuple(row), ps, m_log, s))
    return results


def vae_detect_step(pipeline: "VaePipeline", frames: Array) -> list[StepResult]:
    """Detection steps on a block ``(B, D)``: one ``score_many`` call scores N
    sampled reconstructions of every frame, then the shared tail. The block's noise
    holds the per-step draws in order, so the generator ends where B steps leave it."""
    scores = pipeline.scorer.score_many(frames, pipeline.n_samples, pipeline._rng)
    return _decide(pipeline, scores.tolist())


def svdd_detect_step(pipeline: "SvddPipeline", frames: Array) -> list[StepResult]:
    """Detection steps on a block ``(B, D)``, in frame order: one ``score``
    call, then the shared tail on each frame's one score."""
    return _decide(pipeline, pipeline.scorer.score(frames)[:, None].tolist())


class _Pipeline:
    """What both pipelines share: the constructor's prelude, ``fresh`` and
    ``step``. Each pipeline's ``steps`` calls its method's step function, a
    module global looked up at call time, so a wrapper installed on it (a
    profiler's, say) sees every step and every block."""

    def __init__(self, model, cal: CalibrationSet, stream_args: tuple):
        self.scorer = self._scorer_type(model)
        cal.check_scorer(self.scorer)
        self.cal = cal
        self._stream_args = stream_args
        self._start(*stream_args)

    def fresh(self):
        """A pipeline over this one's checked scorer and calibration, with
        the stream state of a newly constructed one; no check runs again."""
        new = copy.copy(self)
        new._start(*new._stream_args)
        return new

    def step(self, z: Array) -> StepResult:
        """One detection step on a frame ``(D,)``: ``steps`` on its one-row
        block, a one-frame tuple the scorer takes as is."""
        return self.steps((z,))[0]


class VaePipeline(_Pipeline):
    """Per-stream VAE detection: owns the CUSUM detector and the sampling RNG."""

    method = "vae"
    _scorer_type = VaeScorer

    def __init__(self, model: VaeModel, cal: CalibrationSet, n_samples: int, delta: float,
                 tau: float, seed: int):
        if n_samples < 1:
            raise ValueError("need at least one reconstruction sample per step")
        self.n_samples = int(n_samples)
        super().__init__(model, cal, (tau, delta, seed))

    def _start(self, tau: float, delta: float, seed: int) -> None:
        self.detector = CusumDetector(tau, delta)
        self._rng = np.random.default_rng(seed)

    def steps(self, frames: Array) -> list[StepResult]:
        """One step per row of a block ``(B, D)``, in order."""
        return vae_detect_step(self, frames)

    def _update(self, ps: tuple[float, ...]) -> tuple[bool, float, float]:
        # math.log in sample order: np.log differs in the last bit on some p-values
        m_log = mixture_martingale_log(sum(map(math.log, ps)), len(ps))
        alarm, s = self.detector.update(m_log)
        return alarm, m_log, s


class SvddPipeline(_Pipeline):
    """Per-stream SVDD detection with a seeded warm-started sliding window."""

    method = "svdd"
    _scorer_type = SvddScorer

    def __init__(self, model: SvddModel, cal: CalibrationSet, window: int, tau: float, seed: int):
        super().__init__(model, cal, (window, tau, seed))

    def _start(self, window: int, tau: float, seed: int) -> None:
        self.martingale = MartingaleState.warmed_up(window, np.random.default_rng(seed))
        self.detector = ThresholdDetector(tau)

    def steps(self, frames: Array) -> list[StepResult]:
        """One step per row of a block ``(B, D)``, in order."""
        return svdd_detect_step(self, frames)

    def _update(self, ps: tuple[float, ...]) -> tuple[bool, float, float]:
        (p,) = ps
        self.martingale.push(math.log(p))
        m_log = self.martingale.mixture_log()
        alarm, _ = self.detector.update(m_log)
        return alarm, m_log, self.martingale.log_p_sum
