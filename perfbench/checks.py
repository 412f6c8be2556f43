"""Independent oracles for the benchmark's output checks.

Every function here recomputes what the program should have produced from
its inputs alone (calibration scores, reported scores, the detector rule,
the drift schedules) and counts disagreements. Nothing here calls into the
program's conformal or episodes code, so a defect there cannot hide behind
itself. ``perfbench/controls.py`` feeds each check a deliberately wrong
record to show that it fires.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaln

OOD_LEVEL = 20.0  # corruption level above which an episode is out of distribution
M_LOG_TOLERANCE = 1e-8
S_TOLERANCE = 1e-9


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile, refused unless 10 samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    data = np.sort(np.asarray(values, dtype=np.float64))
    rank = max(1, math.ceil(q * data.size))
    beyond = data.size - rank
    if beyond < 10:
        raise ValueError(
            f"p{100 * q:g} of {data.size} samples has {beyond} beyond it; at least 10 are needed"
        )
    return float(data[rank - 1])


def p_values(scores, cal_scores) -> np.ndarray:
    """Fraction of calibration scores >= each score, floored at 1/(n+1)."""
    cal_scores = np.asarray(cal_scores, dtype=np.float64)
    n = cal_scores.size
    idx = np.searchsorted(cal_scores, np.asarray(scores, dtype=np.float64), side="left")
    return np.maximum((n - idx) / n, 1.0 / (n + 1))


def mixture_log(a: float, n: int) -> float:
    """Closed-form log of the simple mixture martingale.

    ``a = -sum(log p)`` over a window of ``n`` p-values. For ``a >= 1``:
    ``log M = a + log P(n+1, a) + lgamma(n+1) - (n+1) log a`` with ``P`` the
    regularized lower incomplete gamma function. Below that the positive
    series ``M = sum_k a^k n!/(n+k+1)!`` is used, which has no cancellation.
    """
    if n < 1 or not a >= 0.0:
        raise ValueError(f"need n >= 1 and a >= 0, got n={n}, a={a}")
    if a >= 1.0:
        return float(a + math.log(gammainc(n + 1, a)) + gammaln(n + 1) - (n + 1) * math.log(a))
    term = 1.0 / (n + 1)
    total = term
    k = 0
    while term > 1e-18 * total:
        k += 1
        term *= a / (n + k + 1)
        total += term
    return math.log(total)


class StreamChecker:
    """Checks a stream's steps in order, carrying the window and CUSUM state
    from one batch of steps to the next.

    ``mode`` is ``"svdd"`` (sliding window of one p-value per step over
    ``n`` steps, threshold alarm) or ``"vae"`` (``n`` p-values per step,
    CUSUM with a one-step lag and reset). For SVDD the first ``n - 1``
    windows hold warm-up p-values the benchmark cannot see, so their
    martingale is checked against the reported window sum.
    """

    def __init__(self, cal_scores, n: int, mode: str, tau: float, delta: float = 0.0):
        self.cal_scores = np.asarray(cal_scores, dtype=np.float64)
        self.n, self.mode, self.tau, self.delta = n, mode, tau, delta
        self.seen = 0
        self.tail = np.empty(0)  # SVDD: the last n - 1 log p-values
        self.stat = 0.0
        self.prev_m_log: float | None = None

    def feed(self, rec: dict) -> np.ndarray:
        """Per-step failure flags for the next steps of the stream.

        ``rec`` holds per-step arrays: ``scores`` (steps x k, or None when
        the individual scores are not recorded), ``p`` (steps x k),
        ``m_log``, ``s`` and ``alarm``.
        """
        n = self.n
        p = np.asarray(rec["p"], dtype=np.float64)
        m_log = np.asarray(rec["m_log"], dtype=np.float64)
        s = np.asarray(rec["s"], dtype=np.float64)
        alarm = np.asarray(rec["alarm"], dtype=bool)
        steps = m_log.size
        bad = np.zeros(steps, dtype=bool)

        if rec["scores"] is not None:
            scores = np.asarray(rec["scores"], dtype=np.float64)
            expected_p = p_values(scores.reshape(-1), self.cal_scores).reshape(scores.shape)
            bad |= np.any(expected_p != p, axis=1)
        bad |= ~np.all((p > 0.0) & (p <= 1.0), axis=1)
        log_p = np.log(np.clip(p, np.finfo(float).tiny, 1.0))

        if self.mode == "vae":
            sums = log_p.sum(axis=1)
        else:
            flat = np.concatenate((self.tail, log_p[:, 0]))
            csum = np.concatenate(([0.0], np.cumsum(flat)))
            pos = np.arange(steps) + self.tail.size
            full = self.seen + np.arange(steps) >= n - 1
            sums = s.copy()
            sums[full] = csum[pos[full] + 1] - csum[pos[full] + 1 - n]
            bad |= full & (np.abs(sums - s) > S_TOLERANCE * np.maximum(1.0, np.abs(s)))
            self.tail = flat[-(n - 1):] if n > 1 else np.empty(0)
        for t in range(steps):
            a = -sums[t]
            if not a >= 0.0 or abs(mixture_log(a, n) - m_log[t]) > M_LOG_TOLERANCE:
                bad[t] = True

        if self.mode == "vae":
            for t in range(steps):
                want_alarm, want_s = False, self.stat
                if self.prev_m_log is not None:
                    self.stat = max(0.0, self.stat + self.prev_m_log - self.delta)
                    want_alarm, want_s = self.stat > self.tau, self.stat
                    if want_alarm:
                        self.stat = 0.0
                self.prev_m_log = m_log[t]
                if alarm[t] != want_alarm or abs(s[t] - want_s) > S_TOLERANCE * max(1.0, want_s):
                    bad[t] = True
        else:
            bad |= alarm != (m_log > self.tau)
        self.seen += steps
        return bad


def onset_step(schedule_value, max_steps: int) -> int | None:
    """First step whose corruption level exceeds the training bound."""
    for t in range(max_steps):
        if schedule_value(t) > OOD_LEVEL:
            return t
    return None


def expected_verdict(onset: int | None, alarm: int | None) -> tuple[str, str, int | None]:
    """(label, verdict, delay) of an episode from its onset and first alarm."""
    label = "in_dist" if onset is None else "ood"
    if alarm is None:
        return label, ("false_negative" if onset is not None else "true_negative"), None
    if onset is not None and alarm >= onset:
        return label, "true_positive", alarm - onset
    return label, "false_positive", None


def _cell(text: str) -> int | None:
    return int(text) if text != "" else None


def count_verdict_failures(episode_rows: list[dict], step_rows: list[list[dict]],
                           schedule_values, max_steps: int) -> int:
    """Episodes whose ``episodes.csv`` row disagrees with a re-derivation.

    The alarm step is read from the episode's own per-step CSV (the last
    row when it alarmed, since episodes stop at the first alarm) and the
    onset from the schedule; the per-step corruption levels must follow the
    schedule too.
    """
    failures = 0
    if len(episode_rows) != len(schedule_values):
        return max(len(episode_rows), len(schedule_values))
    for row, steps, value in zip(episode_rows, step_rows, schedule_values):
        alarms = [int(r["step"]) for r in steps if r["alarm"] == "1"]
        alarm = alarms[0] if alarms else None
        onset = onset_step(value, max_steps)
        label, verdict, delay = expected_verdict(onset, alarm)
        ok = (
            len(alarms) <= 1
            and (alarm is None or alarm == int(steps[-1]["step"]))
            and (alarm is not None or len(steps) == max_steps)
            and all(float(r["r"]) == value(int(r["step"])) for r in steps)
            and row["label"] == label
            and row["verdict"] == verdict
            and _cell(row["onset_step"]) == onset
            and _cell(row["alarm_step"]) == alarm
            and _cell(row["delay_frames"]) == delay
        )
        failures += not ok
    return failures


def best_grid_point(rows: list[dict]) -> dict:
    """The tuned point: zero false positives, then fewest misses, then objective."""
    feasible = [r for r in rows if int(r["false_positives"]) == 0]
    if not feasible:
        raise ValueError("no grid point has zero false positives")
    return min(feasible, key=lambda r: (int(r["false_negatives"]), float(r["objective"])))
