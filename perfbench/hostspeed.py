"""Host speed, sampled during a measurement with a fixed reference loop.

The benchmark's host shares its cores: for stretches of a fraction of a
second to minutes, the same code runs up to 2x slower, and CPU time grows
with wall time, so no clock of the process can tell the slowdown from the
program's own cost. ``HostSpeed`` measures the slowdown directly: while it is
active, an interval timer interrupts the process every ``PERIOD_S`` and the
signal handler times ``reference_work``, a fixed loop of the same character
as the detector (interpreter work, small dense products, vector operations
on a 1,001-point grid, two 256x512 products) that depends on nothing in
``icad``.

The host's speed at a moment is given as a *factor*: ``REF_NOMINAL_NS`` over
the median of the ``LOCAL_SAMPLES`` reference times around that moment. A
time measured over a span is reported in *reference seconds*: the wall time
minus the handler's own time inside the span, times the mean factor over the
span. On a host where the reference loop takes ``REF_NOMINAL_NS``, reference
seconds are seconds. The raw wall times are kept next to them.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.02
# Reference samples (about 0.2 s of them) whose median gives the host speed
# at one moment.
LOCAL_SAMPLES = 9
# About the reference loop's time on the 2-vCPU host of the first numbers in
# README.md when that host is quiet, in nanoseconds. Only the ratio to it
# matters: it fixes the unit of the reported times and never changes between
# runs or commits.
REF_NOMINAL_NS = 450_000

_rng = np.random.default_rng(20010494)
_W1 = _rng.standard_normal((256, 64)) / 16.0
_W2 = _rng.standard_normal((64, 32)) / 8.0
_W3 = _rng.standard_normal((32, 64)) / 6.0
_WIDE1 = _rng.standard_normal((256, 512)) / 16.0
_WIDE2 = _rng.standard_normal((512, 64)) / 22.0
_X = _rng.standard_normal(256)
_GRID = np.linspace(1e-3, 1.0, 1001)


def reference_work() -> float:
    """A fixed amount of work: ``REF_NOMINAL_NS`` on the reference host."""
    acc = 0.0
    for _ in range(4):
        h = np.tanh(_X @ _W1)
        for _ in range(6):
            y = np.tanh(h @ _W2) @ _W3
            acc += float(np.log1p(np.abs(y)).sum())
        v = np.exp(np.log(_GRID) * 3.0 - acc * 1e-4 * _GRID)
        acc += float(v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum())
        table = {}
        for k in range(40):
            table[k] = k * acc
            acc += table[k] * 1e-12
    for _ in range(2):
        y = np.tanh(_X @ _WIDE1) @ _WIDE2
        acc += float(y @ y) * 1e-12
    return acc


class HostSpeed:
    """Context manager that samples ``reference_work`` every ``PERIOD_S``."""

    def __init__(self):
        self.starts: list[int] = []
        self.durations: list[int] = []
        self._old = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        # Python runs a handler for a signal that arrives while the previous
        # handler is still running inside it: when a stalled host makes one
        # sample outlast the period, the nesting would grow until it raised
        # RecursionError in the middle of the program. A tick that arrives
        # during a sample is dropped instead.
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter_ns()
            reference_work()
            self.durations.append(time.perf_counter_ns() - t0)
            self.starts.append(t0)
        finally:
            self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def _bounds(self, start_ns: int, end_ns: int) -> tuple[int, int]:
        return (bisect.bisect_left(self.starts, start_ns),
                bisect.bisect_left(self.starts, end_ns))

    def local_factors(self, times_ns) -> np.ndarray:
        """``REF_NOMINAL_NS`` over the median of the ``LOCAL_SAMPLES``
        reference samples around each time (sorted)."""
        if not self.durations:
            raise ValueError("no reference sample: the span ran outside HostSpeed")
        d = np.asarray(self.durations, dtype=np.float64)
        pad = LOCAL_SAMPLES // 2
        padded = np.concatenate([np.repeat(d[:1], pad), d, np.repeat(d[-1:], pad)])
        rolling = np.median(np.lib.stride_tricks.sliding_window_view(padded, LOCAL_SAMPLES), axis=1)
        idx = np.searchsorted(np.asarray(self.starts), np.asarray(times_ns))
        return REF_NOMINAL_NS / rolling[np.clip(idx, 0, d.size - 1)]

    def factor(self, start_ns: int, end_ns: int) -> float:
        """The mean local factor over the reference samples inside the span,
        or the one at its start when the span is shorter than one period."""
        inside = self.starts[slice(*self._bounds(start_ns, end_ns))]
        return float(np.mean(self.local_factors(inside or [start_ns])))

    def wall_s(self, start_ns: int, end_ns: int) -> float:
        """Wall time of the span, without the handler's time inside it."""
        spent = sum(self.durations[slice(*self._bounds(start_ns, end_ns))])
        return (end_ns - start_ns - spent) / 1e9

    def ref_s(self, start_ns: int, end_ns: int) -> float:
        """The span's time in reference seconds."""
        return self.wall_s(start_ns, end_ns) * self.factor(start_ns, end_ns)

    def net_ns(self, starts_ns, durations_ns) -> np.ndarray:
        """Durations of back-to-back spans (sorted by start) without the
        handler's time inside each."""
        starts = np.asarray(starts_ns, dtype=np.int64)
        net = np.asarray(durations_ns, dtype=np.int64).copy()
        ticks = np.asarray(self.starts, dtype=np.int64)
        idx = np.searchsorted(starts, ticks, side="right") - 1
        inside = idx >= 0
        inside[inside] = ticks[inside] < starts[idx[inside]] + net[idx[inside]]
        np.subtract.at(net, idx[inside], np.asarray(self.durations, dtype=np.int64)[inside])
        return net
