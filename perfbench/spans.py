"""Spans around the calls one layer of ``icad`` makes into the next.

Tracing works from outside the program: for the traced run only, the module
and class attributes through which one layer reaches another are replaced by
timing wrappers, and restored afterwards. Spans are kept in memory with the
id of the span that caused them; a layer's self time is its spans' duration
minus the part covered by their child spans. A patch point that no longer
exists (a later change removed the function) is reported as absent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import time
from collections import defaultdict

import numpy as np


def _rows(args, kwargs, result):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    return {"rows": 1 if x.ndim == 1 else x.shape[0]}


def _samples(args, kwargs, result):
    return {"samples": len(result)}


def _examples(args, kwargs, result):
    return {"examples": len(args[1] if len(args) > 1 else kwargs["cal_examples"])}


def _fingerprint(args, kwargs, result):
    return {"digest": result}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (attribute path inside icad, span name, per-call counter). Several paths
# may share one span name: they are the same layer reached from two callers.
PATCH_POINTS = [
    ("models.forward", "neural.forward", _rows),
    ("models.backward", "neural.backward", None),
    ("models.adam_step", "neural.adam_step", None),
    ("models.sample_reconstructions", "models.sample_reconstructions", _samples),
    ("nonconformity.sample_reconstructions", "models.sample_reconstructions", _samples),
    ("nonconformity.mean_reconstruction", "models.mean_reconstruction", None),
    ("models.train_vae", "models.train_vae", None),
    ("models.train_svdd", "models.train_svdd", None),
    ("conformal.vae_score", "nonconformity.vae_score", None),
    ("nonconformity.vae_score", "nonconformity.vae_score", None),
    ("conformal.svdd_score", "nonconformity.svdd_score", None),
    ("nonconformity.svdd_score", "nonconformity.svdd_score", None),
    ("nonconformity.VaeScorer.fingerprint", "nonconformity.fingerprint", _fingerprint),
    ("nonconformity.SvddScorer.fingerprint", "nonconformity.fingerprint", _fingerprint),
    ("conformal.vae_detect_step", "conformal.detect_step", None),
    ("conformal.svdd_detect_step", "conformal.detect_step", None),
    ("conformal.p_value", "conformal.p_value", None),
    ("conformal.mixture_martingale_log", "conformal.mixture_martingale_log", None),
    ("conformal.cusum_step", "conformal.detector", None),
    ("conformal.stateless_step", "conformal.detector", None),
    ("episodes.cusum_step", "conformal.detector", None),
    ("episodes.stateless_step", "conformal.detector", None),
    ("conformal.calibration_scores", "conformal.calibration_scores", _examples),
    ("episodes.SceneGenerator.example", "episodes.SceneGenerator.example", None),
    ("episodes.run_episode", "episodes.run_episode", None),
    ("episodes.collect_traces", "episodes.collect_traces", None),
    ("episodes.run_suite", "episodes.run_suite", None),
    ("episodes.tune_thresholds", "episodes.tune_thresholds", None),
    ("persistence.load_model", "persistence.load", _file_bytes),
    ("persistence.load_calibration", "persistence.load", _file_bytes),
    ("persistence.load_dataset", "persistence.load", _file_bytes),
    ("persistence.load_config", "persistence.load", _file_bytes),
    ("persistence.save_model", "persistence.save", _file_bytes),
    ("persistence.save_calibration", "persistence.save", _file_bytes),
    ("persistence.save_dataset", "persistence.save", _file_bytes),
    ("persistence.save_config", "persistence.save", _file_bytes),
    ("cli.main", "cli.main", None),
]


class Tracer:
    """In-memory span store: one entry per call, with its parent's index."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counted: list[tuple[int, str, object]] = []
        self._stack: list[int] = []
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counted.append((idx, key, value))
            return result

        return wrapper

    def install(self, package) -> None:
        """Replace every patch point found under ``package`` with a wrapper."""
        for path, name, counter in PATCH_POINTS:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(f"{package.__name__}.{owner_path[0]}")
                for part in owner_path[1:]:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(path)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> np.ndarray:
        """Per-span self time in seconds: duration minus child durations."""
        starts = np.asarray(self.starts, dtype=np.int64)
        dur = np.asarray(self.ends, dtype=np.int64) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return (dur - child) / 1e9

    def subtree(self, root: int) -> range:
        """Span indices under a top-level span (calls nest, so they are contiguous)."""
        end = root + 1
        while end < len(self.names) and self.parents[end] != -1:
            end += 1
        return range(root, end)

    def summary(self, roots) -> dict[str, dict]:
        """Calls, self time and counted values per span name under ``roots``."""
        self_s = self.self_times()
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        spans = set()
        for root in roots:
            for i in self.subtree(root):
                entry = out[self.names[i]]
                entry["calls"] += 1
                entry["self_s"] += float(self_s[i])
                spans.add(i)
        for idx, key, value in self.counted:
            if idx in spans:
                out[self.names[idx]].setdefault(key, []).append(value)
        return out

    def duration_s(self, idx: int) -> float:
        return (self.ends[idx] - self.starts[idx]) / 1e9

    def write(self, path) -> None:
        """Write every span as CSV rows: id, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{i},{parent},{name},{start},{end}\n")
