"""Outside-in tracer: wraps sonoclass's public layer functions with spans.

Nothing under src/ is changed. Each target function is replaced under
every name a sonoclass module looks it up by (for example both
`feature_select.select_top_k` and `pipeline.select_top_k`, because
`pipeline` imported the name), and `FeatureExtractor` methods are patched
on the class. Spans live in memory as [name, start, end, parent, run,
counters] and are written out once, at the end of the process.

A target that no longer exists raises TargetMissing, so a rename cannot
silently report zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time


class TargetMissing(RuntimeError):
    pass


def _arg(sig, args, kwargs, name):
    return sig.bind(*args, **kwargs).arguments[name]


def _rows(value):
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape else 0


# counter functions: (signature, args, kwargs, result) -> {counter: value}
def _select_counts(sig, args, kwargs, result):
    matrix = _arg(sig, args, kwargs, "matrix")
    return {"cells": matrix.n_samples * matrix.n_features}


def _smo_counts(sig, args, kwargs, result):
    return {
        "passes": int(result.n_passes),
        "rows": _rows(_arg(sig, args, kwargs, "x")),
        "sv": _rows(result.support_vectors),
        "converged": int(bool(result.converged)),
    }


def _kernel_counts(sig, args, kwargs, result):
    return {"entries": int(result.size)}


def _predict_counts(sig, args, kwargs, result):
    return {"rows": _rows(result)}


# span name "<module>.<function>" -> counter function or None;
# "<module>.<Class>.<method>" patches the method on the class.
TARGETS = {
    "feature_select.select_top_k": _select_counts,
    "svm.smo_train": _smo_counts,
    "svm.rbf_kernel_matrix": _kernel_counts,
    "svm.ovo_train": None,
    "svm.ovo_predict_batch": _predict_counts,
    "svm.grid_search_cv": None,
    "log_gabor.single_filter_feature": None,
    "log_gabor.bank_average_feature": None,
    "log_gabor.band_patch_feature": None,
    "log_gabor.build_bank": None,
    "wavelet_baseline.c1_pyramid": None,
    "wavelet_baseline.patch_transform": None,
    "wavelet_baseline.global_max": None,
    "wavelet_baseline.sample_patches": None,
    "audio_io.load_wav": None,
    "spectrogram.log_spectrogram": None,
    "spectrogram.to_fixed": None,
    "pipeline.FeatureExtractor.fixed_values": None,
    "pipeline.FeatureExtractor.c1": None,
    "pipeline.FeatureExtractor.gabor_feature": None,
    "model_io.load_model": None,
    "model_io.save_model": None,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around code that is not a wrapped function."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.run, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, counter=None):
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span[5] = counter(sig, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "sonoclass") -> None:
        """Patch every target under every alias found in loaded package modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, counter in TARGETS.items():
            module_name, _, attr = name.partition(".")
            module = sys.modules.get(f"{package}.{module_name}")
            owner = module
            if "." in attr:
                cls_name, attr = attr.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                raise TargetMissing(f"trace target {package}.{name} does not exist")
            traced = self.wrap(name, original, counter)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, alias, traced)


# ---------------------------------------------------------------------------
# Aggregation (stdlib only; runs in the benchmark's parent process)
# ---------------------------------------------------------------------------

# cache stage -> (stage span, the compute child whose entry marks a miss)
CACHE_STAGES = {
    "fixed": ("pipeline.FeatureExtractor.fixed_values", ("spectrogram.to_fixed",)),
    "c1": ("pipeline.FeatureExtractor.c1", ("wavelet_baseline.c1_pyramid",)),
    "feat": ("pipeline.FeatureExtractor.gabor_feature", (
        "log_gabor.single_filter_feature",
        "log_gabor.bank_average_feature",
        "log_gabor.band_patch_feature",
    )),
}

ROOT_SPAN = "cli.main"


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, self seconds and summed counters; plus
    per-stage cache hits and misses. Self time is a span's duration minus
    the durations of its direct children."""
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)

    layers: dict[str, dict] = {}
    for i, (name, start, end, _, _, counters) in enumerate(spans):
        entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        for key, value in (counters or {}).items():
            entry[key] = entry.get(key, 0) + value

    cache = {}
    for stage, (stage_span, compute) in CACHE_STAGES.items():
        hits = misses = 0
        for i, span in enumerate(spans):
            if span[0] != stage_span:
                continue
            if any(spans[c][0] in compute for c in children[i]):
                misses += 1
            else:
                hits += 1
        cache[stage] = {"hits": hits, "misses": misses}
    return {"layers": layers, "cache": cache}
