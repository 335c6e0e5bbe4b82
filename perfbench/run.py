#!/usr/bin/env python3
"""sonoclass benchmark: times the public CLI on a locally synthesised corpus.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). Diagnostics go to stderr.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CACHE_STAGES, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
REFERENCES = BENCH / "references.json"

CLIPS_PER_CLASS = 30
HELDOUT_PER_CLASS = 15
MIN_HELDOUT_PER_CLASS = 10
# generate_corpus gives clip i the seed `seed + i`; benchmark seed n owns
# clip seeds [n*SEED_STRIDE, (n+1)*SEED_STRIDE): corpus from the start of
# the range, held-out clips from HELDOUT_OFFSET on.
SEED_STRIDE = 1000
HELDOUT_OFFSET = 500
SVM_ARGS = ["--c", "8", "--gamma", "0.5"]
# Accuracy floors from criterion 7 (tests/test_acceptance.py). Its 95% bank
# floor assumes grid-searched C and gamma, so here it applies to the best
# CV accuracy of `gridsearch`; at the fixed C=8, gamma=0.5 every method gets
# criterion 7's 70% floor (see README, "Correctness gate").
GRID_FLOOR = 95.0
FLOOR = 70.0
DEADLINE_S = 170.0  # every run must end within 180 s

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "clips_per_s": "1/s",
    "peak_rss_mb": "MB",
    "disk_mb": "MB",
    "accuracy_pct": "%",
}

# per-layer metrics: span name -> counters reported for it
LAYERS = {
    "feature_select.select_top_k": ("calls", "self_s", "cells"),
    "svm.smo_train": ("calls", "self_s", "passes", "rows", "sv", "converged_frac"),
    "svm.rbf_kernel_matrix": ("calls", "self_s", "entries"),
    "svm.ovo_train": ("self_s",),
    "svm.ovo_predict_batch": ("calls", "rows", "self_s"),
    "svm.grid_search_cv": ("self_s",),
    "log_gabor.single_filter_feature": ("calls", "self_s"),
    "log_gabor.bank_average_feature": ("calls", "self_s"),
    "log_gabor.band_patch_feature": ("calls", "self_s"),
    "log_gabor.build_bank": ("calls", "self_s"),
    "wavelet_baseline.c1_pyramid": ("calls", "self_s"),
    "wavelet_baseline.patch_transform": ("calls", "self_s"),
    "wavelet_baseline.global_max": ("calls", "self_s"),
    "wavelet_baseline.sample_patches": ("calls", "self_s"),
    "audio_io.load_wav": ("calls", "self_s"),
    "spectrogram.log_spectrogram": ("calls", "self_s"),
    "spectrogram.to_fixed": ("calls", "self_s"),
    "pipeline.FeatureExtractor.fixed_values": ("self_s",),
    "pipeline.FeatureExtractor.c1": ("self_s",),
    "pipeline.FeatureExtractor.gabor_feature": ("self_s",),
    "model_io.load_model": ("calls", "self_s"),
    "model_io.save_model": ("calls", "self_s"),
    "cli.import": ("self_s",),
    "cli.main": ("self_s",),
    "python.startup": ("self_s",),
    "python.exit": ("self_s",),
}
# measured by the parent around each fresh process: layer -> result key
PROCESS_LAYERS = {"python.startup": "startup_s", "python.exit": "exit_s"}
# counted in set-up as well: work that a change could move into set-up
SETUP_COUNTS = ("wavelet_baseline.c1_pyramid.calls", "model_io.save_model.calls")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, counters in LAYERS.items():
        for counter in counters:
            units[f"{name}.{counter}"] = ("fraction" if counter.endswith("_frac")
                                          else "s" if counter.endswith("_s") else "count")
    for stage in CACHE_STAGES:
        units[f"pipeline.cache.{stage}.hits"] = "count"
        units[f"pipeline.cache.{stage}.misses"] = "count"
        units[f"pipeline.cache.{stage}.hit_ratio"] = "fraction"
    units["pipeline.cache.bytes_written"] = "B"
    units["trace.coverage"] = "fraction"
    units["trace.overhead_s"] = "s"
    for name in LAYERS:
        units[f"setup.{name}.self_s"] = "s"
    for name in SETUP_COUNTS:
        units[f"setup.{name}"] = "count"
    for stage in CACHE_STAGES:
        units[f"setup.pipeline.cache.{stage}.misses"] = "count"
    units["setup.pipeline.cache.bytes_written"] = "B"
    return units


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def corpus_calls(seed: int) -> list[list[str]]:
    return [
        ["synth", "--out", "corpus", "--clips-per-class", str(CLIPS_PER_CLASS),
         "--seed", str(seed * SEED_STRIDE)],
        ["split", "--manifest", "corpus/manifest.tsv", "--out", "split.tsv",
         "--seed", str(seed)],
    ]


def compare_argv(seed: int, out: str) -> list[str]:
    return ["compare", "--manifest", "split.tsv", *SVM_ARGS, "--seed", str(seed),
            "--cache-dir", "cache", "--out", out]


def read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def compare_accuracy(reports: Path) -> tuple[float, list[str]]:
    table = {row[0]: row[1:] for row in read_csv(reports / "comparison.csv")}
    averaged = dict(zip(table["class"], map(float, table["averaged"])))
    # criterion 7 checks the single filter at scale 1, orientation 1
    single = next(float(row[-1]) for row in read_csv(reports / "single_grid.csv")
                  if row[:2] == ["1", "1"])
    scores = dict(averaged, **{"single(1,1)": single})
    misses = [f"{m} averaged accuracy {acc:.2f}% below floor {FLOOR:.0f}%"
              for m, acc in scores.items() if acc < FLOOR]
    return averaged["bank"], misses


class CompareWarm:
    """`compare` over a cache that set-up filled by running the same command."""

    name = "compare-warm"
    family = "compare"
    setup_repeats = 1  # set-up holds a whole cold compare; see README
    min_ops = 2  # one op is about 16 s; two halve the weight of a noisy one
    warm_cache = True

    def setup_calls(self, seed):
        return corpus_calls(seed) + [compare_argv(seed, "setup_reports")]

    def op_calls(self, seed, k):
        return [compare_argv(seed, f"reports{k}")]

    def reports(self, k, out="reports"):
        return {f: f"{out}{k}/{f}" for f in ("single_grid.csv", "comparison.csv")}

    def setup_reports(self):
        # criterion 8: the warm reports must equal the cold ones
        return self.reports("", out="setup_reports")

    def accuracy(self, work: Path, k):
        return compare_accuracy(work / f"reports{k}")

    def clips_per_call(self, work: Path) -> int:
        return count_rows(work / "split.tsv")

    def stored(self, work: Path) -> list[Path]:
        return [work / "cache"]


class GridSearch:
    """Default 11 C x 10 gamma x 5-fold search on the bank method, warm cache."""

    name = "gridsearch"
    family = "gridsearch"
    setup_repeats = 2
    min_ops = 1
    warm_cache = True

    def setup_calls(self, seed):
        return corpus_calls(seed) + [
            ["extract", "--manifest", "split.tsv", "--method", "bank",
             "--seed", str(seed), "--cache-dir", "cache"],
        ]

    def op_calls(self, seed, k):
        return [["gridsearch", "--manifest", "split.tsv", "--method", "bank",
                 "--seed", str(seed), "--cache-dir", "cache", "--out", f"cv{k}.csv"]]

    def reports(self, k):
        return {"cv.csv": f"cv{k}.csv"}

    def accuracy(self, work: Path, k):
        best = 100.0 * max(float(row[2]) for row in read_csv(work / f"cv{k}.csv")[1:])
        misses = [] if best >= GRID_FLOOR else [
            f"best CV accuracy {best:.2f}% below floor {GRID_FLOOR:.0f}%"]
        return best, misses

    def clips_per_call(self, work: Path) -> int:
        return count_rows(work / "split.tsv", split="train")

    def stored(self, work: Path) -> list[Path]:
        return [work / "cache"]


class Classify:
    """`evaluate` of a saved bank and a saved wavelet model on held-out clips,
    with no cache directory."""

    name = "classify"
    family = "classify"
    setup_repeats = 2
    min_ops = 1
    warm_cache = False
    models = ("bank", "wavelet")

    def setup_calls(self, seed):
        calls = corpus_calls(seed) + [
            ["synth", "--out", "heldout_clips", "--clips-per-class", str(HELDOUT_PER_CLASS),
             "--seed", str(seed * SEED_STRIDE + HELDOUT_OFFSET)],
        ]
        for method in self.models:
            calls.append(["train", "--manifest", "split.tsv", "--method", method,
                          *SVM_ARGS, "--seed", str(seed), "--out", f"{method}.model"])
        return calls

    def after_setup(self, work: Path) -> None:
        write_heldout_manifest(work)

    def op_calls(self, seed, k):
        return [["evaluate", f"{m}.model", "--manifest", "heldout.tsv", "--out", f"{m}{k}"]
                for m in self.models]

    def reports(self, k):
        return {f"{m}.csv": f"{m}{k}.csv" for m in self.models}

    def accuracy(self, work: Path, k):
        scores, misses = {}, []
        for m in self.models:
            rows = {row[0]: row[3] for row in read_csv(work / f"{m}{k}.csv")}
            scores[m] = float(rows["averaged"])
            if scores[m] < FLOOR:
                misses.append(f"{m} averaged accuracy {scores[m]:.2f}% below floor {FLOOR:.0f}%")
        return statistics.fmean(scores.values()), misses

    def clips_per_call(self, work: Path) -> int:
        return count_rows(work / "heldout.tsv")

    def stored(self, work: Path) -> list[Path]:
        return [work / f"{m}.model" for m in self.models]


WORKLOADS = {w.name: w for w in (CompareWarm(), GridSearch(), Classify())}


def count_rows(manifest: Path, split: str | None = None) -> int:
    rows = [line.split("\t") for line in manifest.read_text().splitlines() if line]
    return sum(1 for r in rows if split is None or r[2] == split)


def file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_heldout_manifest(work: Path) -> None:
    """heldout.tsv: the held-out clips, all marked `test`, minus any clip whose
    content equals a corpus clip or an earlier held-out clip (some seeds
    synthesise byte-identical impulse trains)."""
    seen = {file_hash(work / line.split("\t")[0])
            for line in (work / "corpus/manifest.tsv").read_text().splitlines() if line}
    kept, per_class = [], {}
    for line in (work / "heldout_clips/manifest.tsv").read_text().splitlines():
        if not line:
            continue
        path, label = line.split("\t")[:2]
        digest = file_hash(work / path)
        if digest in seen:
            continue
        seen.add(digest)
        kept.append(f"{path}\t{label}\ttest")
        per_class[label] = per_class.get(label, 0) + 1
    short = {c: n for c, n in per_class.items() if n < MIN_HELDOUT_PER_CLASS}
    if short or len(per_class) < 4:
        raise RuntimeError(f"too few distinct held-out clips per class: {per_class}")
    (work / "heldout.tsv").write_text("\n".join(kept) + "\n")


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.n = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
        self.env_info = None

    def time_left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, cwd: Path, calls, trace: bool) -> dict:
        """Run `calls` in one fresh process; returns its result plus `wall_s`
        and `error` (None when every call exited 0)."""
        self.n += 1
        spec = self.work / f"child{self.n}.spec.json"
        result_path = self.work / f"child{self.n}.result.json"
        log_path = self.work / f"child{self.n}.log"
        spec.write_text(json.dumps({"calls": calls, "trace": trace,
                                    "result": str(result_path)}))
        start = time.perf_counter()
        spawned = time.time()
        try:
            with open(log_path, "w") as log:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), str(spec)],
                    cwd=cwd, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(self.time_left(), 1.0),
                )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        wall = time.perf_counter() - start
        ended = time.time()
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        if result:
            result["startup_s"] = result["started"] - spawned
            result["exit_s"] = ended - result["finished"]
        error = None
        if code != 0 or not result:
            error = f"child exited {code}"
        elif any(c != 0 for c in result["codes"]) or len(result["codes"]) != len(calls):
            failed = calls[len(result["codes"]) - 1]
            error = f"`sonoclass {' '.join(failed)}` exited {result['codes'][-1]}"
        elif not Path(result["module"]).resolve().is_relative_to(ROOT / "src"):
            error = f"imported sonoclass from {result['module']}, not from this checkout"
        if error:
            tail = log_path.read_text()[-2000:] if log_path.exists() else ""
            error += "\n" + tail
        if self.env_info is None and "env" in result:
            self.env_info = result["env"]
        result.update(wall_s=wall, error=error)
        return result


def snapshot(path: Path) -> dict[str, tuple[int, int]]:
    out = {}
    for dirpath, _, files in os.walk(path):
        for f in files:
            st = os.stat(os.path.join(dirpath, f))
            out[os.path.join(dirpath, f)] = (st.st_size, st.st_mtime_ns)
    return out


def disk_bytes(paths) -> int:
    total = 0
    for p in paths:
        if p.is_dir():
            total += sum(size for size, _ in snapshot(p).values())
        elif p.exists():
            total += p.stat().st_size
    return total


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, workload, seed: int, seconds: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = STATE / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        self.runner = Runner(self.work, time.perf_counter())
        self.attempted = 0
        self.failed = 0
        self.expected: dict[str, str] | None = None
        self.reference = None
        if REFERENCES.exists():
            refs = json.loads(REFERENCES.read_text())
            self.reference = refs.get(workload.family, {}).get(str(seed))

    # -- set-up --------------------------------------------------------------

    def setup(self, trace: bool, repeats: int):
        """Build the inputs `repeats` times, each in a fresh directory; the
        last one is kept for the timed calls. Returns (walls, last result)."""
        walls, result = [], None
        for r in range(repeats):
            cwd = self.work / f"setup{r}"
            if r:
                shutil.rmtree(self.work / f"setup{r - 1}")
            cwd.mkdir(parents=True)
            start = time.perf_counter()
            result = self.runner.child(cwd, self.w.setup_calls(self.seed), trace)
            if result["error"]:
                raise RuntimeError(f"set-up failed: {result['error']}")
            if hasattr(self.w, "after_setup"):
                self.w.after_setup(cwd)
            walls.append(time.perf_counter() - start)
        self.cwd = cwd
        if hasattr(self.w, "setup_reports"):
            self.expected = {name: file_hash(cwd / rel)
                             for name, rel in self.w.setup_reports().items()}
        return walls, result

    # -- timed calls ---------------------------------------------------------

    def digests(self, k) -> dict[str, str]:
        return {name: file_hash(self.cwd / rel) for name, rel in self.w.reports(k).items()}

    def op(self, k: int, trace: bool) -> dict:
        """One timed operation: each CLI call in its own fresh process."""
        self.attempted += 1
        cache = self.cwd / "cache"
        before = snapshot(cache)
        walls, spans, rss, misses = [], [], [], []
        process = {name: [] for name in PROCESS_LAYERS}
        for argv in self.w.op_calls(self.seed, k):
            res = self.runner.child(self.cwd, [argv], trace)
            walls.append(res["wall_s"])
            if res["error"]:
                misses.append(res["error"])
                break
            rss.append(res["maxrss_kb"])
            spans.append(res.get("spans", []))
            for name, key in PROCESS_LAYERS.items():
                process[name].append(res[key])
        after = snapshot(cache)
        changed = [p for p in after if before.get(p) != after[p]]
        written = sum(after[p][0] for p in after) - sum(before[p][0] for p in before)
        accuracy = None
        if not misses:
            try:
                misses += self.check(k)
                accuracy, floor_misses = self.w.accuracy(self.cwd, k)
                misses += floor_misses
            except (OSError, KeyError, ValueError, IndexError, StopIteration) as exc:
                misses.append(f"unreadable report: {exc!r}")
        summaries = [summarize(s) for s in spans]
        if self.w.warm_cache and (changed or written):
            misses.append(f"warm call wrote to the cache: {len(changed)} files, {written} bytes")
        cache_misses = sum(s["cache"][stage]["misses"] for s in summaries for stage in CACHE_STAGES)
        if self.w.warm_cache and cache_misses:
            misses.append(f"warm call missed the cache {cache_misses} times")
        for m in misses:
            print(f"FAILED op {k}: {m}", file=sys.stderr)
        if misses:
            self.failed += 1
        return {"wall_s": sum(walls), "rss_kb": max(rss, default=0), "spans": spans,
                "summaries": summaries, "process": process,
                "bytes_written": written, "accuracy": accuracy, "ok": not misses}

    def check(self, k) -> list[str]:
        got = self.digests(k)
        misses = []
        if self.expected is None:
            self.expected = got
        elif got != self.expected:
            misses.append(f"reports differ from this run's first reports: {sorted(got)}")
        if self.reference is not None and got != self.reference:
            bad = sorted(n for n in got if got[n] != self.reference.get(n))
            misses.append(f"reports differ from the reference for seed {self.seed}: {bad}")
        return misses

    def loop(self) -> list[dict]:
        """Closed loop: the next operation starts when the previous one ends,
        until `seconds` have passed and at least `min_ops` operations ran."""
        ops, start = [], time.perf_counter()
        while len(ops) < self.w.min_ops or time.perf_counter() - start < self.seconds:
            if ops and self.runner.time_left() < 2.0 * max(o["wall_s"] for o in ops) + 5.0:
                break
            ops.append(self.op(len(ops), trace=False))
        return ops

    # -- the two modes -------------------------------------------------------

    def end_to_end(self) -> dict:
        setup_walls, _ = self.setup(trace=False, repeats=self.w.setup_repeats)
        ops = self.loop()
        ok = [o for o in ops if o["ok"]]
        clips = self.w.clips_per_call(self.cwd) * len(self.w.op_calls(self.seed, 0))
        walls = [o["wall_s"] for o in ops]
        print(f"setup_s samples: {[round(w, 3) for w in setup_walls]}", file=sys.stderr)
        print(f"wall_s samples ({len(walls)}): {[round(w, 3) for w in walls]}", file=sys.stderr)
        return {
            "setup_s": statistics.median(setup_walls),
            "wall_s": statistics.median(walls),
            "clips_per_s": clips * len(ops) / sum(walls),
            "peak_rss_mb": max(o["rss_kb"] for o in ops) / 1024.0,
            "disk_mb": disk_bytes(self.w.stored(self.cwd)) / 1e6,
            "accuracy_pct": statistics.median(o["accuracy"] for o in ok) if ok else 0.0,
        }

    def per_layer(self) -> dict:
        _, setup_result = self.setup(trace=True, repeats=1)
        setup_summary = summarize(setup_result["spans"])
        setup_cache = disk_bytes([self.cwd / "cache"])
        untraced = self.loop()
        traced = self.op(len(untraced), trace=True)
        summaries = traced["summaries"]
        self.save_trace(setup_result["spans"], traced["spans"])

        metrics = {}
        layers = merge_layers(s["layers"] for s in summaries)
        for name, seconds in traced["process"].items():
            layers[name] = {"calls": len(seconds), "self_s": sum(seconds)}
        for name, counters in LAYERS.items():
            entry = layers.get(name, {})
            for counter in counters:
                if counter == "converged_frac":
                    value = entry.get("converged", 0) / entry["calls"] if entry else 0.0
                else:
                    value = entry.get(counter, 0)
                metrics[f"{name}.{counter}"] = value
        for stage in CACHE_STAGES:
            hits = sum(s["cache"][stage]["hits"] for s in summaries)
            misses = sum(s["cache"][stage]["misses"] for s in summaries)
            metrics[f"pipeline.cache.{stage}.hits"] = hits
            metrics[f"pipeline.cache.{stage}.misses"] = misses
            metrics[f"pipeline.cache.{stage}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["pipeline.cache.bytes_written"] = traced["bytes_written"]
        explained = sum(e["self_s"] for n, e in layers.items() if n != "cli.main")
        metrics["trace.coverage"] = explained / traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - statistics.median(
            o["wall_s"] for o in untraced)

        setup_layers = setup_summary["layers"]
        for name, key in PROCESS_LAYERS.items():
            setup_layers[name] = {"calls": 1, "self_s": setup_result[key]}
        for name in LAYERS:
            metrics[f"setup.{name}.self_s"] = setup_layers.get(name, {}).get("self_s", 0.0)
        for name in SETUP_COUNTS:
            layer, _, counter = name.rpartition(".")
            metrics[f"setup.{name}"] = setup_layers.get(layer, {}).get(counter, 0)
        for stage in CACHE_STAGES:
            metrics[f"setup.pipeline.cache.{stage}.misses"] = setup_summary["cache"][stage]["misses"]
        metrics["setup.pipeline.cache.bytes_written"] = setup_cache
        print(f"traced wall_s {traced['wall_s']:.3f}, untraced "
              f"{[round(o['wall_s'], 3) for o in untraced]}", file=sys.stderr)
        return metrics

    def save_trace(self, setup_spans, op_spans) -> None:
        out = STATE / "traces" / f"{self.w.name}-seed{self.seed}.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "run", "counters")
        with open(out, "w") as f:
            for process, spans in enumerate([setup_spans, *op_spans]):
                for span in spans:
                    record = dict(zip(fields, span), process=process)
                    f.write(json.dumps(record) + "\n")
        print(f"spans -> {out}", file=sys.stderr)

    def record_reference(self) -> None:
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        family = refs.setdefault(self.w.family, {})
        if str(self.seed) not in family and self.expected is not None and not self.failed:
            family[str(self.seed)] = self.expected
            REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            print(f"recorded reference digests for {self.w.family} seed {self.seed}",
                  file=sys.stderr)


def merge_layers(summaries) -> dict:
    merged: dict[str, dict] = {}
    for layers in summaries:
        for name, entry in layers.items():
            target = merged.setdefault(name, {})
            for key, value in entry.items():
                target[key] = target.get(key, 0) + value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's report digests in references.json "
                             "when it has none yet")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "sonoclass" / "cli.py").is_file():
        print(f"error: no sonoclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds)
    try:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        if args.record:
            bench.record_reference()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print(f"environment: {json.dumps(bench.runner.env_info)}", file=sys.stderr)
    if bench.reference is None:
        print(f"note: no reference digests for {bench.w.family} seed {args.seed}; "
              "reports were checked against each other only", file=sys.stderr)
    print(f"ops_failed_frac: {bench.failed}/{bench.attempted}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.failed,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
