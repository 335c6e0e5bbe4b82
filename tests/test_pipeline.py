import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sonoclass import cli, cpus, log_gabor, pipeline, svm
from sonoclass.audio_io import generate_corpus
from sonoclass.config import (
    CONFIG_KEYS,
    MAX_ARRAY_VALUES,
    METHODS,
    RunConfig,
    config_from_flat,
    config_to_flat,
    load_config,
    parse_config_text,
)
from sonoclass.errors import ConfigError, SonoclassError
from sonoclass.feature_select import MiSelection
from sonoclass.manifest import (
    DatasetManifest,
    ManifestEntry,
    auto_split,
    read_manifest,
    write_manifest,
)
from sonoclass.model_io import TrainedModel, load_model, save_model
from sonoclass.pipeline import (
    FeatureExtractor,
    compare_methods,
    evaluate_model,
    extract_features,
    train_model,
)
from sonoclass.report import (
    comparison_csv,
    comparison_text,
    evaluation_csv,
    evaluation_text,
    single_grid_csv,
    tabulate_report,
)
from sonoclass.svm import BinarySvmModel, OvoModel
from sonoclass.wavelet_baseline import sample_patches


def entries(spec):
    return tuple(ManifestEntry(*row) for row in spec)


class TestManifest:
    def test_tsv_round_trip(self, tmp_path):
        manifest = DatasetManifest(entries([
            ("a.wav", "dog", "train"), ("b.wav", "dog", "test"), ("c.wav", "cat", ""),
        ]))
        path = tmp_path / "m.tsv"
        write_manifest(path, manifest)
        assert read_manifest(path) == manifest

    def test_json_round_trip(self, tmp_path):
        manifest = DatasetManifest(entries([
            ("a.wav", "dog", "train"), ("b.wav", "cat", "test"),
        ]))
        path = tmp_path / "m.json"
        write_manifest(path, manifest)
        assert read_manifest(path) == manifest

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# header\n\na.wav\tdog\ttrain\n")
        manifest = read_manifest(path)
        assert manifest.entries == entries([("a.wav", "dog", "train")])

    def test_duplicate_paths_rejected(self):
        with pytest.raises(SonoclassError, match="duplicate paths in manifest"):
            DatasetManifest(entries([("a.wav", "x", ""), ("a.wav", "y", "")]))

    def test_bad_split_rejected(self):
        with pytest.raises(SonoclassError, match="bad split 'validation'"):
            DatasetManifest(entries([("a.wav", "x", "validation")]))

    @pytest.mark.parametrize("path, label, message", [
        ("a\tb.wav", "x", r"path 'a\\tb.wav' holds an unprintable character"),
        ("a.wav", "chirp\nx", r"a.wav: label 'chirp\\nx' holds an unprintable character"),
        ("a.wav", "chirp\x07", r"a.wav: label 'chirp\\x07' holds an unprintable character"),
    ])
    def test_unprintable_path_or_label_rejected(self, path, label, message):
        with pytest.raises(SonoclassError, match=f"^{message}$"):
            DatasetManifest(entries([(path, label, "")]))

    def test_classes_sorted(self):
        manifest = DatasetManifest(entries([
            ("a.wav", "zebra", ""), ("b.wav", "ant", ""), ("c.wav", "ant", ""),
        ]))
        assert manifest.classes == ("ant", "zebra")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SonoclassError, match="manifest not found"):
            read_manifest(tmp_path / "nope.tsv")

    @pytest.mark.parametrize("name", ["m.tsv", "m.json"])
    def test_undecodable_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe\n")
        with pytest.raises(SonoclassError, match=f"{name}: 'utf-8' codec can't decode byte 0xff"):
            read_manifest(path)


class TestAutoSplit:
    def make(self, counts):
        rows = []
        for label, n in counts.items():
            rows += [(f"{label}_{i}.wav", label, "") for i in range(n)]
        return DatasetManifest(entries(rows))

    def test_three_items_split_two_one(self):
        split = auto_split(self.make({"a": 3}), seed=0)
        assert len(split.rows("train")) == 2
        assert len(split.rows("test")) == 1

    def test_paper_sized_class(self):
        split = auto_split(self.make({"a": 312}), seed=0)
        assert len(split.rows("train")) == 208
        assert len(split.rows("test")) == 104

    def test_deterministic(self):
        manifest = self.make({"a": 10, "b": 7})
        assert auto_split(manifest, seed=3) == auto_split(manifest, seed=3)

    def test_stratified_per_class(self):
        split = auto_split(self.make({"a": 9, "b": 6}), seed=1)
        for label, n_train in (("a", 6), ("b", 4)):
            rows = [e for e in split.rows("train") if e.label == label]
            assert len(rows) == n_train

    def test_class_too_small(self):
        with pytest.raises(SonoclassError, match="class 'a' has only 2 entries"):
            auto_split(self.make({"a": 2}), seed=0)


class TestConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.method == "bank" and config.frame_size == 256

    def test_parse_and_build(self):
        text = """
        # comment
        method = single
        single.scale = 2
        stft.frame_size = 128
        svm.c = 4.0
        gabor.f0 = 0.25,0.125
        """
        config = config_from_flat(parse_config_text(text))
        assert config.method == "single"
        assert config.single_scale == 2
        assert config.frame_size == 128
        assert config.svm_c == 4.0
        assert config.gabor_f0 == (0.25, 0.125)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("stft.overlap = 192\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_flat({"stft.frame_size": "huge"})

    def test_scales_past_the_float_range_rejected(self):
        # the octave rule's 1025th frequency, (1/3) / 2**1024, has no float
        with pytest.raises(ConfigError, match="^99999999999 scales an octave apart go below"):
            config_from_flat({"gabor.scales": "99999999999"})

    @pytest.mark.parametrize("flat, message", [
        ({"gabor.orientations": "99999999999"}, r"^log-Gabor bank of 2 scales x 99999999999 "
         r"orientations of 128x128 holds 3276799999967232 values, above the cap of 16777216$"),
        ({"fixed.rows": "100000000"},
         r"^fixed grid 100000000x128 holds 12800000000 values, above the cap of 16777216$"),
        ({"gabor.scales": "1", "gabor.orientations": "1", "fixed.rows": "4096",
          "fixed.cols": "4097"}, "^fixed grid 4096x4097 holds 16781312 values"),
        ({"gabor.scales": "4", "gabor.orientations": "4", "fixed.rows": "1024",
          "fixed.cols": "1025"}, "^log-Gabor bank of 4 scales x 4 orientations of 1024x1025 "
         "holds 16793600 values"),
    ], ids=["orientations", "fixed.rows", "grid-above-cap", "bank-above-cap"])
    def test_huge_grid_or_bank_rejected(self, flat, message):
        # only the config is built: no grid or bank is allocated
        with pytest.raises(ConfigError, match=message):
            config_from_flat(flat)

    def test_grid_and_bank_at_the_cap_accepted(self):
        assert MAX_ARRAY_VALUES == 4096 * 4096
        config_from_flat({"gabor.scales": "1", "gabor.orientations": "1",
                          "fixed.rows": "4096", "fixed.cols": "4096"})
        config_from_flat({"gabor.scales": "4", "gabor.orientations": "4",
                          "fixed.rows": "1024", "fixed.cols": "1024"})

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            config_from_flat({"method": "cnn"})

    def test_empty_patch_sizes_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(wavelet_sizes=())
        with pytest.raises(ConfigError):
            config_from_flat({"wavelet.sizes": "4,0"})

    def test_wavelet_sizes_fit_the_largest_c1_plane(self):
        # the scale-1 C1 plane of a 128x64 grid is 64x32
        RunConfig(method="wavelet", fixed_cols=64, wavelet_sizes=(4, 32))
        with pytest.raises(ConfigError, match="at most 32, the side of the largest C1 plane"):
            RunConfig(method="wavelet", fixed_cols=64, wavelet_sizes=(4, 33))
        RunConfig(method="bank", fixed_cols=64, wavelet_sizes=(4, 33))  # unused by bank

    def test_flat_round_trip(self):
        config = RunConfig(method="patches", svm_gamma=0.125, gabor_f0=(0.3, 0.15),
                           wavelet_sizes=(4, 8))
        assert config_from_flat(config_to_flat(config)) == config

    def test_readme_keys_and_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
        # each line holds one or more `key = value` cells, two or more spaces apart
        cells = [cell.partition("=") for line in block.splitlines()
                 for cell in re.split(r"\s{2,}", line.strip())]
        flat = {key.strip(): value.strip() for key, _, value in cells}
        assert set(flat) == set(CONFIG_KEYS)
        assert config_from_flat(flat) == RunConfig()

    def test_load_config_with_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("method = bank\nseed = 3\n")
        config = load_config(path, overrides={"seed": "9"})
        assert config.seed == 9 and config.method == "bank"


class TestExtract:
    def test_cold_compare_builds_one_bank_per_grid(self, mini_corpus, mini_config, tmp_path):
        log_gabor._cached_bank.cache_clear()
        compare_methods(mini_corpus["manifest"], mini_config, cache_dir=tmp_path / "cache")
        # 128x128 for single and bank, 43x128 and 42x128 for the patches bands
        assert log_gabor._cached_bank.cache_info().misses == 3

    def test_bank_dimensions_and_order(self, mini_corpus, mini_config):
        result = extract_features(mini_corpus["manifest"], mini_config,
                                  cache_dir=mini_corpus["cache"])
        assert result.train.values.shape == (16, 128 * 128)
        assert result.test.values.shape == (8, 128 * 128)
        names = mini_corpus["manifest"].classes
        expected = [names.index(e.label) for e in mini_corpus["manifest"].rows("train")]
        assert result.train.labels.tolist() == expected

    def test_wavelet_dimension_is_patch_count(self, mini_corpus, mini_config):
        from dataclasses import replace
        config = replace(mini_config, method="wavelet")
        result = extract_features(mini_corpus["manifest"], config,
                                  cache_dir=mini_corpus["cache"])
        assert result.train.values.shape == (16, config.wavelet_patches)
        assert result.patch_set is not None and len(result.patch_set) == 30

    def test_warm_cache_identical_and_no_recompute(self, mini_corpus, mini_config, tmp_path):
        cold = extract_features(mini_corpus["manifest"], mini_config, cache_dir=tmp_path)
        warm = extract_features(mini_corpus["manifest"], mini_config, cache_dir=tmp_path)
        assert np.array_equal(cold.train.values, warm.train.values)
        assert np.array_equal(cold.test.values, warm.test.values)
        # every stage counts: 24 clips compute a fixed grid and miss feat/
        assert (cold.stats.hits, cold.stats.misses) == (0, 48)
        assert warm.stats.misses == 0
        assert warm.stats.hits == 24

    @pytest.mark.parametrize("stage, damage", [
        pytest.param(stage, damage, id=stage if damage == "npz" else f"{stage}-{damage}")
        for damage in ("npz", "nan", "float32", "short", "long", "v2", "shape")
        for stage in ("c1", "c2", "feat")
    ])
    def test_npz_bytes_in_an_entry_are_recomputed(self, mini_corpus, mini_config, tmp_path, stage,
                                                  damage):
        path = mini_corpus["manifest"].entries[0].path
        content = pipeline._content_hash(path)
        patch_set = sample_patches([FeatureExtractor(mini_config).c1(path)], n_patches=6, seed=0)

        def lookup():
            extractor = FeatureExtractor(mini_config, cache_dir=tmp_path)
            if stage == "c1":
                value = np.concatenate([plane.ravel() for plane in extractor.c1(path)])
            elif stage == "c2":
                value = extractor.c2(path, patch_set)
            else:
                value = extractor.gabor_feature(path)
            return value, extractor.stats

        first, _ = lookup()
        (entry,) = (tmp_path / stage).rglob(f"{content}.npy")
        written = entry.read_bytes()
        with open(entry, "wb") as fh:
            if damage == "npz":
                np.savez(fh, first)  # the right array, but in a zip archive
            elif damage == "nan":
                np.save(fh, np.where(np.arange(first.size) == 0, np.nan, first))
            elif damage == "float32":
                np.save(fh, first.astype(np.float32))
            elif damage == "short":  # the last byte cut off
                fh.write(written[:-1])
            elif damage == "long":  # one trailing byte
                fh.write(written + b"\0")
            elif damage == "v2":  # the right array under a version-2.0 header
                np.lib.format.write_array(fh, first, version=(2, 0))
            else:  # the right bytes under a header for another shape
                np.save(fh, first.reshape(1, -1))
        again, stats = lookup()
        assert np.array_equal(again, first)
        if stage == "c2":
            assert stats.misses == 1
        else:  # recomputed from a new fixed grid
            assert stats.stages == {"fixed": [0, 1], stage: [0, 1]}
        assert entry.read_bytes() == written

    def test_wavelet_warm_cache_identical(self, mini_corpus, mini_config, tmp_path):
        config = replace(mini_config, method="wavelet")
        cold = extract_features(mini_corpus["manifest"], config, cache_dir=tmp_path)
        warm = extract_features(mini_corpus["manifest"], config, cache_dir=tmp_path)
        assert np.array_equal(cold.train.values, warm.train.values)
        assert np.array_equal(cold.test.values, warm.test.values)
        # 24 clips, 16 of them train: a cold run computes C2 once per clip
        assert cold.stats.stages == {"fixed": [0, 24], "c1": [0, 24], "c2": [0, 24]}
        # a warm run reads the train C1 to sample patches, then only C2
        assert warm.stats.stages == {"c1": [16, 0], "c2": [24, 0]}
        assert warm.stats.misses == 0

    def test_c2_entries_are_per_patch_set(self, mini_corpus, mini_config, tmp_path):
        manifest = mini_corpus["manifest"]
        config = replace(mini_config, method="wavelet")
        first = extract_features(manifest, config, cache_dir=tmp_path)
        for other in (replace(config, seed=2), replace(config, wavelet_patches=20)):
            result = extract_features(manifest, other, cache_dir=tmp_path)
            assert result.stats.stages["c2"] == [0, 24]
            uncached = extract_features(manifest, other)
            assert np.array_equal(result.train.values, uncached.train.values)
            assert np.array_equal(result.test.values, uncached.test.values)
        assert len(list((tmp_path / "c2").iterdir())) == 3
        again = extract_features(manifest, config, cache_dir=tmp_path)
        assert again.stats.stages["c2"] == [24, 0]
        assert np.array_equal(again.test.values, first.test.values)

    def test_compare_hashes_each_clip_once(self, mini_corpus, mini_config, monkeypatch):
        hashed = []
        content_hash = pipeline._content_hash

        def counted(path):
            hashed.append(path)
            return content_hash(path)

        monkeypatch.setattr(pipeline, "_content_hash", counted)
        manifest = DatasetManifest(mini_corpus["manifest"].entries)  # an empty memo
        compare_methods(manifest, mini_config, cache_dir=mini_corpus["cache"])
        assert sorted(hashed) == sorted(e.path for e in manifest.entries)

    @pytest.mark.parametrize("where", ["file", "under_a_file"])
    def test_a_cache_dir_that_is_not_a_directory_is_refused(self, mini_config, tmp_path,
                                                            where):
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory\n")
        cache = blocker if where == "file" else blocker / "sub"
        with pytest.raises(SonoclassError, match=f"^cache directory {re.escape(str(cache))} "
                                                 "is not a directory$"):
            FeatureExtractor(mini_config, cache)
        # a path that does not exist yet is made by the first write
        FeatureExtractor(mini_config, tmp_path / "new" / "cache")

    @pytest.mark.parametrize("method", ["bank", "wavelet"])
    def test_no_cache_hashes_no_clip(self, mini_corpus, mini_config, monkeypatch, method):
        def refuse(path):
            raise AssertionError(f"{path} hashed with no cache")

        monkeypatch.setattr(pipeline, "_content_hash", refuse)
        manifest = DatasetManifest(mini_corpus["manifest"].entries)  # an empty memo
        result = extract_features(manifest, replace(mini_config, method=method))
        assert (result.train.n_samples, result.test.n_samples) == (16, 8)
        assert manifest.content_hashes == {}

    @pytest.mark.parametrize("method", ["bank", "wavelet"])
    def test_matrices_are_the_stacked_clip_vectors(self, mini_corpus, mini_config, method):
        config = replace(mini_config, method=method)
        manifest = mini_corpus["manifest"]
        result = extract_features(manifest, config, cache_dir=mini_corpus["cache"])
        extractor = FeatureExtractor(config)
        for split, matrix in (("train", result.train), ("test", result.test)):
            rows = manifest.rows(split)
            if method == "wavelet":
                vectors = [extractor.c2(e.path, result.patch_set) for e in rows]
            else:
                vectors = [extractor.gabor_feature(e.path) for e in rows]
            assert np.array_equal(matrix.values, np.vstack(vectors))

    def test_missing_file_aborts_with_report(self, mini_corpus, mini_config):
        manifest = DatasetManifest(mini_corpus["manifest"].entries + entries([
            ("missing_a.wav", "chirp", "train"), ("missing_b.wav", "chirp", "test"),
        ]))
        with pytest.raises(SonoclassError, match=r"^2 file\(s\) failed") as err:
            extract_features(manifest, mini_config, cache_dir=mini_corpus["cache"])
        assert "missing_a.wav" in str(err.value)
        assert "missing_b.wav" in str(err.value)


def files(root):
    return {p.relative_to(root): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


def rendered(result):
    return single_grid_csv(result), comparison_csv(result), comparison_text(result)


@pytest.fixture(scope="module")
def cold_compare(mini_corpus, mini_config, tmp_path_factory):
    """A cold compare of the mini corpus: its cache directory and its result."""
    cache = tmp_path_factory.mktemp("cold_compare") / "cache"
    manifest = DatasetManifest(mini_corpus["manifest"].entries)
    return cache, compare_methods(manifest, mini_config, cache_dir=cache)


class TestCompareFiltersEachClipOnce:
    def test_cold_compare_writes_the_per_config_entries(self, mini_corpus, mini_config,
                                                        cold_compare, tmp_path):
        singles = [
            replace(mini_config, method="single", single_scale=s, single_orientation=o)
            for s in range(1, mini_config.gabor_scales + 1)
            for o in range(1, mini_config.gabor_orientations + 1)
        ]
        for cfg in singles + [replace(mini_config, method=m) for m in ("bank", "patches")]:
            extract_features(mini_corpus["manifest"], cfg, cache_dir=tmp_path)
        expected = files(tmp_path / "feat")
        assert len(expected) == (len(singles) + 2) * len(mini_corpus["manifest"].entries)
        assert files(cold_compare[0] / "feat") == expected

    def test_warm_compare_filters_nothing_and_writes_nothing(self, mini_corpus, mini_config,
                                                             cold_compare, monkeypatch):
        cache, cold = cold_compare

        def snapshot():  # a directory's mtime moves when a file is added or renamed into it
            return {p: (p.stat().st_mtime_ns, p.is_file() and p.read_bytes())
                    for p in [cache, *cache.rglob("*")]}

        before = snapshot()
        calls = []
        for module, name in ((log_gabor, "apply_filter"), (pipeline, "to_fixed"),
                             (pipeline, "c1_pyramid")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, name=name, fn=fn: calls.append(name) or fn(*args))
        warm = compare_methods(mini_corpus["manifest"], mini_config, cache_dir=cache)
        assert calls == []
        assert snapshot() == before
        assert rendered(warm) == rendered(cold)

    def test_cold_compare_writes_c1_entries_and_no_fixed_grids(self, mini_corpus, mini_config,
                                                               cold_compare, tmp_path):
        cache = cold_compare[0]
        assert sorted(p.name for p in cache.iterdir()) == ["c1", "c2", "feat"]
        extract_features(mini_corpus["manifest"], replace(mini_config, method="wavelet"),
                         cache_dir=tmp_path)
        expected = files(tmp_path / "c1")
        assert len(expected) == len(mini_corpus["manifest"].entries)
        assert files(cache / "c1") == expected

    @pytest.mark.parametrize("damage", ["trunc", "deleted", "deleted-with-bank"])
    def test_truncated_single_entry_is_rewritten(self, mini_corpus, mini_config, cold_compare,
                                                 tmp_path, monkeypatch, damage):
        cache = tmp_path / "cache"
        shutil.copytree(cold_compare[0], cache)
        content = pipeline._content_hash(mini_corpus["manifest"].rows("test")[0].path)
        configs = [replace(mini_config, method="single", single_scale=2, single_orientation=3)]
        if damage == "deleted-with-bank":
            configs.append(replace(mini_config, method="bank"))
        entries = [FeatureExtractor(cfg, cache).grid_entry(content) for cfg in configs]
        written = [entry.read_bytes() for entry in entries]
        for entry, data in zip(entries, written):
            if damage == "trunc":  # left to the read-and-check of train or evaluate
                entry.write_bytes(data[:100])
            else:  # written again by compare's fill
                entry.unlink()
        filtered = []
        apply_filter = log_gabor.apply_filter
        monkeypatch.setattr(log_gabor, "apply_filter", lambda values, masks:
                            filtered.append(masks.shape) or apply_filter(values, masks))
        compare_methods(mini_corpus["manifest"], mini_config, cache_dir=cache)
        assert [entry.read_bytes() for entry in entries] == written
        # a lone single entry filters one mask; with the bank entry, one whole-bank stack
        bank = log_gabor.build_bank((128, 128), mini_config.gabor_params())
        assert filtered == [bank.masks.shape if len(entries) == 2 else (128, 128)]

    def test_cold_compare_makes_each_fixed_grid_once(self, mini_corpus, mini_config,
                                                     cold_compare, tmp_path, monkeypatch):
        made = []
        to_fixed = pipeline.to_fixed
        monkeypatch.setattr(pipeline, "to_fixed", lambda *args: made.append(1) or to_fixed(*args))
        manifest = DatasetManifest(mini_corpus["manifest"].entries)
        result = compare_methods(manifest, mini_config, cache_dir=tmp_path / "cache")
        assert len(made) == len(manifest.entries)
        assert rendered(result) == rendered(cold_compare[1])

    def test_compare_without_cache_matches_cached(self, mini_corpus, mini_config, cold_compare):
        manifest = DatasetManifest(mini_corpus["manifest"].entries)
        assert rendered(compare_methods(manifest, mini_config)) == rendered(cold_compare[1])


def fill_configs(config):
    """The configurations compare fills its cache for."""
    singles = [replace(config, method="single", single_scale=s, single_orientation=o)
               for s in range(1, config.gabor_scales + 1)
               for o in range(1, config.gabor_orientations + 1)]
    return singles + [replace(config, method=m) for m in ("bank", "patches", "wavelet")]


def use_cpus(monkeypatch, n):
    """n CPUs in the affinity mask, as cpus.worker_count sees it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def spy_thread_starts(monkeypatch) -> list:
    """The list every thread started from now on is appended to."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    return started


class TestCollect:
    """collect's one task per entry, on the calling thread or mapped over
    cpus.run_each."""

    @staticmethod
    def rows(n):
        return entries([(f"clip_{i}.wav", "chirp", "train") for i in range(n)])

    def test_unmapped_runs_on_the_calling_thread(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        started = spy_thread_starts(monkeypatch)
        caller = threading.get_ident()
        assert pipeline.collect(self.rows(4), lambda e: (e.path, threading.get_ident())) == [
            (f"clip_{i}.wav", caller) for i in range(4)]
        assert started == []

    @pytest.mark.parametrize("n_cpus, n_rows", [(1, 5), (2, 5), (4, 5), (4, 3)])
    def test_mapped_starts_one_thread_per_worker_but_the_caller(self, monkeypatch, n_cpus,
                                                                 n_rows):
        use_cpus(monkeypatch, n_cpus)
        started = spy_thread_starts(monkeypatch)
        rows = self.rows(n_rows)
        assert pipeline.collect(rows, lambda e: e.path, mapped=True) == [e.path for e in rows]
        assert len(started) == cpus.worker_count(n_rows) - 1 == min(n_cpus, n_rows) - 1

    def test_an_empty_mapped_list_starts_no_thread(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        started = spy_thread_starts(monkeypatch)
        assert pipeline.collect([], lambda e: 1 / 0, mapped=True) == []
        assert started == []

    @pytest.mark.parametrize("mapped", [False, True])
    def test_every_failure_is_listed_once_in_entry_order(self, monkeypatch, mapped):
        use_cpus(monkeypatch, 2)
        rows = self.rows(7)
        ran = []

        def fn(e):
            ran.append(e.path)
            if e.path in ("clip_1.wav", "clip_6.wav"):
                raise SonoclassError("bad data")
            if e.path == "clip_2.wav":
                raise FileNotFoundError("gone")
            return e.path

        with pytest.raises(SonoclassError) as err:
            pipeline.collect(rows, fn, mapped)
        assert str(err.value) == ("3 file(s) failed:\nclip_1.wav: bad data\n"
                                  "clip_2.wav: gone\nclip_6.wav: bad data")
        assert sorted(ran) == [e.path for e in rows]  # a failure stops no other entry


class TestParallelFill:
    """compare's cold cache fill, one clip task per manifest row, mapped
    by collect; the tests that do not set the worker count get one per
    CPU in the affinity mask, so `taskset -c 0` runs them serially."""

    def test_two_workers_write_the_one_worker_and_per_config_bytes(
            self, mini_corpus, mini_config, tmp_path, monkeypatch):
        manifest = DatasetManifest(mini_corpus["manifest"].entries)
        configs = fill_configs(mini_config)
        threads = set()
        to_fixed = pipeline.to_fixed
        monkeypatch.setattr(pipeline, "to_fixed", lambda *args: threads.add(
            threading.get_ident()) or to_fixed(*args))
        fills = {}
        for workers in (1, 2):
            threads.clear()
            monkeypatch.setattr(cpus, "worker_count", lambda n_tasks, w=workers: min(w, n_tasks))
            pipeline._extract_each_clip_once(manifest, configs, tmp_path / f"fill{workers}")
            assert len(threads) == workers
            fills[workers] = files(tmp_path / f"fill{workers}")
        assert fills[2] == fills[1]
        for cfg in configs:
            extract_features(manifest, cfg, cache_dir=tmp_path / "each")
        each = {path: data for path, data in files(tmp_path / "each").items()
                if path.parts[0] != "c2"}
        assert len(each) == len(configs) * len(manifest.entries)
        assert fills[2] == each

    def test_four_workers_switching_often_build_each_bank_once(
            self, mini_corpus, mini_config, cold_compare, tmp_path, monkeypatch):
        monkeypatch.setattr(cpus, "worker_count", lambda n_tasks: min(4, n_tasks))
        log_gabor._cached_bank.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pipeline._extract_each_clip_once(mini_corpus["manifest"], fill_configs(mini_config),
                                             tmp_path / "cache")
        finally:
            sys.setswitchinterval(interval)
        # 128x128 for single and bank, 43x128 and 42x128 for the patches bands
        assert log_gabor._cached_bank.cache_info().misses == 3
        assert files(tmp_path / "cache") == {
            path: data for path, data in files(cold_compare[0]).items() if path.parts[0] != "c2"}

    def test_failing_clips_are_each_listed_once(self, mini_corpus, mini_config, tmp_path):
        good = mini_corpus["manifest"].entries[:5]
        corrupt = [tmp_path / "corrupt_a.wav", tmp_path / "corrupt_b.wav"]  # one content
        for path in corrupt:
            path.write_bytes(b"RIFF\x04\x00\x00\x00WAVX")
        missing = tmp_path / "missing.wav"
        failing = [str(corrupt[0]), str(missing), str(corrupt[1])]
        manifest = DatasetManifest(good + entries([
            (failing[0], "chirp", "train"), (failing[1], "chirp", "test"),
            (failing[2], "chirp", "train"),
        ]))
        cache = tmp_path / "cache"
        with pytest.raises(SonoclassError, match=r"^3 file\(s\) failed:\n") as err:
            pipeline._extract_each_clip_once(manifest, fill_configs(mini_config), cache)
        listed = str(err.value).splitlines()[1:]
        assert [line.split(": ")[0] for line in listed] == [
            e.path for e in manifest.rows("train") + manifest.rows("test") if e.path in failing]
        assert listed[0].endswith("not a RIFF/WAVE file")
        assert not list(cache.rglob("*.tmp"))
        # the good clips' entries are all written
        assert len(files(cache)) == len(fill_configs(mini_config)) * len(good)

    def test_a_repeated_clip_writes_one_set_of_entries(self, mini_corpus, mini_config,
                                                       tmp_path, monkeypatch):
        rows = mini_corpus["manifest"].rows("train")[:4]
        copy = tmp_path / "copy.wav"
        copy.write_bytes(Path(rows[0].path).read_bytes())
        # the copy comes second, so two of the four workers take both at once
        manifest = DatasetManifest(rows[:1] + entries([(str(copy), rows[0].label, "train")])
                                   + rows[1:])
        monkeypatch.setattr(cpus, "worker_count", lambda n_tasks: min(4, n_tasks))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pipeline._extract_each_clip_once(manifest, fill_configs(mini_config),
                                             tmp_path / "cache")
        finally:
            sys.setswitchinterval(interval)
        pipeline._extract_each_clip_once(DatasetManifest(rows), fill_configs(mini_config),
                                         tmp_path / "no_copy")
        assert len(files(tmp_path / "cache")) == len(fill_configs(mini_config)) * len(rows)
        assert files(tmp_path / "cache") == files(tmp_path / "no_copy")

    def test_a_copy_filled_after_its_twin_makes_no_fixed_grid(self, mini_corpus, mini_config,
                                                             tmp_path, monkeypatch):
        rows = mini_corpus["manifest"].rows("train")[:4]
        copy = tmp_path / "copy.wav"
        copy.write_bytes(Path(rows[0].path).read_bytes())
        manifest = DatasetManifest(rows[:1] + entries([(str(copy), rows[0].label, "train")])
                                   + rows[1:])
        # one worker: the copy's task starts after its twin's has written every entry
        monkeypatch.setattr(cpus, "worker_count", lambda n_tasks: min(1, n_tasks))
        made = []
        to_fixed = pipeline.to_fixed
        monkeypatch.setattr(pipeline, "to_fixed", lambda *args: made.append(1) or to_fixed(*args))
        pipeline._extract_each_clip_once(manifest, fill_configs(mini_config), tmp_path / "cache")
        assert len(made) == len(rows)
        pipeline._extract_each_clip_once(DatasetManifest(rows), fill_configs(mini_config),
                                         tmp_path / "no_copy")
        assert files(tmp_path / "cache") == files(tmp_path / "no_copy")

    def test_warm_compare_fill_starts_no_thread(self, mini_corpus, mini_config, cold_compare,
                                                monkeypatch):
        monkeypatch.setattr(cpus, "worker_count", lambda n_tasks: min(2, n_tasks))
        started = spy_thread_starts(monkeypatch)
        pipeline._extract_each_clip_once(mini_corpus["manifest"], fill_configs(mini_config),
                                         cold_compare[0])
        assert started == []


class TestParallelExtract:
    """extract_features' clip tasks on cpus.run_each: mapped without a cache
    directory, serial with one but for the C2 pass of a wavelet train
    extraction. The tests that do not set the CPU count get one worker per
    CPU in the affinity mask, so `taskset -c 0` runs them serially."""

    @pytest.mark.parametrize("method", ["bank", "wavelet"])
    def test_matrices_are_the_same_bytes_on_one_two_and_four_workers(
            self, mini_corpus, mini_config, monkeypatch, method):
        config = replace(mini_config, method=method)
        started = spy_thread_starts(monkeypatch)
        n = len(mini_corpus["manifest"].entries)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for workers in (1, 2, 4):
                use_cpus(monkeypatch, workers)
                started.clear()
                manifest = DatasetManifest(mini_corpus["manifest"].entries)
                results[workers] = extract_features(manifest, config)
                # bank maps its clips; wavelet maps the train C1 pyramids, then
                # the clips, whose S2 runs on the task's worker alone
                assert len(started) == (workers - 1) * (2 if method == "wavelet" else 1)
        finally:
            sys.setswitchinterval(interval)
        for result in results.values():
            # each clip's C1 once: a train row's to sample patches, a test row's in its C2
            assert result.stats.stages == ({"fixed": [0, n], "c1": [0, n], "c2": [0, n]}
                                           if method == "wavelet" else
                                           {"fixed": [0, n], "feat": [0, n]})
        for workers in (2, 4):
            for split in ("train", "test"):
                one, many = getattr(results[1], split), getattr(results[workers], split)
                assert one.values.tobytes() == many.values.tobytes()
                assert np.array_equal(one.labels, many.labels)
        if method == "wavelet":
            assert results[4].patch_set.digest == results[1].patch_set.digest

    def test_failing_clips_in_the_middle_are_each_listed_once_in_row_order(
            self, mini_corpus, mini_config, tmp_path):
        rows = mini_corpus["manifest"].entries
        corrupt = tmp_path / "corrupt.wav"
        corrupt.write_bytes(b"RIFF\x04\x00\x00\x00WAVX")
        failing = entries([(str(corrupt), "chirp", "test"),
                           (str(tmp_path / "missing_a.wav"), "chirp", "train"),
                           (str(tmp_path / "missing_b.wav"), "chirp", "test")])
        manifest = DatasetManifest(rows[:3] + failing[:1] + rows[3:9] + failing[1:] + rows[9:])
        before = set(threading.enumerate())
        with pytest.raises(SonoclassError, match=r"^3 file\(s\) failed:\n") as err:
            extract_features(manifest, mini_config)
        assert set(threading.enumerate()) == before
        listed = [line.split(": ")[0] for line in str(err.value).splitlines()[1:]]
        paths = {e.path for e in failing}
        assert listed == [e.path for e in manifest.rows("train") + manifest.rows("test")
                          if e.path in paths]

    @pytest.mark.parametrize("method", ["bank", "wavelet"])
    def test_warm_extraction_starts_no_thread(self, mini_corpus, mini_config, tmp_path,
                                              monkeypatch, method):
        config = replace(mini_config, method=method)
        use_cpus(monkeypatch, 2)
        started = spy_thread_starts(monkeypatch)
        cold = extract_features(mini_corpus["manifest"], config, cache_dir=tmp_path)
        # a cold cached run of both splits maps no clip, and nothing inside a
        # clip starts a thread
        assert started == []
        warm = extract_features(mini_corpus["manifest"], config, cache_dir=tmp_path)
        assert started == []
        assert warm.stats.misses == 0
        assert warm.train.values.tobytes() == cold.train.values.tobytes()
        assert warm.test.values.tobytes() == cold.test.values.tobytes()

    def test_cached_train_c2_pass_maps_its_clips(self, mini_corpus, mini_config, tmp_path,
                                                 monkeypatch):
        config = replace(mini_config, method="wavelet")
        started = spy_thread_starts(monkeypatch)
        results = {}
        for workers in (1, 2):
            use_cpus(monkeypatch, workers)
            for run in ("cold", "warm"):
                started.clear()
                results[workers, run] = extract_features(
                    mini_corpus["manifest"], config, cache_dir=tmp_path / str(workers),
                    splits=("train",))
                # the C1 pass reads the cache serially, the C2 pass maps its clips
                assert len(started) == workers - 1
        assert files(tmp_path / "2") == files(tmp_path / "1")
        expected = results[1, "cold"].train.values.tobytes()
        assert all(result.train.values.tobytes() == expected for result in results.values())
        assert results[2, "warm"].stats.misses == 0


class TestWriteCache:
    def test_makes_the_stage_directory_and_leaves_only_the_entry(self, tmp_path):
        entry = tmp_path / "feat" / "abc" / "clip.npy"
        pipeline._write_cache(entry, np.arange(3.0))
        pipeline._write_cache(entry, np.arange(4.0))  # into the directory it made
        assert list(entry.parent.iterdir()) == [entry]
        assert np.array_equal(np.load(entry), np.arange(4.0))

    def test_a_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        entry = tmp_path / "feat" / "clip.npy"
        pipeline._write_cache(entry, np.arange(3.0))

        def fail(fh, array):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.np, "save", fail)
        with pytest.raises(OSError, match="disk full"):
            pipeline._write_cache(entry, np.arange(4.0))
        assert list(entry.parent.iterdir()) == [entry]
        assert np.array_equal(np.load(entry), np.arange(3.0))


# Runs the sonoclass CLI with its argv[3:] and ends the process with
# os._exit(9) at the argv[2]-th cache write: "rename" exits in place of that
# write's os.replace, "write" after saving half of its bytes.
CRASH_CHILD = """
import io, itertools, os, sys
from sonoclass import cli, pipeline

kind, k = sys.argv[1], int(sys.argv[2])
calls = itertools.count(1)  # next() is atomic, so the fill's threads count exactly
replace, save = pipeline.os.replace, pipeline.np.save

def replace_or_die(src, dst):
    if kind == "rename" and next(calls) == k:
        os._exit(9)
    replace(src, dst)

def save_or_die(fh, array):
    if kind == "write" and next(calls) == k:
        buf = io.BytesIO()
        save(buf, array)
        data = buf.getvalue()
        fh.write(data[:len(data) // 2])
        fh.flush()
        os._exit(9)
    save(fh, array)

pipeline.os.replace, pipeline.np.save = replace_or_die, save_or_die
sys.exit(cli.main(sys.argv[3:]))
"""


def entry_files(root):
    """Every file under root but the orphan temp files of a crashed run."""
    return {path: data for path, data in files(root).items() if path.suffix != ".tmp"}


@pytest.fixture(scope="module")
def clean(mini_corpus, tmp_path_factory):
    """The flags of a compare of the mini corpus, a clean cold run's cache
    and reports, and the number of cache writes it made."""
    root = tmp_path_factory.mktemp("crash")
    write_manifest(root / "manifest.tsv", mini_corpus["manifest"])
    (root / "run.cfg").write_text("wavelet.patches = 30\n")
    flags = ["--manifest", str(root / "manifest.tsv"), "--config", str(root / "run.cfg"),
             "--top-k", "32", "--c", "8", "--gamma", "0.5", "--seed", "1"]
    writes = []
    save = np.save
    np.save = lambda fh, array: writes.append(fh) or save(fh, array)
    try:
        rc = cli.main(["compare", *flags, "--cache-dir", str(root / "cache"),
                       "--out", str(root / "out")])
    finally:
        np.save = save
    assert rc == 0
    return flags, entry_files(root / "cache"), files(root / "out"), len(writes)


class TestCrashedCompare:
    """A cold compare killed at one of its cache writes leaves only whole
    entries, and a rerun on that cache completes it byte for byte."""

    @pytest.mark.parametrize("kind, at", [
        ("rename", "first"), ("rename", "middle"), ("rename", "last but one"),
        ("write", "middle"),
    ])
    def test_a_rerun_completes_the_cache_of_a_killed_cold_compare(
            self, clean, tmp_path, src_env, kind, at):
        flags, entries, reports, n_writes = clean
        k = {"first": 1, "middle": n_writes // 2, "last but one": n_writes - 1}[at]
        cache, out = tmp_path / "cache", tmp_path / "out"
        t0 = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", CRASH_CHILD, kind, str(k), "compare", *flags,
             "--cache-dir", str(cache), "--out", str(out)],
            capture_output=True, text=True, env=src_env(), timeout=30,
        )
        assert child.returncode == 9, child.stderr
        left = entry_files(cache)
        # at most the writes before the k-th, each one whole
        assert len(left) < k
        assert all(entries.get(path) == data for path, data in left.items())
        assert not out.exists()
        assert cli.main(["compare", *flags, "--cache-dir", str(cache), "--out", str(out)]) == 0
        assert entry_files(cache) == entries
        assert files(out) == reports
        assert time.perf_counter() - t0 < 30.0


class TestConcurrentCompare:
    def test_two_cold_compares_on_one_cache_write_a_clean_runs_bytes(self, clean, tmp_path,
                                                                     src_env):
        """Two cold compares started together on one cache both read entries
        the other may be writing, and both end with a clean run's bytes."""
        flags, entries, reports, _ = clean
        cache = tmp_path / "cache"
        t0 = time.perf_counter()
        children = [subprocess.Popen(
            [sys.executable, "-m", "sonoclass.cli", "compare", *flags,
             "--cache-dir", str(cache), "--out", str(tmp_path / f"out{i}")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=src_env(),
        ) for i in range(2)]
        try:
            errors = [child.communicate(timeout=30)[1] for child in children]
        finally:
            for child in children:
                child.kill()
                child.wait()
        assert [child.returncode for child in children] == [0, 0], errors
        assert files(cache) == entries  # whole entries, and no orphan temp file
        assert files(tmp_path / "out0") == files(tmp_path / "out1") == reports
        assert time.perf_counter() - t0 < 30.0


class TestCompareOneSolve:
    def test_each_report_is_train_and_evaluate_alone(self, mini_corpus, mini_config,
                                                     monkeypatch):
        """With two train rows of one class dropped, pair problems of 6 and
        8 rows pad together in compare's one solve of all 90 pair problems,
        and each configuration's report is the one train_model and
        evaluate_model give it alone."""
        manifest = mini_corpus["manifest"]
        dropped = [e for e in manifest.rows("train") if e.label == "chirp"][:2]
        manifest = DatasetManifest(tuple(e for e in manifest.entries if e not in dropped))
        assert [e.label for e in manifest.rows("train")].count("chirp") == 2
        cache = mini_corpus["cache"]
        calls, solve = [], svm._solve_batch
        monkeypatch.setattr(svm, "_solve_batch",
                            lambda groups, *a: calls.append(len(groups)) or solve(groups, *a))
        result = compare_methods(manifest, mini_config, cache_dir=cache)
        assert calls == [90]
        got = ([report for _, _, report in result.grid_reports]
               + [result.method_reports[m] for m in ("bank", "patches", "wavelet")])
        for cfg, report in zip(fill_configs(mini_config), got, strict=True):
            want = evaluate_model(train_model(manifest, cfg, cache), manifest, cache)
            assert report.confusion.tobytes() == want.confusion.tobytes()
            assert report == replace(want, confusion=report.confusion)  # every other field
        assert len(calls) == 1 + len(got)  # and one solve per train_model


def test_unconverged_compare_warns_once_with_the_count(mini_corpus, mini_config, cold_compare):
    config = replace(mini_config, svm_max_passes=1)
    with pytest.warns(RuntimeWarning) as record:
        compare_methods(mini_corpus["manifest"], config, cache_dir=cold_compare[0])
    # 15 models x 6 pairs of 4 classes; 88 do not converge within one step per row
    assert [str(w.message) for w in record] == ["88 of 90 pair solves did not converge"]


class TestTrainEvaluate:
    def test_two_class_model(self, mini_corpus, mini_config, tmp_path):
        keep = {"chirp", "impulse_train"}
        manifest = DatasetManifest(tuple(
            e for e in mini_corpus["manifest"].entries if e.label in keep
        ))
        model = train_model(manifest, mini_config, cache_dir=mini_corpus["cache"])
        assert len(model.ovo.pair_models) == 1
        assert model.class_names == ("chirp", "impulse_train")

    def test_retrain_byte_identical(self, mini_corpus, mini_config, tmp_path):
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_model(p1, train_model(mini_corpus["manifest"], mini_config,
                                   cache_dir=mini_corpus["cache"]))
        save_model(p2, train_model(mini_corpus["manifest"], mini_config,
                                   cache_dir=mini_corpus["cache"]))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("method", METHODS)
    def test_model_round_trip(self, mini_corpus, mini_config, tmp_path, method):
        config = replace(mini_config, method=method)
        model = train_model(mini_corpus["manifest"], config, cache_dir=mini_corpus["cache"])
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(first, model)
        loaded = load_model(first)
        save_model(second, loaded)
        assert loaded.config == config
        assert second.read_bytes() == first.read_bytes()
        fresh, reread = (evaluate_model(m, mini_corpus["manifest"], cache_dir=mini_corpus["cache"])
                         for m in (model, loaded))
        assert np.array_equal(fresh.confusion, reread.confusion)
        assert evaluation_text(fresh) == evaluation_text(reread)
        assert evaluation_csv(fresh) == evaluation_csv(reread)
        assert "timings" not in evaluation_text(fresh)

    def test_evaluate_report_consistency(self, mini_corpus, mini_config):
        model = train_model(mini_corpus["manifest"], mini_config,
                            cache_dir=mini_corpus["cache"])
        report = evaluate_model(model, mini_corpus["manifest"],
                                cache_dir=mini_corpus["cache"])
        assert report.confusion.sum() == report.n_test == 8
        for i, name in enumerate(report.class_names):
            assert report.confusion[i].sum() == 2
        assert report.averaged_accuracy == pytest.approx(
            np.mean(list(report.per_class_accuracy.values())), abs=1e-9
        )

    def test_wavelet_evaluate_reuses_stored_patches(self, mini_corpus, mini_config,
                                                    tmp_path):
        from dataclasses import replace
        config = replace(mini_config, method="wavelet")
        model = train_model(mini_corpus["manifest"], config,
                            cache_dir=mini_corpus["cache"])
        path = tmp_path / "w.txt"
        save_model(path, model)
        loaded = load_model(path)
        report_a = evaluate_model(model, mini_corpus["manifest"],
                                  cache_dir=mini_corpus["cache"])
        report_b = evaluate_model(loaded, mini_corpus["manifest"],
                                  cache_dir=mini_corpus["cache"])
        assert np.array_equal(report_a.confusion, report_b.confusion)

    def test_unknown_test_label_rejected(self, mini_corpus, mini_config):
        model = train_model(mini_corpus["manifest"], mini_config,
                            cache_dir=mini_corpus["cache"])
        bogus = DatasetManifest(entries([("x.wav", "whale", "test")]))
        with pytest.raises(SonoclassError, match=r"labels not in the model: \['whale'\]"):
            evaluate_model(model, bogus, cache_dir=mini_corpus["cache"])

    def test_wavelet_model_without_patches_rejected(self, mini_corpus, mini_config):
        from dataclasses import replace as dc_replace
        config = dc_replace(mini_config, method="wavelet")
        model = train_model(mini_corpus["manifest"], config,
                            cache_dir=mini_corpus["cache"])
        with pytest.raises(SonoclassError, match="wavelet model carries no patch set"):
            TrainedModel(
                ovo=model.ovo, config=model.config,
                class_names=model.class_names, patch_set=None,
            )

    def test_constant_classifier_scores_25_percent(self, mini_corpus, mini_config):
        # rig every pair model to vote for its lower class: class 0 always wins
        classes = mini_corpus["manifest"].classes
        d = 128 * 128
        pair_models = {
            (a, b): BinarySvmModel(
                support_vectors=np.zeros((0, d)), dual_coef=np.zeros(0),
                bias=1.0, params=mini_config.kernel_params(),
            )
            for a in range(4) for b in range(a + 1, 4)
        }
        ovo = OvoModel(classes=tuple(range(4)), pair_models=pair_models,
                       scaler=(np.zeros(d), np.ones(d)))
        model = TrainedModel(
            ovo=ovo, config=mini_config, class_names=classes,
            selection=MiSelection(selected=np.arange(d), scores=np.zeros(d), n_features=d),
        )
        report = evaluate_model(model, mini_corpus["manifest"],
                                cache_dir=mini_corpus["cache"])
        assert report.averaged_accuracy == pytest.approx(25.0)
        assert report.sample_weighted_accuracy == pytest.approx(25.0)
        assert np.all(report.confusion[:, 0].sum() == report.n_test)

    def test_perfect_classifier_report(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        report = tabulate_report(truth, truth.copy(), ("a", "b", "c"))
        assert all(v == 100.0 for v in report.per_class_accuracy.values())
        assert report.averaged_accuracy == 100.0
        assert report.sample_weighted_accuracy == 100.0
        assert np.array_equal(report.confusion, np.diag([2, 2, 2]))

    def test_class_without_test_clips_has_no_accuracy_line(self):
        truth = np.array([0, 0, 2, 2])
        report = tabulate_report(truth, np.array([0, 1, 2, 2]), ("a", "b", "c"))
        assert list(report.per_class_accuracy) == ["a", "c"]
        lines = evaluation_text(report).splitlines()
        assert lines[2:6] == ["class  correct/total  accuracy",
                              "a     1/2         50.00%",
                              "c     2/2        100.00%",
                              ""]
        assert "b       0      0      0" in lines  # b keeps its confusion row

    def test_constant_predictions_on_equal_classes(self):
        truth = np.repeat(np.arange(4), 5)
        predicted = np.zeros(20, dtype=np.int64)
        report = tabulate_report(truth, predicted, ("a", "b", "c", "d"))
        assert report.averaged_accuracy == pytest.approx(25.0)
        assert report.confusion[:, 0].sum() == 20

    def test_csv_report_has_no_timing_fields(self, mini_corpus, mini_config):
        model = train_model(mini_corpus["manifest"], mini_config,
                            cache_dir=mini_corpus["cache"])
        report = evaluate_model(model, mini_corpus["manifest"],
                                cache_dir=mini_corpus["cache"])
        text = evaluation_csv(report)
        assert "time" not in text and "_s," not in text
        assert text.startswith("kind,truth,predicted,value\n")


class TestGenerateCorpus:
    def test_corpus_regeneration_identical(self, tmp_path):
        m1 = generate_corpus(tmp_path / "c1", clips_per_class=2,
                             duration_s=0.1, sample_rate=8000, seed=4)
        m2 = generate_corpus(tmp_path / "c2", clips_per_class=2,
                             duration_s=0.1, sample_rate=8000, seed=4)
        for e1, e2 in zip(m1.entries, m2.entries):
            assert Path(e1.path).read_bytes() == Path(e2.path).read_bytes()
        assert m1.classes == ("chirp", "harmonic_tone", "impulse_train", "noise_burst")
