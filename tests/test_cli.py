import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_wav_bytes
from sonoclass import cli, cpus, pipeline
from sonoclass.manifest import DatasetManifest, ManifestEntry, read_manifest, write_manifest
from sonoclass.model_io import MODEL_HEADER, load_model, save_model


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A tiny corpus driven entirely through the CLI."""
    root = tmp_path_factory.mktemp("cli_corpus")
    out = root / "clips"
    rc = cli.main([
        "synth", "--out", str(out), "--clips-per-class", "4",
        "--duration", "0.25", "--sample-rate", "8000", "--seed", "3",
    ])
    assert rc == 0
    split_path = root / "split.tsv"
    rc = cli.main([
        "split", "--manifest", str(out / "manifest.tsv"),
        "--out", str(split_path), "--seed", "1",
    ])
    assert rc == 0
    return {"root": root, "manifest": split_path, "cache": str(root / "cache")}


class TestSynthAndSplit:
    def test_corpus_files_exist(self, corpus):
        manifest = read_manifest(corpus["manifest"])
        assert len(manifest.entries) == 16
        assert len(manifest.rows("train")) == 12  # ceil(2/3 * 4) = 3 per class
        assert len(manifest.rows("test")) == 4
        for e in manifest.entries[:3]:
            assert Path(e.path).read_bytes()[:4] == b"RIFF"

    def test_split_requires_three_per_class(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a.wav\tx\nb.wav\tx\n")
        rc = cli.main(["split", "--manifest", str(bad), "--out", str(tmp_path / "o.tsv")])
        assert rc == cli.EXIT_DATA

    @pytest.mark.parametrize("command", ["synth", "split"])
    def test_negative_seed_is_config_error(self, corpus, tmp_path, capsys, command):
        where = ["--out", str(tmp_path / "clips")] if command == "synth" else [
            "--manifest", str(corpus["root"] / "clips" / "manifest.tsv"),
            "--out", str(tmp_path / "split.tsv"),
        ]
        rc = cli.main([command, *where, "--seed", "-1"])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == "config error: seed must be at least 0, got -1\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value", [
        ("--duration", "inf"), ("--clips-per-class", "0"), ("--clips-per-class", "-1"),
        ("--duration", "1e-9"), ("--sample-rate", "0"),
    ])
    def test_bad_synth_argument_is_config_error(self, tmp_path, capsys, flag, value):
        rc = cli.main(["synth", "--out", str(tmp_path / "clips"), flag, value])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("fraction", ["nan", "inf", "0", "-0.5", "1.5"])
    def test_bad_train_fraction_is_config_error(self, corpus, tmp_path, capsys, fraction):
        rc = cli.main([
            "split", "--manifest", str(corpus["root"] / "clips" / "manifest.tsv"),
            "--out", str(tmp_path / "split.tsv"), "--train-fraction", fraction,
        ])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: train fraction must lie in (0, 1]")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())


class TestExtract:
    def test_writes_npz_and_dumps(self, corpus, tmp_path):
        out = tmp_path / "features.npz"
        masks = tmp_path / "masks"
        rc = cli.main([
            "extract", "--manifest", str(corpus["manifest"]),
            "--method", "bank", "--seed", "1", "--cache-dir", corpus["cache"],
            "--out", str(out), "--dump-masks", str(masks),
        ])
        assert rc == 0
        with np.load(out, allow_pickle=False) as data:
            assert data["train_values"].shape == (12, 16384)
            assert data["test_values"].shape == (4, 16384)
        mask_files = sorted(p.name for p in masks.glob("*.csv"))
        assert len(mask_files) == 12
        grid = np.loadtxt(masks / mask_files[0], delimiter=",")
        assert grid.shape == (128, 128)

    def test_no_cache_counts_are_exact_on_two_workers(self, corpus, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            rc = cli.main(["extract", "--manifest", str(corpus["manifest"]), "--method", "bank"])
        finally:
            sys.setswitchinterval(interval)
        assert rc == 0
        assert len(started) == 1  # the clips ran on two workers
        n = len(read_manifest(corpus["manifest"]).entries)
        lines = capsys.readouterr().out.splitlines()
        assert f"cache fixed: 0 hits, {n} misses" in lines
        assert f"cache feat: 0 hits, {n} misses" in lines
        assert f"cache: 0 hits, {2 * n} misses" in lines

    def test_dump_spectrograms(self, corpus, tmp_path):
        target = tmp_path / "specs"
        rc = cli.main([
            "extract", "--manifest", str(corpus["manifest"]),
            "--cache-dir", corpus["cache"], "--dump-spectrograms", str(target),
        ])
        assert rc == 0
        files = list(target.glob("*.csv"))
        assert len(files) == 16
        spec = np.loadtxt(files[0], delimiter=",")
        assert spec.shape[0] == 129  # one row per frequency bin

    def test_dump_spectrograms_rejects_a_repeated_stem(self, corpus, tmp_path, capsys):
        # dog/0.wav and rain/0.wav would both be written to 0.csv
        clips = [e.path for e in read_manifest(corpus["manifest"]).entries[:6]]
        lines = []
        for i, clip in enumerate(clips):
            label = ("dog", "rain")[i // 3]
            path = tmp_path / label / f"{i % 3}.wav"
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(Path(clip).read_bytes())
            lines.append(f"{path}\t{label}")
        manifest = tmp_path / "m.tsv"
        manifest.write_text("\n".join(lines) + "\n")
        target = tmp_path / "specs"
        rc = cli.main(["extract", "--manifest", str(manifest), "--dump-spectrograms", str(target)])
        assert rc == cli.EXIT_DATA
        first, second = tmp_path / "dog" / "0.wav", tmp_path / "rain" / "0.wav"
        assert capsys.readouterr().err == f"error: {first} and {second} would both dump to 0.csv\n"
        assert not target.exists()


class TestTrainEvaluate:
    def test_train_writes_model(self, corpus, tmp_path):
        model_path = tmp_path / "model.txt"
        rc = cli.main([
            "train", "--manifest", str(corpus["manifest"]),
            "--method", "bank", "--top-k", "32", "--c", "8", "--gamma", "0.5",
            "--seed", "1", "--cache-dir", corpus["cache"], "--out", str(model_path),
        ])
        assert rc == 0
        assert model_path.read_text().splitlines()[0] == MODEL_HEADER

    def test_mi_scores_dump(self, corpus, tmp_path):
        model_path = tmp_path / "model.txt"
        scores_path = tmp_path / "scores.csv"
        rc = cli.main([
            "train", "--manifest", str(corpus["manifest"]),
            "--method", "bank", "--top-k", "16", "--c", "8", "--gamma", "0.5",
            "--seed", "1", "--cache-dir", corpus["cache"],
            "--out", str(model_path), "--dump-mi-scores", str(scores_path),
        ])
        assert rc == 0
        lines = scores_path.read_text().splitlines()
        assert lines[0] == "feature_index,score_bits"
        assert len(lines) == 17

    def test_evaluate_writes_reports(self, corpus, tmp_path):
        model_path = tmp_path / "model.txt"
        cli.main([
            "train", "--manifest", str(corpus["manifest"]),
            "--method", "bank", "--top-k", "32", "--c", "8", "--gamma", "0.5",
            "--seed", "1", "--cache-dir", corpus["cache"], "--out", str(model_path),
        ])
        prefix = tmp_path / "report"
        rc = cli.main([
            "evaluate", str(model_path), "--manifest", str(corpus["manifest"]),
            "--cache-dir", corpus["cache"], "--out", str(prefix),
        ])
        assert rc == 0
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.startswith("kind,truth,predicted,value")
        assert "averaged" in csv_text
        assert "confusion" in csv_text
        assert (tmp_path / "report.txt").exists()

    def test_non_ascii_label_trains_loads_and_evaluates(self, corpus, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_manifest(path, DatasetManifest(tuple(
            replace(e, label="chirpé") if e.label == "chirp" else e
            for e in read_manifest(corpus["manifest"]).entries
        )))
        model_path = tmp_path / "model.txt"
        assert cli.main(["train", "--manifest", str(path), "--top-k", "16",
                         "--cache-dir", corpus["cache"], "--out", str(model_path)]) == 0
        model = load_model(model_path)
        assert "chirpé" in model.class_names
        save_model(tmp_path / "again.txt", model)
        assert (tmp_path / "again.txt").read_bytes() == model_path.read_bytes()
        capsys.readouterr()
        assert cli.main(["evaluate", str(model_path), "--manifest", str(path),
                         "--cache-dir", corpus["cache"], "--out", str(tmp_path / "r")]) == 0
        assert "chirpé" in capsys.readouterr().out
        assert "chirpé" in (tmp_path / "r.csv").read_text()

    def test_ascii_locale_writes_the_bytes_of_a_utf8_run(self, corpus, tmp_path, src_env):
        # under the C locale, without UTF-8 mode or locale coercion, Python's
        # default text codec and stdout's codec are ASCII
        source = tmp_path / "m.json"
        write_manifest(source, DatasetManifest(tuple(
            replace(e, label="chirpé") if e.label == "chirp" else e
            for e in read_manifest(corpus["manifest"]).entries
        )))
        calls = [
            ["split", "--manifest", str(source), "--out", "split.tsv", "--seed", "1"],
            ["train", "--manifest", "split.tsv", "--top-k", "16", "--cache-dir", corpus["cache"],
             "--dump-mi-scores", "mi.csv", "--out", "model.txt"],
            ["evaluate", "model.txt", "--manifest", "split.tsv", "--cache-dir", corpus["cache"],
             "--out", "rep"],
        ]
        envs = {"default": src_env(),
                "ascii": src_env(PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")}
        files, stdout = {}, {}
        for name, env in envs.items():
            run = tmp_path / name
            run.mkdir()
            for argv in calls:
                proc = subprocess.run([sys.executable, "-m", "sonoclass.cli", *argv],
                                      cwd=run, capture_output=True, env=env)
                assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            files[name] = {p.name: p.read_bytes() for p in sorted(run.iterdir())}
            stdout[name] = proc.stdout  # evaluate's report
        assert sorted(files["default"]) == ["mi.csv", "model.txt", "rep.csv", "rep.txt",
                                            "split.tsv"]
        assert files["ascii"] == files["default"]
        assert "chirpé\t".encode() in files["default"]["split.tsv"]
        assert b"\r" not in b"".join(files["default"].values())
        assert "chirpé ".encode() in stdout["default"]
        assert b"chirp\\xe9 " in stdout["ascii"]  # escaped, as on stderr

    def test_repeated_pair_model_is_data_error(self, corpus, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        cli.main([
            "train", "--manifest", str(corpus["manifest"]),
            "--method", "bank", "--top-k", "16", "--c", "8", "--gamma", "0.5",
            "--seed", "1", "--cache-dir", corpus["cache"], "--out", str(model_path),
        ])
        text = model_path.read_text()
        assert "pair 0 2\n" in text
        model_path.write_text(text.replace("pair 0 2\n", "pair 0 1\n", 1))
        capsys.readouterr()
        rc = cli.main([
            "evaluate", str(model_path), "--manifest", str(corpus["manifest"]),
            "--cache-dir", corpus["cache"], "--out", str(tmp_path / "report"),
        ])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {model_path}: pair 0 1 appears twice\n"
        assert not (tmp_path / "report.csv").exists()

    def test_damaged_config_echo_is_data_error(self, corpus, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        cli.main([
            "train", "--manifest", str(corpus["manifest"]),
            "--method", "bank", "--top-k", "16", "--c", "8", "--gamma", "0.5",
            "--seed", "1", "--cache-dir", corpus["cache"], "--out", str(model_path),
        ])
        text = model_path.read_text()
        assert "svm.c = 8\n" in text
        model_path.write_text(text.replace("svm.c = 8\n", "svm.c = abc\n", 1))
        capsys.readouterr()
        rc = cli.main(["evaluate", str(model_path), "--manifest", str(corpus["manifest"])])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {model_path}: bad value for svm.c: 'abc'\n"

    def test_model_integer_outside_int64_is_data_error(self, corpus, tmp_path, capsys):
        model_path = self._train(corpus, tmp_path, "bank")
        text = model_path.read_text()
        damaged = re.sub(r"^selected \d+", "selected 99999999999999999999", text, count=1,
                         flags=re.M)
        assert damaged != text
        model_path.write_text(damaged)
        err = self._evaluate_err(corpus, model_path, capsys)
        assert err.startswith(f"error: {model_path}: ") and err.count("\n") == 1

    def test_max_passes_echo_above_its_bound_is_data_error(self, corpus, tmp_path, capsys):
        model_path = self._train(corpus, tmp_path, "bank")
        text = model_path.read_text()
        assert "svm.max_passes = 200\n" in text
        model_path.write_text(text.replace("svm.max_passes = 200\n",
                                           "svm.max_passes = 4611686018427387904\n", 1))
        assert self._evaluate_err(corpus, model_path, capsys) == (
            f"error: {model_path}: svm.max_passes must be at most 2147483647, "
            "got 4611686018427387904\n"
        )

    def _train(self, corpus, tmp_path, method):
        model_path = tmp_path / "model.txt"
        rc = cli.main([
            "train", "--manifest", str(corpus["manifest"]), "--method", method,
            "--top-k", "16", "--seed", "1", "--cache-dir", corpus["cache"],
            "--config", str(write_cfg(tmp_path, "wavelet.patches = 20")),
            "--out", str(model_path),
        ])
        assert rc == 0
        return model_path

    def _evaluate_err(self, corpus, model_path, capsys):
        capsys.readouterr()
        rc = cli.main(["evaluate", str(model_path), "--manifest", str(corpus["manifest"]),
                       "--cache-dir", corpus["cache"]])
        assert rc == cli.EXIT_DATA
        return capsys.readouterr().err

    @pytest.mark.parametrize("method, damage, message", [
        ("bank", lambda text: re.sub(r"^selection \d+ \d+\nselected .*\nscores .*\n",
                                     "selection none\n", text, flags=re.M),
         "bank model carries no selection"),
        ("wavelet", lambda text: text.replace(
            "selection none\n", "selection 2 20\nselected 0 1\nscores 0.5 0.25\n"),
         "wavelet model carries a selection"),
        ("wavelet", lambda text: text[:text.index("\npatches ") + 1] + "patches none\nend\n",
         "wavelet model carries no patch set"),
        ("wavelet", lambda text: text.replace(" seed 1 sizes ", " seed 2 sizes "),
         "expected 'patches 20 seed 1 sizes 4 8 12' from the config echo, "
         "got 'patches 20 seed 2 sizes 4 8 12'"),
        ("bank", lambda text: text.replace("selection 16 16384\n", "selection 16 20000\n"),
         "selection from 20000 features, but the 128x128 grid gives 16384"),
        ("wavelet", lambda text: text[:text.rindex("\npatch ") + 1].replace(
            "\npatches 20 ", "\npatches 19 ") + "end\n",
         "19 transformed features, but a scaler of 20"),
        ("bank", lambda text: text.removesuffix("\nend\n") + "\nended\n", "missing end marker"),
    ], ids=["bank-no-selection", "wavelet-selection", "wavelet-no-patch-set", "wavelet-seed",
            "bank-selection-width", "wavelet-last-patch-dropped", "bank-no-end-line"])
    def test_damaged_transform_is_data_error(self, corpus, tmp_path, capsys, method, damage,
                                             message):
        model_path = self._train(corpus, tmp_path, method)
        text = model_path.read_text()
        damaged = damage(text)
        assert damaged != text
        model_path.write_text(damaged)
        assert self._evaluate_err(corpus, model_path, capsys) == f"error: {model_path}: {message}\n"

    def test_pair_params_must_match_the_config_echo(self, corpus, tmp_path, capsys):
        model_path = self._train(corpus, tmp_path, "bank")
        text = model_path.read_text()
        resaved = tmp_path / "resaved.txt"
        save_model(resaved, load_model(model_path))
        assert resaved.read_text() == text  # an intact model loads and keeps every byte
        assert "\nparams 0.5 10\n" in text
        model_path.write_text(text.replace("\nparams 0.5 10\n", "\nparams 1e-9 10\n", 1))
        assert self._evaluate_err(corpus, model_path, capsys) == (
            f"error: {model_path}: pair 0 1 has gamma 1e-09 and c 10.0, "
            "but svm.gamma = 0.5 and svm.c = 10.0\n"
        )

    @pytest.mark.parametrize("command", ["train", "extract"])
    @pytest.mark.parametrize("text", ["gabor.orientations = 99999999999",
                                      "fixed.rows = 100000000"])
    def test_huge_grid_or_bank_is_config_error(self, corpus, tmp_path, capsys, monkeypatch,
                                               command, text):
        # were the config accepted, the run would stop here instead of allocating
        for name in ("train_model", "extract_features"):
            monkeypatch.setattr(pipeline, name, lambda *a, **k: pytest.fail("config accepted"))
        rc = cli.main([command, "--manifest", str(corpus["manifest"]),
                       "--config", str(write_cfg(tmp_path, text)),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "above the cap of 16777216" in err

    @pytest.mark.parametrize("method, prefix", [
        ("wavelet", "patch "), ("bank", "min "), ("bank", "coef "),
    ], ids=["wavelet-patch-row", "bank-min", "bank-coef"])
    def test_non_finite_model_number_is_data_error(self, corpus, tmp_path, capsys, method,
                                                   prefix):
        model_path = self._train(corpus, tmp_path, method)
        lines = model_path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        at += prefix == "patch "  # a patch's numbers are on the line after its header
        lines[at] = lines[at].rsplit(" ", 1)[0] + " nan"
        model_path.write_text("\n".join(lines) + "\n")
        assert self._evaluate_err(corpus, model_path, capsys) == (
            f"error: {model_path}: line {at + 1}: 'nan' is not a finite number\n"
        )

    @pytest.mark.parametrize("line, edit, message", [
        (r"config \d+", " junk", "expected 1 value(s) after 'config', got 2"),
        (r"classes \d+", " junk", "expected 1 value(s) after 'classes', got 2"),
        (r"selection \d+ \d+", " junk", "expected 2 value(s) after 'selection', got 3"),
        (r"scaler \d+", " junk", "expected 1 value(s) after 'scaler', got 2"),
        (r"pairs \d+", " junk", "expected 1 value(s) after 'pairs', got 2"),
        (r"bias \S+", " junk", "expected 1 numbers, got 2"),
        (r"converged 1", "converged 7", "converged '7' is not 0 or 1"),
        # numpy refuses an array of this many rows outright; it is refused before that
        (r"sv \d+ \d+", "sv 100000000000 16", "100000000000 rows, but {left} lines follow"),
    ], ids=["config", "classes", "selection", "scaler", "pairs", "bias", "converged", "sv"])
    def test_damaged_header_line_is_data_error(self, corpus, tmp_path, capsys, line, edit,
                                               message):
        model_path = self._train(corpus, tmp_path, "bank")
        lines = model_path.read_text().splitlines()
        at = next(i for i, text in enumerate(lines) if re.fullmatch(line, text))
        lines[at] = lines[at] + edit if edit.startswith(" ") else edit
        model_path.write_text("\n".join(lines) + "\n")
        message = message.format(left=len(lines) - at - 1)
        assert self._evaluate_err(corpus, model_path, capsys) == (
            f"error: {model_path}: line {at + 1}: {message}\n"
        )

    def test_damaged_empty_patches_line_is_data_error(self, corpus, tmp_path, capsys):
        model_path = self._train(corpus, tmp_path, "bank")
        text = model_path.read_text()
        assert "\npatches none\n" in text
        model_path.write_text(text.replace("\npatches none\n", "\npatches none junk\n"))
        assert self._evaluate_err(corpus, model_path, capsys) == (
            f"error: {model_path}: expected 'patches 20 seed 1 sizes 4 8 12' from the config "
            "echo, got 'patches none junk'\n"
        )

    def _train_one_pass(self, corpus, tmp_path):
        return ["train", "--manifest", str(corpus["manifest"]),
                "--method", "bank", "--top-k", "32", "--c", "8", "--gamma", "0.5",
                "--seed", "1", "--cache-dir", corpus["cache"],
                "--config", str(write_cfg(tmp_path, "svm.max_passes = 1")),
                "--out", str(tmp_path / "model.txt")]

    def test_nonconvergence_exit_code(self, corpus, tmp_path, capsys):
        rc = cli.main(self._train_one_pass(corpus, tmp_path))
        assert rc == cli.EXIT_NONCONVERGENCE
        assert (tmp_path / "model.txt").exists()  # best iterate still persisted
        assert capsys.readouterr().err == (
            "warning: at least one pair solver did not converge\n"
        )

    def test_nonconvergence_is_one_line_when_warnings_are_errors(self, corpus, tmp_path,
                                                                   src_env):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "sonoclass.cli",
             *self._train_one_pass(corpus, tmp_path)],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == cli.EXIT_NONCONVERGENCE
        assert proc.stderr == "warning: at least one pair solver did not converge\n"


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    return path


class TestGridSearchCompare:
    def test_gridsearch_table(self, corpus, tmp_path):
        out = tmp_path / "cv.csv"
        rc = cli.main([
            "gridsearch", "--manifest", str(corpus["manifest"]),
            "--method", "bank", "--top-k", "16", "--seed", "1",
            "--cache-dir", corpus["cache"],
            "--config", str(write_cfg(
                tmp_path, "grid.c = 1,8\ngrid.gamma = 0.1,0.5\ngrid.folds = 3",
            )),
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "c,gamma,cv_accuracy"
        assert len(lines) == 5

    def test_gridsearch_worker_error_is_data_error(self, corpus, tmp_path, capfd, monkeypatch):
        monkeypatch.setattr(cpus, "worker_count", lambda n_cells: 2)
        manifest = read_manifest(corpus["manifest"])
        moved = manifest.rows("train")[0]  # its class keeps exactly 2 training clips
        path = tmp_path / "two_in_one_class.tsv"
        write_manifest(path, DatasetManifest(tuple(
            replace(e, split="test") if e == moved else e for e in manifest.entries
        )))
        rc = cli.main([
            "gridsearch", "--manifest", str(path), "--method", "bank", "--top-k", "16",
            "--cache-dir", corpus["cache"],
            "--config", str(write_cfg(tmp_path, "grid.c = 1,8\ngrid.gamma = 0.5\ngrid.folds = 2")),
        ])
        assert rc == cli.EXIT_DATA
        err = capfd.readouterr().err
        assert err.startswith("error: classes [") and err.count("\n") == 1
        assert "fewer than 2 training samples" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def _gridsearch_one_pass(self, corpus, tmp_path):
        return ["gridsearch", "--manifest", str(corpus["manifest"]),
                "--method", "bank", "--top-k", "16", "--cache-dir", corpus["cache"],
                "--config", str(write_cfg(
                    tmp_path, "grid.c = 1,8\ngrid.gamma = 0.5\ngrid.folds = 3\nsvm.max_passes = 1",
                ))]

    def test_gridsearch_nonconvergence_warns_once_and_exits_0(self, corpus, tmp_path, capsys):
        # 354 bank columns separate the 12 train rows and tie at H(Y) = 2
        # bits; the top 16 are the lowest-index of them
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # shown, as outside the test suite
            rc = cli.main(self._gridsearch_one_pass(corpus, tmp_path))
        assert rc == cli.EXIT_OK
        assert capsys.readouterr().err == "warning: 30 of 36 pair solves did not converge\n"

    def test_gridsearch_nonconvergence_is_one_error_when_warnings_are_errors(
            self, corpus, tmp_path, src_env):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "sonoclass.cli",
             *self._gridsearch_one_pass(corpus, tmp_path)],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == cli.EXIT_NONCONVERGENCE
        assert proc.stderr == "error: 30 of 36 pair solves did not converge\n"

    def test_compare_outputs(self, corpus, tmp_path):
        out_dir = tmp_path / "cmp"
        rc = cli.main([
            "compare", "--manifest", str(corpus["manifest"]),
            "--top-k", "16", "--c", "8", "--gamma", "0.5", "--seed", "1",
            "--cache-dir", corpus["cache"],
            "--config", str(write_cfg(tmp_path, "wavelet.patches = 20")),
            "--out", str(out_dir),
        ])
        assert rc == 0
        grid = (out_dir / "single_grid.csv").read_text().splitlines()
        assert len(grid) == 13  # header + 12 configurations
        comparison = (out_dir / "comparison.csv").read_text()
        assert comparison.startswith("class,bank,patches,wavelet")
        assert (out_dir / "compare.txt").exists()

    def test_evaluate_after_cold_compare_reads_c2(self, corpus, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        flags = ["--manifest", str(corpus["manifest"]), "--top-k", "16", "--c", "8",
                 "--gamma", "0.5", "--seed", "1",
                 "--config", str(write_cfg(tmp_path, "wavelet.patches = 20"))]
        assert cli.main(["compare", *flags, "--cache-dir", str(cache),
                         "--out", str(tmp_path / "cmp")]) == 0
        model = tmp_path / "wavelet.txt"
        assert cli.main(["train", *flags, "--method", "wavelet", "--out", str(model)]) == 0
        looked_up = []
        monkeypatch.setattr(pipeline.CacheStats, "count",
                            lambda self, stage, hit: looked_up.append((stage, hit)))
        assert cli.main(["evaluate", str(model), "--manifest", str(corpus["manifest"]),
                         "--cache-dir", str(cache), "--out", str(tmp_path / "eval")]) == 0
        # the patch set read back from the model file keys the same entries
        n_test = len(read_manifest(corpus["manifest"]).rows("test"))
        assert looked_up == [("c2", True)] * n_test


class TestErrorPaths:
    def test_unknown_config_key_is_usage_error(self, corpus, tmp_path):
        rc = cli.main([
            "train", "--manifest", str(corpus["manifest"]),
            "--config", str(write_cfg(tmp_path, "stft.window = hann")),
            "--out", str(tmp_path / "m.txt"),
        ])
        assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize("flag, value", [
        ("--gamma", "0"), ("--c", "-1"), ("--top-k", "0"), ("--seed", "-1"),
        # config file text, or None for a config file that does not exist
        pytest.param("--config", "mi.n_bins = 1", id="mi.n_bins=1"),
        pytest.param("--config", "mi.n_bins = 65537", id="mi.n_bins=65537"),
        pytest.param("--config", "grid.folds = 1", id="grid.folds=1"),
        pytest.param("--config", "method = single\nsingle.scale = 5", id="single.scale=5"),
        pytest.param("--config", "svm.max_passes = 0", id="svm.max_passes=0"),
        # max_passes x rows would wrap in int64, or not fit it at all
        pytest.param("--config", "svm.max_passes = 4611686018427387904", id="svm.max_passes=2^62"),
        pytest.param("--config", "svm.max_passes = 99999999999999999999",
                     id="svm.max_passes=1e20"),
        pytest.param("--config", "svm.tol = -1", id="svm.tol=-1"),
        pytest.param("--config", "fixed.rows = 4", id="fixed.rows=4"),
        pytest.param("--config", "method = patches\nfixed.rows = 100", id="patches-fixed.rows=100"),
        pytest.param("--top-k", "16385", id="top-k-above-features"),
        pytest.param("--config", "method = single\nmi.top_k = 16385", id="single-top-k-above-features"),
        pytest.param("--config", "method = patches\nfixed.cols = 16\nmi.top_k = 2049",
                     id="patches-top-k-above-features"),
        pytest.param("--config", "wavelet.patches = 0", id="wavelet.patches=0"),
        pytest.param("--config", "method = wavelet\nwavelet.patches = 0", id="wavelet-wavelet.patches=0"),
        pytest.param("--config", "method = wavelet\nwavelet.sizes = 4,8,100", id="wavelet-wavelet.sizes=100"),
        pytest.param("--config", "stft.frame_size = 1\nstft.hop = 1", id="stft.frame_size=1"),
        pytest.param("--config", None, id="config-missing"),
    ])
    def test_bad_model_value_is_config_error(self, corpus, tmp_path, capsys, flag, value):
        cache = tmp_path / "cache"
        if flag == "--config":
            value = str(tmp_path / "absent.cfg" if value is None else write_cfg(tmp_path, value))
        rc = cli.main([
            "train", "--manifest", str(corpus["manifest"]), flag, value,
            "--cache-dir", str(cache), "--out", str(tmp_path / "m.txt"),
        ])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not cache.exists()

    @pytest.mark.parametrize("method", ["bank", "wavelet"])
    def test_one_class_train_split_is_data_error(self, corpus, tmp_path, capsys, method):
        manifest = read_manifest(corpus["manifest"])
        kept = manifest.rows("train")[0].label
        path = tmp_path / "one_class.tsv"
        write_manifest(path, DatasetManifest(tuple(
            e for e in manifest.entries if e.split == "test" or e.label == kept
        )))
        cache = tmp_path / "cache"
        rc = cli.main([
            "train", "--manifest", str(path), "--method", method,
            "--cache-dir", str(cache), "--out", str(tmp_path / "m.txt"),
        ])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: train rows of one class only ({kept}); a model needs 2 or more\n"
        )
        assert not cache.exists()  # refused before any clip is read

    def test_wavelet_mi_scores_dump_is_config_error(self, corpus, tmp_path, capsys):
        cache, scores = tmp_path / "cache", tmp_path / "scores.csv"
        rc = cli.main([
            "train", "--manifest", str(corpus["manifest"]), "--method", "wavelet",
            "--cache-dir", str(cache), "--out", str(tmp_path / "m.txt"),
            "--dump-mi-scores", str(scores),
        ])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == ("config error: --dump-mi-scores needs a log-Gabor method; "
                       "wavelet selects no features\n")
        assert not cache.exists() and not scores.exists()  # refused before any clip is read

    @staticmethod
    def refuse_clip_reads(monkeypatch):
        def refuse(path):
            raise AssertionError(f"{path} read")

        monkeypatch.setattr(pipeline.audio_io, "load_wav", refuse)
        monkeypatch.setattr(pipeline, "_content_hash", refuse)

    @pytest.mark.parametrize("command", ["split", "train"])
    @pytest.mark.parametrize("label", ["chirp\tx", "chirp\nx"])
    def test_unprintable_label_is_refused_before_any_clip_is_read(
            self, corpus, tmp_path, capsys, monkeypatch, command, label):
        entries = [
            {"path": e.path, "label": label if e.label == "chirp" else e.label, "split": e.split}
            for e in read_manifest(corpus["manifest"]).entries
        ]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"entries": entries}))
        first = next(e["path"] for e in entries if e["label"] == label)
        self.refuse_clip_reads(monkeypatch)
        out = tmp_path / "out"
        rc = cli.main([command, "--manifest", str(path), "--out", str(out)])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {first}: label {label!r} holds an unprintable character\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "train", "gridsearch", "compare"])
    def test_cache_dir_that_is_a_file_is_refused_before_any_clip_is_read(
            self, corpus, tmp_path, capsys, monkeypatch, command):
        self.refuse_clip_reads(monkeypatch)
        cache = tmp_path / "cache"
        cache.write_text("not a directory\n")
        out = tmp_path / "out"
        rc = cli.main([command, "--manifest", str(corpus["manifest"]), "--cache-dir", str(cache),
                       "--config", str(write_cfg(tmp_path, "grid.folds = 3")), "--out", str(out)])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: cache directory {cache} is not a directory\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, kind, why", [
        ("train", "directory", "is a directory"), ("gridsearch", "directory", "is a directory"),
        ("compare", "file", "is not a directory"), ("train", "under_a_file", "lies under a file"),
        ("compare", "under_a_file", "lies under a file"),
        ("train", "missing", "lies in a directory that does not exist"),
        ("gridsearch", "missing", "lies in a directory that does not exist"),
    ])
    def test_out_of_the_wrong_kind_is_refused_before_any_clip_is_read(
            self, corpus, tmp_path, capsys, monkeypatch, command, kind, why):
        self.refuse_clip_reads(monkeypatch)
        out = tmp_path / "out"
        if kind == "directory":
            out.mkdir()
        elif kind == "missing":
            out = tmp_path / "nodir" / "out"
        else:
            out.write_text("a file\n")
            if kind == "under_a_file":
                out = out / "sub"
        rc = cli.main([command, "--manifest", str(corpus["manifest"]),
                       "--config", str(write_cfg(tmp_path, "grid.folds = 3")), "--out", str(out)])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: --out {out} {why}\n"
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("out, made, written, why", [
        ("feats", "feats.npz", "feats.npz", "is a directory"),  # np.savez appends .npz
        ("feats.npz", "feats.npz", "feats.npz", "is a directory"),
        ("afile/feats", "afile", "afile/feats.npz", "lies under a file"),
        ("nodir/feats", None, "nodir/feats.npz", "lies in a directory that does not exist"),
    ])
    def test_extract_out_of_the_wrong_kind_is_refused_before_any_clip_is_read(
            self, corpus, tmp_path, capsys, monkeypatch, out, made, written, why):
        if made == "afile":
            (tmp_path / made).write_text("a file\n")
        elif made:
            (tmp_path / made).mkdir()
        self.refuse_clip_reads(monkeypatch)
        rc = cli.main(["extract", "--manifest", str(corpus["manifest"]),
                       "--out", str(tmp_path / out)])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: --out {tmp_path / written} {why}\n"

    @pytest.mark.parametrize("command, flag, kind, why", [
        ("extract", "--dump-spectrograms", "file", "is not a directory"),
        ("extract", "--dump-masks", "file", "is not a directory"),
        ("extract", "--dump-masks", "under_a_file", "lies under a file"),
        ("train", "--dump-mi-scores", "directory", "is a directory"),
        ("train", "--dump-mi-scores", "under_a_file", "lies under a file"),
        ("train", "--dump-mi-scores", "missing", "lies in a directory that does not exist"),
    ])
    def test_dump_path_of_the_wrong_kind_is_refused_before_any_clip_is_read(
            self, corpus, tmp_path, capsys, monkeypatch, command, flag, kind, why):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        elif kind == "missing":
            bad = tmp_path / "nodir" / "mi.csv"
        else:
            bad.write_text("a file\n")
            if kind == "under_a_file":
                bad = bad / "sub"
        out = tmp_path / ("m.txt" if command == "train" else "f.npz")
        argv = [command, "--manifest", str(corpus["manifest"]), "--top-k", "16",
                "--out", str(out), flag, str(bad)]
        if flag == "--dump-masks":  # the spectrogram dump runs first
            argv += ["--dump-spectrograms", str(tmp_path / "spectrograms")]
        self.refuse_clip_reads(monkeypatch)
        rc = cli.main(argv)
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {flag} {bad} {why}\n"
        assert not out.exists() and not (tmp_path / "spectrograms").exists()
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("made, prefix, written, why", [
        ("r.txt", "r", "r.txt", "is a directory"),
        ("afile", "afile/r", "afile/r.csv", "lies under a file"),
        (None, "nodir/r", "nodir/r.csv", "lies in a directory that does not exist"),
    ])
    def test_evaluate_out_of_the_wrong_kind_is_refused_before_any_clip_is_read(
            self, corpus, tmp_path, capsys, monkeypatch, made, prefix, written, why):
        model = tmp_path / "m.txt"
        assert cli.main(["train", "--manifest", str(corpus["manifest"]), "--top-k", "16",
                         "--cache-dir", corpus["cache"], "--out", str(model)]) == 0
        if made == "afile":
            (tmp_path / made).write_text("a file\n")
        elif made:
            (tmp_path / made).mkdir()
        self.refuse_clip_reads(monkeypatch)
        capsys.readouterr()
        rc = cli.main(["evaluate", str(model), "--manifest", str(corpus["manifest"]),
                       "--out", str(tmp_path / prefix)])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: --out {tmp_path / written} {why}\n"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["train", "gridsearch", "compare"])
    def test_class_without_train_rows_is_data_error(self, corpus, tmp_path, capsys, command):
        manifest = read_manifest(corpus["manifest"])
        path = tmp_path / "no_chirp_train.tsv"
        write_manifest(path, DatasetManifest(tuple(
            replace(e, split="test") if e.label == "chirp" else e for e in manifest.entries
        )))
        out, cache = tmp_path / "out", tmp_path / "cache"
        rc = cli.main([command, "--manifest", str(path), "--cache-dir", str(cache),
                       "--out", str(out)])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == "error: no train rows for class(es): chirp\n"
        assert not out.exists()
        assert not cache.exists()  # refused before any clip is read

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_class_with_one_train_row_is_data_error(self, corpus, tmp_path, capsys, command):
        manifest = read_manifest(corpus["manifest"])
        moved = [e for e in manifest.rows("train") if e.label == "chirp"][1:]
        path = tmp_path / "one_chirp_train.tsv"
        write_manifest(path, DatasetManifest(tuple(
            replace(e, split="test") if e in moved else e for e in manifest.entries
        )))
        out, cache = tmp_path / "out", tmp_path / "cache"
        rc = cli.main([command, "--manifest", str(path), "--cache-dir", str(cache),
                       "--out", str(out)])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "error: class chirp has 1 train row(s); a model needs 2 or more\n"
        )
        assert not out.exists()
        assert not cache.exists()  # refused before any clip is read

    def test_class_with_fewer_train_rows_than_folds_is_data_error(self, corpus, tmp_path, capsys):
        manifest = read_manifest(corpus["manifest"])  # 3 train rows of each class
        out, cache = tmp_path / "cv.csv", tmp_path / "cache"
        rc = cli.main(["gridsearch", "--manifest", str(corpus["manifest"]),
                       "--cache-dir", str(cache), "--out", str(out)])  # 5 folds by default
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: class {manifest.classes[0]} has 3 train row(s); "
            "5-fold cross-validation needs 5 or more\n"
        )
        assert not out.exists()
        assert not cache.exists()  # refused before any clip is read

    @pytest.mark.parametrize("dump", [False, True], ids=["features", "dump-spectrograms"])
    def test_bad_wav_files_are_each_named_once(self, corpus, tmp_path, capsys, dump):
        junk, hot = tmp_path / "junk.wav", tmp_path / "hot.wav"
        junk.write_text("not audio\n")
        hot.write_bytes(make_wav_bytes(3, 1, 8000, 32, np.array([0.5, np.inf], "<f4").tobytes()))
        path = tmp_path / "m.tsv"
        write_manifest(path, DatasetManifest(read_manifest(corpus["manifest"]).entries + (
            ManifestEntry(str(junk), "chirp", "test"), ManifestEntry(str(hot), "chirp", "test"),
        )))
        flags = ["--dump-spectrograms", str(tmp_path / "specs")] if dump else []
        rc = cli.main(["extract", "--manifest", str(path), *flags])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: 2 file(s) failed:\n{junk}: not a RIFF/WAVE file\n{hot}: non-finite samples\n"
        )

    def test_damaged_cache_files_are_recomputed(self, corpus, tmp_path):
        cache = tmp_path / "cache"
        cfg = write_cfg(tmp_path, "wavelet.patches = 20")

        def train(method, out):
            return cli.main([
                "train", "--manifest", str(corpus["manifest"]), "--method", method,
                "--top-k", "32", "--c", "8", "--gamma", "0.5", "--seed", "1",
                "--config", str(cfg), "--cache-dir", str(cache), "--out", str(out),
            ])

        for method in ("bank", "wavelet"):
            assert train(method, tmp_path / f"{method}_first.txt") == 0
        first, second = read_manifest(corpus["manifest"]).rows("train")[:2]
        stem = pipeline._content_hash(first.path)
        (feat,) = (cache / "feat").rglob(f"{stem}.npy")
        (c1,) = (cache / "c1").rglob(f"{stem}.npy")
        (c2,) = (cache / "c2").rglob(f"{stem}.npy")
        (wrong_shape,) = (cache / "feat").rglob(f"{pipeline._content_hash(second.path)}.npy")
        (wrong_c1,) = (cache / "c1").rglob(f"{pipeline._content_hash(second.path)}.npy")
        (wrong_c2,) = (cache / "c2").rglob(f"{pipeline._content_hash(second.path)}.npy")
        c1_length = 3 * (64 * 64 + 32 * 32 + 16 * 16)  # the three planes joined
        assert np.load(c1).shape == (c1_length,)
        assert np.load(c2).shape == (20,)  # one value per patch
        feat.write_bytes(feat.read_bytes()[:100])
        c1.write_bytes(c1.read_bytes()[:100])
        c2.write_bytes(c2.read_bytes()[:100])
        np.save(wrong_shape, np.zeros(3))
        np.save(wrong_c1, np.zeros(c1_length - 1))
        np.save(wrong_c2, np.zeros(21))

        for method in ("bank", "wavelet"):
            assert train(method, tmp_path / f"{method}_again.txt") == 0
            again = (tmp_path / f"{method}_again.txt").read_bytes()
            assert again == (tmp_path / f"{method}_first.txt").read_bytes()
        assert np.load(feat).shape == np.load(wrong_shape).shape == (128 * 128,)
        assert np.load(c1).shape == np.load(wrong_c1).shape == (c1_length,)
        assert np.load(c2).shape == np.load(wrong_c2).shape == (20,)
        # no temp file is left behind
        assert {p.suffix for p in cache.rglob("*") if p.is_file()} == {".npy"}

    def test_missing_audio_is_data_error(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(
            "gone1.wav\ta\ttrain\ngone2.wav\ta\ttrain\ngone3.wav\tb\ttrain\n"
            "gone4.wav\tb\ttest\n"
        )
        rc = cli.main([
            "train", "--manifest", str(manifest), "--out", str(tmp_path / "m.txt"),
        ])
        assert rc == cli.EXIT_DATA

    def test_compare_names_every_missing_clip_once(self, corpus, tmp_path, capsys):
        path = tmp_path / "m.tsv"
        gone_train, gone_test = tmp_path / "gone_train.wav", tmp_path / "gone_test.wav"
        write_manifest(path, DatasetManifest(read_manifest(corpus["manifest"]).entries + (
            ManifestEntry(str(gone_train), "chirp", "train"),
            ManifestEntry(str(gone_test), "chirp", "test"),
        )))
        rc = cli.main(["compare", "--manifest", str(path), "--cache-dir", str(tmp_path / "cache"),
                       "--out", str(tmp_path / "cmp")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: 2 file(s) failed:\n")
        assert err.count(f"{gone_train}: ") == err.count(f"{gone_test}: ") == 1
        assert err.count("error:") == 1 and "Traceback" not in err
        assert not (tmp_path / "cmp").exists()

    def test_compare_without_test_rows_is_data_error(self, corpus, tmp_path, capsys):
        path = tmp_path / "all_train.tsv"
        write_manifest(path, DatasetManifest(tuple(
            replace(e, split="train") for e in read_manifest(corpus["manifest"]).entries
        )))
        cache = tmp_path / "cache"
        rc = cli.main(["compare", "--manifest", str(path), "--cache-dir", str(cache),
                       "--out", str(tmp_path / "cmp")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == "error: manifest has no test rows\n"
        assert not cache.exists()  # refused before any clip is read

    @pytest.mark.parametrize("command, split, message", [
        ("train", "test", "manifest has no train rows"),
        ("evaluate", "train", "manifest has no test rows"),
    ], ids=["train", "evaluate"])
    def test_manifest_without_the_split_it_reads_is_data_error(self, corpus, tmp_path, capsys,
                                                                command, split, message):
        path = tmp_path / f"all_{split}.tsv"
        write_manifest(path, DatasetManifest(tuple(
            replace(e, split=split) for e in read_manifest(corpus["manifest"]).entries
        )))
        model = tmp_path / "model.txt"
        if command == "evaluate":
            assert cli.main(["train", "--manifest", str(corpus["manifest"]), "--top-k", "16",
                             "--cache-dir", corpus["cache"], "--out", str(model)]) == 0
            argv = ["evaluate", str(model)]
        else:
            argv = ["train", "--out", str(model)]
        cache = tmp_path / "cache"
        capsys.readouterr()
        assert cli.main(argv + ["--manifest", str(path), "--cache-dir", str(cache)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not cache.exists()  # refused before any clip is read

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["transmogrify"])
        assert err.value.code == cli.EXIT_USAGE

    def test_trace_targets_exist(self, src_env):
        # perfbench/tracer.py wraps these functions by name and raises
        # TargetMissing on a rename. install() patches modules for good, so
        # it runs in its own process.
        repo = Path(__file__).resolve().parents[1]
        code = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from tracer import Tracer\n"
            "import sonoclass.cli\n"
            "Tracer().install()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(repo / "perfbench")],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr

    def test_traced_cache_counts_match_extract(self, corpus, tmp_path, src_env):
        # perfbench/run.py gates warm runs on the misses its tracer counts
        # (a stage span with a compute child) for the fixed, c1 and feat
        # stages; each must agree with the line extract prints for it.
        repo = Path(__file__).resolve().parents[1]
        cfg = write_cfg(tmp_path, "wavelet.patches = 20")
        code = (
            "import contextlib, io, json, sys; sys.path.insert(0, sys.argv[1])\n"
            "from tracer import Tracer, summarize\n"
            "import sonoclass.cli\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "for argv in json.loads(sys.argv[2]):\n"
            "    tracer.spans = []\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert sonoclass.cli.main(argv) == 0\n"
            "    lines = [l for l in out.getvalue().splitlines() if l.startswith('cache')]\n"
            "    print(json.dumps([lines, summarize(tracer.spans)['cache']]))\n"
        )
        calls = [
            ["extract", "--manifest", str(corpus["manifest"]), "--method", method,
             "--config", str(cfg), "--cache-dir", str(tmp_path / method)]
            for method in ("bank", "wavelet") for _ in ("cold", "warm")
        ]
        proc = subprocess.run(
            [sys.executable, "-c", code, str(repo / "perfbench"), json.dumps(calls)],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        printed, traced = [], []
        for line in proc.stdout.splitlines():
            lines, stages = json.loads(line)
            total, *per_stage = lines
            counts = {}
            for entry in per_stage:
                stage, hits, misses = re.fullmatch(r"cache (\w+): (\d+) hits, (\d+) misses",
                                                   entry).groups()
                counts[stage] = {"hits": int(hits), "misses": int(misses)}
            hits = sum(c["hits"] for c in counts.values())
            misses = sum(c["misses"] for c in counts.values())
            assert total == f"cache: {hits} hits, {misses} misses"
            printed.append(counts)
            traced.append(stages)
        zero = {"hits": 0, "misses": 0}
        for counts, stages in zip(printed, traced):
            assert stages.keys() == {"fixed", "c1", "feat"}
            for stage, traced_counts in stages.items():
                assert counts.get(stage, zero) == traced_counts, stage
        # 16 clips, 12 of them train: cold bank computes fixed and feat, cold
        # wavelet fixed, c1 and c2; warm wavelet reads the train C1 to sample
        # patches, then every C2
        miss, hit = {"hits": 0, "misses": 16}, {"hits": 16, "misses": 0}
        assert printed == [
            {"fixed": miss, "feat": miss},
            {"feat": hit},
            {"fixed": miss, "c1": miss, "c2": miss},
            {"c1": {"hits": 12, "misses": 0}, "c2": hit},
        ]

    def test_entry_point_runs(self, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "sonoclass.cli", "--help"],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0
        assert "synth" in proc.stdout

    def test_cli_import_loads_no_scipy(self, src_env):
        code = (
            "import sys\n"
            "import sonoclass.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_pool_module(self, src_env):
        # no step pools through either module: MI selection, per-clip
        # extraction and compare's cold cache fill map over cpus.run_each's
        # threads, nothing inside a task starts more, and grid search runs
        # in one process
        code = (
            "import sys\n"
            "import sonoclass.cli\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestBlasThreads:
    def test_import_forces_one_blas_thread(self, src_env):
        code = f"import os, sonoclass\nprint([os.environ[name] for name in {BLAS_THREAD_VARIABLES}])\n"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=src_env(**dict.fromkeys(BLAS_THREAD_VARIABLES, "4")),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['1', '1', '1']"

    def test_c2_bytes_do_not_depend_on_the_blas_setting(self, corpus, tmp_path, src_env):
        # unset, OpenBLAS would run one thread per CPU and move the last bits
        # of S2's scores; on one CPU the two runs agree whatever the setting
        cfg = write_cfg(tmp_path, "wavelet.patches = 20")
        unset = {k: v for k, v in src_env().items() if k not in BLAS_THREAD_VARIABLES}
        caches = []
        for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"}):
            cache = tmp_path / f"cache{len(caches)}"
            proc = subprocess.run(
                [sys.executable, "-m", "sonoclass.cli", "extract",
                 "--manifest", str(corpus["manifest"]), "--method", "wavelet",
                 "--config", str(cfg), "--cache-dir", str(cache)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            caches.append({p.relative_to(cache): p.read_bytes()
                           for p in (cache / "c2").rglob("*.npy")})
        assert caches[0] and caches[0] == caches[1]
