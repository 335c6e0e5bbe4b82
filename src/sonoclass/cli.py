"""Command-line front end.

Subcommands: synth, split, extract, train, evaluate, gridsearch, compare.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
non-convergence. Every message, a library warning included, is one line
on stderr.
"""

from __future__ import annotations

import argparse
import io
import sys
import warnings
from pathlib import Path

import numpy as np

from . import log_gabor, pipeline, report
from .audio_io import generate_corpus, load_wav, peak_normalize
from .config import CONFIG_KEYS, METHODS, RunConfig, load_config
from .errors import ConfigError, NonConvergenceWarning, SonoclassError
from .manifest import TRAIN_FRACTION, auto_split, read_manifest, write_manifest
from .model_io import load_model, save_model
from .spectrogram import log_spectrogram

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NONCONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--manifest", required=True, help="dataset manifest (TSV or JSON)")
    p.add_argument("--config", help="flat key = value configuration file")
    # each config flag's dest is the flat config key it overrides
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--scale", type=int, dest="single.scale", help="scale for method 'single'")
    p.add_argument("--orientation", type=int, dest="single.orientation",
                   help="orientation for method 'single'")
    p.add_argument("--top-k", type=int, dest="mi.top_k", help="MI-selected feature count")
    p.add_argument("--c", type=float, dest="svm.c", help="SVM box constraint")
    p.add_argument("--gamma", type=float, dest="svm.gamma", help="RBF kernel width")
    p.add_argument("--seed", type=int)
    p.add_argument("--cache-dir", dest="cache_dir", help="feature cache directory")


def _config_from_args(args) -> RunConfig:
    overrides = {key: str(value) for key, value in vars(args).items()
                 if key in CONFIG_KEYS and value is not None}
    return load_config(args.config, overrides)


def _check_out(flag: str, path, directory: bool) -> None:
    """Refuse, before any clip is read, an output path given by flag that
    cannot be written: an existing directory where a file is written, an
    existing file where a directory is, a path under a file, or a file in
    a directory that does not exist (a directory output is made with its
    parents)."""
    if path is None:
        return
    out = Path(path)
    if out.exists() and out.is_dir() != directory:
        raise SonoclassError(f"{flag} {path} is {'not a directory' if directory else 'a directory'}")
    if any(p.exists() and not p.is_dir() for p in out.parents):
        raise SonoclassError(f"{flag} {path} lies under a file")
    if not directory and not out.parent.is_dir():
        raise SonoclassError(f"{flag} {path} lies in a directory that does not exist")


def _write_text(path, text: str) -> None:
    """Write a report or table as UTF-8 with \\n line ends, on any locale."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _cmd_synth(args) -> int:
    manifest = generate_corpus(
        args.out,
        clips_per_class=args.clips_per_class,
        duration_s=args.duration,
        sample_rate=args.sample_rate,
        seed=args.seed,
    )
    manifest_path = Path(args.out) / "manifest.tsv"
    write_manifest(manifest_path, manifest)
    print(f"wrote {len(manifest.entries)} clips in {len(manifest.classes)} classes")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def _cmd_split(args) -> int:
    manifest = read_manifest(args.manifest)
    split = auto_split(
        manifest,
        train_fraction=args.train_fraction,
        seed=args.seed,
    )
    write_manifest(args.out, split)
    n_train = len(split.rows("train"))
    n_test = len(split.rows("test"))
    print(f"split {len(split.entries)} entries: {n_train} train / {n_test} test")
    return EXIT_OK


def _cmd_extract(args) -> int:
    config = _config_from_args(args)
    if args.out:  # np.savez appends .npz to a name that lacks it
        _check_out("--out", args.out if args.out.endswith(".npz") else args.out + ".npz",
                   directory=False)
    _check_out("--dump-spectrograms", args.dump_spectrograms, directory=True)
    _check_out("--dump-masks", args.dump_masks, directory=True)
    manifest = read_manifest(args.manifest)

    if args.dump_spectrograms:
        # one CSV per clip, named by its file stem: a repeated stem would
        # overwrite an earlier clip's CSV
        stems: dict[str, str] = {}
        for e in manifest.entries:
            first = stems.setdefault(Path(e.path).stem, e.path)
            if first != e.path:
                raise SonoclassError(
                    f"{first} and {e.path} would both dump to {Path(e.path).stem}.csv"
                )
        out_dir = Path(args.dump_spectrograms)
        out_dir.mkdir(parents=True, exist_ok=True)
        params = config.stft_params()

        def dump(e):
            spec = log_spectrogram(peak_normalize(load_wav(e.path)), params)
            np.savetxt(out_dir / f"{Path(e.path).stem}.csv", spec, delimiter=",", fmt="%.10g")

        pipeline.collect(manifest.entries, dump)
        print(f"spectrogram CSVs -> {out_dir}")
    if args.dump_masks:
        out_dir = Path(args.dump_masks)
        out_dir.mkdir(parents=True, exist_ok=True)
        bank = log_gabor.build_bank(
            (config.fixed_rows, config.fixed_cols), config.gabor_params()
        )
        for scale in range(1, config.gabor_scales + 1):
            for orientation in range(1, config.gabor_orientations + 1):
                np.savetxt(out_dir / f"mask_s{scale}_o{orientation}.csv",
                           bank.mask(scale, orientation), delimiter=",", fmt="%.10g")
        print(f"filter mask CSVs -> {out_dir}")

    result = pipeline.extract_features(manifest, config, cache_dir=args.cache_dir)
    payload = {"class_names": np.array(manifest.classes)}
    for name, matrix in (("train", result.train), ("test", result.test)):
        if matrix is not None:
            print(f"{name}: {matrix.n_samples} x {matrix.n_features}")
            payload[f"{name}_values"] = matrix.values
            payload[f"{name}_labels"] = matrix.labels
    print(f"cache: {result.stats.hits} hits, {result.stats.misses} misses")
    for stage, (hits, misses) in sorted(result.stats.stages.items()):
        print(f"cache {stage}: {hits} hits, {misses} misses")
    if args.out:
        np.savez(args.out, **payload)
        print(f"features -> {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    if args.dump_mi_scores and config.method == "wavelet":
        raise ConfigError("--dump-mi-scores needs a log-Gabor method; wavelet selects no features")
    _check_out("--out", args.out, directory=False)
    _check_out("--dump-mi-scores", args.dump_mi_scores, directory=False)
    manifest = read_manifest(args.manifest)
    model = pipeline.train_model(manifest, config, cache_dir=args.cache_dir)
    save_model(args.out, model)
    print(f"trained {len(model.ovo.pair_models)} pair models "
          f"over {len(model.class_names)} classes -> {args.out}")
    if args.dump_mi_scores:
        _write_text(args.dump_mi_scores, report.mi_scores_csv(model.selection))
        print(f"MI scores -> {args.dump_mi_scores}")
    if not model.ovo.converged:
        print("warning: at least one pair solver did not converge", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    if args.out:
        for suffix in (".csv", ".txt"):
            _check_out("--out", args.out + suffix, directory=False)
    model = load_model(args.model)
    manifest = read_manifest(args.manifest)
    result = pipeline.evaluate_model(model, manifest, cache_dir=args.cache_dir)
    text = report.evaluation_text(result)
    if args.out:
        _write_text(args.out + ".csv", report.evaluation_csv(result))
        _write_text(args.out + ".txt", text)
        print(f"report -> {args.out}.csv / {args.out}.txt")
    print(text, end="")
    return EXIT_OK


def _cmd_gridsearch(args) -> int:
    config = _config_from_args(args)
    _check_out("--out", args.out, directory=False)
    manifest = read_manifest(args.manifest)
    best, table = pipeline.grid_search(manifest, config, cache_dir=args.cache_dir)
    if args.out:
        _write_text(args.out, report.cv_csv(table))
        print(f"CV table -> {args.out}")
    best_acc = max(acc for _, _, acc in table)
    print(f"best: c={best.c:.10g} gamma={best.gamma:.10g} cv_accuracy={best_acc:.4f}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = _config_from_args(args)
    _check_out("--out", args.out, directory=True)
    manifest = read_manifest(args.manifest)
    result = pipeline.compare_methods(manifest, config, cache_dir=args.cache_dir)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "single_grid.csv", report.single_grid_csv(result))
    _write_text(out_dir / "comparison.csv", report.comparison_csv(result))
    text = report.comparison_text(result)
    _write_text(out_dir / "compare.txt", text)
    print(text, end="")
    print(f"reports -> {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sonoclass",
                     description="Spectrogram-texture sound classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--clips-per-class", type=int, default=60, dest="clips_per_class")
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--sample-rate", type=int, default=16000, dest="sample_rate")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("split", help="stratified train/test assignment")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train-fraction", type=float, default=TRAIN_FRACTION,
                   dest="train_fraction")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_split)

    p = sub.add_parser("extract", help="compute (and cache) feature matrices")
    _add_common(p)
    p.add_argument("--out", help="write features to this .npz file")
    p.add_argument("--dump-spectrograms", dest="dump_spectrograms",
                   help="also write per-clip log-spectrogram CSVs here")
    p.add_argument("--dump-masks", dest="dump_masks",
                   help="also write the filter-bank masks as CSVs here")
    p.set_defaults(run=_cmd_extract)

    p = sub.add_parser("train", help="train and persist a model")
    _add_common(p)
    p.add_argument("--out", default="model.txt", help="model file path")
    p.add_argument("--dump-mi-scores", dest="dump_mi_scores",
                   help="write selected-feature MI scores as CSV")
    p.set_defaults(run=_cmd_train)

    p = sub.add_parser("evaluate", help="score a trained model on a manifest")
    p.add_argument("model", help="model file from 'train'")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache-dir", dest="cache_dir")
    p.add_argument("--out", help="report path prefix (.csv and .txt appended)")
    p.set_defaults(run=_cmd_evaluate)

    p = sub.add_parser("gridsearch", help="cross-validated (C, gamma) search")
    _add_common(p)
    p.add_argument("--out", help="CV table CSV path")
    p.set_defaults(run=_cmd_gridsearch)

    p = sub.add_parser("compare", help="single-filter grid plus method comparison")
    _add_common(p)
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(run=_cmd_compare)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a class name that stdout's codec cannot encode is escaped, as on stderr
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    with warnings.catch_warnings():  # restores showwarning on the way out
        warnings.showwarning = _show_warning
        try:
            return args.run(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (SonoclassError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except NonConvergenceWarning as exc:  # raised when warnings are errors
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
