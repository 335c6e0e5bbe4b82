"""Plain-text model persistence.

A model file is line-oriented and fully self-describing: a version header,
the feature configuration echo, class names, the optional MI reduction,
the feature scaler, every pairwise SVM, and (for the wavelet method) the
sampled patch set. Floats are written with 17 significant digits so a
reload reproduces the model bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .config import METHODS, RunConfig, config_from_flat, config_to_flat
from .errors import SonoclassError
from .svm import BinarySvmModel, KernelParams, OvoModel
from .wavelet_baseline import PatchSet

MODEL_HEADER = "SONOCLASS-MODEL v1"


@dataclass(frozen=True)
class TrainedModel:
    """Everything needed to classify new audio with a persisted model."""

    ovo: OvoModel
    config: RunConfig
    class_names: tuple[str, ...]
    selected_indices: np.ndarray | None = None  # raw-vector gather, or None
    selected_scores: np.ndarray | None = None   # MI bits of the kept features
    n_raw_features: int = 0
    patch_set: PatchSet | None = None

    @property
    def method(self) -> str:
        return self.config.method


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_row(values) -> str:
    return " ".join(_fmt(v) for v in np.asarray(values, dtype=np.float64).ravel())


def save_model(path, model: TrainedModel) -> None:
    flat = config_to_flat(model.config)
    lines: list[str] = [MODEL_HEADER, f"method {model.method}", f"config {len(flat)}"]
    lines += [f"{key} = {flat[key]}" for key in sorted(flat)]

    lines.append(f"classes {len(model.class_names)}")
    for idx, name in enumerate(model.class_names):
        lines.append(f"class {idx} {name}")

    if model.selected_indices is None:
        lines.append("selection none")
    else:
        idx = np.asarray(model.selected_indices, dtype=np.int64)
        lines.append(f"selection {idx.size} {model.n_raw_features}")
        lines.append("selected " + " ".join(str(int(i)) for i in idx))
        scores = model.selected_scores
        if scores is None:
            scores = np.zeros(idx.size)
        lines.append("scores " + _fmt_row(scores))

    lo, hi = model.ovo.scaler
    lines.append(f"scaler {lo.shape[0]}")
    lines.append("min " + _fmt_row(lo))
    lines.append("max " + _fmt_row(hi))

    pairs = sorted(model.ovo.pair_models)
    lines.append(f"pairs {len(pairs)}")
    for a, b in pairs:
        bm = model.ovo.pair_models[(a, b)]
        n_sv, dim = bm.support_vectors.shape
        lines.append(f"pair {a} {b}")
        lines.append(f"params {_fmt(bm.params.gamma)} {_fmt(bm.params.c)}")
        lines.append(f"bias {_fmt(bm.bias)}")
        lines.append(f"converged {int(bm.converged)}")
        lines.append(f"sv {n_sv} {dim}")
        for row in bm.support_vectors:
            lines.append(_fmt_row(row))
        lines.append("coef " + (_fmt_row(bm.dual_coef) if n_sv else ""))

    if model.patch_set is None:
        lines.append("patches none")
    else:
        ps = model.patch_set
        lines.append(f"patches {len(ps.patches)} seed {ps.seed} sizes "
                     + " ".join(str(s) for s in ps.sizes))
        for patch, (clip, scale, u, v) in zip(ps.patches, ps.sources):
            lines.append(f"patch {patch.shape[0]} {clip} {scale} {u} {v}")
            lines.append(_fmt_row(patch))

    lines.append("end")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class _Reader:
    """A model file's lines in order; load_model names the file in errors."""

    def __init__(self, path):
        with open(path, "r", encoding="ascii") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise SonoclassError("unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, prefix: str) -> list[str]:
        line = self.next()
        if not line.startswith(prefix):
            raise SonoclassError(f"expected {prefix!r}, got {line[:40]!r}")
        return line.split()

    def numbers(self, prefix: str, count: int, parse=float) -> np.ndarray:
        """The count numbers on the next line, after prefix unless it is ''."""
        tokens = self.expect(prefix)[1:] if prefix else self.next().split()
        if len(tokens) != count:
            raise SonoclassError(f"line {self.pos}: expected {count} numbers, got {len(tokens)}")
        return np.array([parse(t) for t in tokens], dtype=np.int64 if parse is int else np.float64)


def load_model(path) -> TrainedModel:
    """Read a model file; malformed content, a bad config echo included,
    raises SonoclassError naming the file."""
    try:
        return _parse_model(path)
    except (SonoclassError, ValueError, IndexError) as exc:  # UnicodeDecodeError is a ValueError
        raise SonoclassError(f"{path}: {exc}") from exc


def _parse_model(path) -> TrainedModel:
    r = _Reader(path)
    if r.next() != MODEL_HEADER:
        raise SonoclassError(f"missing {MODEL_HEADER!r} header")
    method = r.expect("method")[1]
    if method not in METHODS:
        raise SonoclassError(f"method {method!r} is not one of {METHODS}")

    n_cfg = int(r.expect("config")[1])
    # each echo line is `key = value`
    config = config_from_flat(dict(r.next().partition(" = ")[::2] for _ in range(n_cfg)))
    if config.method != method:
        raise SonoclassError(
            f"method {method!r} disagrees with the config echo's {config.method!r}"
        )

    n_classes = int(r.expect("classes")[1])
    if n_classes < 2:
        raise SonoclassError(f"{n_classes} classes; a model needs at least 2")
    # pair indices and evaluate's label map need class i on the i-th line, names distinct
    class_names = []
    for i in range(n_classes):
        line, prefix = r.next(), f"class {i} "
        if not line.startswith(prefix):
            raise SonoclassError(f"expected 'class {i} <name>', got {line!r}")
        class_names.append(line.removeprefix(prefix))
    if len(set(class_names)) != n_classes:
        raise SonoclassError("a class name appears twice")

    sel_line = r.expect("selection")
    selected = scores = None
    n_raw = 0
    if sel_line[1] != "none":
        k, n_raw = int(sel_line[1]), int(sel_line[2])
        selected = r.numbers("selected", k, int)
        scores = r.numbers("scores", k)
        if np.any((selected < 0) | (selected >= n_raw)):
            raise SonoclassError(f"selected index outside {n_raw} raw features")

    dim = int(r.expect("scaler")[1])
    lo = r.numbers("min", dim)
    hi = r.numbers("max", dim)

    n_pairs = int(r.expect("pairs")[1])
    pair_models: dict[tuple[int, int], BinarySvmModel] = {}
    for _ in range(n_pairs):
        a, b = (int(t) for t in r.expect("pair")[1:])
        if not 0 <= a < b < n_classes:
            raise SonoclassError(f"pair {a} {b} outside {n_classes} classes")
        if (a, b) in pair_models:
            raise SonoclassError(f"pair {a} {b} appears twice")
        _, gamma, c = r.expect("params")
        bias = float(r.expect("bias")[1])
        if not np.isfinite(bias):
            raise SonoclassError(f"pair {a} {b} has bias {bias}")
        converged = bool(int(r.expect("converged")[1]))
        n_sv, sv_dim = (int(t) for t in r.expect("sv")[1:])
        sv = np.empty((n_sv, sv_dim))
        for row in range(n_sv):
            sv[row] = r.numbers("", sv_dim)
        pair_models[(a, b)] = BinarySvmModel(
            support_vectors=sv,
            dual_coef=r.numbers("coef", n_sv),
            bias=bias,
            params=KernelParams(gamma=float(gamma), c=float(c)),
            converged=converged,
        )
    missing = [p for p in combinations(range(n_classes), 2) if p not in pair_models]
    if missing:
        a, b = missing[0]
        raise SonoclassError(f"no model for pair {a} {b} of {n_classes} classes")

    patch_line = r.expect("patches")
    patch_set = None
    if patch_line[1] != "none":
        n_patches = int(patch_line[1])
        seed = int(patch_line[3])
        sizes = tuple(int(t) for t in patch_line[5:])
        patches, sources = [], []
        for _ in range(n_patches):
            m, clip, scale, u, v = (int(t) for t in r.expect("patch")[1:])
            patch = r.numbers("", m * m * 3).reshape(m, m, 3)
            patch.setflags(write=False)
            patches.append(patch)
            sources.append((clip, scale, u, v))
        patch_set = PatchSet(
            patches=tuple(patches), sources=tuple(sources), seed=seed, sizes=sizes
        )
    if r.next() != "end":
        raise SonoclassError("missing end marker")

    return TrainedModel(
        ovo=OvoModel(classes=tuple(range(n_classes)), pair_models=pair_models, scaler=(lo, hi)),
        config=config,
        class_names=tuple(class_names),
        selected_indices=selected,
        selected_scores=scores,
        n_raw_features=n_raw,
        patch_set=patch_set,
    )
