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

from .errors import SonoclassError
from .svm import BinarySvmModel, KernelParams, OvoModel
from .wavelet_baseline import PatchSet

MODEL_HEADER = "SONOCLASS-MODEL v1"
METHODS = ("single", "bank", "patches", "wavelet")


@dataclass(frozen=True)
class TrainedModel:
    """Everything needed to classify new audio with a persisted model."""

    ovo: OvoModel
    method: str
    config: dict[str, str]
    class_names: tuple[str, ...]
    selected_indices: np.ndarray | None = None  # raw-vector gather, or None
    selected_scores: np.ndarray | None = None   # MI bits of the kept features
    n_raw_features: int = 0
    patch_set: PatchSet | None = None


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_row(values) -> str:
    return " ".join(_fmt(v) for v in np.asarray(values, dtype=np.float64).ravel())


def save_model(path, model: TrainedModel) -> None:
    lines: list[str] = [MODEL_HEADER, f"method {model.method}"]

    lines.append(f"config {len(model.config)}")
    for key in sorted(model.config):
        lines.append(f"{key} = {model.config[key]}")

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
    def __init__(self, path):
        with open(path, "r", encoding="ascii") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0
        self.path = path

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise SonoclassError(f"{self.path}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, prefix: str) -> list[str]:
        line = self.next()
        if not line.startswith(prefix):
            raise SonoclassError(f"{self.path}: expected {prefix!r}, got {line!r}")
        return line.split()


def _floats(text: str) -> np.ndarray:
    if not text.strip():
        return np.empty(0)
    return np.array([float(tok) for tok in text.split()])


def load_model(path) -> TrainedModel:
    """Read a model file; malformed content raises SonoclassError."""
    try:
        return _parse_model(path)
    except (ValueError, IndexError) as exc:  # UnicodeDecodeError is a ValueError
        raise SonoclassError(f"{path}: {exc}") from exc


def _parse_model(path) -> TrainedModel:
    r = _Reader(path)
    if r.next() != MODEL_HEADER:
        raise SonoclassError(f"{path}: missing {MODEL_HEADER!r} header")
    method = r.expect("method")[1]
    if method not in METHODS:
        raise SonoclassError(f"{path}: method {method!r} is not one of {METHODS}")

    n_cfg = int(r.expect("config")[1])
    config: dict[str, str] = {}
    for _ in range(n_cfg):
        key, _, value = r.next().partition(" = ")
        config[key] = value
    if config.get("method", method) != method:
        raise SonoclassError(
            f"{path}: method {method!r} disagrees with the config echo's {config['method']!r}"
        )

    n_classes = int(r.expect("classes")[1])
    if n_classes < 2:
        raise SonoclassError(f"{path}: {n_classes} classes; a model needs at least 2")
    class_names = []
    for _ in range(n_classes):
        parts = r.next().split(" ", 2)
        class_names.append(parts[2])

    sel_line = r.expect("selection")
    selected = scores = None
    n_raw = 0
    if sel_line[1] != "none":
        k = int(sel_line[1])
        n_raw = int(sel_line[2])
        selected = np.array([int(t) for t in r.expect("selected")[1:]], dtype=np.int64)
        scores = _floats(r.next().removeprefix("scores "))
        if selected.size != k or scores.size != k:
            raise SonoclassError(f"{path}: selection length mismatch")
        if np.any((selected < 0) | (selected >= n_raw)):
            raise SonoclassError(f"{path}: selected index outside {n_raw} raw features")

    dim = int(r.expect("scaler")[1])
    lo = _floats(r.next().removeprefix("min "))
    hi = _floats(r.next().removeprefix("max "))
    if lo.size != dim or hi.size != dim:
        raise SonoclassError(f"{path}: scaler length mismatch")

    n_pairs = int(r.expect("pairs")[1])
    pair_models: dict[tuple[int, int], BinarySvmModel] = {}
    for _ in range(n_pairs):
        _, a, b = r.expect("pair")
        a, b = int(a), int(b)
        if not 0 <= a < b < n_classes:
            raise SonoclassError(f"{path}: pair {a} {b} outside {n_classes} classes")
        if (a, b) in pair_models:
            raise SonoclassError(f"{path}: pair {a} {b} appears twice")
        _, gamma, c = r.expect("params")
        bias = float(r.expect("bias")[1])
        if not np.isfinite(bias):
            raise SonoclassError(f"{path}: pair {a} {b} has bias {bias}")
        converged = bool(int(r.expect("converged")[1]))
        _, n_sv, sv_dim = r.expect("sv")
        n_sv, sv_dim = int(n_sv), int(sv_dim)
        sv = np.empty((n_sv, sv_dim))
        for row in range(n_sv):
            sv[row] = _floats(r.next())
        coef = _floats(r.next().removeprefix("coef"))
        if coef.size != n_sv:
            raise SonoclassError(f"{path}: dual coefficient length mismatch")
        pair_models[(a, b)] = BinarySvmModel(
            support_vectors=sv,
            dual_coef=coef,
            bias=bias,
            params=KernelParams(gamma=float(gamma), c=float(c)),
            converged=converged,
        )
    missing = [p for p in combinations(range(n_classes), 2) if p not in pair_models]
    if missing:
        a, b = missing[0]
        raise SonoclassError(f"{path}: no model for pair {a} {b} of {n_classes} classes")

    patch_line = r.expect("patches")
    patch_set = None
    if patch_line[1] != "none":
        n_patches = int(patch_line[1])
        seed = int(patch_line[3])
        sizes = tuple(int(t) for t in patch_line[5:])
        patches = []
        sources = []
        for _ in range(n_patches):
            _, m, clip, scale, u, v = r.expect("patch")
            m = int(m)
            flat = _floats(r.next())
            patch = flat.reshape(m, m, 3)
            patch.setflags(write=False)
            patches.append(patch)
            sources.append((int(clip), int(scale), int(u), int(v)))
        patch_set = PatchSet(
            patches=tuple(patches), sources=tuple(sources), seed=seed, sizes=sizes
        )
    if r.next() != "end":
        raise SonoclassError(f"{path}: missing end marker")

    ovo = OvoModel(
        classes=tuple(range(n_classes)),
        pair_models=pair_models,
        scaler=(lo, hi),
    )
    return TrainedModel(
        ovo=ovo,
        method=method,
        config=config,
        class_names=tuple(class_names),
        selected_indices=selected,
        selected_scores=scores,
        n_raw_features=n_raw,
        patch_set=patch_set,
    )
