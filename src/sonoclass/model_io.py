"""Plain-text model persistence.

A model file is line-oriented and fully self-describing: a version header,
the feature configuration echo, class names, the MI selection (log-Gabor
methods), the feature scaler, every pairwise SVM, and the sampled patch
set (wavelet method). Floats are written with 17 significant digits so a
reload reproduces the model bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .config import METHODS, RunConfig, config_from_flat, config_to_flat
from .errors import SonoclassError
from .feature_select import MiSelection
from .svm import BinarySvmModel, KernelParams, OvoModel
from .wavelet_baseline import PatchSet

MODEL_HEADER = "SONOCLASS-MODEL v1"


@dataclass(frozen=True)
class TrainedModel:
    """Everything needed to classify new audio with a persisted model; its feature
    transform is the sampled patch set (wavelet) or the MI selection (the rest).
    A selection picks from the config's fixed-grid cells, a patch set holds
    wavelet.patches patches sized as sample_patches cycles wavelet.sizes, and
    the transform's width is the scaler's and every pair's support-vector width."""

    ovo: OvoModel
    config: RunConfig
    class_names: tuple[str, ...]
    selection: MiSelection | None = None
    patch_set: PatchSet | None = None

    def __post_init__(self):
        wavelet = self.method == "wavelet"
        for name, value, needed in (("patch set", self.patch_set, wavelet),
                                    ("selection", self.selection, not wavelet)):
            if (value is not None) != needed:
                article = "no" if needed else "a"
                raise SonoclassError(f"{self.method} model carries {article} {name}")
        if wavelet:
            width = len(self.patch_set)
        else:
            cells = self.config.fixed_rows * self.config.fixed_cols
            if self.selection.n_features != cells:
                raise SonoclassError(
                    f"selection from {self.selection.n_features} features, but the "
                    f"{self.config.fixed_rows}x{self.config.fixed_cols} grid gives {cells}"
                )
            width = self.selection.selected.size
        if self.ovo.n_features != width:
            raise SonoclassError(
                f"{width} transformed features, but a scaler of {self.ovo.n_features}"
            )
        for (a, b), pair in sorted(self.ovo.pair_models.items()):
            if pair.support_vectors.shape[1] != width:
                raise SonoclassError(f"pair {a} {b} support vectors have "
                                     f"{pair.support_vectors.shape[1]} features, expected {width}")
        if wavelet:
            if width != self.config.wavelet_patches:
                raise SonoclassError(
                    f"{width} patches, but wavelet.patches = {self.config.wavelet_patches}"
                )
            sizes = self.config.wavelet_sizes
            for i, patch in enumerate(self.patch_set.patches):
                m = sizes[i % len(sizes)]
                if patch.shape != (m, m, 3):
                    raise SonoclassError(f"patch {i} has shape {patch.shape}, expected {(m, m, 3)}")

    @property
    def method(self) -> str:
        return self.config.method


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_row(values) -> str:
    return " ".join(_fmt(v) for v in np.asarray(values, dtype=np.float64).ravel())


def _patches_line(n_patches: int, config: RunConfig) -> str:
    """The patch block's header: patches are sampled with the echo's seed and sizes."""
    return f"patches {n_patches} seed {config.seed} sizes " + " ".join(map(str, config.wavelet_sizes))


def save_model(path, model: TrainedModel) -> None:
    flat = config_to_flat(model.config)
    lines: list[str] = [MODEL_HEADER, f"method {model.method}", f"config {len(flat)}"]
    lines += [f"{key} = {flat[key]}" for key in sorted(flat)]

    lines.append(f"classes {len(model.class_names)}")
    for idx, name in enumerate(model.class_names):
        lines.append(f"class {idx} {name}")

    sel = model.selection
    if sel is None:
        lines.append("selection none")
    else:
        lines.append(f"selection {sel.selected.size} {sel.n_features}")
        lines.append("selected " + " ".join(str(int(i)) for i in sel.selected))
        lines.append("scores " + _fmt_row(sel.scores))

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
        lines.append(_patches_line(len(ps), model.config))
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
        """The next line's tokens; the first must be prefix."""
        line = self.next()
        tokens = line.split()
        if tokens[:1] != [prefix]:
            raise SonoclassError(f"expected {prefix!r}, got {line[:40]!r}")
        return tokens

    def header(self, prefix: str, count: int) -> list[str]:
        """The values after prefix on the next line, which holds exactly count of them."""
        values = self.expect(prefix)[1:]
        if len(values) != count:
            raise SonoclassError(f"line {self.pos}: expected {count} value(s) after {prefix!r}, "
                                 f"got {len(values)}")
        return values

    def none(self, prefix: str) -> bool:
        """Whether the next line is `prefix none`, which is then consumed."""
        if self.lines[self.pos:self.pos + 1] == [f"{prefix} none"]:
            self.pos += 1
            return True
        return False

    def numbers(self, prefix: str, count: int, parse=float) -> np.ndarray:
        """The count finite numbers on the next line, after prefix unless it is ''."""
        tokens = self.expect(prefix)[1:] if prefix else self.next().split()
        if len(tokens) != count:
            raise SonoclassError(f"line {self.pos}: expected {count} numbers, got {len(tokens)}")
        dtype = np.int64 if parse is int else np.float64
        values = np.array([parse(t) for t in tokens], dtype=dtype)
        finite = np.isfinite(values)
        if not finite.all():
            bad = tokens[int(np.argmin(finite))]
            raise SonoclassError(f"line {self.pos}: {bad!r} is not a finite number")
        return values

    def rows(self, count: int, width: int) -> np.ndarray:
        """The next count lines of width numbers each; a count beyond the lines
        left is refused before anything is read."""
        left = len(self.lines) - self.pos
        if not 0 <= count <= left:
            raise SonoclassError(f"line {self.pos}: {count} rows, but {left} lines follow")
        return np.array([self.numbers("", width) for _ in range(count)]).reshape(count, width)


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
    (method,) = r.header("method", 1)
    if method not in METHODS:
        raise SonoclassError(f"method {method!r} is not one of {METHODS}")

    n_cfg = int(r.header("config", 1)[0])
    # each echo line is `key = value`
    config = config_from_flat(dict(r.next().partition(" = ")[::2] for _ in range(n_cfg)))
    if config.method != method:
        raise SonoclassError(
            f"method {method!r} disagrees with the config echo's {config.method!r}"
        )

    n_classes = int(r.header("classes", 1)[0])
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

    selection = None
    if not r.none("selection"):
        k, n_raw = (int(t) for t in r.header("selection", 2))
        selected = r.numbers("selected", k, int)
        selection = MiSelection(selected=selected, scores=r.numbers("scores", k), n_features=n_raw)

    dim = int(r.header("scaler", 1)[0])
    lo = r.numbers("min", dim)
    hi = r.numbers("max", dim)

    n_pairs = int(r.header("pairs", 1)[0])
    pair_models: dict[tuple[int, int], BinarySvmModel] = {}
    for _ in range(n_pairs):
        a, b = (int(t) for t in r.header("pair", 2))
        if not 0 <= a < b < n_classes:
            raise SonoclassError(f"pair {a} {b} outside {n_classes} classes")
        if (a, b) in pair_models:
            raise SonoclassError(f"pair {a} {b} appears twice")
        gamma, c = r.header("params", 2)
        bias = float(r.numbers("bias", 1)[0])
        (converged,) = r.header("converged", 1)
        if converged not in ("0", "1"):
            raise SonoclassError(f"line {r.pos}: converged {converged!r} is not 0 or 1")
        n_sv, sv_dim = (int(t) for t in r.header("sv", 2))
        pair_models[(a, b)] = BinarySvmModel(
            support_vectors=r.rows(n_sv, sv_dim),
            dual_coef=r.numbers("coef", n_sv),
            bias=bias,
            params=KernelParams(gamma=float(gamma), c=float(c)),
            converged=converged == "1",
        )
    missing = [p for p in combinations(range(n_classes), 2) if p not in pair_models]
    if missing:
        a, b = missing[0]
        raise SonoclassError(f"no model for pair {a} {b} of {n_classes} classes")

    patch_set = None
    if not r.none("patches"):
        patch_line = r.expect("patches")
        count = patch_line[1] if len(patch_line) > 1 else ""
        n_patches = int(count) if count.isdigit() else config.wavelet_patches
        line, expected = " ".join(patch_line), _patches_line(n_patches, config)
        if line != expected:
            raise SonoclassError(f"expected {expected!r} from the config echo, got {line!r}")
        patches, sources = [], []
        for _ in range(n_patches):
            m, clip, scale, u, v = (int(t) for t in r.header("patch", 5))
            patch = r.numbers("", m * m * 3).reshape(m, m, 3)
            patch.setflags(write=False)
            patches.append(patch)
            sources.append((clip, scale, u, v))
        patch_set = PatchSet(patches=tuple(patches), sources=tuple(sources))
    if r.next() != "end":
        raise SonoclassError("missing end marker")

    return TrainedModel(
        ovo=OvoModel(classes=tuple(range(n_classes)), pair_models=pair_models, scaler=(lo, hi)),
        config=config,
        class_names=tuple(class_names),
        selection=selection,
        patch_set=patch_set,
    )
