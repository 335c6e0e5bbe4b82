"""Dataset manifests and the stratified train/test split.

A manifest is tab-separated text (path TAB label TAB split, split one of
train/test, or two fields for not-yet-split data); a JSON variant with the
same fields is read and written for `.json` paths. A path or label must be
printable (no tab, line break or other control character), so that every
manifest and model file can hold it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, SonoclassError

TRAIN_FRACTION = 2.0 / 3.0


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    split: str = ""  # "train", "test", or "" when not yet assigned


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]
    # each clip's content hash by path, filled by the feature pipeline, so
    # a run that extracts several configurations hashes every clip once
    content_hashes: dict[str, str] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise SonoclassError("duplicate paths in manifest")
        for e in self.entries:
            if not e.path.isprintable():
                raise SonoclassError(f"path {e.path!r} holds an unprintable character")
            if not e.label.isprintable():
                raise SonoclassError(f"{e.path}: label {e.label!r} holds an unprintable character")
            if not e.label:
                raise SonoclassError(f"{e.path}: empty label")
            if e.split not in ("", "train", "test"):
                raise SonoclassError(f"{e.path}: bad split {e.split!r}")

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted({e.label for e in self.entries}))

    def rows(self, split: str) -> tuple[ManifestEntry, ...]:
        return tuple(e for e in self.entries if e.split == split)

    def split_hash(self) -> str:
        text = "\n".join(f"{e.path}\t{e.split}" for e in sorted(self.entries, key=lambda e: e.path))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def read_manifest(path) -> DatasetManifest:
    path = Path(path)
    if not path.exists():
        raise SonoclassError(f"manifest not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SonoclassError(f"{path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        try:
            doc = json.loads(text)
            entries = tuple(
                ManifestEntry(str(e["path"]), str(e["label"]), str(e.get("split", "")))
                for e in doc["entries"]
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise SonoclassError(f"{path}: {exc}") from exc
        return DatasetManifest(entries=entries)

    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 2:
            entries.append(ManifestEntry(parts[0], parts[1]))
        elif len(parts) == 3:
            entries.append(ManifestEntry(parts[0], parts[1], parts[2]))
        else:
            raise SonoclassError(f"{path}:{lineno}: expected 2 or 3 tab-separated fields")
    return DatasetManifest(entries=tuple(entries))


def write_manifest(path, manifest: DatasetManifest) -> None:
    path = Path(path)
    if path.suffix.lower() == ".json":
        doc = {"entries": [
            {"path": e.path, "label": e.label, "split": e.split} for e in manifest.entries
        ]}
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="\n")
        return
    lines = [
        f"{e.path}\t{e.label}\t{e.split}" if e.split else f"{e.path}\t{e.label}"
        for e in manifest.entries
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def auto_split(
    manifest: DatasetManifest,
    train_fraction: float = TRAIN_FRACTION,
    seed: int = 0,
) -> DatasetManifest:
    """Assign stratified train/test splits: ceil(fraction * n) per class to train."""
    if seed < 0:
        raise ConfigError(f"seed must be at least 0, got {seed}")
    if not (np.isfinite(train_fraction) and 0.0 < train_fraction <= 1.0):
        raise ConfigError(f"train fraction must lie in (0, 1], got {train_fraction}")
    by_class: dict[str, list[int]] = {}
    for i, e in enumerate(manifest.entries):
        by_class.setdefault(e.label, []).append(i)
    rng = np.random.default_rng(seed)
    split = [""] * len(manifest.entries)
    for label in sorted(by_class):
        rows = by_class[label]
        if len(rows) < 3:
            raise SonoclassError(f"class {label!r} has only {len(rows)} entries")
        n_train = int(np.ceil(train_fraction * len(rows)))
        order = rng.permutation(len(rows))
        for rank, j in enumerate(order):
            split[rows[j]] = "train" if rank < n_train else "test"
    entries = tuple(
        replace(e, split=s) for e, s in zip(manifest.entries, split)
    )
    return DatasetManifest(entries=entries)
