"""Seeded mutation fuzz of the four user inputs: a WAV file, a manifest (TSV
and JSON), a flat config file and a model file.

Each case makes a fixed number of edits from one seed: a token replaced,
added or dropped, a line dropped or a line repeated (for the WAV, a header
field overwritten and a byte run dropped or repeated). A mutated input may
load or be refused, but the only allowed failure is a SonoclassError (a
ConfigError is one), since the CLI turns exactly those into a one-line
message and an exit code. A model file that loads must also evaluate on the
mini corpus with no other exception.
"""

import random
import re
from dataclasses import replace

import numpy as np
import pytest

from sonoclass.audio_io import AudioClip, save_wav
from sonoclass.config import RunConfig, config_to_flat, load_config
from sonoclass.errors import SonoclassError
from sonoclass.manifest import DatasetManifest, ManifestEntry, read_manifest, write_manifest
from sonoclass.model_io import load_model, save_model
from sonoclass.pipeline import FeatureExtractor, evaluate_model, train_model

SEED = 2012
TOKENS = ["0", "1", "-1", "2", "3", "7", "0.5", "-0.0", "1e309", "-1e309", "nan", "inf", "-inf",
          "1e-320", "99999999999", "-99999999999", "abc", "none", "=", "#", "train", "test",
          "chirp", "wavelet", "patches", "{}", "[]", "null", '"', "é"]
WAV_VALUES = [0, 1, 2, 3, 7, 8, 9, 12, 16, 24, 32, 64, 0xFF, 0xFFFE, 0xFFFF, 0x7FFFFFFF,
              0xFFFFFFFF]


def mutate_text(text: str, rng: random.Random) -> tuple[str, str]:
    """One edit of text and a description of it."""
    lines = text.splitlines()
    at = rng.randrange(len(lines))
    kind = rng.choice(["token", "token", "add-token", "drop-token", "drop-line", "repeat-line"])
    if kind == "drop-line":
        del lines[at]
    elif kind == "repeat-line":
        lines.insert(at, lines[at])
    else:
        parts = re.split(r"(\s+)", lines[at])  # tokens at even indices, separators between
        i = rng.randrange(0, len(parts), 2)
        other = rng.choice(TOKENS + [rng.choice(rng.choice(lines).split() or ["0"])])
        if kind == "drop-token":
            del parts[i:i + 2]
        elif kind == "add-token":
            parts[i:i] = [other, " "]
        else:
            parts[i] = other
        lines[at] = "".join(parts)
    return "\n".join(lines) + "\n", f"{kind} at line {at + 1}"


def mutate_wav(blob: bytes, rng: random.Random) -> tuple[bytes, str]:
    """One edit of a WAV file's bytes and a description of it."""
    kind = rng.choice(["field", "field", "drop", "repeat"])
    if kind == "field":  # an integer field of the 44-byte header
        width = rng.choice([2, 4])
        at = rng.randrange(0, 44 - width + 1, 2)
        value = rng.choice(WAV_VALUES) & ((1 << (8 * width)) - 1)
        return blob[:at] + value.to_bytes(width, "little") + blob[at + width:], \
            f"{width}-byte field at {at} = {value}"
    at = rng.randrange(len(blob))
    end = at + rng.choice([1, 2, 4, 8, 64])
    if kind == "drop":
        return blob[:at] + blob[end:], f"drop bytes {at}:{end}"
    return blob[:end] + blob[at:end] + blob[end:], f"repeat bytes {at}:{end}"


def fuzz(original, mutate, load, tmp_path, suffix, cases, seed_offset=0):
    """Mutate original cases times, write each to a file and pass it to load;
    return every failure that is not a SonoclassError."""
    rng = random.Random(SEED + seed_offset)
    path = tmp_path / f"fuzzed{suffix}"
    defects = []
    for case in range(cases):
        mutated, what = mutate(original, rng)
        if isinstance(mutated, str):
            path.write_text(mutated, encoding="utf-8")
        else:
            path.write_bytes(mutated)
        try:
            load(path)
        except SonoclassError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other type is the defect being looked for
            defects.append(f"case {case} ({what}): {type(exc).__name__}: {exc}")
    return defects


def test_wav(tmp_path):
    rng = np.random.default_rng(0)
    source = tmp_path / "clip.wav"
    save_wav(source, AudioClip(samples=rng.uniform(-0.5, 0.5, 800), sample_rate=8000))
    # a short STFT, so the front end can run on a clip of 0.1 s
    extractor = FeatureExtractor(RunConfig(frame_size=64, hop=32))
    defects = fuzz(source.read_bytes(), mutate_wav, extractor.fixed_values, tmp_path, ".wav", 300)
    assert defects == []


@pytest.mark.parametrize("suffix", [".tsv", ".json"])
def test_manifest(tmp_path, suffix):
    source = tmp_path / f"manifest{suffix}"
    write_manifest(source, DatasetManifest((
        ManifestEntry("a.wav", "chirp", "train"), ManifestEntry("b.wav", "chirp", "test"),
        ManifestEntry("c.wav", "noise burst", "train"), ManifestEntry("d.wav", "noise burst"),
    )))
    defects = fuzz(source.read_text(), mutate_text, read_manifest, tmp_path, suffix, 300)
    assert defects == []


def test_config(tmp_path):
    flat = config_to_flat(RunConfig(method="wavelet", grid_c=(1.0, 8.0), grid_gamma=(0.5,)))
    text = "".join(f"{key} = {value}\n" for key, value in flat.items())

    def load(path):
        config = load_config(path)
        config.stft_params(), config.gabor_params(), config.kernel_params()

    assert fuzz(text, mutate_text, load, tmp_path, ".cfg", 300) == []


@pytest.mark.parametrize("method", ["bank", "wavelet"])
def test_model(mini_corpus, mini_config, tmp_path, method):
    manifest, cache = mini_corpus["manifest"], tmp_path / "cache"
    model = train_model(manifest, replace(mini_config, method=method), cache_dir=cache)
    source = tmp_path / "model.txt"
    save_model(source, model)

    def load(path):
        evaluate_model(load_model(path), manifest, cache_dir=cache)

    defects = fuzz(source.read_text(), mutate_text, load, tmp_path, ".txt", 150,
                   seed_offset=len(method))
    assert defects == []
