import os
import struct
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for qp_oracle

import sonoclass
from sonoclass.audio_io import generate_corpus
from sonoclass.config import RunConfig
from sonoclass.manifest import auto_split


def make_wav_bytes(fmt_tag, channels, rate, bits, data, extra=b""):
    """Assemble a minimal RIFF/WAVE blob for loader tests."""
    fmt = struct.pack(
        "<HHIIHH", fmt_tag, channels, rate,
        rate * channels * (bits // 8), channels * (bits // 8), bits,
    ) + extra
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if len(fmt) % 2:
        chunks += b"\x00"
    chunks += b"data" + struct.pack("<I", len(data)) + data
    if len(data) % 2:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fails a test that ends with a live thread it did not start with, such
    as a helper thread of `cpus.run_each`, which every parallel step (MI
    selection, per-clip extraction and compare's cold cache fill) runs on,
    left unjoined."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


@pytest.fixture
def wav_file(tmp_path):
    def write(name, blob):
        path = tmp_path / name
        path.write_bytes(blob)
        return path
    return write


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    """4 classes x 6 short clips, split 2/3, with a shared cache dir."""
    root = tmp_path_factory.mktemp("mini_corpus")
    manifest = generate_corpus(
        root / "clips", clips_per_class=6, duration_s=0.25, sample_rate=8000, seed=100
    )
    manifest = auto_split(manifest, seed=1)
    return {"manifest": manifest, "root": root, "cache": str(root / "cache")}


@pytest.fixture(scope="session")
def mini_config():
    return RunConfig(
        method="bank", seed=1, mi_top_k=32, svm_c=8.0, svm_gamma=0.5,
        wavelet_patches=30,
    )


@pytest.fixture
def src_env():
    """Builds the environment for a child interpreter that imports the
    sonoclass under test; keyword arguments add or override variables."""
    src = str(Path(sonoclass.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")

    def build(**extra):
        return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **extra}

    return build
