import numpy as np
import pytest

from sonoclass.audio_io import AudioClip
from sonoclass.errors import SonoclassError
from sonoclass.spectrogram import (
    StftParams,
    frame_count,
    log_magnitude,
    stft,
    to_fixed,
)


def random_clip(n, seed=0):
    rng = np.random.default_rng(seed)
    return AudioClip(rng.uniform(-0.9, 0.9, size=n), 8000)


class TestStftParams:
    def test_defaults(self):
        p = StftParams()
        assert p.frame_size == 256 and p.hop == 64

    def test_hamming_formula_and_symmetry(self):
        w = StftParams(frame_size=256).window
        n = np.arange(256)
        assert np.allclose(w, 0.54 - 0.46 * np.cos(2 * np.pi * n / 255))
        assert np.allclose(w, w[::-1])
        assert np.all(w > 0) and np.all(w <= 1.08)

    def test_bad_hop(self):
        with pytest.raises(ValueError):
            StftParams(frame_size=64, hop=65)
        with pytest.raises(ValueError):
            StftParams(hop=0)

    def test_one_sample_frame_rejected(self):
        # a 1-sample frame has one frequency bin, too few rows for to_fixed
        with pytest.raises(ValueError, match="need frame_size >= 2, got 1"):
            StftParams(frame_size=1, hop=1)
        assert stft(random_clip(8), StftParams(frame_size=2, hop=1)).shape == (2, 7)


class TestStft:
    def test_frame_count_1000_samples(self):
        clip = random_clip(1000)
        assert stft(clip).shape == (129, 12)
        assert frame_count(1000, StftParams()) == 12

    def test_zero_clip_zero_matrix(self):
        clip = AudioClip(np.zeros(600), 8000)
        assert np.all(stft(clip) == 0)

    def test_too_short(self):
        with pytest.raises(SonoclassError, match="255 samples, need at least 256"):
            stft(random_clip(255))

    @pytest.mark.parametrize("k", [1, 17, 64, 127])
    def test_sine_peaks_at_bin(self, k):
        sr = 8000
        t = np.arange(2048) / sr
        clip = AudioClip(0.5 * np.sin(2 * np.pi * (k * sr / 256) * t), sr)
        mag = np.abs(stft(clip))
        assert np.all(np.argmax(mag, axis=0) == k)

    def test_matches_direct_dft_sum(self):
        # oracle: evaluate sum_n f[n + x*hop] w[n] exp(-i 2 pi y n / frame)
        clip = random_clip(700, seed=3)
        p = StftParams()
        result = stft(clip, p)
        f = clip.samples
        for x, y in [(0, 0), (1, 5), (3, 64), (6, 128)]:
            direct = sum(
                f[n + x * p.hop] * p.window[n] * np.exp(-2j * np.pi * y * n / p.frame_size)
                for n in range(p.frame_size)
            )
            assert abs(result[y, x] - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_linearity(self):
        f = random_clip(900, seed=1)
        g = random_clip(900, seed=2)
        combo = AudioClip(0.3 * f.samples + 0.6 * g.samples, 8000)
        lhs = stft(combo)
        rhs = 0.3 * stft(f) + 0.6 * stft(g)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))

    def test_hop_shift_moves_columns(self):
        p = StftParams()
        clip = random_clip(2000, seed=4)
        shifted = AudioClip(clip.samples[p.hop:], 8000)
        a = stft(clip, p)
        b = stft(shifted, p)
        cols = b.shape[1]
        assert np.max(np.abs(a[:, 1:cols + 1] - b)) <= 1e-9

    def test_windowed_parseval(self):
        # two-sided energy per frame == frame_size * windowed-signal energy
        p = StftParams()
        clip = random_clip(1500, seed=5)
        half = stft(clip, p)
        full = np.vstack([half, np.conj(half[-2:0:-1, :])])
        f = clip.samples
        for x in range(full.shape[1]):
            seg = f[x * p.hop:x * p.hop + p.frame_size] * p.window
            lhs = np.sum(np.abs(full[:, x]) ** 2)
            rhs = p.frame_size * np.sum(seg**2)
            assert abs(lhs - rhs) <= 1e-6 * rhs


class TestLogMagnitude:
    def test_unit_magnitude(self):
        spec = log_magnitude(np.ones((4, 4), dtype=complex))
        assert np.all(spec == 0.0)

    def test_floor_engages(self):
        spec = log_magnitude(np.zeros((3, 3), dtype=complex), log_floor=1e-10)
        assert np.allclose(spec, np.log(1e-10))
        assert np.all(np.isfinite(spec))

    def test_natural_log(self):
        spec = log_magnitude(np.full((2, 2), np.e, dtype=complex))
        assert np.allclose(spec, 1.0)


def bilinear_at(values, r, c):
    """Scalar align-corners bilinear interpolation, written independently."""
    r0, c0 = int(np.floor(r)), int(np.floor(c))
    r1 = min(r0 + 1, values.shape[0] - 1)
    c1 = min(c0 + 1, values.shape[1] - 1)
    fr, fc = r - r0, c - c0
    top = values[r0, c0] * (1 - fc) + values[r0, c1] * fc
    bottom = values[r1, c0] * (1 - fc) + values[r1, c1] * fc
    return top * (1 - fr) + bottom * fr


class TestToFixed:
    def test_identity_resize_is_minmax(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(2.0, 5.0, size=(128, 128))
        out = to_fixed(values, 128, 128)
        expected = (values - values.min()) / (values.max() - values.min())
        assert np.allclose(out, expected)

    def test_constant_maps_to_half(self):
        out = to_fixed(np.full((20, 30), 7.0), 8, 8)
        assert np.all(out == 0.5)

    def test_degenerate_input(self):
        with pytest.raises(SonoclassError, match="cannot resize a 1x50 spectrogram"):
            to_fixed(np.ones((1, 50)), 8, 8)
        with pytest.raises(SonoclassError, match="cannot resize a 50x1 spectrogram"):
            to_fixed(np.ones((50, 1)), 8, 8)

    @pytest.mark.parametrize(
        "shape",
        [(129, 12), (513, 31), (2, 200), (129, 247), (128, 128)],
        ids=lambda s: f"{s[0]}x{s[1]}",
    )
    def test_matches_scalar_bilinear_oracle(self, shape):
        # up, down, a 2-row input, the real STFT shape and the identity
        rng = np.random.default_rng(7)
        values = rng.normal(size=shape)
        rows, cols = 128, 128
        out = to_fixed(values, rows, cols)
        assert out.flags.c_contiguous
        rr = np.linspace(0, shape[0] - 1, rows)
        cc = np.linspace(0, shape[1] - 1, cols)
        raw = np.array([[bilinear_at(values, r, c) for c in cc] for r in rr])
        expected = (raw - raw.min()) / (raw.max() - raw.min())
        for i in range(rows):
            for j in range(cols):
                assert out[i, j] == pytest.approx(expected[i, j], abs=1e-12)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(8)
        out = to_fixed(rng.normal(size=(60, 40)), 32, 32)
        assert out.min() == 0.0 and out.max() == 1.0
