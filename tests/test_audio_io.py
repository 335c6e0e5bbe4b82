import numpy as np
import pytest

from sonoclass import audio_io
from sonoclass.audio_io import (
    AudioClip,
    load_wav,
    peak_normalize,
    save_wav,
    synthesize_clip,
)
from sonoclass.errors import ConfigError, SonoclassError
from conftest import make_wav_bytes


class TestLoadWav:
    def test_16bit_full_scale(self, wav_file):
        data = np.full(50, 32767, dtype="<i2").tobytes()
        clip = load_wav(wav_file("full.wav", make_wav_bytes(1, 1, 8000, 16, data)))
        assert np.allclose(clip.samples, 32767 / 32768)
        assert clip.sample_rate == 8000

    def test_16bit_zeros(self, wav_file):
        data = np.zeros(64, dtype="<i2").tobytes()
        clip = load_wav(wav_file("z.wav", make_wav_bytes(1, 1, 44100, 16, data)))
        assert np.all(clip.samples == 0.0)

    def test_stereo_downmix_cancels(self, wav_file):
        left = np.full(40, 16384, dtype="<i2")
        right = np.full(40, -16384, dtype="<i2")
        interleaved = np.empty(80, dtype="<i2")
        interleaved[0::2] = left
        interleaved[1::2] = right
        clip = load_wav(wav_file("st.wav", make_wav_bytes(1, 2, 8000, 16, interleaved.tobytes())))
        assert np.all(clip.samples == 0.0)
        assert clip.samples.size == 40  # one sample per frame

    def test_8bit_scaling(self, wav_file):
        data = bytes([255, 128, 0])
        clip = load_wav(wav_file("u8.wav", make_wav_bytes(1, 1, 8000, 8, data)))
        assert np.allclose(clip.samples, [(255 - 128) / 128, 0.0, -1.0])

    def test_24bit_scaling(self, wav_file):
        frames = b"\xff\xff\x7f" + b"\x00\x00\x80" + b"\x00\x00\x00"
        clip = load_wav(wav_file("i24.wav", make_wav_bytes(1, 1, 8000, 24, frames)))
        assert np.allclose(clip.samples, [(2**23 - 1) / 2**23, -1.0, 0.0])

    def test_32bit_int(self, wav_file):
        data = np.array([2**31 - 1, -(2**31), 0], dtype="<i4").tobytes()
        clip = load_wav(wav_file("i32.wav", make_wav_bytes(1, 1, 8000, 32, data)))
        assert np.allclose(clip.samples, [(2**31 - 1) / 2**31, -1.0, 0.0])

    def test_float32_hot_signal_rescaled(self, wav_file):
        data = np.array([2.0, -1.0, 0.5], dtype="<f4").tobytes()
        clip = load_wav(wav_file("f32.wav", make_wav_bytes(3, 1, 8000, 32, data)))
        assert np.allclose(clip.samples, [1.0, -0.5, 0.25])

    def test_float32_in_range_untouched(self, wav_file):
        data = np.array([0.5, -0.25], dtype="<f4").tobytes()
        clip = load_wav(wav_file("f32b.wav", make_wav_bytes(3, 1, 8000, 32, data)))
        assert np.allclose(clip.samples, [0.5, -0.25])

    def test_extensible_pcm(self, wav_file):
        # WAVE_FORMAT_EXTENSIBLE wrapping plain PCM
        extra = struct_pack_extensible(subformat=1)
        data = np.full(10, 16384, dtype="<i2").tobytes()
        clip = load_wav(wav_file("ext.wav", make_wav_bytes(0xFFFE, 1, 8000, 16, data, extra)))
        assert np.allclose(clip.samples, 0.5)

    def test_truncated_header(self, wav_file):
        with pytest.raises(SonoclassError, match="not a RIFF/WAVE file"):
            load_wav(wav_file("bad.wav", b"RIFF\x00\x00"))

    def test_not_riff(self, wav_file):
        with pytest.raises(SonoclassError, match="not a RIFF/WAVE file"):
            load_wav(wav_file("bad2.wav", b"OggS" + b"\x00" * 40))

    def test_compressed_codec_rejected(self, wav_file):
        blob = make_wav_bytes(85, 1, 8000, 16, b"\x00" * 64)  # MPEG layer 3 tag
        with pytest.raises(SonoclassError, match="format tag 0x55"):
            load_wav(wav_file("mp3.wav", blob))

    def test_zero_frames(self, wav_file):
        with pytest.raises(SonoclassError, match="zero audio frames"):
            load_wav(wav_file("empty.wav", make_wav_bytes(1, 1, 8000, 16, b"")))

    def test_partial_frame(self, wav_file):
        with pytest.raises(SonoclassError, match="not a whole number of frames"):
            load_wav(wav_file("ragged.wav", make_wav_bytes(1, 2, 8000, 16, b"\x00\x01\x02")))

    def test_truncated_data_chunk(self, wav_file):
        blob = make_wav_bytes(1, 1, 8000, 16, np.zeros(8, dtype="<i2").tobytes())
        with pytest.raises(SonoclassError, match="truncated b'data' chunk"):
            load_wav(wav_file("trunc.wav", blob[:-6]))

    def test_round_trip_through_save(self, tmp_path):
        clip = synthesize_clip("harmonic_tone", 0.05, 8000, 3)
        path = tmp_path / "rt.wav"
        save_wav(path, clip)
        loaded = load_wav(path)
        assert loaded.sample_rate == 8000
        # write scales by 32767, read by 32768: peak*1/32768 skew + rounding
        assert np.max(np.abs(loaded.samples - clip.samples)) < 1.5 / 32768


def struct_pack_extensible(subformat):
    import struct
    # cbSize=22, validBits=16, channelMask=0, GUID starting with the subformat
    return struct.pack("<HHI", 22, 16, 0) + struct.pack("<H", subformat) + b"\x00" * 14


class TestAudioClip:
    def test_caller_array_stays_writable(self):
        samples = np.zeros(10)
        clip = AudioClip(samples, 8000)
        samples[1] = 0.1
        assert clip.samples[1] == 0.0
        assert not clip.samples.flags.writeable


class TestPeakNormalize:
    def test_scales_by_peak(self):
        clip = AudioClip(np.array([0.25, -0.5]), 8000)
        assert np.allclose(peak_normalize(clip).samples, [0.5, -1.0])

    def test_silence_passthrough(self):
        clip = AudioClip(np.zeros(16), 8000)
        out = peak_normalize(clip)
        assert np.all(out.samples == 0.0)

    def test_already_normalized(self):
        clip = AudioClip(np.array([1.0, 0.1]), 8000)
        assert np.array_equal(peak_normalize(clip).samples, [1.0, 0.1])

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(0)
        clip = AudioClip(rng.uniform(-0.3, 0.3, size=500), 8000)
        once = peak_normalize(clip)
        twice = peak_normalize(once)
        assert np.array_equal(once.samples, twice.samples)
        assert np.max(np.abs(once.samples)) == 1.0


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_clip("chirp", 0.2, 8000, 42)
        b = synthesize_clip("chirp", 0.2, 8000, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_kinds_differ(self):
        a = synthesize_clip("chirp", 0.2, 8000, 42)
        b = synthesize_clip("noise_burst", 0.2, 8000, 42)
        assert not np.array_equal(a.samples, b.samples)

    def test_impulse_train_isolated_periodic(self):
        clip = synthesize_clip("impulse_train", 1.0, 8000, 5)
        nz = np.flatnonzero(clip.samples)
        assert nz.size >= 5
        gaps = np.diff(nz)
        assert np.all(gaps == gaps[0])          # strictly periodic
        assert gaps[0] >= int(0.05 * 8000)       # period in [50, 200] ms
        assert gaps[0] <= int(0.2 * 8000)

    def test_invalid_duration(self):
        for duration in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="duration must be finite and > 0"):
                synthesize_clip("chirp", duration, 8000, 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synthesize_clip("square_wave", 1.0, 8000, 1)

    def test_harmonic_spectrum_concentrated_at_three_multiples(self):
        # FFT oracle: the three dominant components must sit at f, 2f, 3f
        # for some f in [200, 800], and carry nearly all the energy.
        sr = 44100
        clip = synthesize_clip("harmonic_tone", 1.0, sr, 9)
        spectrum = np.abs(np.fft.rfft(clip.samples))
        spectrum[0] = 0.0
        freqs = np.fft.rfftfreq(clip.samples.size, 1.0 / sr)
        f0 = freqs[np.argmax(spectrum)]
        assert 190.0 < f0 < 810.0
        total = float(np.sum(spectrum**2))
        near = 0.0
        for h in (1, 2, 3):
            sel = np.abs(freqs - h * f0) < 15.0
            near += float(np.sum(spectrum[sel] ** 2))
        assert near / total > 0.95

    def test_range_bounded(self):
        for kind in audio_io.SYNTH_KINDS:
            clip = synthesize_clip(kind, 0.3, 8000, 11)
            assert np.max(np.abs(clip.samples)) <= 0.9 + 1e-12
