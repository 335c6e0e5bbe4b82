import tracemalloc

import numpy as np
import pytest

from sonoclass import log_gabor
from sonoclass.errors import SonoclassError
from sonoclass.log_gabor import (
    LogGaborParams,
    apply_filter,
    band_patch_feature,
    band_row_ranges,
    bank_average_feature,
    build_bank,
    log_gabor_value,
    single_filter_feature,
)

PARAMS = LogGaborParams()


class TestTransferFunction:
    def test_unity_at_center(self):
        assert log_gabor_value(1 / 3, 0.0, 1 / 3, 0.0, 0.65, 0.6545) == pytest.approx(1.0)

    def test_one_angular_std(self):
        v = log_gabor_value(1 / 3, 0.6545, 1 / 3, 0.0, 0.65, 0.6545)
        assert v == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_one_radial_std(self):
        # r such that ln(r/f0) = ln(sigma): r = f0 * sigma
        v = log_gabor_value((1 / 3) * 0.65, 0.0, 1 / 3, 0.0, 0.65, 0.6545)
        assert v == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_zero_at_dc(self):
        assert log_gabor_value(0.0, 0.0, 1 / 3, 0.0, 0.65, 0.6545) == 0.0

    def test_angular_wrap(self):
        # angles are periodic: 2*pi - 0.1 sits 0.1 away from theta0 = 0
        wrapped = log_gabor_value(1 / 3, 2 * np.pi - 0.1, 1 / 3, 0.0, 0.65, 0.6545)
        direct = log_gabor_value(1 / 3, -0.1, 1 / 3, 0.0, 0.65, 0.6545)
        assert wrapped == pytest.approx(direct, abs=1e-12)
        # and pi + x mirrors to pi - x
        a = log_gabor_value(1 / 3, np.pi + 0.3, 1 / 3, 0.0, 0.65, 0.6545)
        b = log_gabor_value(1 / 3, np.pi - 0.3, 1 / 3, 0.0, 0.65, 0.6545)
        assert a == pytest.approx(b, abs=1e-12)


class TestBuildBank:
    def test_default_geometry(self):
        bank = build_bank((128, 128), PARAMS)
        assert bank.masks.shape == (2, 6, 128, 128)

    def test_dc_zero_peak_one_range(self):
        bank = build_bank((128, 128), PARAMS)
        flat = bank.masks.reshape(12, -1)
        assert np.all(bank.masks[:, :, 0, 0] == 0.0)
        assert np.all(flat.max(axis=1) == 1.0)
        assert flat.min() >= 0.0 and flat.max() <= 1.0

    def test_small_grid_also_ok(self):
        bank = build_bank((16, 16), PARAMS)
        assert np.all(bank.masks[:, :, 0, 0] == 0.0)
        assert np.all(bank.masks.reshape(12, -1).max(axis=1) == 1.0)

    def test_grid_too_small(self):
        with pytest.raises(SonoclassError, match="grid 4x16 is below the 8x8 minimum"):
            build_bank((4, 16), PARAMS)

    def test_one_bank_per_grid_and_params(self):
        assert build_bank((16, 16), PARAMS) is build_bank((16, 16), LogGaborParams())
        assert not build_bank((16, 16), PARAMS).masks.flags.writeable

    def test_default_params_share_one_cached_bank(self):
        log_gabor._cached_bank.cache_clear()
        assert build_bank((16, 16)) is build_bank((16, 16), LogGaborParams())
        assert log_gabor._cached_bank.cache_info().currsize == 1

    def test_mask_indexing_one_based(self):
        bank = build_bank((16, 16), PARAMS)
        assert np.array_equal(bank.mask(2, 6), bank.masks[1, 5])
        for bad in [(0, 1), (3, 1), (1, 0), (1, 7)]:
            with pytest.raises(SonoclassError, match="outside 2 scales x 6 orientations"):
                bank.mask(*bad)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LogGaborParams(f0_per_scale=(0.6, 0.3))  # above Nyquist
        with pytest.raises(ValueError):
            LogGaborParams(sigma_ratio=1.5)
        with pytest.raises(ValueError, match="one frequency per scale"):
            LogGaborParams(n_scales=3, f0_per_scale=(0.3, 0.15))

    def test_default_f0_is_one_octave_per_scale(self):
        from sonoclass.config import RunConfig
        assert PARAMS.f0_per_scale == (1 / 3, 1 / 6)
        f0 = LogGaborParams(n_scales=3).f0_per_scale
        assert f0 == (1 / 3, 1 / 6, 1 / 12)
        assert RunConfig(gabor_scales=3).gabor_params().f0_per_scale == f0


class TestApplyFilter:
    def test_identity_mask(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, size=(16, 16))
        out = apply_filter(values, np.ones((16, 16)))
        assert np.allclose(out, np.abs(values), atol=1e-12)

    def test_zero_mask(self):
        out = apply_filter(np.ones((8, 8)), np.zeros((8, 8)))
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(SonoclassError, match=r"\(8, 8\) vs mask \(16, 16\)"):
            apply_filter(np.ones((8, 8)), np.ones((16, 16)))
        with pytest.raises(SonoclassError, match=r"\(8, 8\) vs mask \(2, 6, 8, 16\)"):
            apply_filter(np.ones((8, 8)), np.ones((2, 6, 8, 16)))

    @pytest.mark.parametrize("shape", [(128, 128), (43, 128), (42, 128)])
    def test_stack_matches_single_masks_exactly(self, shape):
        rng = np.random.default_rng(sum(shape))
        values = rng.uniform(-3, 3, size=shape)
        bank = build_bank(shape, PARAMS)
        stack = apply_filter(values, bank.masks)
        for scale in (1, 2):
            for orientation in range(1, 7):
                assert np.array_equal(stack[scale - 1, orientation - 1],
                                      apply_filter(values, bank.mask(scale, orientation)))
        # the expression bank_average_feature used before it shared apply_filter
        flat_masks = bank.masks.reshape(-1, *shape)
        reshaped = np.abs(np.fft.ifft2(np.fft.fft2(values)[None] * flat_masks, axes=(1, 2)))
        assert np.array_equal(bank_average_feature(values, bank), reshaped.mean(axis=0).ravel())

    def test_stack_peak_memory_is_under_twice_the_output(self):
        # one inverse FFT per mask into the output; a stacked inverse FFT
        # held a complex copy of all 12 responses and peaked near 6x
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=(128, 128))
        bank = build_bank((128, 128), PARAMS)
        apply_filter(values, bank.masks)  # FFT set-up costs stay out of the peak
        tracemalloc.start()
        try:
            out = apply_filter(values, bank.masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (2, 6, 128, 128) and out.dtype == np.float64
        assert peak <= 2 * out.nbytes

    def test_matches_direct_circular_convolution(self):
        # oracle: spatial kernel = IFFT of the mask; direct wrap-around sum
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 1, size=(16, 16))
        bank = build_bank((16, 16), PARAMS)
        for scale, orientation in [(1, 1), (1, 4), (2, 3)]:
            mask = bank.mask(scale, orientation)
            kernel = np.fft.ifft2(mask)
            direct = np.zeros((16, 16), dtype=complex)
            for p in range(16):
                for q in range(16):
                    acc = 0.0 + 0.0j
                    for a in range(16):
                        for b in range(16):
                            acc += values[a, b] * kernel[(p - a) % 16, (q - b) % 16]
                    direct[p, q] = acc
            assert np.max(np.abs(apply_filter(values, mask) - np.abs(direct))) <= 1e-8

    def test_dc_offset_invariance(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 1, size=(32, 32))
        bank = build_bank((32, 32), PARAMS)
        base = apply_filter(values, bank.masks)
        shifted = apply_filter(values + 3.7, bank.masks)
        assert np.max(np.abs(base - shifted)) <= 1e-6


class TestFeatureMethods:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.values = rng.uniform(0, 1, size=(128, 128))
        self.bank = build_bank((128, 128), PARAMS)

    def test_single_length_and_order(self):
        vec = single_filter_feature(self.values, self.bank, 1, 3)
        assert vec.shape == (128 * 128,)
        response = apply_filter(self.values, self.bank.mask(1, 3))
        assert vec[5 * 128 + 7] == response[5, 7]

    def test_single_zero_input(self):
        vec = single_filter_feature(np.zeros((128, 128)), self.bank, 2, 1)
        assert np.allclose(vec, 0.0, atol=1e-14)

    def test_bank_equals_mean_of_singles_exactly(self):
        singles = np.stack([
            single_filter_feature(self.values, self.bank, m, n)
            for m in (1, 2) for n in range(1, 7)
        ])
        combined = bank_average_feature(self.values, self.bank)
        assert np.array_equal(combined, singles.mean(axis=0))

    def test_bank_composition_oracle(self):
        responses = [
            apply_filter(self.values, self.bank.mask(m, n))
            for m in (1, 2) for n in range(1, 7)
        ]
        expected = np.stack(responses).mean(axis=0).ravel()
        assert np.allclose(bank_average_feature(self.values, self.bank), expected,
                           rtol=0, atol=1e-12)

    def test_band_ranges_partition_128(self):
        assert band_row_ranges(128) == ((0, 43), (43, 86), (86, 128))

    def test_patches_length_and_structure(self):
        vec = band_patch_feature(self.values, self.bank)
        assert vec.shape == (128 * 128,)
        # first band occupies the first 43*128 entries
        band1 = build_bank((43, 128), PARAMS)
        expected = apply_filter(self.values[0:43], band1.masks).mean(axis=(0, 1)).ravel()
        assert np.array_equal(vec[:43 * 128], expected)

    def test_patches_zero_input(self):
        vec = band_patch_feature(np.zeros((128, 128)), self.bank)
        assert np.allclose(vec, 0.0, atol=1e-14)

    def test_patches_requires_128_rows(self):
        bank64 = build_bank((64, 64), PARAMS)
        with pytest.raises(SonoclassError, match="defined for 128 rows, got 64"):
            band_patch_feature(np.zeros((64, 64)), bank64)

    def test_methods_deterministic(self):
        a = bank_average_feature(self.values, self.bank)
        b = bank_average_feature(self.values.copy(), self.bank)
        assert np.array_equal(a, b)
        c = band_patch_feature(self.values, self.bank)
        d = band_patch_feature(self.values.copy(), self.bank)
        assert np.array_equal(c, d)
