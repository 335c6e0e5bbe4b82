import os
import threading

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import c2_reference
from sonoclass.errors import SonoclassError
from sonoclass.wavelet_baseline import (
    SCALES,
    PatchSet,
    c1_pyramid,
    global_max,
    local_max,
    normalize_scale,
    patch_transform,
    sample_patches,
    tiwt,
)


def cascade_taps(scale, highpass_last):
    """Effective 1D analysis filter at a dyadic scale, built independently
    by convolving zero-upsampled Haar taps."""
    taps = np.array([1.0])
    for j in range(1, scale):
        s = 2 ** (j - 1)
        up = np.zeros(s + 1)
        up[0] = up[s] = 0.5
        taps = np.convolve(taps, up)
    s = 2 ** (scale - 1)
    up = np.zeros(s + 1)
    up[0] = 0.5
    up[s] = -0.5 if highpass_last else 0.5
    return np.convolve(taps, up)


def direct_detail(values, scale, orientation_idx):
    """Direct double-sum evaluation of the detail plane with periodic wrap."""
    high_axis0 = orientation_idx in (0, 2)
    high_axis1 = orientation_idx in (1, 2)
    kernel = np.outer(
        cascade_taps(scale, high_axis0), cascade_taps(scale, high_axis1)
    )
    n1, n2 = values.shape
    out = np.zeros_like(values)
    for u in range(n1):
        for v in range(n2):
            acc = 0.0
            for a in range(kernel.shape[0]):
                for b in range(kernel.shape[1]):
                    acc += values[(u + a) % n1, (v + b) % n2] * kernel[a, b]
            out[u, v] = acc
    return out


class TestTiwt:
    def test_constant_input_zero_details(self):
        planes = tiwt(np.full((16, 16), 3.3))
        assert np.all(planes == 0.0)

    def test_shapes_undecimated(self):
        planes = tiwt(np.random.default_rng(0).normal(size=(128, 128)))
        assert planes.shape == (3, 3, 128, 128)

    def test_bad_shape(self):
        with pytest.raises(SonoclassError, match=r"divisible by 8, got \(12, 16\)"):
            tiwt(np.zeros((12, 16)))
        with pytest.raises(SonoclassError, match="input must be a 2D array"):
            tiwt(np.zeros(64))

    def test_single_impulse_scale1_matches_direct_sum(self):
        values = np.zeros((8, 8))
        values[0, 0] = 1.0
        planes = tiwt(values)
        for k in range(3):
            expected = direct_detail(values, 1, k)
            assert np.max(np.abs(planes[0, k] - expected)) <= 1e-10

    def test_random_input_all_scales_match_direct_sum(self):
        values = np.random.default_rng(1).normal(size=(8, 8))
        planes = tiwt(values)
        for scale in SCALES:
            for k in range(3):
                expected = direct_detail(values, scale, k)
                assert np.max(np.abs(planes[scale - 1, k] - expected)) <= 1e-10

    def test_translation_covariance(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(16, 16))
        du, dv = 5, 11
        shifted = np.roll(values, (du, dv), axis=(0, 1))
        a = tiwt(values)
        b = tiwt(shifted)
        assert np.array_equal(np.roll(a, (du, dv), axis=(2, 3)), b)


class TestNormalizeScale:
    def test_zero_plane_stays_zero(self):
        s1 = normalize_scale(tiwt(np.full((8, 8), 1.0)))
        assert np.all(s1 == 0.0)

    def test_hand_arithmetic(self):
        planes = np.zeros((3, 3, 4, 4))
        planes[0, 0, 0, 0] = 1.0
        planes[0, 0, 0, 1] = -1.0
        s1 = normalize_scale(planes)
        assert s1[0, 0, 0, 0] == pytest.approx(0.5)   # |1| / (1 + 1)
        assert s1[0, 0, 0, 1] == pytest.approx(0.5)
        assert np.all(s1[0, 0, 1:] == 0.0)
        assert np.all(s1[1:] == 0.0)

    def test_homogeneity_one_over_c(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=(16, 16))
        for c in (0.25, 3.0, 40.0):
            base = normalize_scale(tiwt(values))
            scaled = normalize_scale(tiwt(c * values))
            assert np.max(np.abs(scaled - base / c)) <= 1e-9 * np.max(base)

    def test_dust_plane_treated_as_zero(self):
        # one real plane plus one plane of pure rounding dust
        planes = np.zeros((3, 3, 4, 4))
        planes[0, 0] = np.random.default_rng(4).normal(size=(4, 4))
        planes[1, 2] = 1e-16 * np.random.default_rng(5).normal(size=(4, 4))
        s1 = normalize_scale(planes)
        assert np.all(s1[1, 2] == 0.0)
        assert np.any(s1[0, 0] > 0.0)


def reshape_max(normalized):
    """Each scale's cells pooled by one max over a reshaped 5-D block."""
    n1, n2 = normalized.shape[2], normalized.shape[3]
    return [
        normalized[idx].reshape(3, n1 // 2 ** scale, 2 ** scale, n2 // 2 ** scale, 2 ** scale)
        .max(axis=(2, 4))
        for idx, scale in enumerate(SCALES)
    ]


def dead_planes():
    """normalize_scale output with one live plane, one plane of rounding
    dust that comes out dead (all zero), and all-zero planes."""
    planes = np.zeros((3, 3, 32, 64))
    planes[0, 0] = np.random.default_rng(20).normal(size=(32, 64))
    planes[1, 2] = 1e-16 * np.random.default_rng(21).normal(size=(32, 64))
    return normalize_scale(planes)


class TestLocalMax:
    def test_constant_plane(self):
        s1 = np.full((3, 3, 16, 16), 2.5)
        pooled = local_max(s1)
        for idx, scale in enumerate(SCALES):
            cell = 2 ** scale
            assert pooled[idx].shape == (3, 16 // cell, 16 // cell)
            assert np.all(pooled[idx] == 2.5)

    def test_128_to_16_at_scale3(self):
        s1 = np.zeros((3, 3, 128, 128))
        assert local_max(s1)[2].shape == (3, 16, 16)

    def test_cell_max(self):
        s1 = np.zeros((3, 3, 8, 8))
        s1[0, 0, :2, :2] = [[1, 2], [3, 4]]  # one 2x2 cell at scale 1
        assert local_max(s1)[0][0, 0, 0] == 4.0

    def test_argmax_structure_invariant_under_scaling(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(0, 1, size=(16, 16))
        base = local_max(normalize_scale(tiwt(values)))
        scaled = local_max(normalize_scale(tiwt(7.0 * values)))
        for a, b in zip(base, scaled):
            for k in range(3):
                assert np.array_equal(
                    np.argmax(a[k].reshape(-1)), np.argmax(b[k].reshape(-1))
                )

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: normalize_scale(tiwt(
            np.random.default_rng(22).uniform(0, 1, size=(128, 128)))), id="random-128"),
        pytest.param(lambda: np.random.default_rng(23).uniform(0, 1, size=(3, 3, 16, 40)),
                     id="random-16x40"),
        pytest.param(lambda: np.zeros((3, 3, 64, 64)), id="all-zero"),
        pytest.param(dead_planes, id="dead"),
    ])
    def test_equals_reshape_max_bit_for_bit(self, make):
        normalized = make()
        for got, expected in zip(local_max(normalized), reshape_max(normalized), strict=True):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_cell_that_does_not_divide_the_plane(self):
        with pytest.raises(SonoclassError, match="plane 12x16 not divisible by cell 8"):
            local_max(np.zeros((3, 3, 12, 16)))


def make_c1(seed, shapes=((3, 16, 16), (3, 8, 8), (3, 4, 4))):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0, 1, size=s) for s in shapes]


class TestSamplePatches:
    def test_deterministic(self):
        c1s = [make_c1(0), make_c1(1)]
        a = sample_patches(c1s, n_patches=9, sizes=(4,), seed=7)
        b = sample_patches(c1s, n_patches=9, sizes=(4,), seed=7)
        assert len(a) == 9
        for pa, pb in zip(a.patches, b.patches):
            assert np.array_equal(pa, pb)
        assert a.sources == b.sources

    def test_shapes_cycle(self):
        c1s = [make_c1(2, shapes=((3, 32, 32), (3, 16, 16), (3, 16, 16)))]
        ps = sample_patches(c1s, n_patches=6, sizes=(4, 8, 12), seed=0)
        assert [p.shape for p in ps.patches] == [
            (4, 4, 3), (8, 8, 3), (12, 12, 3), (4, 4, 3), (8, 8, 3), (12, 12, 3)
        ]

    def test_patches_are_verbatim_extractions(self):
        c1s = [make_c1(3), make_c1(4)]
        ps = sample_patches(c1s, n_patches=12, sizes=(4,), seed=1)
        for patch, (clip, scale, u, v) in zip(ps.patches, ps.sources):
            planes = c1s[clip][SCALES.index(scale)]
            window = np.moveaxis(planes[:, u:u + 4, v:v + 4], 0, -1)
            assert np.array_equal(patch, window)

    def test_patch_larger_than_every_plane(self):
        c1s = [make_c1(5, shapes=((3, 8, 8), (3, 4, 4), (3, 2, 2)))]
        with pytest.raises(SonoclassError, match="patch size 16 fits no C1 plane"):
            sample_patches(c1s, n_patches=1, sizes=(16,), seed=0)

    def test_empty_inputs(self):
        with pytest.raises(SonoclassError, match="at least one patch and one training pyramid"):
            sample_patches([], n_patches=1, seed=0)
        with pytest.raises(SonoclassError, match="at least one patch and one training pyramid"):
            sample_patches([make_c1(6)], n_patches=0, seed=0)


def s2_maps(c1, patch_set):
    """patch_transform's (indices, scale, scores) entries, each with the
    whole (P, U, V) score maps its one np.dot call wrote, read through a
    spy, instead of its peaks."""
    maps = []
    dot = np.dot

    def spy(a, b, out):
        maps.append(dot(a, b, out=out).copy())  # the next entry overwrites out
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "dot", spy)
        s2 = patch_transform(c1, patch_set)
    assert len(maps) == len(s2)
    entries = []
    for (indices, scale, peaks), scores in zip(s2, maps):
        m = patch_set.patches[indices[0]].shape[0]
        _, rows, cols = c1[scale - 1].shape
        scores = scores.reshape(len(indices), rows - m + 1, cols - m + 1)
        assert np.array_equal(peaks, scores.reshape(len(indices), -1).max(axis=1))
        entries.append((indices, scale, scores))
    return entries


def score_maps(s2):
    """{(patch index, scale): 2D score array} from s2_maps' entries."""
    return {
        (int(i), scale): scores[row]
        for indices, scale, scores in s2
        for row, i in enumerate(indices)
    }


class TestPatchTransform:
    def test_zero_c1_zero_scores(self):
        c1 = [np.zeros((3, 8, 8))] * 3
        ps = sample_patches([make_c1(7)], n_patches=3, sizes=(4,), seed=2)
        s2 = s2_maps(c1, ps)
        for _, _, scores in s2:
            assert np.all(scores == 0.0)

    def test_self_correlation_equals_squared_norm(self):
        c1 = make_c1(8)
        window = np.moveaxis(c1[1][:, 2:6, 3:7], 0, -1).copy()
        ps = PatchSet(patches=(window,), sources=((0, 2, 2, 3),))
        s2 = score_maps(s2_maps(c1, ps))
        assert s2[0, 2][2, 3] == pytest.approx(float(np.sum(window**2)), rel=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(9)
        c1 = [rng.normal(size=(3, 6, 6)) for _ in range(3)]
        patch = rng.normal(size=(4, 4, 3))
        ps = PatchSet(patches=(patch,), sources=((0, 1, 0, 0),))
        s2 = score_maps(s2_maps(c1, ps))
        for scale_idx, scale in enumerate(SCALES):
            planes = c1[scale_idx]
            assert s2[0, scale].shape == (3, 3)  # every offset is read below
            for u in range(3):
                for v in range(3):
                    acc = 0.0
                    for k in range(3):
                        for a in range(4):
                            for b in range(4):
                                acc += planes[k, u + a, v + b] * patch[a, b, k]
                    assert s2[0, scale][u, v] == pytest.approx(acc, rel=1e-10, abs=1e-10)

    def test_skips_scales_too_small(self):
        c1 = [np.zeros((3, 16, 16)), np.zeros((3, 8, 8)), np.zeros((3, 4, 4))]
        patch = np.zeros((8, 8, 3))
        ps = PatchSet(patches=(patch,), sources=((0, 1, 0, 0),))
        s2 = patch_transform(c1, ps)
        assert {scale for _, scale, _ in s2} == {1, 2}  # 4x4 plane cannot host an 8x8 patch

    def test_one_entry_per_size_and_scale(self):
        c1 = make_c1(15, shapes=((3, 16, 16), (3, 8, 8), (3, 4, 4)))
        ps = sample_patches([c1], n_patches=7, sizes=(4, 8), seed=8)
        s2 = s2_maps(c1, ps)
        # size 4 fits all three scales, size 8 the first two
        assert [(len(indices), scale, scores.shape) for indices, scale, scores in s2] == [
            (4, 1, (4, 13, 13)), (4, 2, (4, 5, 5)), (4, 3, (4, 1, 1)),
            (3, 1, (3, 9, 9)), (3, 2, (3, 1, 1)),
        ]
        assert [list(indices) for indices, _, _ in s2] == [[0, 2, 4, 6]] * 3 + [[1, 3, 5]] * 2

    def test_every_product_reads_one_shared_operand(self, monkeypatch):
        # the scale-3 plane of a 64x64 grid is 8x8, so size 12 fits scales 1-2 only
        rng = np.random.default_rng(19)
        c1 = c1_pyramid(rng.uniform(0, 1, size=(64, 64)))
        ps = sample_patches([c1], n_patches=9, sizes=(4, 8, 12), seed=2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        operands = []  # kept alive, so a fresh array per product cannot reuse an address
        maps = {}  # each product's scores, by (patch values, offsets)
        dot = np.dot

        def spy(a, b, out):
            operands.append(b)
            maps[a.shape[1], b.shape[1]] = dot(a, b, out=out).copy()
            return out

        monkeypatch.setattr(np, "dot", spy)
        s2 = patch_transform(c1, ps)
        monkeypatch.undo()
        assert [(len(indices), scale) for indices, scale, _ in s2] == [
            (3, 1), (3, 2), (3, 3), (3, 1), (3, 2), (3, 3), (3, 1), (3, 2)]
        assert started == []  # on two CPUs, the products are scored on this thread
        assert len(operands) == len(s2)
        assert all(np.shares_memory(operands[0], b) for b in operands[1:])
        assert_maps_are_tensordots(c1, ps, s2, maps)
        # a set that fits nowhere scores nothing, and C2 refuses it
        nowhere = PatchSet(patches=(np.zeros((40, 40, 3)),), sources=((0, 1, 0, 0),))
        assert patch_transform(c1, nowhere) == []
        with pytest.raises(SonoclassError, match="no patch scores"):
            global_max(patch_transform(c1, nowhere), len(nowhere))


def assert_maps_are_tensordots(c1, patch_set, s2, maps):
    """Every product's scores in maps, keyed by (patch values, offsets),
    equal np.tensordot's bit for bit, and its peaks in s2 are their maxima."""
    assert len(maps) == len(s2)
    stacks = {tuple(indices): stack for indices, stack in patch_set.stacks}
    for indices, scale, peaks in s2:
        stack = stacks[tuple(indices)]
        windows = sliding_window_view(c1[scale - 1], stack.shape[1:3], axis=(1, 2))
        expected = np.tensordot(stack, windows, axes=((1, 2, 3), (3, 4, 0)))
        scores = maps[stack[0].size, expected[0].size].reshape(expected.shape)
        assert np.array_equal(scores, expected)
        assert np.array_equal(peaks, expected.reshape(len(indices), -1).max(axis=1))


class TestGlobalMax:
    def test_one_value_per_patch(self):
        c1 = make_c1(10)
        ps = sample_patches([c1], n_patches=5, sizes=(4,), seed=3)
        c2 = global_max(patch_transform(c1, ps), len(ps))
        assert c2.shape == (5,)

    def test_zero_scores_zero_c2(self):
        c1 = [np.zeros((3, 8, 8))] * 3
        ps = sample_patches([make_c1(11)], n_patches=4, sizes=(4,), seed=4)
        assert np.all(global_max(patch_transform(c1, ps), len(ps)) == 0.0)

    def test_upper_bounds_every_score(self):
        c1 = make_c1(12)
        ps = sample_patches([c1], n_patches=6, sizes=(4, 8), seed=5)
        s2 = s2_maps(c1, ps)
        c2 = global_max(patch_transform(c1, ps), len(ps))
        for indices, _, scores in s2:
            for row, i in enumerate(indices):
                assert c2[i] >= scores[row].max() - 1e-15

    def test_offset_permutation_invariance(self):
        rng = np.random.default_rng(13)
        scores = rng.normal(size=(1, 5, 5))
        shuffled = scores.ravel()[rng.permutation(25)].reshape(1, 5, 5)
        indices = np.array([0])
        assert global_max([(indices, 1, scores)], 1) == global_max([(indices, 1, shuffled)], 1)

    def test_empty(self):
        with pytest.raises(SonoclassError, match="no patch scores"):
            global_max([], 0)

    def test_patch_with_no_placement(self):
        # the 12x12 patch fits no plane of this pyramid
        c1 = make_c1(16, shapes=((3, 8, 8), (3, 4, 4), (3, 2, 2)))
        patches = (np.zeros((4, 4, 3)), np.zeros((12, 12, 3)))
        ps = PatchSet(patches=patches, sources=((0, 1, 0, 0),) * 2)
        with pytest.raises(SonoclassError, match="patch 1 has no valid placements"):
            global_max(patch_transform(c1, ps), len(ps))

    def test_c2_matches_einsum_reference_exactly(self):
        # the scale-3 plane of a 64x64 grid is 8x8, so size 12 fits scales 1-2 only
        rng = np.random.default_rng(17)
        for shape in ((128, 128), (64, 64)):
            c1s = [c1_pyramid(rng.uniform(0, 1, size=shape)) for _ in range(4)]
            c1s += [[rng.uniform(0, 1, size=p.shape) for p in c1s[0]] for _ in range(4)]
            ps = sample_patches(c1s[:3], n_patches=40, sizes=(4, 8, 12), seed=11)
            for c1 in c1s:
                expected = c2_reference.global_max(c2_reference.patch_transform(c1, ps))
                assert np.array_equal(global_max(patch_transform(c1, ps), len(ps)), expected)


class TestEndToEnd:
    def test_c2_deterministic_given_seed(self):
        rng = np.random.default_rng(14)
        specs = [rng.uniform(0, 1, size=(32, 32)) for _ in range(3)]
        c1s = [c1_pyramid(s) for s in specs]
        ps = sample_patches(c1s, n_patches=10, sizes=(4, 8), seed=6)
        a = global_max(patch_transform(c1_pyramid(specs[0]), ps), len(ps))
        b = global_max(patch_transform(c1_pyramid(specs[0]), ps), len(ps))
        assert np.array_equal(a, b)
        assert a.shape == (10,)
