"""Acceptance suite: every criterion prints one pass/fail line with its
runtime and asserts its stated tolerance and budget."""

import time
from dataclasses import replace

import numpy as np
import pytest

import qp_oracle
from sonoclass.audio_io import AudioClip, generate_corpus, synthesize_clip
from sonoclass.config import RunConfig
from sonoclass.errors import SonoclassError
from sonoclass.feature_select import FeatureMatrix, mi_scores
from sonoclass.log_gabor import build_bank
from sonoclass.manifest import DatasetManifest, ManifestEntry, auto_split
from sonoclass.pipeline import (
    compare_methods,
    evaluate_model,
    extract_features,
    grid_search,
    train_model,
)
from sonoclass.report import comparison_csv, single_grid_csv
from sonoclass.spectrogram import StftParams, stft
from sonoclass.svm import KernelParams, decision_values, rbf_kernel_matrix, smo_train
from sonoclass.wavelet_baseline import (
    SCALES,
    PatchSet,
    local_max,
    normalize_scale,
    tiwt,
)
from mi_reference import mi_table_oracle, samples_from_counts
from test_wavelet_baseline import direct_detail, s2_maps, score_maps


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(criterion, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {criterion} failed: {detail}"
    assert elapsed < budget, f"criterion {criterion} overran: {elapsed:.1f}s >= {budget}s"


# ---------------------------------------------------------------------------
# 1. STFT correctness
# ---------------------------------------------------------------------------

def test_criterion_1_stft_correctness():
    with Timer() as t:
        params = StftParams()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(params.frame_size, 2000))
            clip = AudioClip(rng.uniform(-0.9, 0.9, size=n), 8000)
            half = stft(clip, params)
            power = np.abs(half) ** 2
            two_sided = power.sum(axis=0) + power[1:-1].sum(axis=0)
            for x in range(half.shape[1]):
                seg = clip.samples[x * params.hop:x * params.hop + params.frame_size]
                rhs = params.frame_size * np.sum((seg * params.window) ** 2)
                worst = max(worst, abs(two_sided[x] - rhs) / rhs)
        parseval_ok = worst <= 1e-6

        sine_ok = True
        for k in rng.choice(np.arange(1, 128), size=20, replace=False):
            sr = 8000
            tt = np.arange(2048) / sr
            clip = AudioClip(0.5 * np.sin(2 * np.pi * (k * sr / 256) * tt), sr)
            mag = np.abs(stft(clip, params))
            sine_ok = sine_ok and bool(np.all(np.argmax(mag, axis=0) == k))
    report(1, parseval_ok and sine_ok, t.elapsed, 5.0,
           f"Parseval worst rel {worst:.2e}, 20 bin-center sines peak correctly")


# ---------------------------------------------------------------------------
# 2. Log-Gabor filter contract
# ---------------------------------------------------------------------------

def test_criterion_2_log_gabor_contract():
    with Timer() as t:
        bank = build_bank((128, 128))
        flat = bank.masks.reshape(12, -1)
        mask_ok = (
            bool(np.all(bank.masks[:, :, 0, 0] == 0.0))
            and bool(np.all(flat.max(axis=1) == 1.0))
            and flat.min() >= 0.0 and flat.max() <= 1.0
        )

        rng = np.random.default_rng(102)
        values = rng.uniform(0, 1, size=(16, 16))
        small = build_bank((16, 16))
        worst = 0.0
        from sonoclass.log_gabor import apply_filter
        for m in (1, 2):
            for n in range(1, 7):
                mask = small.mask(m, n)
                kernel = np.fft.ifft2(mask)
                direct = np.zeros((16, 16), dtype=complex)
                for a in range(16):
                    for b in range(16):
                        direct += values[a, b] * np.roll(kernel, (a, b), axis=(0, 1))
                worst = max(worst, float(np.max(np.abs(
                    apply_filter(values, mask) - np.abs(direct)
                ))))
        conv_ok = worst <= 1e-8
    report(2, mask_ok and conv_ok, t.elapsed, 10.0,
           f"12 masks DC=0 peak=1 in [0,1]; direct-convolution worst {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Mutual information oracle
# ---------------------------------------------------------------------------

def test_criterion_3_mi_oracle():
    def library_mi(counts, seed):
        # r bins over the codes 0..r-1 keep every code in a bin of its own,
        # so mi_scores sees the table itself
        x, y = samples_from_counts(counts, seed=seed)
        return mi_scores(FeatureMatrix(x[:, None], y), n_bins=counts.shape[0])[0]

    with Timer() as t:
        rng = np.random.default_rng(103)
        worst = 0.0
        done = refused = one_class = 0
        while done < 1000:
            counts = rng.integers(0, 6, size=(int(rng.integers(2, 5)),
                                              int(rng.integers(2, 5))))
            if counts.sum() < 2:
                continue
            if np.count_nonzero(counts.sum(axis=0)) < 2:
                one_class += 1  # mi_scores refuses one class, by design
                try:
                    library_mi(counts, done)
                except SonoclassError:
                    refused += 1
            else:
                worst = max(worst, abs(library_mi(counts, done) - mi_table_oracle(counts)))
            done += 1
        tables_ok = worst <= 1e-12 and refused == one_class > 0

        worked = library_mi(np.array([[4, 1], [1, 4]]), 0)
        worked_ok = (
            abs(worked - 0.27807190511263774) <= 1e-12 and round(worked, 4) == 0.2781
        )
    report(3, tables_ok and worked_ok, t.elapsed, 5.0,
           f"1000 tables worst diff {worst:.1e}, {refused}/{one_class} one-class refused; "
           f"2x2 table = {worked:.4f} bits")


# ---------------------------------------------------------------------------
# 4. SMO vs dense-QP oracle
# ---------------------------------------------------------------------------

def test_criterion_4_smo_vs_qp():
    with Timer() as t:
        rng = np.random.default_rng(104)
        tol = 1e-8
        worst_rel = 0.0
        worst_kkt = -np.inf
        mismatches = 0
        problems = []  # (x, y, c, gamma, model, kernel)
        for trial in range(200):
            n = int(rng.integers(4, 13))
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(n, d))
            y = np.concatenate([np.ones(n // 2), -np.ones(n - n // 2)])
            rng.shuffle(y)
            c = float(rng.uniform(0.1, 100.0))
            gamma = float(rng.uniform(0.01, 10.0))
            model = smo_train(x, y, KernelParams(gamma=gamma, c=c), tol=tol,
                              max_passes=2000)
            problems.append((x, y, c, gamma, model, rbf_kernel_matrix(x, x, gamma)))
        # the oracle solves all 200 duals in one batch
        _, ys, cs, _, _, kernels = zip(*problems)
        oracle = qp_oracle.solve_dual_batch(kernels, ys, cs)
        for (x, y, c, gamma, model, kernel), (alpha_pg, w_pg) in zip(problems, oracle):
            n, d = x.shape
            ksv = rbf_kernel_matrix(model.support_vectors, model.support_vectors, gamma)
            w_smo = float(np.abs(model.dual_coef).sum()
                          - 0.5 * model.dual_coef @ ksv @ model.dual_coef)
            worst_rel = max(worst_rel, abs(w_smo - w_pg) / abs(w_pg))

            # KKT residuals on every training point, model-side bias
            margins = y * decision_values(model, x)
            alpha = np.zeros(n)
            k_i = 0
            for i in range(n):
                if k_i < len(model.support_vectors) and np.array_equal(
                    x[i], model.support_vectors[k_i]
                ):
                    alpha[i] = abs(model.dual_coef[k_i])
                    k_i += 1
            band = 1e-12 * c
            for i in range(n):
                if alpha[i] <= band:
                    worst_kkt = max(worst_kkt, (1.0 - margins[i]) - tol)
                elif alpha[i] >= c - band:
                    worst_kkt = max(worst_kkt, (margins[i] - 1.0) - tol)
                else:
                    worst_kkt = max(worst_kkt, abs(margins[i] - 1.0) - tol)

            # 5x5 probe grid on the first two dimensions; probes where both
            # solvers give an (numerically) exactly-zero margin carry no sign
            grid = np.linspace(-2, 2, 5)
            probes = np.zeros((25, d))
            pts = np.stack(np.meshgrid(grid, grid), -1).reshape(25, 2)
            probes[:, :min(2, d)] = pts[:, :min(2, d)]
            f_smo = decision_values(model, probes)
            b_pg = qp_oracle.bias_from_alpha(kernel, y, alpha_pg, c)
            f_pg = rbf_kernel_matrix(probes, x, gamma) @ (alpha_pg * y) + b_pg
            live = np.maximum(np.abs(f_smo), np.abs(f_pg)) > 1e-9
            mismatches += int(np.sum(np.sign(f_smo[live]) != np.sign(f_pg[live])))
        ok = worst_rel <= 1e-6 and worst_kkt <= 0.0 and mismatches == 0
    report(4, ok, t.elapsed, 60.0,
           f"200 problems: obj rel {worst_rel:.1e}, KKT excess {worst_kkt:.1e}, "
           f"sign mismatches {mismatches}")


# ---------------------------------------------------------------------------
# 5. Wavelet baseline oracles
# ---------------------------------------------------------------------------

def test_criterion_5_wavelet_oracles():
    with Timer() as t:
        rng = np.random.default_rng(105)

        worst_w = 0.0
        for _ in range(5):
            values = rng.normal(size=(8, 8))
            planes = tiwt(values)
            for scale in SCALES:
                for k in range(3):
                    diff = planes[scale - 1, k] - direct_detail(values, scale, k)
                    worst_w = max(worst_w, float(np.max(np.abs(diff))))
        eq1_ok = worst_w <= 1e-10

        worst_s2 = 0.0
        for _ in range(5):
            c1 = [rng.normal(size=(3, 6, 6)) for _ in SCALES]
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
                        worst_s2 = max(worst_s2, abs(s2[0, scale][u, v] - acc))
        eq4_ok = worst_s2 <= 1e-10

        worst_h = 0.0
        argmax_ok = True
        for _ in range(50):
            values = rng.uniform(0.0, 1.0, size=(16, 16))
            c = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            base = normalize_scale(tiwt(values))
            scaled = normalize_scale(tiwt(c * values))
            worst_h = max(worst_h, float(
                np.max(np.abs(scaled - base / c)) / max(np.max(base), 1e-300)
            ))
            for a, b in zip(local_max(base), local_max(scaled)):
                for k in range(3):
                    argmax_ok = argmax_ok and (
                        np.argmax(a[k]) == np.argmax(b[k])
                    )
        eq2_ok = worst_h <= 1e-9 and argmax_ok
    report(5, eq1_ok and eq4_ok and eq2_ok, t.elapsed, 20.0,
           f"double-sum {worst_w:.1e}, triple-loop {worst_s2:.1e}, "
           f"homogeneity {worst_h:.1e}, argmax stable")


# ---------------------------------------------------------------------------
# 6. Structural parity
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def medium_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_medium")
    manifest = generate_corpus(
        root / "clips", clips_per_class=8, duration_s=0.4, sample_rate=8000, seed=500
    )
    manifest = auto_split(manifest, seed=5)
    return {"manifest": manifest, "root": root, "cache": str(root / "cache")}


@pytest.fixture(scope="module")
def medium_config():
    return RunConfig(method="bank", seed=5, mi_top_k=64, svm_c=8.0, svm_gamma=0.5,
                     wavelet_patches=60)


@pytest.fixture(scope="module")
def medium_compare(medium_corpus, medium_config):
    return compare_methods(medium_corpus["manifest"], medium_config,
                           cache_dir=medium_corpus["cache"])


def test_criterion_6_structural_parity(tmp_path, medium_compare):
    with Timer() as t:
        # a) 10 distinct classes through the full pipeline -> 45 pair models
        clip_dir = tmp_path / "ten"
        clip_dir.mkdir()
        entries = []
        kinds = ("noise_burst", "harmonic_tone", "chirp", "impulse_train")
        for cls in range(10):
            for i in range(3):
                clip = synthesize_clip(kinds[cls % 4], 0.25, 8000, 600 + cls * 10 + i)
                path = clip_dir / f"c{cls}_{i}.wav"
                from sonoclass.audio_io import save_wav
                save_wav(path, clip)
                entries.append(ManifestEntry(str(path), f"class_{cls:02d}",
                                             "train" if i < 2 else "test"))
        manifest = DatasetManifest(tuple(entries))
        config = RunConfig(method="bank", seed=6, mi_top_k=16, svm_c=8.0,
                           svm_gamma=0.5)
        model = train_model(manifest, config)
        pairs_ok = len(model.ovo.pair_models) == 45

        # b) the single-filter comparison grid has exactly 12 configurations
        grid = [(s, o) for s, o, _ in medium_compare.grid_reports]
        grid_ok = grid == [(s, o) for s in (1, 2) for o in range(1, 7)]

        # c) a 312-item class splits 208 train / 104 test
        big = DatasetManifest(tuple(
            ManifestEntry(f"x{i:04d}.wav", "door", "") for i in range(312)
        ))
        split = auto_split(big, seed=0)
        split_ok = (len(split.rows("train")), len(split.rows("test"))) == (208, 104)

        ok = pairs_ok and grid_ok and split_ok
    report(6, ok, t.elapsed, 120.0,
           f"45 pair models: {pairs_ok}; 12-row grid: {grid_ok}; 208/104 split: {split_ok}")


# ---------------------------------------------------------------------------
# 7. End-to-end synthetic benchmark
# ---------------------------------------------------------------------------

def test_criterion_7_synthetic_benchmark(tmp_path_factory):
    with Timer() as t:
        root = tmp_path_factory.mktemp("acc_bench")
        manifest = generate_corpus(
            root / "clips", clips_per_class=60, duration_s=1.0,
            sample_rate=16000, seed=0,
        )
        manifest = auto_split(manifest, seed=0)
        cache = str(root / "cache")

        config = RunConfig(
            method="bank", seed=0, mi_top_k=256,
            grid_c=(1.0, 8.0, 64.0),
            grid_gamma=(2.0**-7, 2.0**-5, 2.0**-3, 2.0**-1),
            grid_folds=3,
        )
        best, _ = grid_search(manifest, config, cache_dir=cache)
        tuned = replace(config, svm_c=best.c, svm_gamma=best.gamma)

        scores = {}
        for method in ("bank", "single", "patches", "wavelet"):
            model = train_model(manifest, replace(tuned, method=method),
                                cache_dir=cache)
            rep = evaluate_model(model, manifest, cache_dir=cache)
            scores[method] = rep.averaged_accuracy
        ok = (
            scores["bank"] >= 95.0
            and all(scores[m] >= 70.0 for m in ("single", "patches", "wavelet"))
        )
    detail = ", ".join(f"{m}={v:.2f}%" for m, v in scores.items())
    detail += f" (grid-searched c={best.c:g}, gamma={best.gamma:g})"
    report(7, ok, t.elapsed, 300.0, detail)


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(medium_corpus, medium_config, medium_compare,
                                 tmp_path):
    with Timer() as t:
        # second full compare run with the same seed and warm cache
        second = compare_methods(medium_corpus["manifest"], medium_config,
                                 cache_dir=medium_corpus["cache"])
        reports_ok = (
            single_grid_csv(medium_compare) == single_grid_csv(second)
            and comparison_csv(medium_compare) == comparison_csv(second)
        )

        cold = extract_features(medium_corpus["manifest"], medium_config,
                                cache_dir=medium_corpus["cache"])
        warm = extract_features(medium_corpus["manifest"], medium_config,
                                cache_dir=medium_corpus["cache"])
        cache_ok = (
            np.array_equal(cold.train.values, warm.train.values)
            and np.array_equal(cold.test.values, warm.test.values)
            and warm.stats.misses == 0
        )
        ok = reports_ok and cache_ok
    report(8, ok, t.elapsed, 300.0,
           f"byte-identical compare reports: {reports_ok}; "
           f"warm cache identical with {warm.stats.hits} hits, 0 misses")
