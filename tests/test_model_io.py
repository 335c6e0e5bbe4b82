import re
from dataclasses import replace

import numpy as np
import pytest

from sonoclass.config import RunConfig, config_to_flat
from sonoclass.errors import SonoclassError
from sonoclass.feature_select import FeatureMatrix, MiSelection
from sonoclass.model_io import MODEL_HEADER, TrainedModel, load_model, save_model
from sonoclass.svm import KernelParams, OvoModel, ovo_predict_batch, ovo_train
from sonoclass.wavelet_baseline import PatchSet


def small_trained_model(seed=0, with_patches=False):
    """A 3-class model on 5 MI-selected cells of the default 128x128 grid,
    or on the C2 responses of 2 patches."""
    rng = np.random.default_rng(seed)
    width = 2 if with_patches else 5
    values = np.vstack([
        rng.normal(size=(8, width)) + 0.0,
        rng.normal(size=(8, width)) + 4.0,
        rng.normal(size=(8, width)) + 8.0,
    ])
    labels = np.repeat(np.arange(3), 8)
    ovo = ovo_train(FeatureMatrix(values, labels), KernelParams(gamma=0.4, c=7.0))
    patch_set = selection = None
    if with_patches:
        patches = tuple(rng.normal(size=(m, m, 3)) for m in (4, 8))
        patch_set = PatchSet(patches=patches, sources=((0, 1, 2, 3), (1, 2, 0, 0)))
        config = RunConfig(method="wavelet", seed=5, wavelet_patches=2, wavelet_sizes=(4, 8),
                           svm_gamma=0.4, svm_c=7.0)
    else:
        selection = MiSelection(selected=np.array([4, 1, 0, 3, 2]),
                                scores=rng.uniform(size=5), n_features=128 * 128)
        config = RunConfig(method="bank", seed=1, mi_top_k=5, svm_gamma=0.4, svm_c=7.0)
    return TrainedModel(
        ovo=ovo,
        config=config,
        class_names=("alpha", "beta", "gamma"),
        selection=selection,
        patch_set=patch_set,
    ), values


class TestRoundTrip:
    def test_header_line(self, tmp_path):
        model, _ = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        assert path.read_text().splitlines()[0] == MODEL_HEADER == "SONOCLASS-MODEL v1"

    def test_predictions_survive_round_trip(self, tmp_path):
        model, values = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.class_names == model.class_names
        assert loaded.method == model.method
        assert loaded.config == model.config
        assert np.array_equal(loaded.selection.selected, model.selection.selected)
        assert np.array_equal(loaded.selection.scores, model.selection.scores)
        assert loaded.selection.n_features == 128 * 128
        assert np.array_equal(
            ovo_predict_batch(loaded.ovo, values),
            ovo_predict_batch(model.ovo, values),
        )

    def test_float_fields_bit_exact(self, tmp_path):
        model, _ = small_trained_model(seed=3)
        path = tmp_path / "m.txt"
        save_model(path, model)
        loaded = load_model(path)
        for key in model.ovo.pair_models:
            a = model.ovo.pair_models[key]
            b = loaded.ovo.pair_models[key]
            assert np.array_equal(a.support_vectors, b.support_vectors)
            assert np.array_equal(a.dual_coef, b.dual_coef)
            assert a.bias == b.bias
        assert np.array_equal(model.ovo.scaler[0], loaded.ovo.scaler[0])
        assert np.array_equal(model.ovo.scaler[1], loaded.ovo.scaler[1])

    def test_resave_is_byte_identical(self, tmp_path):
        model, _ = small_trained_model(seed=4)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(p1, model)
        save_model(p2, load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_patch_set_round_trip(self, tmp_path):
        model, _ = small_trained_model(seed=5, with_patches=True)
        path = tmp_path / "w.txt"
        save_model(path, model)
        loaded = load_model(path)
        assert "patches 2 seed 5 sizes 4 8\n" in path.read_text()
        assert loaded.selection is None and loaded.config == model.config
        assert loaded.patch_set.sources == model.patch_set.sources
        for a, b in zip(model.patch_set.patches, loaded.patch_set.patches):
            assert np.array_equal(a, b)


class TestTransformRule:
    @pytest.mark.parametrize("with_patches, give, message", [
        (False, "no-selection", "bank model carries no selection"),
        (False, "patch-set", "bank model carries a patch set"),
        (True, "no-patch-set", "wavelet model carries no patch set"),
        (True, "selection", "wavelet model carries a selection"),
    ], ids=["bank-no-selection", "bank-patch-set", "wavelet-no-patch-set", "wavelet-selection"])
    def test_inconsistent_transform_rejected(self, with_patches, give, message):
        bank, _ = small_trained_model()
        wavelet, _ = small_trained_model(with_patches=True)
        model = wavelet if with_patches else bank
        change = {
            "no-selection": {"selection": None},
            "patch-set": {"patch_set": wavelet.patch_set},
            "no-patch-set": {"patch_set": None},
            "selection": {"selection": bank.selection},
        }[give]
        with pytest.raises(SonoclassError, match=message):
            replace(model, **change)

    @pytest.mark.parametrize("with_patches, give, message", [
        (False, "grid", "selection from 16384 features, but the 64x128 grid gives 8192"),
        (False, "scaler", "5 transformed features, but a scaler of 4"),
        (True, "scaler", "2 transformed features, but a scaler of 1"),
        (False, "pair", "pair 0 2 support vectors have 4 features, expected 5"),
    ], ids=["selection-vs-grid", "selection-vs-scaler", "patches-vs-scaler", "pair-width"])
    def test_inconsistent_widths_rejected(self, with_patches, give, message):
        model, _ = small_trained_model(with_patches=with_patches)
        ovo = model.ovo
        if give == "grid":
            change = {"config": replace(model.config, fixed_rows=64)}
        elif give == "scaler":
            change = {"ovo": replace(ovo, scaler=tuple(side[:-1] for side in ovo.scaler))}
        else:
            pair = replace(ovo.pair_models[(0, 2)],
                           support_vectors=ovo.pair_models[(0, 2)].support_vectors[:, :-1])
            change = {"ovo": replace(ovo, pair_models={**ovo.pair_models, (0, 2): pair})}
        with pytest.raises(SonoclassError, match=message):
            replace(model, **change)

    @pytest.mark.parametrize("with_patches", [False, True], ids=["bank", "wavelet"])
    def test_pair_params_must_be_the_configs(self, with_patches):
        model, _ = small_trained_model(with_patches=with_patches)
        with pytest.raises(SonoclassError, match=r"^pair 0 1 has gamma 0.4 and c 7.0, "
                                                 r"but svm.gamma = 0.4 and svm.c = 8.0$"):
            replace(model, config=replace(model.config, svm_c=8.0))

    def test_patch_count_must_be_wavelet_patches(self):
        model, _ = small_trained_model(with_patches=True)
        with pytest.raises(SonoclassError, match="^2 patches, but wavelet.patches = 3$"):
            replace(model, config=replace(model.config, wavelet_patches=3))

    @pytest.mark.parametrize("sizes, message", [
        ((8, 4), r"^patch 0 has shape \(4, 4, 3\), expected \(8, 8, 3\)$"),
        ((4,), r"^patch 1 has shape \(8, 8, 3\), expected \(4, 4, 3\)$"),
    ], ids=["swapped-sizes", "size-cycle"])
    def test_patch_shapes_follow_the_size_cycle(self, sizes, message):
        model, _ = small_trained_model(with_patches=True)
        with pytest.raises(SonoclassError, match=message):
            replace(model, config=replace(model.config, wavelet_sizes=sizes))

    def test_patch_with_wrong_depth_rejected(self):
        model, _ = small_trained_model(with_patches=True)
        patches = (model.patch_set.patches[0], model.patch_set.patches[1][:, :, :2])
        with pytest.raises(SonoclassError, match=r"^patch 1 has shape \(8, 8, 2\)"):
            replace(model, patch_set=replace(model.patch_set, patches=patches))

    @pytest.mark.parametrize("old, new", [
        ("patches 2 seed 5 sizes 4 8\n", "patches 2 seed 6 sizes 4 8\n"),
        ("patches 2 seed 5 sizes 4 8\n", "patches 2 seed 5 sizes 4 8 12\n"),
        ("patches 2 seed 5 sizes 4 8\n", "patches 2 seed 5 sizes 4 x\n"),
    ], ids=["seed", "sizes", "not-a-number"])
    def test_patches_line_must_match_the_echo(self, tmp_path, old, new):
        model, _ = small_trained_model(with_patches=True)
        path = tmp_path / "w.txt"
        save_model(path, model)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(SonoclassError) as err:
            load_model(path)
        assert str(err.value) == (
            f"{path}: expected 'patches 2 seed 5 sizes 4 8' from the config echo, "
            f"got {new.strip()!r}"
        )


class TestErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOT-A-MODEL\n")
        with pytest.raises(SonoclassError, match="missing 'SONOCLASS-MODEL v1' header"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        model, _ = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        clipped = path.read_text().splitlines()[:10]
        path.write_text("\n".join(clipped) + "\n")
        with pytest.raises(SonoclassError, match="unexpected end of file"):
            load_model(path)

    def test_wrong_section(self, tmp_path):
        model, _ = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        text = path.read_text().replace("scaler", "scalar", 1)
        path.write_text(text)
        with pytest.raises(SonoclassError, match="expected 'scaler', got 'scalar"):
            load_model(path)

    def test_bad_number(self, tmp_path):
        model, _ = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        text = path.read_text()
        count_line = f"config {len(config_to_flat(model.config))}\n"
        assert count_line in text
        path.write_text(text.replace(count_line, "config abc\n", 1))
        with pytest.raises(SonoclassError, match="m.txt: invalid literal for int.*'abc'"):
            load_model(path)

    @pytest.mark.parametrize("old, new, message", [
        ("pair 0 1\n", "pair 0 9\n", "pair 0 9 outside 3 classes"),
        ("selected 4 ", "selected 16384 ", "selected index outside 16384 raw features"),
    ], ids=["pair", "selected"])
    def test_index_out_of_range(self, tmp_path, old, new, message):
        model, _ = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(SonoclassError, match=message):
            load_model(path)

    @pytest.mark.parametrize("line, new, message", [
        (r"^method bank$", "method cnn", "method 'cnn' is not one of"),
        (r"^method bank$", "method single",
         "method 'single' disagrees with the config echo's 'bank'"),
        (r"^bias .*$", "bias nan", r"line \d+: 'nan' is not a finite number"),
        (r"^bias .*$", "bias -inf", r"line \d+: '-inf' is not a finite number"),
    ], ids=["unknown-method", "method-vs-echo", "bias-nan", "bias-inf"])
    def test_inconsistent_values(self, tmp_path, line, new, message):
        model, _ = small_trained_model()
        model = replace(model, config=replace(model.config, method="bank"))
        path = tmp_path / "m.txt"
        save_model(path, model)
        text, n = re.subn(line, new, path.read_text(), count=1, flags=re.M)
        assert n == 1
        path.write_text(text)
        with pytest.raises(SonoclassError, match=message):
            load_model(path)

    @pytest.mark.parametrize("old, new, message", [
        ("svm.c = 7\n", "svm.c = abc\n", "bad value for svm.c: 'abc'"),
        ("svm.c = 7\n", "svm.k = 7\n", "unknown config key 'svm.k'"),
    ], ids=["bad-value", "unknown-key"])
    def test_bad_config_echo_is_a_data_error(self, tmp_path, old, new, message):
        model, _ = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(SonoclassError) as err:
            load_model(path)
        assert type(err.value) is SonoclassError  # not a ConfigError: the user passed no config
        assert str(err.value) == f"{path}: {message}"

    def test_swapped_scaler_lines(self, tmp_path):
        model, _ = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        lines = path.read_text().splitlines()
        lo = next(i for i, line in enumerate(lines) if line.startswith("min "))
        assert lines[lo + 1].startswith("max ")
        lines[lo], lines[lo + 1] = lines[lo + 1], lines[lo]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SonoclassError, match="m.txt: expected 'min', got 'max "):
            load_model(path)

    def test_short_number_line(self, tmp_path):
        model, _ = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("scores "))
        lines[at] = lines[at].rsplit(" ", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SonoclassError, match=f"m.txt: line {at + 1}: expected 5 numbers, got 4"):
            load_model(path)

    @pytest.mark.parametrize("old, new, message", [
        ("class 1 beta\n", "class 9 beta\n", "expected 'class 1 <name>', got 'class 9 beta'"),
        ("class 1 beta\n", "class 1 gamma\n", "a class name appears twice"),
    ], ids=["index", "repeated-name"])
    def test_bad_class_line(self, tmp_path, old, new, message):
        model, _ = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(SonoclassError, match=message):
            load_model(path)

    def test_repeated_pair(self, tmp_path):
        model, _ = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        text = path.read_text()
        assert "pair 0 2\n" in text
        path.write_text(text.replace("pair 0 2\n", "pair 0 1\n", 1))
        with pytest.raises(SonoclassError, match="m.txt: pair 0 1 appears twice"):
            load_model(path)

    def test_missing_pair(self, tmp_path):
        model, _ = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        lines = path.read_text().splitlines()
        start = lines.index("pair 1 2")
        end = next(i for i in range(start, len(lines)) if lines[i].startswith("coef"))
        lines[lines.index("pairs 3")] = "pairs 2"
        path.write_text("\n".join(lines[:start] + lines[end + 1:]) + "\n")
        with pytest.raises(SonoclassError, match="m.txt: no model for pair 1 2 of 3 classes"):
            load_model(path)

    def test_one_class(self, tmp_path):
        model, _ = small_trained_model()
        one = OvoModel(classes=(0,), pair_models={}, scaler=model.ovo.scaler)
        path = tmp_path / "m.txt"
        save_model(path, replace(model, ovo=one, class_names=("alpha",)))
        assert "classes 1\n" in path.read_text()
        with pytest.raises(SonoclassError, match="m.txt: 1 classes; a model needs at least 2"):
            load_model(path)

    def test_not_ascii(self, tmp_path):
        model, _ = small_trained_model()
        path = tmp_path / "m.txt"
        save_model(path, model)
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        with pytest.raises(SonoclassError, match="m.txt: 'utf-8' codec can't decode byte 0xff"):
            load_model(path)
