import re
from dataclasses import replace

import numpy as np
import pytest

from sonoclass.errors import SonoclassError
from sonoclass.feature_select import FeatureMatrix
from sonoclass.model_io import MODEL_HEADER, TrainedModel, load_model, save_model
from sonoclass.svm import KernelParams, OvoModel, ovo_predict_batch, ovo_train
from sonoclass.wavelet_baseline import PatchSet


def small_trained_model(seed=0, with_patches=False):
    rng = np.random.default_rng(seed)
    values = np.vstack([
        rng.normal(size=(8, 5)) + 0.0,
        rng.normal(size=(8, 5)) + 4.0,
        rng.normal(size=(8, 5)) + 8.0,
    ])
    labels = np.repeat(np.arange(3), 8)
    ovo = ovo_train(FeatureMatrix(values, labels), KernelParams(gamma=0.4, c=7.0), seed=1)
    patch_set = None
    if with_patches:
        patches = tuple(rng.normal(size=(m, m, 3)) for m in (4, 8))
        patch_set = PatchSet(
            patches=patches, sources=((0, 1, 2, 3), (1, 2, 0, 0)),
            seed=5, sizes=(4, 8),
        )
    return TrainedModel(
        ovo=ovo,
        method="wavelet" if with_patches else "bank",
        config={"seed": "1", "mi.top_k": "5"},
        class_names=("alpha", "beta", "gamma"),
        selected_indices=None if with_patches else np.array([4, 1, 0, 3, 2]),
        selected_scores=None if with_patches else rng.uniform(size=5),
        n_raw_features=0 if with_patches else 40,
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
        assert np.array_equal(loaded.selected_indices, model.selected_indices)
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
        assert loaded.patch_set is not None
        assert loaded.patch_set.seed == 5
        assert loaded.patch_set.sizes == (4, 8)
        assert loaded.patch_set.sources == model.patch_set.sources
        for a, b in zip(model.patch_set.patches, loaded.patch_set.patches):
            assert np.array_equal(a, b)


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
        count_line = f"config {len(model.config)}\n"
        assert count_line in text
        path.write_text(text.replace(count_line, "config abc\n", 1))
        with pytest.raises(SonoclassError, match="m.txt: invalid literal for int.*'abc'"):
            load_model(path)

    @pytest.mark.parametrize("old, new, message", [
        ("pair 0 1\n", "pair 0 9\n", "pair 0 9 outside 3 classes"),
        ("selected 0 ", "selected 5 ", "selected index outside 5 raw features"),
    ], ids=["pair", "selected"])
    def test_index_out_of_range(self, tmp_path, old, new, message):
        model, _ = small_trained_model()
        model = replace(model, selected_indices=np.array([0, 2, 4]),
                        selected_scores=np.zeros(3), n_raw_features=5)
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
        (r"^bias .*$", "bias nan", "pair 0 1 has bias nan"),
        (r"^bias .*$", "bias -inf", "pair 0 1 has bias -inf"),
    ], ids=["unknown-method", "method-vs-echo", "bias-nan", "bias-inf"])
    def test_inconsistent_values(self, tmp_path, line, new, message):
        model, _ = small_trained_model()
        model = replace(model, config={**model.config, "method": "bank"})
        path = tmp_path / "m.txt"
        save_model(path, model)
        text, n = re.subn(line, new, path.read_text(), count=1, flags=re.M)
        assert n == 1
        path.write_text(text)
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
        with pytest.raises(SonoclassError, match="m.txt: 'ascii' codec can't decode byte 0xff"):
            load_model(path)
