import multiprocessing
import os

import numpy as np
import pytest

import qp_oracle
import smo_reference
from sonoclass import svm
from sonoclass.errors import SonoclassError
from sonoclass.feature_select import FeatureMatrix
from sonoclass.svm import (
    BinarySvmModel,
    KernelParams,
    decision_values,
    grid_search_cv,
    ovo_predict_batch,
    ovo_train,
    rbf_kernel,
    rbf_kernel_matrix,
    smo_train,
    stratified_folds,
)


def blobs(seed=0, n_per=15, centers=((0.0, 0.0), (4.0, 4.0)), spread=0.4):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(rng.normal(size=(n_per, 2)) * spread + np.asarray(center))
        ys.append(np.full(n_per, label))
    return np.vstack(xs), np.concatenate(ys)


class TestRbfKernel:
    def test_zero_distance(self):
        x = np.array([1.0, -2.0, 0.5])
        assert rbf_kernel(x, x, gamma=3.0) == 1.0

    def test_unit_exponent(self):
        x = np.zeros(2)
        x2 = np.array([1.0, 0.0])  # squared distance 1 = 1/gamma
        assert rbf_kernel(x, x2, gamma=1.0) == pytest.approx(np.exp(-1.0))

    def test_small_gamma_limit(self):
        x, x2 = np.zeros(3), np.ones(3)
        assert rbf_kernel(x, x2, gamma=1e-12) > 0.999999

    def test_length_mismatch(self):
        with pytest.raises(SonoclassError, match=r"\(2,\) vs \(3,\)"):
            rbf_kernel(np.zeros(2), np.zeros(3), gamma=1.0)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        k = rbf_kernel_matrix(a, b, gamma=0.7)
        for i in range(4):
            for j in range(5):
                assert k[i, j] == pytest.approx(rbf_kernel(a[i], b[j], 0.7), rel=1e-12)

    def test_param_validation(self):
        for bad in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                KernelParams(gamma=bad, c=1.0)
            with pytest.raises(ValueError):
                KernelParams(gamma=1.0, c=bad)


class TestSmoTrain:
    def test_two_point_closed_form(self):
        # with the equality constraint, both multipliers equal
        # 1/(1 - K12) at the unconstrained stationary point
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3))
        y = np.array([1.0, -1.0])
        k12 = rbf_kernel(x[0], x[1], gamma=0.7)
        expected = 1.0 / (1.0 - k12)
        model = smo_train(x, y, KernelParams(gamma=0.7, c=1e4), tol=1e-10,
                          max_passes=500, debug=True)
        assert np.allclose(np.abs(model.dual_coef), expected, rtol=1e-8)

    def test_two_point_clipped_at_c(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3))
        y = np.array([1.0, -1.0])
        model = smo_train(x, y, KernelParams(gamma=0.7, c=0.25), tol=1e-10,
                          max_passes=500)
        assert np.allclose(np.abs(model.dual_coef), 0.25)

    def test_separable_blobs_perfect_training_accuracy(self):
        x, labels = blobs(seed=3)
        y = np.where(labels == 0, 1.0, -1.0)
        model = smo_train(x, y, KernelParams(gamma=0.5, c=1000.0), seed=0)
        assert np.all(np.sign(decision_values(model, x)) == y)

    def test_matches_dense_qp_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(4, 9))
            x = rng.normal(size=(n, 3))
            y = np.concatenate([np.ones(n // 2), -np.ones(n - n // 2)])
            rng.shuffle(y)
            c = float(rng.uniform(0.5, 50.0))
            gamma = float(rng.uniform(0.05, 4.0))
            model = smo_train(x, y, KernelParams(gamma=gamma, c=c), tol=1e-8,
                              max_passes=2000, seed=trial)
            kernel = rbf_kernel_matrix(x, x, gamma)
            _, w_oracle = qp_oracle.solve_dual(kernel, y, c)
            ksv = rbf_kernel_matrix(model.support_vectors, model.support_vectors, gamma)
            w_smo = float(np.abs(model.dual_coef).sum()
                          - 0.5 * model.dual_coef @ ksv @ model.dual_coef)
            assert abs(w_smo - w_oracle) <= 1e-6 * abs(w_oracle)

    def test_kkt_and_feasibility(self):
        tol = 1e-6
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 2))
        y = np.sign(rng.normal(size=20))
        y[y == 0] = 1.0
        c = 5.0
        model = smo_train(x, y, KernelParams(gamma=0.8, c=c), tol=tol,
                          max_passes=2000, seed=1)
        # stored alphas respect the box and the equality constraint
        alphas = np.abs(model.dual_coef)
        assert np.all(alphas > 0.0) and np.all(alphas <= c)
        assert abs(model.dual_coef.sum()) <= 1e-8
        # KKT residuals within tol for every training point
        margins = y * decision_values(model, x)
        full_alpha = np.zeros(20)
        k_i = 0
        for i in range(20):
            if k_i < len(model.support_vectors) and np.array_equal(
                x[i], model.support_vectors[k_i]
            ):
                full_alpha[i] = alphas[k_i]
                k_i += 1
        assert k_i == len(model.support_vectors)
        band = 1e-12 * c
        for i in range(20):
            if full_alpha[i] <= band:
                assert margins[i] >= 1.0 - tol
            elif full_alpha[i] >= c - band:
                assert margins[i] <= 1.0 + tol
            else:
                assert abs(margins[i] - 1.0) <= tol

    def test_monotone_ascent_in_debug_mode(self):
        x, labels = blobs(seed=6, n_per=10, spread=1.5)
        y = np.where(labels == 0, 1.0, -1.0)
        smo_train(x, y, KernelParams(gamma=0.3, c=2.0), debug=True, seed=2)

    def test_deterministic_given_seed(self):
        x, labels = blobs(seed=7, n_per=12, spread=1.2)
        y = np.where(labels == 0, 1.0, -1.0)
        a = smo_train(x, y, KernelParams(gamma=0.4, c=3.0), seed=9)
        b = smo_train(x, y, KernelParams(gamma=0.4, c=3.0), seed=9)
        assert np.array_equal(a.dual_coef, b.dual_coef)
        assert a.bias == b.bias

    def test_single_class_rejected(self):
        x = np.random.default_rng(8).normal(size=(6, 2))
        with pytest.raises(SonoclassError, match="both classes must be present"):
            smo_train(x, np.ones(6), KernelParams(gamma=1.0, c=1.0))

    def test_bad_labels_rejected(self):
        x = np.random.default_rng(9).normal(size=(4, 2))
        with pytest.raises(ValueError):
            smo_train(x, np.array([0.0, 1.0, 0.0, 1.0]), KernelParams(gamma=1.0, c=1.0))

    def test_nonconvergence_warns_and_flags(self):
        x, labels = blobs(seed=10, n_per=20, spread=3.0)
        y = np.where(labels == 0, 1.0, -1.0)
        with pytest.warns(RuntimeWarning):
            model = smo_train(x, y, KernelParams(gamma=0.5, c=10.0), max_passes=1)
        assert not model.converged


def duplicated_rows(seed, n_per=10):
    """Overlapping blobs plus copies of twelve rows, eight with the opposite
    label and four with the same one.

    A row and its copy have eta = 0, so a step on that pair takes the
    endpoint branch of the pair update.
    """
    x, labels = blobs(seed=seed, n_per=n_per, centers=((0.0, 0.0), (1.0, 1.0)), spread=1.0)
    y = np.where(labels == 0, 1.0, -1.0)
    flipped, kept = np.r_[:4, -4:0], np.r_[4:6, -6:-4]
    return np.vstack([x, x[flipped], x[kept]]), np.r_[y, -y[flipped], y[kept]]


def labelled_blobs(seed, spread, n_per=15):
    x, labels = blobs(seed=seed, n_per=n_per, spread=spread)
    return x, np.where(labels == 0, 1.0, -1.0)


# (problem, gamma, c, smo_train keyword arguments)
PARITY_CASES = {
    "separable": (lambda: labelled_blobs(20, spread=0.4), 0.5, 1.0, {}),
    "overlapping": (lambda: labelled_blobs(21, spread=3.0, n_per=25), 0.5, 10.0, {}),
    "duplicated-rows": (lambda: duplicated_rows(22), 0.5, 1.0, {}),
    "duplicated-rows-large-c": (lambda: duplicated_rows(23), 2.0, 2.0 ** 15, {}),
    "c=2^-5": (lambda: labelled_blobs(24, spread=3.0), 0.5, 2.0 ** -5, {}),
    "c=2^15": (lambda: labelled_blobs(25, spread=3.0), 0.5, 2.0 ** 15, {}),
    "max_passes=1": (lambda: labelled_blobs(26, spread=3.0), 0.5, 10.0, {"max_passes": 1}),
    "max_passes=2": (lambda: labelled_blobs(27, spread=3.0), 0.5, 10.0, {"max_passes": 2}),
    "max_passes=3": (lambda: labelled_blobs(28, spread=3.0), 0.5, 10.0, {"max_passes": 3}),
    "debug": (lambda: labelled_blobs(29, spread=1.5), 0.3, 2.0, {"debug": True}),
}


@pytest.mark.filterwarnings("ignore:SMO stopped:RuntimeWarning")
@pytest.mark.parametrize("case", PARITY_CASES, ids=list(PARITY_CASES))
@pytest.mark.parametrize("seed", [0, 5])
def test_smo_matches_reference_exactly(case, seed):
    """The Python-float solver takes the reference's trajectory bit for bit."""
    problem, gamma, c, kwargs = PARITY_CASES[case]
    x, y = problem()
    params = KernelParams(gamma=gamma, c=c)
    got = smo_train(x, y, params, seed=seed, **kwargs)
    want = smo_reference.smo_train(x, y, params, seed=seed, **kwargs)
    assert np.array_equal(got.support_vectors, want.support_vectors)
    assert np.array_equal(got.dual_coef, want.dual_coef)
    assert got.bias == want.bias
    assert got.n_passes == want.n_passes
    assert got.converged == want.converged
    if "max_passes" in kwargs:
        assert not got.converged


class TestDecisionValue:
    def test_empty_support_set(self):
        model = BinarySvmModel(
            support_vectors=np.zeros((0, 3)),
            dual_coef=np.zeros(0),
            bias=0.0,
            params=KernelParams(gamma=1.0, c=1.0),
        )
        assert decision_values(model, np.zeros((1, 3)))[0] == 0.0

    def test_unbounded_sv_sits_on_margin(self):
        x, labels = blobs(seed=11)
        y = np.where(labels == 0, 1.0, -1.0)
        tol = 1e-6
        model = smo_train(x, y, KernelParams(gamma=0.5, c=50.0), tol=tol, seed=0,
                          max_passes=2000)
        alphas = np.abs(model.dual_coef)
        unbounded = (alphas > 1e-9) & (alphas < 50.0 - 1e-9)
        assert unbounded.any()
        sv = model.support_vectors[unbounded][0]
        sign = np.sign(model.dual_coef[unbounded][0])
        assert sign * decision_values(model, sv[None, :])[0] == pytest.approx(1.0, abs=2 * tol)

    def test_summation_oracle(self):
        x, labels = blobs(seed=12)
        y = np.where(labels == 0, 1.0, -1.0)
        model = smo_train(x, y, KernelParams(gamma=0.5, c=5.0), seed=0)
        probe = np.array([1.0, 2.0])
        direct = model.bias + sum(
            coef * rbf_kernel(probe, sv, 0.5)
            for coef, sv in zip(model.dual_coef, model.support_vectors)
        )
        assert decision_values(model, probe[None, :])[0] == pytest.approx(direct, rel=1e-12)

    def test_length_mismatch(self):
        x, labels = blobs(seed=13, n_per=5)
        y = np.where(labels == 0, 1.0, -1.0)
        model = smo_train(x, y, KernelParams(gamma=0.5, c=5.0), seed=0)
        with pytest.raises(SonoclassError, match="x has 5 features, model expects 2"):
            decision_values(model, np.zeros((1, 5)))


def multiclass_blobs(k, seed=0, n_per=8, spread=0.3):
    rng = np.random.default_rng(seed)
    angle = 2 * np.pi * np.arange(k) / k
    centers = 5.0 * np.column_stack([np.cos(angle), np.sin(angle)])
    xs, ys = [], []
    for label in range(k):
        xs.append(rng.normal(size=(n_per, 2)) * spread + centers[label])
        ys.append(np.full(n_per, label))
    return FeatureMatrix(np.vstack(xs), np.concatenate(ys))


class TestOvo:
    def test_pair_count_ten_classes(self):
        matrix = multiclass_blobs(10, seed=1, n_per=3)
        model = ovo_train(matrix, KernelParams(gamma=0.5, c=10.0), seed=0)
        assert len(model.pair_models) == 45

    def test_pair_count_two_classes(self):
        matrix = multiclass_blobs(2, seed=2, n_per=4)
        model = ovo_train(matrix, KernelParams(gamma=0.5, c=10.0), seed=0)
        assert len(model.pair_models) == 1

    def test_three_class_pairs_enumerated(self):
        matrix = multiclass_blobs(3, seed=3, n_per=4)
        model = ovo_train(matrix, KernelParams(gamma=0.5, c=10.0), seed=0)
        assert sorted(model.pair_models) == [(0, 1), (0, 2), (1, 2)]

    def test_class_too_small(self):
        values = np.random.default_rng(4).normal(size=(5, 2))
        labels = np.array([0, 0, 1, 1, 2])
        with pytest.raises(SonoclassError, match=r"classes \[2\] have fewer than 2 training samples"):
            ovo_train(FeatureMatrix(values, labels), KernelParams(gamma=1.0, c=1.0))

    def test_binary_prediction_equals_sign(self):
        matrix = multiclass_blobs(2, seed=5)
        model = ovo_train(matrix, KernelParams(gamma=0.5, c=10.0), seed=0)
        predicted = ovo_predict_batch(model, matrix.values)
        from sonoclass.svm import apply_scaler
        scaled = apply_scaler(matrix.values, model.scaler)
        d = decision_values(model.pair_models[(0, 1)], scaled)
        assert np.array_equal(predicted, np.where(d > 0, 0, 1))

    def test_unanimous_vote_wins(self):
        matrix = multiclass_blobs(4, seed=6)
        model = ovo_train(matrix, KernelParams(gamma=0.5, c=50.0), seed=0)
        predicted = ovo_predict_batch(model, matrix.values)
        assert np.mean(predicted == matrix.labels) == 1.0

    def test_cyclic_tie_resolved_by_margin(self):
        # rig three pair models with empty support sets so each pair's vote
        # and margin come straight from the bias: a beats b, b beats c,
        # c beats a -- one vote each -- and the winner must be the class
        # with the largest |margin| among its victories.
        from sonoclass.svm import OvoModel
        params = KernelParams(gamma=1.0, c=1.0)

        def rigged(bias):
            return BinarySvmModel(
                support_vectors=np.zeros((0, 2)),
                dual_coef=np.zeros(0),
                bias=bias,
                params=params,
            )

        pair_models = {
            (0, 1): rigged(+0.5),   # class 0 beats 1, margin 0.5
            (1, 2): rigged(+2.0),   # class 1 beats 2, margin 2.0
            (0, 2): rigged(-1.0),   # class 2 beats 0, margin 1.0
        }
        model = OvoModel(
            classes=(0, 1, 2),
            pair_models=pair_models,
            scaler=(np.zeros(2), np.ones(2)),
        )
        # hand enumeration: votes are 1 each; winning-margin sums are
        # 0 -> 0.5, 1 -> 2.0, 2 -> 1.0, so class 1 wins
        assert ovo_predict_batch(model, np.zeros((1, 2)))[0] == 1

    def test_tie_breaks_to_lowest_class_when_margins_equal(self):
        from sonoclass.svm import OvoModel
        params = KernelParams(gamma=1.0, c=1.0)

        def rigged(bias):
            return BinarySvmModel(
                support_vectors=np.zeros((0, 2)), dual_coef=np.zeros(0),
                bias=bias, params=params,
            )

        pair_models = {
            (0, 1): rigged(+1.0),
            (1, 2): rigged(+1.0),
            (0, 2): rigged(-1.0),
        }
        model = OvoModel(classes=(0, 1, 2), pair_models=pair_models,
                         scaler=(np.zeros(2), np.ones(2)))
        assert ovo_predict_batch(model, np.zeros((1, 2)))[0] == 0

    def test_relabeling_invariance(self):
        matrix = multiclass_blobs(3, seed=7, n_per=10)
        model = ovo_train(matrix, KernelParams(gamma=0.5, c=50.0), seed=0)
        perm = np.array([2, 0, 1])  # new label of old class i is perm[i]
        permuted = FeatureMatrix(matrix.values, perm[matrix.labels])
        model_p = ovo_train(permuted, KernelParams(gamma=0.5, c=50.0), seed=0)
        probes = np.random.default_rng(8).normal(size=(20, 2)) * 4.0
        base = ovo_predict_batch(model, probes)
        inverse = np.argsort(perm)
        assert np.array_equal(inverse[ovo_predict_batch(model_p, probes)], base)


class TestGridSearch:
    def test_stratified_folds_deterministic(self):
        labels = np.array([0] * 9 + [1] * 12)
        a = stratified_folds(labels, folds=3, seed=5)
        b = stratified_folds(labels, folds=3, seed=5)
        assert np.array_equal(a, b)
        for cls in (0, 1):
            counts = np.bincount(a[labels == cls], minlength=3)
            assert counts.max() - counts.min() <= 1

    def test_insufficient_class_size(self):
        labels = np.array([0, 0, 1, 1, 1])
        with pytest.raises(SonoclassError, match="class 0 has 2 samples for 3 folds"):
            stratified_folds(labels, folds=3, seed=0)

    def test_single_grid_point(self):
        matrix = multiclass_blobs(2, seed=9, n_per=9)
        best, table = grid_search_cv(matrix, c_grid=[4.0], gamma_grid=[0.5],
                                     folds=3, seed=0)
        assert (best.c, best.gamma) == (4.0, 0.5)
        assert len(table) == 1

    def test_duplicate_grid_point_identical(self):
        matrix = multiclass_blobs(2, seed=10, n_per=9)
        _, table = grid_search_cv(matrix, c_grid=[4.0, 4.0], gamma_grid=[0.5],
                                  folds=3, seed=0)
        assert table[0][2] == table[1][2]

    def test_separable_reaches_perfect_cv(self):
        matrix = multiclass_blobs(3, seed=11, n_per=9)
        best, table = grid_search_cv(
            matrix, c_grid=[1.0, 100.0], gamma_grid=[0.05, 0.5], folds=3, seed=0
        )
        assert max(acc for _, _, acc in table) == 1.0

    def test_tie_prefers_smaller_c_then_gamma(self):
        matrix = multiclass_blobs(2, seed=12, n_per=9)
        best, table = grid_search_cv(
            matrix, c_grid=[2.0, 1.0], gamma_grid=[0.5, 0.25], folds=3, seed=0
        )
        accs = {(c, g): a for c, g, a in table}
        top = max(accs.values())
        winners = sorted([cg for cg, a in accs.items() if a == top])
        assert (best.c, best.gamma) == winners[0]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity API")
    def test_worker_count_follows_affinity(self):
        assert svm._worker_count(10_000) == len(os.sched_getaffinity(0))
        assert svm._worker_count(1) == 1

    def test_serial_and_pooled_give_the_same_result(self, monkeypatch):
        matrix = multiclass_blobs(3, seed=13, n_per=9, spread=3.0)
        grid = dict(c_grid=[0.5, 4.0, 64.0], gamma_grid=[0.05, 0.5, 5.0], folds=3, seed=2)
        results = []
        for count in (1, 2):
            monkeypatch.setattr(svm, "_worker_count", lambda n_cells, count=count: count)
            results.append(grid_search_cv(matrix, **grid))
        assert results[0] == results[1]
        assert len({acc for _, _, acc in results[0][1]}) > 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_error_reaches_caller(self, monkeypatch, workers):
        monkeypatch.setattr(svm, "_worker_count", lambda n_cells: workers)
        matrix = multiclass_blobs(3, seed=14, n_per=6)
        # class 2 keeps exactly 2 rows, so each 2-fold train split has one
        keep = np.r_[np.flatnonzero(matrix.labels != 2), np.flatnonzero(matrix.labels == 2)[:2]]
        small = FeatureMatrix(matrix.values[keep], matrix.labels[keep])
        with pytest.raises(SonoclassError,
                           match=r"classes \[2\] have fewer than 2 training samples"):
            grid_search_cv(small, c_grid=[1.0, 2.0], gamma_grid=[0.5], folds=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_nonconvergence_warning(self, monkeypatch, capfd, workers):
        monkeypatch.setattr(svm, "_worker_count", lambda n_cells: workers)
        matrix = multiclass_blobs(3, seed=15, n_per=9, spread=2.0)
        with pytest.warns(RuntimeWarning) as record:
            grid_search_cv(matrix, c_grid=[1.0, 100.0], gamma_grid=[0.5],
                           folds=3, max_passes=1)
        messages = [str(w.message) for w in record if w.category is RuntimeWarning]
        # 2 cells x 3 folds x 3 pairs; no solve converges in one pass
        assert messages == ["18 of 18 pair solves did not converge"]
        assert "SMO stopped" not in capfd.readouterr().err  # nor in a worker
