import multiprocessing
import os
import warnings

import numpy as np
import pytest

import grid_reference
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
                          max_passes=500)
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
        # the reference asserts ascent after every step in debug mode, and
        # the library must take the same steps
        x, labels = blobs(seed=6, n_per=10, spread=1.5)
        y = np.where(labels == 0, 1.0, -1.0)
        params = KernelParams(gamma=0.3, c=2.0)
        want = smo_reference.smo_train(x, y, params, debug=True, seed=2)
        got = smo_train(x, y, params, seed=2)
        assert np.array_equal(got.dual_coef, want.dual_coef)
        assert got.bias == want.bias and got.n_passes == want.n_passes

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


# (problem, gamma, c, smo_train keyword arguments); "debug" is a mode of the
# reference only, so it is passed to the reference alone
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
    got = smo_train(x, y, params, seed=seed,
                    **{k: v for k, v in kwargs.items() if k != "debug"})
    want = smo_reference.smo_train(x, y, params, seed=seed, **kwargs)
    assert np.array_equal(got.support_vectors, want.support_vectors)
    assert np.array_equal(got.dual_coef, want.dual_coef)
    assert got.bias == want.bias
    assert got.n_passes == want.n_passes
    assert got.converged == want.converged
    if "max_passes" in kwargs:
        assert not got.converged


def random_pair_problem(seed, duplicates=False):
    """6 to 15 Gaussian rows in 2-D with random labels, both present; with
    duplicates, the first third of the rows repeats the last third."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 16))
    x = rng.normal(size=(n, 2))
    if duplicates:
        x[: n // 3] = x[n - n // 3:]
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    return x, y


def separable_with_duplicates(seed):
    """Two close blobs plus a same-label copy of six rows: a row and its copy
    have eta = 0 and s = +1, so their steps take the endpoint branch with
    endpoints that do not depend on C once C is large."""
    x, labels = blobs(seed=seed, n_per=10, centers=((0.0, 0.0), (2.0, 2.0)), spread=0.6)
    y = np.where(labels == 0, 1.0, -1.0)
    kept = np.r_[:3, -3:0]
    return np.vstack([x, x[kept]]), np.r_[y, y[kept]]


C_LADDER = tuple(2.0 ** p for p in range(-12, 22))

# (problem, gamma, smo_train keyword arguments, what the ladder must show)
REUSE_CASES = {
    "duplicated-rows": (lambda: separable_with_duplicates(20), 0.5, {}, lambda models: True),
    "box-binds-at-small-c": (
        lambda: labelled_blobs(21, spread=3.0, n_per=25), 0.5, {},
        lambda models: models[0].c_limit == C_LADDER[0],
    ),
    # an alpha of a few 1e-17 is at or below the zero band 1e-12*C
    "dust-alphas": (
        lambda: random_pair_problem(1, duplicates=True), 1.0, {},
        lambda models: any(np.abs(m.dual_coef).min() <= 1e-12 * m.params.c for m in models),
    ),
    # the least alpha above the band, about 2e-6, ends reuse near C = 2e6
    "band-limits-reuse": (
        lambda: random_pair_problem(1682), 1.0, {},
        lambda models: any(m.params.c < m.c_limit < C_LADDER[-1] for m in models),
    ),
    "max_passes=1": (
        lambda: labelled_blobs(26, spread=3.0), 0.5, {"max_passes": 1},
        lambda models: not any(m.converged for m in models),
    ),
}


def solve_c_ladder(x, y, gamma, **kwargs):
    """Solve at every C of C_LADDER, and check that a solve kept for a larger
    C (C <= its c_limit) is that C's solve, bit for bit. Returns the direct
    models and how many rungs could keep an earlier solve."""
    models, kept, reused = [], None, 0
    for c in C_LADDER:
        direct = smo_train(x, y, KernelParams(gamma=gamma, c=c), seed=0, **kwargs)
        models.append(direct)
        assert direct.c_limit >= c
        if kept is not None and kept.params.c <= c <= kept.c_limit:
            reused += 1
            assert direct.dual_coef.tobytes() == kept.dual_coef.tobytes()
            assert np.array_equal(direct.support_vectors, kept.support_vectors)
            assert direct.bias == kept.bias
            assert direct.n_passes == kept.n_passes
            assert direct.converged == kept.converged
        else:
            kept = direct
    return models, reused


@pytest.mark.filterwarnings("ignore:SMO stopped:RuntimeWarning")
@pytest.mark.parametrize("case", REUSE_CASES, ids=list(REUSE_CASES))
def test_reuse_up_the_c_ladder_matches_direct_solves(case):
    problem, gamma, kwargs, shows_case = REUSE_CASES[case]
    models, reused = solve_c_ladder(*problem(), gamma, **kwargs)
    assert 0 < reused < len(C_LADDER) - 1
    assert shows_case(models)


@pytest.mark.filterwarnings("ignore:SMO stopped:RuntimeWarning")
@pytest.mark.parametrize("start", [0, 10, 20])
def test_reuse_on_random_problems(start):
    """Random pair problems, half with duplicate rows, at 1, 3 and 200 passes."""
    reused = 0
    for seed in range(start, start + 10):
        x, y = random_pair_problem(seed, duplicates=bool(seed % 2))
        gamma = 2.0 ** (seed % 7 - 4)
        reused += solve_c_ladder(x, y, gamma, max_passes=(1, 3, 200)[seed % 3])[1]
    assert reused > 0


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

    @pytest.mark.parametrize("grids", [
        {"c_grid": [], "gamma_grid": [0.5]},
        {"c_grid": [4.0], "gamma_grid": []},
    ], ids=["c_grid", "gamma_grid"])
    def test_empty_grid_rejected(self, grids):
        matrix = multiclass_blobs(2, seed=9, n_per=9)
        with pytest.raises(ValueError, match="need at least one C and one gamma value"):
            grid_search_cv(matrix, folds=3, seed=0, **grids)

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

    # unsorted, with a repeated C; 7 C x 3 gamma x 3 folds x 3 pairs = 189 pair solves
    REFERENCE_GRID = dict(c_grid=[64.0, 0.25, 4.0, 2.0 ** 12, 4.0, 2.0 ** -5, 1024.0],
                          gamma_grid=[5.0, 0.05, 0.5], folds=3, seed=4)

    @pytest.mark.parametrize("max_passes", [8, 200])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_per_cell_reference(self, monkeypatch, workers, max_passes):
        monkeypatch.setattr(svm, "_worker_count", lambda n_tasks: workers)
        matrix = multiclass_blobs(3, seed=17, n_per=9, spread=2.5)
        grid = dict(self.REFERENCE_GRID, max_passes=max_passes)
        want_best, want_table, want_message = grid_reference.grid_search_cv(matrix, **grid)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            best, table = grid_search_cv(matrix, **grid)
        assert best == want_best
        assert table == want_table
        # some solves stop at either max_passes
        assert [str(w.message) for w in record] == [want_message]
        assert len({acc for _, _, acc in table}) > 1

    def test_ladder_solves_fewer_pairs_than_cells(self, monkeypatch):
        monkeypatch.setattr(svm, "_worker_count", lambda n_tasks: 1)
        solves = []
        solve = svm.smo_train
        monkeypatch.setattr(svm, "smo_train", lambda *a, **k: solves.append(1) or solve(*a, **k))
        matrix = multiclass_blobs(3, seed=17, n_per=9, spread=2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grid_search_cv(matrix, **self.REFERENCE_GRID)
        assert len(solves) < 189
