import warnings

import numpy as np
import pytest

import grid_reference
import qp_oracle
import smo_reference
from sonoclass import svm
from sonoclass.errors import NonConvergenceWarning, SonoclassError
from sonoclass.feature_select import FeatureMatrix
from sonoclass.svm import (
    BinarySvmModel,
    KernelParams,
    decision_values,
    grid_search_cv,
    ovo_predict_batch,
    ovo_train,
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
        x = np.array([[1.0, -2.0, 0.5]])
        assert rbf_kernel_matrix(x, x, gamma=3.0)[0, 0] == 1.0

    def test_unit_exponent(self):
        x = np.zeros((1, 2))
        x2 = np.array([[1.0, 0.0]])  # squared distance 1 = 1/gamma
        assert rbf_kernel_matrix(x, x2, gamma=1.0)[0, 0] == pytest.approx(np.exp(-1.0))

    def test_small_gamma_limit(self):
        x, x2 = np.zeros((1, 3)), np.ones((1, 3))
        assert rbf_kernel_matrix(x, x2, gamma=1e-12)[0, 0] > 0.999999

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        k = rbf_kernel_matrix(a, b, gamma=0.7)
        for i in range(4):
            for j in range(5):
                direct = np.exp(-0.7 * np.sum((a[i] - b[j]) ** 2))
                assert k[i, j] == pytest.approx(direct, rel=1e-12)

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
        k12 = np.exp(-0.7 * np.sum((x[0] - x[1]) ** 2))
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
        model = smo_train(x, y, KernelParams(gamma=0.5, c=1000.0))
        assert np.all(np.sign(decision_values(model, x)) == y)

    def test_matches_dense_qp_oracle(self):
        rng = np.random.default_rng(4)
        problems = []  # (y, c, kernel, gamma, model)
        for trial in range(20):
            n = int(rng.integers(4, 9))
            x = rng.normal(size=(n, 3))
            y = np.concatenate([np.ones(n // 2), -np.ones(n - n // 2)])
            rng.shuffle(y)
            c = float(rng.uniform(0.5, 50.0))
            gamma = float(rng.uniform(0.05, 4.0))
            model = smo_train(x, y, KernelParams(gamma=gamma, c=c), tol=1e-8,
                              max_passes=2000)
            problems.append((y, c, rbf_kernel_matrix(x, x, gamma), gamma, model))
        ys, cs, kernels, gammas, models = zip(*problems)
        oracle = qp_oracle.solve_dual_batch(kernels, ys, cs)
        for gamma, model, (_, w_oracle) in zip(gammas, models, oracle):
            ksv = rbf_kernel_matrix(model.support_vectors, model.support_vectors, gamma)
            w_smo = float(np.abs(model.dual_coef).sum()
                          - 0.5 * model.dual_coef @ ksv @ model.dual_coef)
            assert abs(w_smo - w_oracle) <= 1e-6 * abs(w_oracle)

    def test_batched_qp_oracle_matches_the_per_problem_one(self):
        # criterion 4 runs the oracle as one batch; a few problems of mixed
        # sizes, padded to the largest, check it against the per-problem loop
        rng = np.random.default_rng(6)
        kernels, ys, cs = [], [], []
        for n in (12, 4, 9, 7):
            x = rng.normal(size=(n, 2))
            y = np.concatenate([np.ones(n // 2), -np.ones(n - n // 2)])
            rng.shuffle(y)
            kernels.append(rbf_kernel_matrix(x, x, float(rng.uniform(0.05, 4.0))))
            ys.append(y)
            cs.append(float(rng.uniform(0.5, 50.0)))
        batch = qp_oracle.solve_dual_batch(kernels, ys, cs)
        for kernel, y, c, (alpha, w) in zip(kernels, ys, cs, batch):
            alpha_one, w_one = qp_oracle.solve_dual(kernel, y, c)
            assert alpha.shape == y.shape
            assert abs(w - w_one) <= 1e-12 * abs(w_one)
            assert np.all((alpha >= 0.0) & (alpha <= c))
            assert abs(alpha @ y) <= 1e-9 * c

    def test_kkt_and_feasibility(self):
        tol = 1e-6
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 2))
        y = np.sign(rng.normal(size=20))
        y[y == 0] = 1.0
        c = 5.0
        model = smo_train(x, y, KernelParams(gamma=0.8, c=c), tol=tol,
                          max_passes=2000)
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
        want = smo_reference.smo_train(x, y, params, debug=True)
        got = smo_train(x, y, params)
        assert np.array_equal(got.dual_coef, want.dual_coef)
        assert got.bias == want.bias and got.n_passes == want.n_passes

    def test_deterministic_given_seed(self):
        # the solver draws no random numbers, so two calls give equal models
        x, labels = blobs(seed=7, n_per=12, spread=1.2)
        y = np.where(labels == 0, 1.0, -1.0)
        a = smo_train(x, y, KernelParams(gamma=0.4, c=3.0))
        b = smo_train(x, y, KernelParams(gamma=0.4, c=3.0))
        assert np.array_equal(a.dual_coef, b.dual_coef)
        assert a.bias == b.bias and a.n_passes == b.n_passes

    def test_single_class_rejected(self):
        x = np.random.default_rng(8).normal(size=(6, 2))
        with pytest.raises(SonoclassError, match="both classes must be present"):
            smo_train(x, np.ones(6), KernelParams(gamma=1.0, c=1.0))

    def test_bad_labels_rejected(self):
        x = np.random.default_rng(9).normal(size=(4, 2))
        with pytest.raises(ValueError):
            smo_train(x, np.array([0.0, 1.0, 0.0, 1.0]), KernelParams(gamma=1.0, c=1.0))

    def test_nonconvergence_flags_and_does_not_warn(self):
        x, labels = blobs(seed=10, n_per=20, spread=3.0)
        y = np.where(labels == 0, 1.0, -1.0)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            model = smo_train(x, y, KernelParams(gamma=0.5, c=10.0), max_passes=1)
        # the cap is max_passes x rows pair steps
        assert not model.converged and model.n_passes == 40
        assert record == []


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


@pytest.mark.parametrize("case", PARITY_CASES, ids=list(PARITY_CASES))
@pytest.mark.parametrize("seed", [0, 5])
def test_smo_matches_reference_exactly(case, seed):
    """The batched solver takes the plain-Python reference's trajectory bit
    for bit, with the rows in their generated order (seed 0) or shuffled by
    the seed, since ties in the working-set pick go to the first row."""
    problem, gamma, c, kwargs = PARITY_CASES[case]
    x, y = problem()
    if seed:
        order = np.random.default_rng(seed).permutation(y.size)
        x, y = x[order], y[order]
    params = KernelParams(gamma=gamma, c=c)
    got = smo_train(x, y, params, **{k: v for k, v in kwargs.items() if k != "debug"})
    want = smo_reference.smo_train(x, y, params, **kwargs)
    assert np.array_equal(got.support_vectors, want.support_vectors)
    assert np.array_equal(got.dual_coef, want.dual_coef)
    assert got.bias == want.bias
    assert got.n_passes == want.n_passes
    assert got.converged == want.converged
    if kwargs.get("max_passes", 3) < 3:  # 3 passes leave these solves room to converge
        assert not got.converged and got.n_passes == kwargs["max_passes"] * y.size


def test_a_batch_equals_each_problem_solved_alone():
    """Problems of 8, 50 and 32 rows at two C values, padded into one batch,
    give bit for bit the models that smo_train gives each problem alone,
    whether the problem converges or stops at its cap."""
    groups = [
        (*labelled_blobs(30, spread=0.4, n_per=4), 0.5),
        (*labelled_blobs(31, spread=3.0, n_per=25), 0.5),
        (*duplicated_rows(32), 2.0),
    ]
    c_values = [0.5, 64.0]
    batch = svm._solve_batch([(rbf_kernel_matrix(x, x, gamma), y) for x, y, gamma in groups],
                             c_values, tol=1e-3, max_passes=2)
    converged = []
    for g, (x, y, gamma) in enumerate(groups):
        for k, c in enumerate(c_values):
            got = batch.model(g, k, x, gamma)
            want = smo_train(x, y, KernelParams(gamma=gamma, c=c), max_passes=2)
            assert got.params == want.params
            assert got.support_vectors.tobytes() == want.support_vectors.tobytes()
            assert got.dual_coef.tobytes() == want.dual_coef.tobytes()
            assert got.bias == want.bias
            assert (got.n_passes, got.converged) == (want.n_passes, want.converged)
            converged.append(got.converged)
    assert any(converged) and not all(converged)


def plain_bias(y, g, alpha, c):
    """The bias formula of one problem, in plain Python."""
    band = 1e-12 * c
    resid = [yt - gt for yt, gt in zip(y, g)]
    free = [r for r, a in zip(resid, alpha) if band < a < c - band]
    if free:
        return sum(free) / len(free)
    lower = [r for r, yt, a in zip(resid, y, alpha)
             if (yt > 0 and a <= band) or (yt < 0 and a >= c - band)]
    upper = [r for r, yt, a in zip(resid, y, alpha)
             if (yt < 0 and a <= band) or (yt > 0 and a >= c - band)]
    if lower and upper:
        return 0.5 * (max(lower) + min(upper))
    if lower or upper:
        return max(lower) if lower else min(upper)
    return 0.0


def test_bias_matches_plain_formula_per_row():
    """One batch whose rows take each branch of the bias: unbounded support
    vectors, lower bounds only, upper bounds only, both, and neither (a row
    of padding). Rows near a bound sit within the band of it."""
    c = np.array([2.0, 2.0, 1.0, 0.5, 4.0, 1.0])
    y = np.array([
        [1.0, -1.0, 1.0, -1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0, 0.0],
        [1.0, 1.0, -1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0, -1.0, 0.0],
        [-1.0, 1.0, 1.0, -1.0, 1.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    alpha = np.array([
        [0.5, 2.0, 1.25, 0.0, 0.75],                    # the mean over entries 0, 2 and 4
        [0.0, 1e-13, 2.0, 2.0 * (1 - 1e-13), 0.0],      # lower only
        [1.0, 1.0 - 1e-13, 0.0, 0.0, 1.0],              # upper only
        [0.0, 0.0, 0.5, 0.5, 0.0],                      # both: the midpoint
        [0.0, 0.0, 4.0, 4.0, 0.0],                      # both, other bounds
        [0.0, 0.0, 0.0, 0.0, 0.0],                      # neither: 0
    ])
    g = np.random.default_rng(40).normal(size=y.shape)
    got = svm._bias_from_state(y, g, alpha, c)
    assert got.shape == (6,)
    for r in range(6):
        want = plain_bias(y[r].tolist(), g[r].tolist(), alpha[r].tolist(), float(c[r]))
        assert got[r] == pytest.approx(want, rel=1e-12)
    assert got[5] == 0.0
    # row 1's padding entry bounds nothing; every entry of row 2 is an upper bound
    assert got[1] == max(y[1, :4] - g[1, :4])
    assert got[2] == min(y[2] - g[2])


class TestDecisionValue:
    def test_empty_support_set(self):
        model = BinarySvmModel(
            support_vectors=np.zeros((0, 3)),
            dual_coef=np.zeros(0),
            bias=0.0,
            params=KernelParams(gamma=1.0, c=1.0),
        )
        assert decision_values(model, np.zeros((1, 3)))[0] == 0.0

    def test_empty_support_set_checks_the_width(self):
        model = BinarySvmModel(
            support_vectors=np.zeros((0, 3)),
            dual_coef=np.zeros(0),
            bias=0.5,
            params=KernelParams(gamma=1.0, c=1.0),
        )
        assert np.array_equal(decision_values(model, np.ones((2, 3))), [0.5, 0.5])
        with pytest.raises(SonoclassError, match="x has 4 features, model expects 3"):
            decision_values(model, np.zeros((1, 4)))

    def test_unbounded_sv_sits_on_margin(self):
        x, labels = blobs(seed=11)
        y = np.where(labels == 0, 1.0, -1.0)
        tol = 1e-6
        model = smo_train(x, y, KernelParams(gamma=0.5, c=50.0), tol=tol,
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
        model = smo_train(x, y, KernelParams(gamma=0.5, c=5.0))
        probe = np.array([1.0, 2.0])
        direct = model.bias + sum(
            coef * np.exp(-0.5 * np.sum((probe - sv) ** 2))
            for coef, sv in zip(model.dual_coef, model.support_vectors)
        )
        assert decision_values(model, probe[None, :])[0] == pytest.approx(direct, rel=1e-12)

    def test_length_mismatch(self):
        x, labels = blobs(seed=13, n_per=5)
        y = np.where(labels == 0, 1.0, -1.0)
        model = smo_train(x, y, KernelParams(gamma=0.5, c=5.0))
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
        model = ovo_train(matrix, KernelParams(gamma=0.5, c=10.0))
        assert len(model.pair_models) == 45

    def test_pair_count_two_classes(self):
        matrix = multiclass_blobs(2, seed=2, n_per=4)
        model = ovo_train(matrix, KernelParams(gamma=0.5, c=10.0))
        assert len(model.pair_models) == 1

    def test_three_class_pairs_enumerated(self):
        matrix = multiclass_blobs(3, seed=3, n_per=4)
        model = ovo_train(matrix, KernelParams(gamma=0.5, c=10.0))
        assert sorted(model.pair_models) == [(0, 1), (0, 2), (1, 2)]

    def test_class_too_small(self):
        values = np.random.default_rng(4).normal(size=(5, 2))
        labels = np.array([0, 0, 1, 1, 2])
        with pytest.raises(SonoclassError, match=r"classes \[2\] have fewer than 2 training samples"):
            ovo_train(FeatureMatrix(values, labels), KernelParams(gamma=1.0, c=1.0))

    def test_binary_prediction_equals_sign(self):
        matrix = multiclass_blobs(2, seed=5)
        model = ovo_train(matrix, KernelParams(gamma=0.5, c=10.0))
        predicted = ovo_predict_batch(model, matrix.values)
        from sonoclass.svm import apply_scaler
        scaled = apply_scaler(matrix.values, model.scaler)
        d = decision_values(model.pair_models[(0, 1)], scaled)
        assert np.array_equal(predicted, np.where(d > 0, 0, 1))

    def test_unanimous_vote_wins(self):
        matrix = multiclass_blobs(4, seed=6)
        model = ovo_train(matrix, KernelParams(gamma=0.5, c=50.0))
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

    def test_one_batch_takes_every_tie_outcome(self):
        # support vectors sit at the probes P = (0, 0) and Q = (0, 100), so
        # exp(-||x - sv||^2) is exactly 1 at a pair's own probe and exactly
        # 0 at the others: there the margin is coef + bias, else bias
        from sonoclass.svm import OvoModel, apply_scaler
        params = KernelParams(gamma=1.0, c=1.0)

        def rigged(sv, coef, bias):
            return BinarySvmModel(support_vectors=np.array([sv]), dual_coef=np.array([coef]),
                                  bias=bias, params=params)

        model = OvoModel(classes=(2, 5, 9), pair_models={
            (2, 5): rigged((0.0, 0.0), -1.5, +1.0),
            (2, 9): rigged((0.0, 0.0), -3.0, -2.0),
            (5, 9): rigged((0.0, 100.0), 1.0, +1.0),
        }, scaler=(np.zeros(2), np.ones(2)))
        probes = np.array([
            # 5 beats 2 by 0.5 and 9 by 1, 9 beats 2 by 5: 5 wins on votes
            # although 9's margin sum is larger
            [0.0, 0.0],
            # one vote each; margin sums 2 -> 1, 5 -> 2, 9 -> 2: the lower of 5 and 9
            [0.0, 100.0],
            # one vote each; margin sums 2 -> 1, 5 -> 1, 9 -> 2
            [-100.0, -100.0],
        ])

        # reference: the vote and margin tables broken row by row
        scaled = apply_scaler(probes, model.scaler)
        votes = np.zeros((3, 3))
        support = np.zeros((3, 3))
        for (a, b), pair_model in model.pair_models.items():
            d = decision_values(pair_model, scaled)
            winner = np.where(d > 0.0, model.classes.index(a), model.classes.index(b))
            votes[np.arange(3), winner] += 1.0
            support[np.arange(3), winner] += np.abs(d)
        expected = []
        for r in range(3):
            best = np.flatnonzero(votes[r] == votes[r].max())
            if best.size > 1:
                best = best[support[r, best] == support[r, best].max()]
            expected.append(model.classes[best[0]])

        predicted = ovo_predict_batch(model, probes)
        assert predicted.dtype == np.int64
        assert predicted.tolist() == expected == [5, 5, 9]

    def test_vote_over_a_c_axis_equals_each_model(self):
        """_ovo_vote on the rigged pair margins of
        test_one_batch_takes_every_tie_outcome, one C row per rig (the rig,
        its margins doubled, its margins negated, and with pair (5, 9)
        flipped), gives each row the labels ovo_predict_batch gives that
        row's model, with its exact ties."""
        from sonoclass.svm import OvoModel, apply_scaler
        params = KernelParams(gamma=1.0, c=1.0)
        probes = np.array([[0.0, 0.0], [0.0, 100.0], [-100.0, -100.0]])
        rig = {(2, 5): ((0.0, 0.0), -1.5, +1.0), (2, 9): ((0.0, 0.0), -3.0, -2.0),
               (5, 9): ((0.0, 100.0), 1.0, +1.0)}
        signs = [{}, {}, {}, {(5, 9): -1.0}]
        scales = [1.0, 2.0, -1.0, 1.0]
        models = []
        for scale, sign in zip(scales, signs):
            models.append(OvoModel(classes=(2, 5, 9), pair_models={
                pair: BinarySvmModel(support_vectors=np.array([sv]),
                                     dual_coef=np.array([scale * sign.get(pair, 1.0) * coef]),
                                     bias=scale * sign.get(pair, 1.0) * bias, params=params)
                for pair, (sv, coef, bias) in rig.items()}, scaler=(np.zeros(2), np.ones(2))))
        scaled = apply_scaler(probes, models[0].scaler)
        d = np.array([[decision_values(m, scaled) for m in model.pair_models.values()]
                      for model in models])
        labels = svm._ovo_vote((2, 5, 9), list(rig), d)
        assert labels.dtype == np.int64 and labels.shape == (4, 3)
        for row, model in zip(labels, models):
            assert row.tolist() == ovo_predict_batch(model, probes).tolist()
        assert labels[0].tolist() == labels[1].tolist() == [5, 5, 9]
        assert len({tuple(row) for row in labels.tolist()}) == 3

    def test_relabeling_invariance(self):
        matrix = multiclass_blobs(3, seed=7, n_per=10)
        model = ovo_train(matrix, KernelParams(gamma=0.5, c=50.0))
        perm = np.array([2, 0, 1])  # new label of old class i is perm[i]
        permuted = FeatureMatrix(matrix.values, perm[matrix.labels])
        model_p = ovo_train(permuted, KernelParams(gamma=0.5, c=50.0))
        probes = np.random.default_rng(8).normal(size=(20, 2)) * 4.0
        base = ovo_predict_batch(model, probes)
        inverse = np.argsort(perm)
        assert np.array_equal(inverse[ovo_predict_batch(model_p, probes)], base)


def shifted_classes(seed, counts, width):
    """Gaussian rows of width features, counts[c] of class c, whose mean
    moves by 1.5 per class."""
    rng = np.random.default_rng(seed)
    values = np.vstack([rng.normal(size=(n, width)) + 1.5 * c for c, n in enumerate(counts)])
    return FeatureMatrix(values, np.repeat(np.arange(len(counts)), counts))


class TestOvoTrainEach:
    @pytest.mark.parametrize("max_passes", [2, 200])
    def test_one_batch_equals_ovo_train_on_each_matrix(self, monkeypatch, max_passes):
        """A bank-wide (256) and a wavelet-wide (200) matrix of 4 classes,
        the second with unequal class counts, and a 2-class one: their 13
        pair problems of 12 to 40 rows pad into one solve, and each model
        is, bit for bit, the one ovo_train gives its matrix alone, also
        where one pair stops at its max_passes cap and the others converge."""
        matrices = [shifted_classes(4, [20] * 4, 256), shifted_classes(2, [20, 17, 20, 13], 200),
                    shifted_classes(3, [6, 6], 256)]
        params = KernelParams(gamma=0.5, c=8.0)
        calls, solve = [], svm._solve_batch
        monkeypatch.setattr(svm, "_solve_batch",
                            lambda groups, *a: calls.append(len(groups)) or solve(groups, *a))
        got = list(svm.ovo_train_each(matrices, params, max_passes=max_passes))
        assert calls == [13]
        assert len(got) == len(matrices)
        flags = []
        for model, matrix in zip(got, matrices):
            want = ovo_train(matrix, params, max_passes=max_passes)
            assert model.classes == want.classes
            assert [v.tobytes() for v in model.scaler] == [v.tobytes() for v in want.scaler]
            assert list(model.pair_models) == list(want.pair_models)
            for pair, w in want.pair_models.items():
                m = model.pair_models[pair]
                assert m.params == w.params
                assert m.support_vectors.shape == w.support_vectors.shape
                assert m.support_vectors.tobytes() == w.support_vectors.tobytes()
                assert m.dual_coef.tobytes() == w.dual_coef.tobytes()
                assert m.bias == w.bias
                assert (m.n_passes, m.converged) == (w.n_passes, w.converged)
            flags.append([(m.converged, m.n_passes) for m in model.pair_models.values()])
        if max_passes == 2:
            # one pair of 40 rows stops at 2 x 40 steps; the other five converge
            assert [f for f in flags[0] if not f[0]] == [(False, 80)]
        else:
            assert all(converged for pairs in flags for converged, _ in pairs)

    def test_builds_each_model_when_asked_for(self, monkeypatch):
        """The solve runs at the first model; each model's pair models are
        built only when that model is asked for."""
        built = []
        real = svm.BinarySvmModel
        monkeypatch.setattr(svm, "BinarySvmModel",
                            lambda *a, **k: built.append(1) or real(*a, **k))
        models = svm.ovo_train_each([multiclass_blobs(3, seed=18), multiclass_blobs(4, seed=19)],
                                    KernelParams(gamma=0.5, c=10.0))
        assert built == []
        assert len(next(models).pair_models) == 3 and len(built) == 3
        assert len(next(models).pair_models) == 6 and len(built) == 9
        assert next(models, None) is None


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

    @pytest.mark.parametrize("grids, message", [
        ({"c_grid": [-1.0]}, "c must be positive and finite, got -1.0"),
        ({"gamma_grid": [float("nan")]}, "gamma must be positive and finite, got nan"),
        ({"c_grid": [float("inf")]}, "c must be positive and finite, got inf"),
    ], ids=["negative_c", "nan_gamma", "inf_c"])
    def test_bad_grid_value_rejected_before_any_solve(self, monkeypatch, grids, message):
        calls = []
        monkeypatch.setattr(svm, "_solve_batch", lambda *a: calls.append(a))
        matrix = multiclass_blobs(2, seed=9, n_per=9)
        grid = {"c_grid": [4.0], "gamma_grid": [0.5], **grids}
        with pytest.raises(ValueError, match=message):
            grid_search_cv(matrix, folds=3, seed=0, **grid)
        assert calls == []

    def test_scoring_builds_one_test_kernel_per_group_and_no_models(self, monkeypatch):
        """2 C x 2 gamma x 3 folds x 3 pairs: one training and one held-out
        kernel per (gamma, fold, pair) group, at any number of C values,
        and no per-cell model or ovo_predict_batch call."""
        counts = {"rbf_kernel_matrix": 0, "ovo_predict_batch": 0,
                  "BinarySvmModel": 0, "OvoModel": 0}
        for name in counts:
            def spy(*args, _name=name, _real=getattr(svm, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(svm, name, spy)
        matrix = multiclass_blobs(3, seed=16, n_per=9, spread=2.0)
        _, table = grid_search_cv(matrix, c_grid=[1.0, 100.0], gamma_grid=[0.05, 0.5],
                                  folds=3, seed=0)
        assert len(table) == 4
        assert counts == {"rbf_kernel_matrix": 2 * 2 * 3 * 3, "ovo_predict_batch": 0,
                          "BinarySvmModel": 0, "OvoModel": 0}

    @pytest.mark.parametrize("short", [1, 2])
    def test_worker_error_reaches_caller(self, short):
        matrix = multiclass_blobs(3, seed=14, n_per=6)
        # the short class keeps exactly 2 rows, so each 2-fold train split has one
        keep = np.r_[np.flatnonzero(matrix.labels != short),
                     np.flatnonzero(matrix.labels == short)[:2]]
        small = FeatureMatrix(matrix.values[keep], matrix.labels[keep])
        with pytest.raises(SonoclassError,
                           match=rf"classes \[{short}\] have fewer than 2 training samples"):
            grid_search_cv(small, c_grid=[1.0, 2.0], gamma_grid=[0.5], folds=2)

    @staticmethod
    def tasks_per_batch(monkeypatch, tasks, pairs, rows, n_c):
        """Sets the batch budget so that each _solve_batch call of
        grid_search_cv takes `tasks` (gamma, fold) tasks, each of `pairs`
        pair problems of `rows` rows over `n_c` C values. Returns the list
        the problem count of each call is appended to."""
        monkeypatch.setattr(svm, "BATCH_VALUES", tasks * pairs * rows * (rows + n_c))
        calls, solve = [], svm._solve_batch
        monkeypatch.setattr(svm, "_solve_batch",
                            lambda groups, *a: calls.append(len(groups)) or solve(groups, *a))
        return calls

    @pytest.mark.parametrize("tasks", [1, 2])
    def test_one_nonconvergence_warning(self, monkeypatch, capfd, tasks):
        """The count sums over every batch of the call, 3 tasks in 3 or 2 batches."""
        calls = self.tasks_per_batch(monkeypatch, tasks, pairs=3, rows=12, n_c=2)
        matrix = multiclass_blobs(3, seed=15, n_per=9, spread=3.0)
        with pytest.warns(RuntimeWarning) as record:
            grid_search_cv(matrix, c_grid=[1.0, 100.0], gamma_grid=[0.5],
                           folds=3, max_passes=1)
        assert calls == {1: [3, 3, 3], 2: [6, 3]}[tasks]
        caught = [w for w in record if issubclass(w.category, RuntimeWarning)]
        assert all(w.category is NonConvergenceWarning for w in caught)
        # 2 cells x 3 folds x 3 pairs; 8 do not converge within one step per row
        assert [str(w.message) for w in caught] == ["8 of 18 pair solves did not converge"]
        assert "SMO stopped" not in capfd.readouterr().err

    # unsorted, with a repeated C; 7 C x 3 gamma x 3 folds x 3 pairs = 189 pair solves
    REFERENCE_GRID = dict(c_grid=[64.0, 0.25, 4.0, 2.0 ** 12, 4.0, 2.0 ** -5, 1024.0],
                          gamma_grid=[5.0, 0.05, 0.5], folds=3, seed=4)

    @pytest.mark.parametrize("max_passes", [8, 200])
    @pytest.mark.parametrize("tasks", [1, 2, 9])
    def test_matches_per_cell_reference(self, monkeypatch, tasks, max_passes):
        """Each batch takes 1, 2 or all 9 (gamma, fold) tasks; with 2, a
        batch holds problems of two folds or two gammas."""
        matrix = multiclass_blobs(3, seed=17, n_per=9, spread=2.5)
        grid = dict(self.REFERENCE_GRID, max_passes=max_passes)
        want_best, want_table, want_message = grid_reference.grid_search_cv(matrix, **grid)
        calls = self.tasks_per_batch(monkeypatch, tasks, pairs=3, rows=12, n_c=7)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            best, table = grid_search_cv(matrix, **grid)
        assert best == want_best
        assert table == want_table
        # some solves stop at 8 passes and none at 200
        assert (want_message is None) == (max_passes == 200)
        assert [str(w.message) for w in record] == [want_message] * (max_passes == 8)
        assert len({acc for _, _, acc in table}) > 1
        assert calls == {1: [3] * 9, 2: [6] * 4 + [3], 9: [27]}[tasks]


MAX_PASSES_CALLS = [
    pytest.param(lambda matrix, max_passes: next(svm.ovo_train_each(
        [matrix], KernelParams(gamma=0.5, c=10.0), max_passes=max_passes)), id="ovo_train_each"),
    pytest.param(lambda matrix, max_passes: grid_search_cv(
        matrix, c_grid=[10.0], gamma_grid=[0.5], folds=2, max_passes=max_passes),
        id="grid_search_cv"),
]


@pytest.mark.parametrize("max_passes", [0, -5, svm.MAX_PASSES + 1, 2 ** 62])
@pytest.mark.parametrize("call", MAX_PASSES_CALLS)
def test_max_passes_outside_its_bound_is_refused(call, max_passes):
    """The step cap max_passes x rows is counted in int64; at 2^62 it wraps
    and at 0 or below it ends every solve before its first step."""
    with pytest.raises(ValueError, match=rf"max_passes={max_passes} outside \[1, 2147483647\]"):
        call(multiclass_blobs(3, seed=20), max_passes)


@pytest.mark.parametrize("call", MAX_PASSES_CALLS)
def test_max_passes_at_its_bound_solves_as_at_the_default(call):
    matrix = multiclass_blobs(3, seed=20)
    assert repr(call(matrix, svm.MAX_PASSES)) == repr(call(matrix, svm.DEFAULT_MAX_PASSES))
