import math
import threading
import warnings

import numpy as np
import pytest

from mi_reference import (
    discretize,
    mi_table_oracle,
    mutual_information,
    per_column_count_reference,
    per_column_oracle,
    samples_from_counts,
)
from sonoclass import cpus, feature_select
from sonoclass.errors import SonoclassError
from sonoclass.feature_select import (
    BLOCK_COLUMNS,
    FeatureMatrix,
    MiSelection,
    apply_selection,
    mi_scores,
    select_top_k,
)

# Frozen from the direct evaluation of the joint table [[0.4, 0.1], [0.1, 0.4]]
# (computed with mi_table_oracle before being pinned here).
MI_2X2_BITS = 0.27807190511263774


def library_mi(x, y, n_bins):
    """mi_scores of the one column x of integer codes against the labels y.
    With at least as many bins as x has integers in its range, each code
    keeps a bin of its own, so the joint table is the codes' table."""
    return mi_scores(FeatureMatrix(np.asarray(x, dtype=float)[:, None], y), n_bins=n_bins)[0]


class TestDiscretize:
    def test_equal_width_halves(self):
        assert np.array_equal(discretize(np.array([0, 1, 2, 3]), 2), [0, 0, 1, 1])

    def test_constant_column(self):
        assert np.array_equal(discretize(np.full(5, 2.2), 4), np.zeros(5))

    def test_max_goes_to_top_bin(self):
        out = discretize(np.array([0.0, 0.5, 1.0]), 8)
        assert out[-1] == 7

    def test_needs_two_bins(self):
        with pytest.raises(ValueError):
            discretize(np.array([1.0, 2.0]), 1)


class TestMutualInformation:
    """The estimator's properties, on mi_scores; symmetry and the shape
    error are the per-column reference's own."""

    def test_identity_uniform_binary_is_one_bit(self):
        y = np.array([0, 1] * 8)
        assert library_mi(y, y, n_bins=2) == pytest.approx(1.0)

    def test_constant_is_independent(self):
        x = np.zeros(12, dtype=int)
        y = np.array([0, 1, 2] * 4)
        assert library_mi(x, y, n_bins=2) == 0.0

    def test_worked_2x2_table(self):
        counts = np.array([[4, 1], [1, 4]])
        x, y = samples_from_counts(counts)
        assert library_mi(x, y, n_bins=2) == pytest.approx(MI_2X2_BITS, abs=1e-12)
        assert mi_table_oracle(counts) == pytest.approx(MI_2X2_BITS, abs=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 4, size=60)
        y = rng.integers(0, 3, size=60)
        assert mutual_information(x, y) == mutual_information(y, x)

    def test_nonnegative_on_random_tables(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.integers(0, 5, size=40)
            y = rng.integers(0, 4, size=40)
            assert library_mi(x, y, n_bins=5) >= 0.0

    def test_matches_table_oracle_on_random_tables(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            counts = rng.integers(0, 6, size=(rng.integers(2, 5), rng.integers(2, 5)))
            if counts.sum() == 0:
                continue
            x, y = samples_from_counts(counts, seed=int(rng.integers(1 << 30)))
            if np.unique(y).size < 2:  # one class: refused, by design
                with pytest.raises(SonoclassError, match="at least 2 distinct classes"):
                    library_mi(x, y, n_bins=counts.shape[0])
                continue
            assert library_mi(x, y, n_bins=counts.shape[0]) == pytest.approx(
                mi_table_oracle(counts), abs=1e-12
            )

    def test_data_processing_never_increases(self):
        # merging x's bins is deterministic processing: I(f(X); Y) <= I(X; Y)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.integers(0, 8, size=80)
            y = rng.integers(0, 3, size=80)
            assert library_mi(x // 2, y, n_bins=4) <= library_mi(x, y, n_bins=8) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(SonoclassError, match=r"x has shape \(4,\), y has shape \(5,\)"):
            mutual_information(np.arange(4), np.arange(5))


class TestSelectTopK:
    def make_matrix(self, seed=4, s=48, d=6):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=s)
        values = rng.normal(size=(s, d))
        return FeatureMatrix(values=values, labels=labels), labels

    def test_k_equals_d_returns_all_sorted(self):
        matrix, _ = self.make_matrix()
        sel = select_top_k(matrix, k=6, n_bins=4)
        assert sorted(sel.selected.tolist()) == list(range(6))
        assert np.all(np.diff(sel.scores) <= 1e-15)

    def test_label_copy_ranks_first_with_entropy_score(self):
        matrix, labels = self.make_matrix()
        values = matrix.values.copy()
        values[:, 3] = labels
        matrix = FeatureMatrix(values=values, labels=labels)
        sel = select_top_k(matrix, k=6, n_bins=4)
        assert sel.selected[0] == 3
        p1 = labels.mean()
        entropy = -(p1 * math.log2(p1) + (1 - p1) * math.log2(1 - p1))
        assert mi_scores(matrix, n_bins=4)[3] == pytest.approx(entropy, abs=1e-12)

    def test_constructed_three_features(self):
        rng = np.random.default_rng(5)
        labels = np.array([0, 1] * 24)
        values = np.column_stack([
            labels.astype(float),           # perfect predictor
            rng.normal(size=48),            # noise
            np.full(48, 3.14),              # constant
        ])
        matrix = FeatureMatrix(values, labels)
        assert select_top_k(matrix, k=3, n_bins=4).selected[0] == 0
        scores = mi_scores(matrix, n_bins=4)
        assert scores[2] == 0.0
        x, y = values[:, 0].astype(int), labels
        counts = np.zeros((2, 2), dtype=int)
        for xi, yi in zip(x, y):
            counts[xi, yi] += 1
        assert scores[0] == pytest.approx(mi_table_oracle(counts), abs=1e-12)

    def test_ties_break_to_lower_index(self):
        labels = np.array([0, 1] * 10)
        col = np.array([0.0, 1.0] * 10)
        values = np.column_stack([col, col, col])
        sel = select_top_k(FeatureMatrix(values, labels), k=2, n_bins=2)
        assert sel.selected.tolist() == [0, 1]

    def test_tied_separators_pick_the_lowest_indices(self):
        """Each class's rows sit in 4 of a column's 16 bins that no other
        class uses, so every column's MI is H(Y) = 2 bits, whatever the
        counts within the class's bins are."""
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(4), 3)
        own = np.array([rng.permutation(16).reshape(4, 4) for _ in range(300)])
        pick = rng.integers(0, 4, size=(300, 12, 1))
        values = np.take_along_axis(own[:, labels], pick, axis=2)[..., 0].T.astype(float)
        matrix = FeatureMatrix(values, labels)
        assert np.all(mi_scores(matrix) == 2.0)
        assert select_top_k(matrix, k=8).selected.tolist() == list(range(8))

    def test_k_out_of_range(self):
        matrix, _ = self.make_matrix()
        for k in (0, 7):
            with pytest.raises(SonoclassError, match=rf"k={k} outside \[1, 6\]"):
                select_top_k(matrix, k=k)

    def test_single_class_rejected(self):
        values = np.random.default_rng(6).normal(size=(10, 3))
        with pytest.raises(SonoclassError, match="at least 2 distinct classes"):
            select_top_k(FeatureMatrix(values, np.zeros(10, dtype=int)), k=2)

    def test_needs_two_bins(self):
        matrix, _ = self.make_matrix()
        with pytest.raises(ValueError, match="need at least 2 bins"):
            select_top_k(matrix, k=2, n_bins=1)


def parity_matrix(seed, n_samples, n_features, classes):
    """Random columns mixed with constant, integer-valued (tying) and
    duplicated ones; every class in `classes` occurs at least twice."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([
        np.repeat(classes, 2),
        rng.choice(classes, size=n_samples - 2 * len(classes)),
    ])
    rng.shuffle(labels)
    values = rng.normal(size=(n_samples, n_features)) * rng.uniform(0.1, 5.0, n_features)
    kind = rng.integers(0, 4, size=n_features)
    values[:, kind == 1] = rng.uniform(-2.0, 2.0)
    values[:, kind == 2] = rng.integers(0, 3, size=(n_samples, int(np.sum(kind == 2))))
    dup = np.flatnonzero(kind == 3)
    values[:, dup] = values[:, rng.integers(0, n_features, size=dup.size)]
    return FeatureMatrix(values, labels)


# 40 bins x 10 classes on 300 rows: some columns have more than 128 nonzero
# joint cells, where numpy's pairwise sum recurses
OVER_128_CELLS = (300, 200, tuple(range(10, 20)), 40)

PARITY_SHAPES = [
    pytest.param(40, 1, (3, 7), 16, id="one-column"),
    pytest.param(120, 300, (0, 2, 5, 9, 11), 39, id="below-block"),
    pytest.param(30, BLOCK_COLUMNS, (1, 0), 2, id="one-block"),
    pytest.param(80, 2 * BLOCK_COLUMNS + 37, (0, 1, 2, 3), 16, id="ragged-blocks"),
    pytest.param(*OVER_128_CELLS, id="over-128-cells"),
    # 64 bins x 4 classes: the cell bound cuts blocks to 512 columns
    pytest.param(60, 1100, (0, 1, 2, 3), 64, id="cell-bounded-blocks"),
]


class TestBlockedParity:
    """select_top_k scores blocks of columns at once; every score must
    equal the per-column count reference exactly, and the term-by-term
    per-column oracle to 1e-12."""

    @pytest.mark.parametrize("n_samples, n_features, classes, n_bins", PARITY_SHAPES)
    def test_scores_equal_per_column_oracle(self, n_samples, n_features, classes, n_bins):
        matrix = parity_matrix(n_features, n_samples, n_features, np.array(classes))
        reference = per_column_count_reference(matrix, n_bins)
        k = min(n_features, 64)
        scores = mi_scores(matrix, n_bins=n_bins)
        assert np.array_equal(scores, reference)
        assert scores == pytest.approx(per_column_oracle(matrix, n_bins), abs=1e-12)
        sel = select_top_k(matrix, k=k, n_bins=n_bins)
        order = np.lexsort((np.arange(n_features), -reference))
        assert np.array_equal(sel.selected, order[:k])
        assert np.array_equal(sel.scores, scores[sel.selected])

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n_samples, n_features, classes, n_bins", PARITY_SHAPES + [
        # a class's bins are summed over many cells, and a bin's classes over many
        pytest.param(200, 300, (0, 1), 80, id="two-classes-80-bins"),
        pytest.param(150, 400, tuple(range(9)), 16, id="nine-classes"),
    ])
    def test_scores_do_not_depend_on_worker_count(self, monkeypatch, workers, n_samples,
                                                  n_features, classes, n_bins):
        monkeypatch.setattr(cpus, "worker_count", lambda n_tasks: min(workers, n_tasks))
        matrix = parity_matrix(n_features, n_samples, n_features, np.array(classes))
        assert np.array_equal(mi_scores(matrix, n_bins=n_bins),
                              per_column_count_reference(matrix, n_bins))

    def test_pool_threads_score_blocks_and_are_gone_after(self, monkeypatch):
        monkeypatch.setattr(cpus, "worker_count", lambda n_tasks: min(3, n_tasks))
        threads = set()
        together = threading.Barrier(3, timeout=30)
        score = feature_select._block_scores

        def recorded(*args):
            if threading.get_ident() not in threads:
                threads.add(threading.get_ident())
                together.wait()  # each of the 3 pool threads scores a block
            return score(*args)

        monkeypatch.setattr(feature_select, "_block_scores", recorded)
        matrix = parity_matrix(7, 40, 2 * BLOCK_COLUMNS, np.array([0, 1, 2, 3]))
        before = threading.active_count()
        select_top_k(matrix, k=10)
        assert threading.active_count() == before
        assert len(threads) == 3 and threading.get_ident() in threads

    def test_columns_whose_bin_width_overflows_match_the_oracle(self):
        """n_bins / span overflows for a subnormal span, and x - lo for a
        span past the float range: both give NaN bin positions, which
        discretize clips to bin 0. An odd class count keeps a bin code
        from wrapping back into range."""
        matrix = parity_matrix(5, 30, 40, np.array([0, 1, 2]))
        values = matrix.values.copy()
        values[:, 3] = 0.0
        values[::7, 3] = 5e-324
        values[:, 11] = np.tile([-1e308, 0.0, 1e308], 10)
        matrix = FeatureMatrix(values, matrix.labels)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            reference = per_column_count_reference(matrix, 16)
            oracle = per_column_oracle(matrix, 16)
            scores = mi_scores(matrix, n_bins=16)
        assert np.array_equal(scores, reference)
        assert scores == pytest.approx(oracle, abs=1e-12)
        assert scores[3] == scores[11] == oracle[3] == oracle[11] == 0.0  # every row in bin 0

    def test_over_128_cells_case_has_such_columns(self):
        n_samples, n_features, classes, n_bins = OVER_128_CELLS
        matrix = parity_matrix(n_features, n_samples, n_features, np.array(classes))
        nonzero = [
            np.unique(discretize(col, n_bins) * 100 + matrix.labels).size
            for col in matrix.values.T
        ]
        assert max(nonzero) > 128

    def test_ties_follow_lower_index_across_blocks(self):
        labels = np.array([0, 1] * 10)
        col = np.array([0.0, 1.0] * 10)
        d = BLOCK_COLUMNS + 3
        values = np.tile(col[:, None], (1, d))
        sel = select_top_k(FeatureMatrix(values, labels), k=d, n_bins=2)
        assert np.array_equal(sel.selected, np.arange(d))
        assert np.all(sel.scores == sel.scores[0])


class TestApplySelection:
    def make_selection(self, selected, d):
        selected = np.asarray(selected, dtype=np.int64)
        return MiSelection(selected=selected, scores=np.zeros(selected.size), n_features=d)

    def test_gather_order(self):
        sel = self.make_selection([2, 0], d=3)
        assert np.array_equal(apply_selection(np.array([1.0, 2.0, 3.0]), sel), [3.0, 1.0])

    def test_identity_permutation(self):
        sel = self.make_selection([0, 1, 2], d=3)
        v = np.array([4.0, 5.0, 6.0])
        assert np.array_equal(apply_selection(v, sel), v)

    def test_identity_idempotent(self):
        sel = self.make_selection([0, 1, 2], d=3)
        v = np.array([4.0, 5.0, 6.0])
        assert np.array_equal(apply_selection(apply_selection(v, sel), sel), v)

    def test_matrix_rows(self):
        sel = self.make_selection([1], d=2)
        out = apply_selection(np.array([[1.0, 2.0], [3.0, 4.0]]), sel)
        assert np.array_equal(out, [[2.0], [4.0]])

    def test_length_mismatch(self):
        sel = self.make_selection([0], d=3)
        with pytest.raises(SonoclassError, match="vector has 4 features, selection expects 3"):
            apply_selection(np.zeros(4), sel)

    @pytest.mark.parametrize("selected, n_scores, message", [
        ([0, 3], 2, "selected index outside 3 raw features"),
        ([-1], 1, "selected index outside 3 raw features"),
        ([0, 2], 3, "3 scores for 2 indices"),
    ], ids=["above", "negative", "score-count"])
    def test_inconsistent_selection_rejected(self, selected, n_scores, message):
        with pytest.raises(SonoclassError, match=message):
            MiSelection(selected=np.array(selected), scores=np.zeros(n_scores), n_features=3)
