"""kNN and Gaussian naive Bayes baselines."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (broadcast_gnb_log_posteriors, full_sort_knn_scores, gnb_posteriors_direct,
                     identity_normalizer)
from rows import rows
from qpose.baselines import GnbModel, KnnModel
from qpose.data import SCORE_BLOCK_ROWS, FeatureNormalizer, N_CLASSES, N_FEATURES


def embed(points_2d, labels):
    """Lift 2-D toy points into the 36-dim feature space (rest zeros)."""
    return rows(lift(points_2d), labels)


def lift(points_2d):
    out = np.zeros((len(points_2d), N_FEATURES))
    out[:, :2] = points_2d
    return out


class TestKnn:
    def test_exact_match_k1(self):
        train = embed([(0, 0), (5, 5), (9, 1)], [2, 4, 6])
        m = KnnModel.fit(train, identity_normalizer(), k=1)
        scores = m.predict_proba(lift([(5, 5)]))
        assert scores[0, 4] == 1.0
        assert scores[0].sum() == 1.0

    def test_k3_hand_enumeration(self):
        # query at origin; nearest three are labels 1, 1, 0 -> predict 1
        pts = [(1, 0), (0, 2), (2, 0), (8, 8), (0, 1)]
        labels = [0, 1, 3, 3, 1]
        train = embed(pts, labels)
        m = KnnModel.fit(train, identity_normalizer(), k=3)
        scores = m.predict_proba(lift([(0, 0)]))[0]
        # distances: 1 (label 0), 1 (label 1), 2 (label 1 at (0,2)), 2 (label 3), 11.3
        assert scores[1] == pytest.approx(2 / 3)
        assert scores[0] == pytest.approx(1 / 3)
        assert np.argmax(scores) == 1

    def test_k3_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        x_train = rng.normal(size=(30, N_FEATURES))
        y_train = rng.integers(0, N_CLASSES, 30)
        train = rows(x_train, y_train)
        m = KnnModel.fit(train, identity_normalizer(), k=3)
        queries = rng.normal(size=(10, N_FEATURES))
        scores = m.predict_proba(queries)
        for qi, q in enumerate(queries):
            order = np.argsort([np.linalg.norm(q - x) for x in x_train], kind="stable")
            votes = np.bincount(y_train[order[:3]], minlength=N_CLASSES) / 3
            np.testing.assert_allclose(scores[qi], votes, atol=1e-12)

    def test_chunked_distances_equal_one_shot_formula(self):
        # more query rows than one distance block, with exact distance ties
        rng = np.random.default_rng(5)
        x_train = rng.normal(size=(40, N_FEATURES)).round(1)
        y_train = rng.integers(0, N_CLASSES, 40)
        train = rows(x_train, y_train)
        m = KnnModel.fit(train, identity_normalizer(), k=5)
        queries = np.concatenate([rng.normal(size=(600, N_FEATURES)).round(1), x_train])
        d2 = ((queries[:, None, :] - x_train[None, :, :]) ** 2).sum(axis=2)
        votes = y_train[np.argsort(d2, axis=1, kind="stable")[:, :5]]
        expected = np.stack([(votes == c).sum(axis=1) for c in range(N_CLASSES)], axis=1) / 5
        assert np.array_equal(m.predict_proba(queries), expected)

    @given(seed=st.integers(0, 2**32 - 1), n_train=st.integers(1, 40),
           k_pick=st.sampled_from(["one", "all", "any"]),
           n_query=st.sampled_from([1, 9, SCORE_BLOCK_ROWS, SCORE_BLOCK_ROWS + 57]),
           scale=st.sampled_from([1.0, 1e100, 1e150, 1e153, 1e154, 1e-160, 1e-162]),
           rounded=st.booleans(), duplicates=st.booleans())
    @settings(max_examples=80, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_shortlist_equals_full_sort(self, seed, n_train, k_pick, n_query, scale, rounded,
                                        duplicates):
        # at 1e150 |z|^2 + |f|^2 passes _HUGE, at 1e153 it is still finite
        # while the gemm of a query facing a reference can overflow, at 1e154
        # the exact distances overflow too, and at 1e-160 and 1e-162 the
        # squares are subnormal; rounding to 0.1 and repeated rows make
        # exact ties
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n_train, N_FEATURES))
        if duplicates:
            x = np.concatenate([x, x[rng.integers(0, n_train, n_train)]])
        queries = np.concatenate([rng.normal(size=(n_query, N_FEATURES)), x[:n_query],
                                  -x[:n_query]])
        if rounded:
            x, queries = x.round(1), queries.round(1)
        x, queries = x * scale, queries * scale
        y = rng.integers(0, N_CLASSES, len(x))
        k = {"one": 1, "all": len(x), "any": int(rng.integers(1, len(x) + 1))}[k_pick]
        m = KnnModel.fit(rows(x, y), identity_normalizer(), k=k)
        assert np.array_equal(m.predict_proba(queries), full_sort_knn_scores(x, y, k, queries))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_gemm_entry_stays_a_candidate(self):
        # |z|^2 + max |f|^2 is finite and past _HUGE; |f|^2 - 2 z.f overflows
        # for reference 0 only, and both exact distances overflow, so the
        # stable sort's tie-break picks reference 0
        x, y = lift([(-0.9e154, 0), (-0.5e154, 0)]), np.array([1, 2])
        m = KnnModel.fit(rows(x, y), identity_normalizer(), k=1)
        queries = lift([(0.9e154, 0)])
        assert np.array_equal(m.predict_proba(queries), full_sort_knn_scores(x, y, 1, queries))
        assert m.predict_proba(queries)[0, 1] == 1.0

    def test_tied_block_re_ranks_within_the_old_temporary(self):
        # every pair of every row ties, so the whole block is re-ranked; the
        # peak stays below the (rows, references, 36) difference the full
        # sort held
        rng = np.random.default_rng(3)
        x = np.tile(rng.normal(size=(1, N_FEATURES)), (400, 1))
        y = rng.integers(0, N_CLASSES, 400)
        m = KnnModel.fit(rows(x, y), identity_normalizer(), k=5)
        queries = rng.normal(size=(SCORE_BLOCK_ROWS, N_FEATURES))
        tracemalloc.start()
        try:
            scores = m.predict_proba(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(scores, full_sort_knn_scores(x, y, 5, queries))
        assert peak < 8 * SCORE_BLOCK_ROWS * 400 * N_FEATURES

    def test_duplicate_set_vote_scaling(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, N_FEATURES))
        y = rng.integers(0, N_CLASSES, 12)
        norm = identity_normalizer()
        single = KnnModel.fit(rows(x, y), norm, k=2)
        doubled = KnnModel.fit(rows(np.concatenate([x, x]), np.concatenate([y, y])), norm, k=4)
        q = rng.normal(size=(6, N_FEATURES))
        np.testing.assert_allclose(single.predict_proba(q), doubled.predict_proba(q), atol=1e-12)

    def test_tie_breaks_to_smallest_class(self):
        train = embed([(1, 0), (-1, 0)], [5, 2])
        m = KnnModel.fit(train, identity_normalizer(), k=2)
        scores = m.predict_proba(lift([(0, 0)]))[0]
        assert scores[2] == scores[5] == 0.5
        assert np.argmax(scores) == 2

    def test_k_bounds(self):
        train = embed([(0, 0), (1, 1)], [0, 1])
        with pytest.raises(ValueError):
            KnnModel.fit(train, identity_normalizer(), k=3)
        with pytest.raises(ValueError):
            KnnModel.fit(train, identity_normalizer(), k=0)

    def test_rescale_invariance_at_argmax(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(25, N_FEATURES))
        y = rng.integers(0, N_CLASSES, 25)
        norm = identity_normalizer()
        base = rows(x, y)
        scaled = rows(x * 7.5, y)
        q = rng.normal(size=(8, N_FEATURES))
        a = KnnModel.fit(base, norm, k=5).predict_proba(q)
        b = KnnModel.fit(scaled, norm, k=5).predict_proba(q * 7.5)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, N_FEATURES))
        y = rng.integers(0, N_CLASSES, 20)
        train = rows(x, y)
        q = rng.normal(size=(5, N_FEATURES))
        m = KnnModel.fit(train, identity_normalizer(), k=5)
        assert (m.predict_proba(q) == m.predict_proba(q)).all()


def gnb_from_arrays(x, y, norm=None):
    return GnbModel.fit(rows(x, y), norm or identity_normalizer())


class TestGnb:
    def test_midpoint_decision_boundary(self):
        # classes 0 and 1 sit at -2/+2 on feature 0 with identical spread;
        # the remaining classes are parked far out on feature 1
        rng = np.random.default_rng(4)
        jitter = rng.standard_normal(20)
        jitter -= jitter.mean()  # class means land at exactly -2 and +2
        x = np.zeros((40 + 2 * (N_CLASSES - 2), N_FEATURES))
        x[:20, 0] = -2 + jitter
        x[20:40, 0] = 2 + jitter
        y = [0] * 20 + [1] * 20
        row = 40
        for c in range(2, N_CLASSES):
            for _ in range(2):
                x[row, 1] = 1000.0 + c
                y.append(c)
                row += 1
        m = gnb_from_arrays(x, np.array(y))
        left = np.zeros((1, N_FEATURES)); left[0, 0] = -0.5
        right = np.zeros((1, N_FEATURES)); right[0, 0] = 0.5
        mid = np.zeros((1, N_FEATURES))
        assert np.argmax(m.predict_proba(left)) == 0
        assert np.argmax(m.predict_proba(right)) == 1
        p_mid = m.predict_proba(mid)[0]
        assert abs(p_mid[0] - p_mid[1]) < 1e-9

    def test_single_point_per_class(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 3, size=(N_CLASSES, N_FEATURES))
        y = np.arange(N_CLASSES)
        m = gnb_from_arrays(x, y)
        preds = np.argmax(m.predict_proba(x), axis=1)
        assert (preds == y).all()

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, N_FEATURES))
        y = np.zeros(10, dtype=int)
        with pytest.raises(ValueError):
            gnb_from_arrays(x, y)

    def test_matches_high_precision_density_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 2, size=(20, N_FEATURES))
        y = rng.integers(0, N_CLASSES, 20)
        while len(set(y.tolist())) < N_CLASSES:
            y = rng.integers(0, N_CLASSES, 20)
        m = gnb_from_arrays(x, y)
        queries = rng.normal(0, 2, size=(5, N_FEATURES))
        got = m.predict_proba(queries)
        want = np.stack([gnb_posteriors_direct(m.priors, m.means, m.variances, q)
                         for q in queries])
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_blocked_log_posteriors_equal_the_one_shot_broadcast(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 2, size=(64, N_FEATURES))
        m = gnb_from_arrays(x, np.tile(np.arange(N_CLASSES), 8))
        queries = rng.normal(0, 3, size=(4001, N_FEATURES))
        for n_rows in (1, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS, SCORE_BLOCK_ROWS + 1, 777, 4001):
            got = m.log_posteriors(queries[:n_rows])
            want = broadcast_gnb_log_posteriors(m, queries[:n_rows])
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), n_rows

    def test_scoring_peak_is_bounded_by_a_block(self):
        rng = np.random.default_rng(11)
        m = gnb_from_arrays(rng.normal(size=(64, N_FEATURES)), np.tile(np.arange(N_CLASSES), 8))
        x = rng.normal(size=(4000, N_FEATURES))
        m.predict_proba(x[:10])
        tracemalloc.start()
        try:
            m.predict_proba(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the normalized input (4000 x 36), the (4000, 8) log posteriors and
        # at most four (block, 8, 36) temporaries: about 40% of the one
        # (4000, 8, 36) difference the whole batch at once would make
        block = SCORE_BLOCK_ROWS * N_CLASSES * N_FEATURES
        assert peak <= (4000 * (N_FEATURES + N_CLASSES) + 4 * block) * 8, peak

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_posteriors_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(24, N_FEATURES))
        y = np.concatenate([np.arange(N_CLASSES), rng.integers(0, N_CLASSES, 16)])
        m = gnb_from_arrays(x, y)
        proba = m.predict_proba(rng.normal(size=(4, N_FEATURES)))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)

    def test_variance_floor_applied(self):
        x = np.zeros((16, N_FEATURES))
        x[:, 0] = np.repeat([0.0, 10.0], 8)  # only feature 0 varies
        y = np.tile(np.arange(N_CLASSES), 2)
        m = gnb_from_arrays(x, y)
        assert (m.variances > 0).all()
        assert np.isfinite(m.predict_proba(np.zeros((1, N_FEATURES)))).all()

    def test_priors_reflect_class_frequencies(self):
        rng = np.random.default_rng(8)
        counts = [6, 2, 1, 1, 1, 1, 1, 3]
        x = rng.normal(size=(sum(counts), N_FEATURES))
        y = np.repeat(np.arange(N_CLASSES), counts)
        m = gnb_from_arrays(x, y)
        np.testing.assert_allclose(m.priors, np.array(counts) / sum(counts), atol=1e-15)
        assert abs(m.priors.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
@pytest.mark.parametrize("kind", ["knn", "gnb"])
@pytest.mark.filterwarnings("error")
def test_non_finite_query_rejected(kind, bad):
    # 1e300 is finite but overflows under a normalizer with a small scale
    rng = np.random.default_rng(9)
    train = rows(rng.normal(size=(16, N_FEATURES)), np.tile(np.arange(N_CLASSES), 2))
    norm = FeatureNormalizer(mean=np.zeros(N_FEATURES), std=np.full(N_FEATURES, 1e-12))
    m = KnnModel.fit(train, norm, k=3) if kind == "knn" else GnbModel.fit(train, norm)
    queries = rng.normal(size=(3, N_FEATURES))
    queries[1, 7] = bad
    with pytest.raises(ValueError, match="input features must be finite"):
        m.predict_proba(queries)
