"""kNN and Gaussian naive Bayes baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gnb_posteriors_direct
from rows import rows
from qpose.baselines import GnbModel, KnnModel
from qpose.data import FeatureNormalizer, N_CLASSES, N_FEATURES


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
        m = KnnModel.fit(train, FeatureNormalizer.identity(), k=1)
        scores = m.predict_proba(lift([(5, 5)]))
        assert scores[0, 4] == 1.0
        assert scores[0].sum() == 1.0

    def test_k3_hand_enumeration(self):
        # query at origin; nearest three are labels 1, 1, 0 -> predict 1
        pts = [(1, 0), (0, 2), (2, 0), (8, 8), (0, 1)]
        labels = [0, 1, 3, 3, 1]
        train = embed(pts, labels)
        m = KnnModel.fit(train, FeatureNormalizer.identity(), k=3)
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
        m = KnnModel.fit(train, FeatureNormalizer.identity(), k=3)
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
        m = KnnModel.fit(train, FeatureNormalizer.identity(), k=5)
        queries = np.concatenate([rng.normal(size=(600, N_FEATURES)).round(1), x_train])
        d2 = ((queries[:, None, :] - x_train[None, :, :]) ** 2).sum(axis=2)
        votes = y_train[np.argsort(d2, axis=1, kind="stable")[:, :5]]
        expected = np.stack([(votes == c).sum(axis=1) for c in range(N_CLASSES)], axis=1) / 5
        assert np.array_equal(m.predict_proba(queries), expected)

    def test_duplicate_set_vote_scaling(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, N_FEATURES))
        y = rng.integers(0, N_CLASSES, 12)
        norm = FeatureNormalizer.identity()
        single = KnnModel.fit(rows(x, y), norm, k=2)
        doubled = KnnModel.fit(rows(np.concatenate([x, x]), np.concatenate([y, y])), norm, k=4)
        q = rng.normal(size=(6, N_FEATURES))
        np.testing.assert_allclose(single.predict_proba(q), doubled.predict_proba(q), atol=1e-12)

    def test_tie_breaks_to_smallest_class(self):
        train = embed([(1, 0), (-1, 0)], [5, 2])
        m = KnnModel.fit(train, FeatureNormalizer.identity(), k=2)
        scores = m.predict_proba(lift([(0, 0)]))[0]
        assert scores[2] == scores[5] == 0.5
        assert np.argmax(scores) == 2

    def test_k_bounds(self):
        train = embed([(0, 0), (1, 1)], [0, 1])
        with pytest.raises(ValueError):
            KnnModel.fit(train, FeatureNormalizer.identity(), k=3)
        with pytest.raises(ValueError):
            KnnModel.fit(train, FeatureNormalizer.identity(), k=0)

    def test_rescale_invariance_at_argmax(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(25, N_FEATURES))
        y = rng.integers(0, N_CLASSES, 25)
        norm = FeatureNormalizer.identity()
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
        m = KnnModel.fit(train, FeatureNormalizer.identity(), k=5)
        assert (m.predict_proba(q) == m.predict_proba(q)).all()


def gnb_from_arrays(x, y, norm=None):
    return GnbModel.fit(rows(x, y), norm or FeatureNormalizer.identity())


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
