"""Accuracy, confusion, exact trapezoidal AUC, learning curves, CSV writers."""

import csv
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (cross, identity_normalizer, loop_binary_roc, pairwise_auc, roc_counts,
                     roc_vertices)
from rows import rows
from qpose.data import (
    Domain,
    N_CLASSES,
    N_FEATURES,
    ShiftSpec,
    generate_synthetic,
)
from qpose.baselines import KnnModel
from qpose.evaluation import (
    accuracy_of,
    accuracy_vs_samples_curve,
    binary_roc,
    evaluate,
    evaluate_scores,
    write_confusion_csv,
    write_curve_csv,
    write_roc_csvs,
    write_summary_json,
)


class ScoreTable:
    """Stand-in model that returns pre-baked score rows."""

    kind = "fixture"

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)
        self.calls = 0

    def predict_proba(self, x):
        self.calls += 1
        return self.scores[: len(x)]


def make_samples(labels):
    return rows(np.zeros((len(labels), N_FEATURES)), labels, Domain.TARGET)


def tie_heavy(n, grid, seed, pos_rate):
    """Scores on a grid of 2 * grid + 1 values (continuous for grid 0), a
    fifth of them -0.0, and positive flags with at least one of each."""
    rng = np.random.default_rng(seed)
    # grid 0 draws continuous scores; the others force ties, and signed
    # zeros must fall into one tie group with +0.0
    scores = rng.normal(size=n) if grid == 0 else rng.integers(-grid, grid + 1, n) / grid
    scores[rng.random(n) < 0.2] = -0.0
    positive = rng.random(n) < pos_rate
    positive[:2] = [True, False]
    return scores, positive


def assert_vertex_curve(scores, positive):
    """Check `binary_roc`'s vertices against the loop oracle's full curve:
    a subsequence of it with its first and last point, no three in a row
    collinear, every full-curve point on the polyline and the polyline's
    exact trapezoid area equal to the AUC. Returns the curve."""
    got = binary_roc(scores, positive)
    full_fpr, full_tpr, _ = loop_binary_roc(scores, positive)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    pairs = list(zip(got.fpr.tolist(), got.tpr.tolist()))
    full_pairs = list(zip(full_fpr.tolist(), full_tpr.tolist()))
    rest = iter(full_pairs)
    assert all(pair in rest for pair in pairs)
    assert pairs[0] == full_pairs[0] and pairs[-1] == full_pairs[-1]
    vertices = roc_counts(got.fpr, got.tpr, n_neg, n_pos)
    assert all(cross(*three) != 0 for three in zip(vertices, vertices[1:], vertices[2:]))
    segment = 0
    for point in roc_counts(full_fpr, full_tpr, n_neg, n_pos):
        while point[0] > vertices[segment + 1][0] or point[1] > vertices[segment + 1][1]:
            segment += 1
        start, end = vertices[segment], vertices[segment + 1]
        assert start[0] <= point[0] and start[1] <= point[1]
        assert cross(start, end, point) == 0
    area = sum(Fraction(b[0] - a[0], n_neg) * Fraction(a[1] + b[1], 2 * n_pos)
               for a, b in zip(vertices, vertices[1:]))
    assert float(area) == got.auc
    return got


class TestBinaryRoc:
    def test_perfect_separation(self):
        roc = binary_roc(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]))
        assert roc.auc == 1.0

    def test_reversed_separation(self):
        roc = binary_roc(np.array([0.1, 0.2, 0.9, 0.8]), np.array([1, 1, 0, 0]))
        assert roc.auc == 0.0

    def test_all_tied_scores(self):
        roc = binary_roc(np.full(10, 0.5), np.array([1, 0] * 5))
        assert roc.auc == 0.5

    def test_half_credit_for_ties_exact(self):
        scores = np.array([0.7, 0.7, 0.3])
        labels = np.array([1, 0, 0])
        # pairs: (0.7 vs 0.7 tie -> 1/2) + (0.7 > 0.3 -> 1), over 2 pairs
        assert binary_roc(scores, labels).auc == 0.75

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            binary_roc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_curve_endpoints(self):
        rng = np.random.default_rng(0)
        roc = binary_roc(rng.uniform(size=30), rng.integers(0, 2, 30) | np.array([1] + [0] * 29))
        assert (roc.fpr[0], roc.tpr[0]) == (0.0, 0.0)
        assert (roc.fpr[-1], roc.tpr[-1]) == (1.0, 1.0)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 50))
    @settings(max_examples=60, deadline=None)
    def test_equals_pairwise_oracle_exactly(self, seed, n):
        rng = np.random.default_rng(seed)
        # coarse score grid forces plenty of exact ties
        scores = rng.integers(0, 6, n) / 5.0
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = binary_roc(scores, labels).auc
        assert Fraction(got).limit_denominator(10**12) == pairwise_auc(scores, labels) or \
            got == float(pairwise_auc(scores, labels))

    def test_two_hundred_random_trials_match_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert binary_roc(scores, labels).auc == float(pairwise_auc(scores, labels))


    @given(n=st.integers(2, 5000), grid=st.sampled_from([2, 3, 7, 50, 0]),
           seed=st.integers(0, 2**32 - 1), pos_rate=st.floats(0.01, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_equals_loop_oracle_bitwise(self, n, grid, seed, pos_rate):
        scores, positive = tie_heavy(n, grid, seed, pos_rate)
        got = binary_roc(scores, positive)
        fpr, tpr, auc = loop_binary_roc(scores, positive)
        n_pos = int(positive.sum())
        fpr, tpr = roc_vertices(fpr, tpr, n - n_pos, n_pos)
        assert np.array_equal(got.fpr, fpr) and np.array_equal(got.tpr, tpr)
        assert got.auc == auc

    @given(n=st.integers(2, 2000), grid=st.sampled_from([2, 3, 7, 50, 0]),
           seed=st.integers(0, 2**32 - 1), pos_rate=st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_vertices_trace_the_full_curve(self, n, grid, seed, pos_rate):
        assert_vertex_curve(*tie_heavy(n, grid, seed, pos_rate))

    @pytest.mark.parametrize("n", [4000, 32000])
    @pytest.mark.parametrize("case", ["all equal", "knn votes", "signed zeros", "one positive"])
    def test_unstable_sort_equals_the_stable_loop_oracle(self, case, n):
        # binary_roc's default argsort reorders each tie group; the loop
        # oracle sorts stably, and every count, rate and the AUC must agree
        rng = np.random.default_rng(n)
        positive = rng.random(n) < 0.3
        positive[:2] = [True, False]
        if case == "all equal":
            scores = np.full(n, 0.5)
        elif case == "knn votes":  # k = 5 vote fractions
            scores = rng.integers(0, 6, n) / 5
        elif case == "signed zeros":
            scores = rng.choice([-0.0, 0.0, 0.25, -0.25], n)
        else:
            scores = rng.integers(0, 6, n) / 5
            positive[:] = False
            positive[n // 2] = True
        got = binary_roc(scores, positive)
        fpr, tpr, auc = loop_binary_roc(scores, positive)
        n_pos = int(positive.sum())
        fpr, tpr = roc_vertices(fpr, tpr, n - n_pos, n_pos)
        assert np.array_equal(got.fpr, fpr) and np.array_equal(got.tpr, tpr)
        assert got.auc == auc

    def test_all_tied_scores_give_two_vertices(self):
        roc = assert_vertex_curve(np.full(10, 0.5), np.array([1, 0] * 5, dtype=bool))
        assert roc.fpr.tolist() == roc.tpr.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("scores, fpr, tpr", [
        ([0.9, 0.1], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]),
        ([0.1, 0.9], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]),
        ([0.5, 0.5], [0.0, 1.0], [0.0, 1.0]),
    ])
    def test_one_positive_against_one_negative(self, scores, fpr, tpr):
        roc = assert_vertex_curve(np.array(scores), np.array([True, False]))
        assert roc.fpr.tolist() == fpr and roc.tpr.tolist() == tpr

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            binary_roc(np.array([0.1, bad, 0.3]), np.array([True, False, True]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="one positive flag per score"):
            binary_roc(np.array([0.1, 0.2, 0.3]), np.array([True, False]))


class TestEvaluateScores:
    def test_perfect_classifier(self):
        labels = np.arange(N_CLASSES).repeat(3)
        scores = np.eye(N_CLASSES)[labels]
        report = evaluate_scores(scores, labels)
        assert report.accuracy == 1.0
        assert np.trace(report.confusion) == len(labels)
        assert all(auc == 1.0 for auc in report.per_class_auc)
        assert report.macro_auc == 1.0 and report.micro_auc == 1.0

    def test_constant_scores_give_half_auc(self):
        labels = np.arange(N_CLASSES).repeat(2)
        scores = np.full((len(labels), N_CLASSES), 1.0 / N_CLASSES)
        report = evaluate_scores(scores, labels)
        assert all(auc == 0.5 for auc in report.per_class_auc)
        assert report.macro_auc == 0.5 and report.micro_auc == 0.5

    def test_ten_sample_hand_dataset_matches_oracle(self):
        rng = np.random.default_rng(5)
        labels = np.array([0, 1, 2, 3, 4, 5, 6, 7, 0, 1])
        scores = rng.uniform(size=(10, N_CLASSES))
        scores /= scores.sum(axis=1, keepdims=True)
        report = evaluate_scores(scores, labels)
        for c in range(N_CLASSES):
            want = float(pairwise_auc(scores[:, c], (labels == c).astype(int)))
            assert report.per_class_auc[c] == want
        assert report.macro_auc == np.mean(report.per_class_auc)
        pooled_scores = scores.ravel()
        pooled_labels = (labels[:, None] == np.arange(N_CLASSES)[None, :]).astype(int).ravel()
        assert report.micro_auc == float(pairwise_auc(pooled_scores, pooled_labels))

    def test_missing_class_gets_half_auc_convention(self):
        labels = np.zeros(6, dtype=int)
        labels[3:] = 1  # classes 2..7 absent
        scores = np.random.default_rng(1).uniform(size=(6, N_CLASSES))
        report = evaluate_scores(scores, labels)
        for c in range(2, N_CLASSES):
            assert report.per_class_auc[c] == 0.5

    def test_confusion_row_sums_and_trace(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, N_CLASSES, 40)
        scores = rng.uniform(size=(40, N_CLASSES))
        report = evaluate_scores(scores, labels)
        counts = np.bincount(labels, minlength=N_CLASSES)
        np.testing.assert_array_equal(report.confusion.sum(axis=1), counts)
        assert report.accuracy == np.trace(report.confusion) / 40

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, N_CLASSES, 30)
        scores = rng.uniform(size=(30, N_CLASSES))
        base = evaluate_scores(scores, labels)
        perm = rng.permutation(N_CLASSES)
        relabeled = evaluate_scores(scores[:, perm], np.argsort(perm)[labels])
        assert relabeled.accuracy == base.accuracy
        assert relabeled.macro_auc == base.macro_auc
        assert relabeled.micro_auc == base.micro_auc
        np.testing.assert_array_equal(
            relabeled.confusion, base.confusion[np.ix_(perm, perm)]
        )

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_scores(np.empty((0, N_CLASSES)), np.empty(0, dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_scores_rejected(self, bad):
        labels = np.arange(20) % N_CLASSES
        scores = np.eye(N_CLASSES)[labels]
        scores[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            evaluate_scores(scores, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_accuracy_of_rejects_nonfinite_scores(self, bad):
        # an all-NaN score matrix must not read as a plausible accuracy
        labels = np.arange(50) % N_CLASSES
        samples = make_samples(labels)
        assert accuracy_of(ScoreTable(np.eye(N_CLASSES)[labels]), samples) == 1.0
        for scores in (np.full((50, N_CLASSES), bad), np.eye(N_CLASSES)[labels]):
            scores[7, 2] = bad
            with pytest.raises(ValueError, match="^scores must be finite$"):
                accuracy_of(ScoreTable(scores), samples)
        with pytest.raises(ValueError, match="^scores must be finite$"):
            evaluate_scores(np.full((50, N_CLASSES), bad), labels)

    def test_non_integer_labels_rejected(self):
        scores = np.eye(N_CLASSES)[:4]
        with pytest.raises(ValueError, match="one class id per score row"):
            evaluate_scores(scores, np.array([0.0, 1.5, 2, 3]))

    def test_evaluate_uses_model_scores(self):
        labels = [0, 1, 2]
        samples = make_samples(labels)
        model = ScoreTable(np.eye(N_CLASSES)[labels])
        report = evaluate(model, samples)
        assert report.accuracy == 1.0
        assert model.calls == 1


class TestCurve:
    @staticmethod
    def knn_factory(samples, seed):
        return KnnModel.fit(samples, identity_normalizer(),
                            k=min(5, len(samples)))

    def curve_fixture(self):
        ds = generate_synthetic(
            400, 400,
            ShiftSpec(mean_offset_scale=0.0, feature_gain_spread=0.0,
                      noise_sigma_source=1.0, noise_sigma_target=1.0, seed=4),
        )
        return ds.by_domain(Domain.SOURCE), ds.by_domain(Domain.TARGET)

    def test_full_grid_reaches_ceiling(self):
        pool, eval_samples = self.curve_fixture()
        points = accuracy_vs_samples_curve(
            self.knn_factory, pool, eval_samples, [len(pool)], seed=0, n_repeats=1
        )
        assert points[-1].mean_accuracy >= 0.95

    def test_monotone_between_extremes(self):
        pool, eval_samples = self.curve_fixture()
        points = accuracy_vs_samples_curve(
            self.knn_factory, pool, eval_samples, [8, 120, 400], seed=1, n_repeats=3
        )
        assert points[-1].mean_accuracy >= points[0].mean_accuracy
        assert [p.n_labeled for p in points] == [8, 120, 400]

    def test_zero_grid_rejected(self):
        pool, eval_samples = self.curve_fixture()
        with pytest.raises(ValueError):
            accuracy_vs_samples_curve(self.knn_factory, pool, eval_samples, [0], seed=0)

    def test_oversized_grid_rejected(self):
        pool, eval_samples = self.curve_fixture()
        with pytest.raises(ValueError):
            accuracy_vs_samples_curve(
                self.knn_factory, pool, eval_samples, [len(pool) + 1], seed=0
            )

    def test_seeded_repeatability(self):
        pool, eval_samples = self.curve_fixture()
        a = accuracy_vs_samples_curve(self.knn_factory, pool, eval_samples, [40], seed=9, n_repeats=2)
        b = accuracy_vs_samples_curve(self.knn_factory, pool, eval_samples, [40], seed=9, n_repeats=2)
        assert a == b


class TestWriters:
    def report_fixture(self):
        rng = np.random.default_rng(6)
        labels = np.concatenate([np.arange(N_CLASSES), rng.integers(0, N_CLASSES, 16)])
        scores = rng.uniform(size=(len(labels), N_CLASSES))
        return evaluate_scores(scores, labels)

    def test_summary_json(self, tmp_path):
        report = self.report_fixture()
        path = tmp_path / "summary.json"
        write_summary_json(report, path)
        doc = json.loads(path.read_text())
        assert doc["accuracy"] == report.accuracy
        assert doc["macro_auc"] == report.macro_auc
        assert len(doc["per_class_auc"]) == N_CLASSES

    def test_confusion_csv_shape(self, tmp_path):
        report = self.report_fixture()
        path = tmp_path / "confusion.csv"
        write_confusion_csv(report, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        body = [r for r in rows if r and not r[0].startswith("#")]
        data = body[1:] if not body[0][0].lstrip("-").isdigit() else body
        assert len(data) == N_CLASSES
        got = np.array([[int(v) for v in row[-N_CLASSES:]] for row in data])
        np.testing.assert_array_equal(got, report.confusion)

    def test_roc_csvs_one_per_class(self, tmp_path):
        report = self.report_fixture()
        write_roc_csvs(report, tmp_path)
        for c in range(N_CLASSES):
            path = tmp_path / f"roc_class_{c}.csv"
            assert path.exists()
            rows = list(csv.DictReader(path.read_text().splitlines()))
            fpr = [float(r["fpr"]) for r in rows]
            tpr = [float(r["tpr"]) for r in rows]
            assert fpr[0] == tpr[0] == 0.0
            assert fpr[-1] == tpr[-1] == 1.0

    def test_roc_csv_bytes_equal_per_value_repr(self, tmp_path):
        report = self.report_fixture()
        write_roc_csvs(report, tmp_path)
        for c, rc in enumerate(report.per_class):
            want = "fpr,tpr\n" + "".join(f"{repr(float(f))},{repr(float(t))}\n"
                                         for f, t in zip(rc.fpr, rc.tpr))
            assert (tmp_path / f"roc_class_{c}.csv").read_bytes() == want.encode("utf-8")

    def test_curve_csv(self, tmp_path):
        pool = make_samples([0, 1, 2, 3, 4, 5, 6, 7] * 4)
        points = accuracy_vs_samples_curve(
            lambda s, seed: ScoreTable(np.tile(np.eye(N_CLASSES)[0], (200, 1))),
            pool, pool, [8, 16], seed=0, n_repeats=2,
        )
        path = tmp_path / "curve.csv"
        write_curve_csv(points, path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert [int(r["n_labeled"]) for r in rows] == [8, 16]
        assert all("mean_acc" in r and "std_acc" in r for r in rows)
