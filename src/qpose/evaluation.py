"""Accuracy, confusion matrices, one-vs-rest ROC curves, and AUC.

AUC uses the threshold-sweep trapezoid rule with midpoint credit for tied
scores. `binary_roc` works array-at-a-time: one sort, tie groups from the
starts of runs of equal scores, positives per group by `np.add.reduceat`
and running totals by `np.cumsum`. The numerator 2 * P * N * area is an
exact int64 sum, divided once, so the result equals the brute-force
pairwise comparison
    AUC = P(score_pos > score_neg) + 0.5 * P(score_pos == score_neg)
bit for bit, not merely within tolerance. Scores must be finite: NaN has
no place in a ranking.

The sort need not be stable. The curve and the AUC use only each tie
group's counts of positives and negatives, which do not depend on the
order inside the group; -0.0 and +0.0 compare equal, so they sort into one
run and `np.diff` puts them in one group.

A curve is kept as its vertices: the origin, the end of each tie group
whose step turns into the next group's (an exact integer cross product of
the two steps' counts), and (1, 1). A dropped point lies on the segment
between its neighbouring vertices, so the polyline, its area and the AUC
are those of the full threshold sweep; only the collinear rows are gone
from `RocCurve` and the ROC CSVs.

Micro AUC pools all 8N one-vs-rest (score, is-this-class) pairs into a
single binary problem; macro AUC is the unweighted mean of the 8 per-class
AUCs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import N_CLASSES, Dataset, features_matrix, stratified_subset


@dataclass(frozen=True)
class RocCurve:
    """The vertices of a ROC curve, from (0, 0) to (1, 1), and its AUC;
    no three consecutive points are collinear."""

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    confusion: np.ndarray
    per_class: tuple[RocCurve, ...]
    macro_auc: float
    micro_auc: float
    n_samples: int

    @property
    def per_class_auc(self) -> np.ndarray:
        return np.array([rc.auc for rc in self.per_class])

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "per_class_auc": self.per_class_auc.tolist(),
            "macro_auc": self.macro_auc,
            "micro_auc": self.micro_auc,
        }


def binary_roc(scores: np.ndarray, positive: np.ndarray) -> RocCurve:
    """ROC curve vertices and exact AUC for one binary problem.

    scores: finite, higher means more positive. positive: boolean mask of
    the same length. Needs at least one positive and one negative; a class
    absent from the evaluation set gets the uninformative convention
    AUC=0.5 upstream in `evaluate`.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    if scores.ndim != 1 or positive.shape != scores.shape:
        raise ValueError("ROC needs one positive flag per score in a 1-d array")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative")
    order = np.argsort(-scores)
    s = scores[order]
    # one group per run of tied scores, in descending score order
    starts = np.concatenate(([0], np.flatnonzero(np.diff(s)) + 1))
    group_pos = np.add.reduceat(positive[order].astype(np.int64), starts)
    group_neg = np.diff(np.append(starts, s.size)) - group_pos
    tp = np.cumsum(group_pos)
    fp = np.cumsum(group_neg)
    # 2 * P * N * area, exact: every term is at most 2 * P * g_neg, so the
    # int64 sum stays below 2 * P * N
    numerator = int(np.dot(group_neg, 2 * (tp - group_pos) + group_pos))
    auc = numerator / (2 * n_pos * n_neg)
    # a group's end is a vertex unless the next group's step is parallel to
    # its own; each product is at most n**2
    turns = group_neg[:-1] * group_pos[1:] != group_pos[:-1] * group_neg[1:]
    keep = np.append(np.flatnonzero(turns), starts.size - 1)
    return RocCurve(fpr=np.concatenate(([0.0], fp[keep] / n_neg)),
                    tpr=np.concatenate(([0.0], tp[keep] / n_pos)), auc=auc)


def evaluate_scores(scores: np.ndarray, labels: np.ndarray) -> EvalReport:
    """Report from per-class scores (N, 8) and integer labels (N,).

    Non-finite scores raise ValueError rather than ranking as some class.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape[1] != N_CLASSES:
        raise ValueError(f"scores must be (n, {N_CLASSES})")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    n = scores.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate an empty sample set")
    if (labels.shape != (n,) or labels.dtype.kind not in "iu"
            or labels.min() < 0 or labels.max() >= N_CLASSES):
        raise ValueError("labels must be one class id per score row")

    predictions = np.argmax(scores, axis=1)
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(confusion, (labels, predictions), 1)
    accuracy = float(np.trace(confusion)) / n

    curves = []
    for c in range(N_CLASSES):
        mask = labels == c
        if mask.any() and not mask.all():
            curves.append(binary_roc(scores[:, c], mask))
        else:
            # class missing from this evaluation set (or the only class):
            # no ranked pairs exist, record the chance-level convention
            curves.append(RocCurve(fpr=np.array([0.0, 1.0]), tpr=np.array([0.0, 1.0]), auc=0.5))
    macro = float(np.mean([rc.auc for rc in curves]))

    onehot = np.zeros_like(scores, dtype=bool)
    onehot[np.arange(n), labels] = True
    micro = binary_roc(scores.ravel(), onehot.ravel()).auc if N_CLASSES > 1 else 1.0

    return EvalReport(
        accuracy=accuracy,
        confusion=confusion,
        per_class=tuple(curves),
        macro_auc=macro,
        micro_auc=micro,
        n_samples=n,
    )


def evaluate(model, samples: Dataset) -> EvalReport:
    """Evaluate any model exposing predict_proba over raw features."""
    if not samples:
        raise ValueError("cannot evaluate an empty sample set")
    scores = model.predict_proba(features_matrix(samples))
    return evaluate_scores(scores, samples.labels)


def accuracy_of(model, samples: Dataset) -> float:
    """Fraction of ``samples`` whose argmax score is the label; non-finite
    scores raise ValueError, as in `evaluate_scores`."""
    if not samples:
        raise ValueError("cannot evaluate an empty sample set")
    scores = model.predict_proba(features_matrix(samples))
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return float(np.mean(np.argmax(scores, axis=1) == samples.labels))


# ---------------------------------------------------------------------------
# Accuracy vs labeled-sample-count curves.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    n_labeled: int
    mean_accuracy: float
    std_accuracy: float


def accuracy_vs_samples_curve(
    model_factory,
    pool: Dataset,
    eval_samples: Dataset,
    grid,
    seed: int = 0,
    n_repeats: int = 1,
) -> list[CurvePoint]:
    """Train a fresh model per (grid point, repeat) and measure accuracy.

    model_factory(samples, seed) must return a fitted model exposing
    predict_proba. ``pool`` is the labeled candidate set (stratified
    subsets are drawn from it), ``eval_samples`` the fixed evaluation set.
    """
    if not pool or not eval_samples:
        raise ValueError("need nonempty pool and evaluation samples")
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    grid = [int(g) for g in grid]
    for g in grid:
        if g < 1:
            raise ValueError(f"grid point {g} must be >= 1")
        if g > len(pool):
            raise ValueError(f"grid point {g} exceeds the {len(pool)} available labels")

    root = np.random.SeedSequence(seed)
    points: list[CurvePoint] = []
    for gi, g in enumerate(grid):
        accs = []
        for r in range(n_repeats):
            child = np.random.SeedSequence(entropy=root.entropy, spawn_key=(gi, r))
            subset_seed = int(child.generate_state(1)[0])
            subset = stratified_subset(pool, g, subset_seed).labeled
            model = model_factory(subset, subset_seed)
            accs.append(accuracy_of(model, eval_samples))
        arr = np.array(accs)
        points.append(CurvePoint(n_labeled=g, mean_accuracy=float(arr.mean()),
                                 std_accuracy=float(arr.std())))
    return points


# ---------------------------------------------------------------------------
# Flat-file outputs for external plotting.
# ---------------------------------------------------------------------------


def write_summary_json(report: EvalReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")


def write_confusion_csv(report: EvalReport, path) -> None:
    lines = ["true\\pred," + ",".join(str(c) for c in range(N_CLASSES))]
    for c in range(N_CLASSES):
        lines.append(f"{c}," + ",".join(str(int(v)) for v in report.confusion[c]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_roc_csvs(report: EvalReport, directory) -> list[Path]:
    directory = Path(directory)
    paths = []
    for c, rc in enumerate(report.per_class):
        path = directory / f"roc_class_{c}.csv"
        rows = map(",".join, zip(map(repr, rc.fpr.tolist()), map(repr, rc.tpr.tolist())))
        path.write_text("fpr,tpr\n" + "\n".join(rows) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def write_curve_csv(points: list[CurvePoint], path) -> None:
    lines = ["n_labeled,mean_acc,std_acc"]
    for p in points:
        lines.append(f"{p.n_labeled},{repr(p.mean_accuracy)},{repr(p.std_accuracy)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
