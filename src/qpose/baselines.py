"""Classical baselines: k-nearest-neighbor and Gaussian naive Bayes.

Both consume the same frozen source-domain feature normalizer as the neural
models so accuracy comparisons are like for like. Both are deterministic
given their training set, and both refuse non-finite input features.

kNN finds the neighbors of a block of queries in two steps. One gemm gives
|f|^2 - 2 z.f for every (query z, reference f) pair: the squared distance
less |z|^2, which is constant along a row. Against the exact distance,
both rounded, it errs by less than about 2e-14 of S = |z|^2 + max |f|^2,
so the margin M = `_MARGIN` * S, plus the smallest normal float for
underflow, bounds the error with room to spare. A reference whose gemm
value lies more than 2M above the row's k-th smallest is strictly farther
than the k-th neighbor, and is dropped. The shortlist left, usually just
k references, is ranked by the exact squared distance
`((z - f) ** 2).sum()`, the same contiguous 36-long reduction as over a
full (queries, references, features) difference and so the same bits, in
a stable sort by row, distance and training index. The neighbors and their
tie-breaks are therefore those of a stable sort of the full distance
matrix, whatever bits the BLAS kernel gives the gemm: the gemm decides only
how much gets re-ranked. A row whose shortlist fills up (distances tied
within the margin, or S past `_HUGE`, where the gemm could overflow)
re-ranks every reference, as the full sort did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (N_CLASSES, N_FEATURES, CheckpointError, Dataset, FeatureNormalizer,
                   check_int_fields, checkpoint_arrays, features_matrix)

# Query rows per distance block: bounds the (rows, references) gemm and
# shortlist temporaries instead of letting them grow with the query count;
# the exact re-rank holds the differences of the shortlisted pairs only.
_QUERY_CHUNK = 256
# Shortlisted pairs re-ranked at a time: each step holds two (pairs, 36)
# float arrays, 4.7 MB, however many pairs a block keeps (a row whose
# distances tie within the margin keeps all of its references).
_PAIR_CHUNK = 8192
# The shortlist's margin relative to |z|^2 + max |f|^2, some 50 times the
# gemm's rounding error. From _HUGE on the gemm could overflow, so the
# margin is infinite there and every pair of the row a candidate.
_MARGIN = 1e-12
_HUGE = 2.0**1000


@dataclass(eq=False)
class KnnModel:
    """k-nearest-neighbor with Euclidean distance over normalized features.

    Scores are neighbor vote fractions; argmax ties go to the smallest
    class index, and ties in distance at the k boundary go to the earliest
    training sample (stable sort).
    """

    features: np.ndarray
    labels: np.ndarray
    k: int
    normalizer: FeatureNormalizer

    kind = "knn"

    def __post_init__(self) -> None:
        if not 1 <= self.k <= len(self.labels):
            raise ValueError(f"k={self.k} outside 1..{len(self.labels)} (training size)")

    @classmethod
    def fit(cls, samples: Dataset, normalizer: FeatureNormalizer, k: int = 5) -> "KnnModel":
        return cls(
            features=normalizer.transform(features_matrix(samples)),
            labels=samples.labels,
            k=k,
            normalizer=normalizer,
        )

    @classmethod
    def from_checkpoint(cls, config: dict, params: dict, normalizer) -> "KnnModel":
        check_int_fields(config, ("k",))
        arrays = checkpoint_arrays("params", params,
                                   {"features": (None, N_FEATURES), "labels": (None,)})
        labels = arrays["labels"]
        if labels.size != arrays["features"].shape[0]:
            raise CheckpointError("checkpoint field params.labels does not match params.features")
        if not np.isin(labels, np.arange(N_CLASSES)).all():
            raise CheckpointError(f"checkpoint field params.labels outside 0..{N_CLASSES - 1}")
        return cls(features=arrays["features"], labels=labels.astype(np.int64), k=config["k"],
                   normalizer=normalizer)

    def checkpoint_sections(self) -> tuple[dict, dict]:
        return {"k": self.k}, {"features": self.features.tolist(), "labels": self.labels.tolist()}

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        z = self.normalizer.transform(x)
        nearest = np.empty((z.shape[0], self.k), dtype=np.intp)
        for lo in range(0, z.shape[0], _QUERY_CHUNK):
            nearest[lo : lo + _QUERY_CHUNK] = self._nearest(z[lo : lo + _QUERY_CHUNK])
        votes = self.labels[nearest]
        scores = np.zeros((z.shape[0], N_CLASSES))
        for c in range(N_CLASSES):
            scores[:, c] = (votes == c).sum(axis=1)
        return scores / self.k

    def _nearest(self, block: np.ndarray) -> np.ndarray:
        """Training indices of the k nearest neighbors of each ``block`` row,
        the ones a stable sort of the exact distances picks (module doc)."""
        with np.errstate(over="ignore", invalid="ignore"):  # past _HUGE, see _MARGIN
            # |f|^2 - 2 z.f: the squared distance less the row's |z|^2
            sq_norms = (self.features**2).sum(axis=1)
            approx = block @ (-2.0 * self.features).T
            approx += sq_norms
            kth = np.partition(approx, self.k - 1, axis=1)[:, self.k - 1]
            norms = (block**2).sum(axis=1) + sq_norms.max()
            margin = np.where(norms < _HUGE, _MARGIN * norms + np.finfo(np.float64).tiny, np.inf)
            # a NaN gemm entry, or an infinite or NaN bound, keeps its pair
            rows, cols = np.nonzero(~(approx > (kth + 2.0 * margin)[:, None]))
        d2 = np.empty(len(rows))
        for lo in range(0, len(rows), _PAIR_CHUNK):
            pairs = slice(lo, lo + _PAIR_CHUNK)
            diff = block[rows[pairs]]  # the exact ((z - f) ** 2).sum(), in place
            diff -= self.features[cols[pairs]]
            d2[pairs] = np.square(diff, out=diff).sum(axis=1)
        order = np.lexsort((d2, rows))  # by row, then distance, then training index
        counts = np.bincount(rows, minlength=len(block))
        return cols[order[(np.cumsum(counts) - counts)[:, None] + np.arange(self.k)]]


@dataclass(eq=False)
class GnbModel:
    """Gaussian naive Bayes over normalized features.

    Per-class feature variances are floored at 1e-9 times the largest
    overall feature variance, so single-sample classes stay usable.
    """

    priors: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    normalizer: FeatureNormalizer

    kind = "gnb"

    def __post_init__(self) -> None:
        if not np.isclose(self.priors.sum(), 1.0):
            raise ValueError("class priors must sum to 1")
        if (self.variances <= 0).any():
            raise ValueError("variances must be positive")

    @classmethod
    def fit(cls, samples: Dataset, normalizer: FeatureNormalizer) -> "GnbModel":
        x = normalizer.transform(features_matrix(samples))
        y = samples.labels
        counts = np.bincount(y, minlength=N_CLASSES)
        if (counts == 0).any():
            missing = np.flatnonzero(counts == 0).tolist()
            raise ValueError(f"every class needs at least one training sample; missing {missing}")
        n_features = x.shape[1]
        means = np.zeros((N_CLASSES, n_features))
        variances = np.zeros((N_CLASSES, n_features))
        for c in range(N_CLASSES):
            xc = x[y == c]
            means[c] = xc.mean(axis=0)
            variances[c] = xc.var(axis=0)
        floor = 1e-9 * float(x.var(axis=0).max())
        if floor <= 0.0:
            floor = 1e-12  # degenerate all-identical training set
        return cls(
            priors=counts / counts.sum(),
            means=means,
            variances=np.maximum(variances, floor),
            normalizer=normalizer,
        )

    @classmethod
    def from_checkpoint(cls, config: dict, params: dict, normalizer) -> "GnbModel":
        shapes = {"priors": (N_CLASSES,), "means": (N_CLASSES, N_FEATURES),
                  "variances": (N_CLASSES, N_FEATURES)}
        arrays = checkpoint_arrays("params", params, shapes)
        if (arrays["priors"] <= 0).any():
            raise CheckpointError("checkpoint field params.priors must be positive")
        return cls(**arrays, normalizer=normalizer)

    def checkpoint_sections(self) -> tuple[dict, dict]:
        params = {"priors": self.priors, "means": self.means, "variances": self.variances}
        return {}, {k: v.tolist() for k, v in params.items()}

    def log_posteriors(self, x: np.ndarray) -> np.ndarray:
        """Unnormalized: log prior + sum_f log N(x_f; mu_cf, var_cf)."""
        z = self.normalizer.transform(x)
        diff = z[:, None, :] - self.means[None, :, :]
        log_density = -0.5 * (
            np.log(2.0 * np.pi * self.variances)[None, :, :] + diff**2 / self.variances[None, :, :]
        ).sum(axis=2)
        return np.log(self.priors)[None, :] + log_density

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        lp = self.log_posteriors(x)
        lp -= lp.max(axis=1, keepdims=True)
        p = np.exp(lp)
        return p / p.sum(axis=1, keepdims=True)
