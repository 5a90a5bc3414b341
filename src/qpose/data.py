"""Beam-SNR dataset model, CSV ingestion, and a seeded synthetic generator.

A sample is a 36-dimensional vector of beam SNRs (dB) with a pose label in
0..7, a domain tag (source = earlier measurement sessions, target = later
ones), and a session id. Real measurements come in through `load_csv`; the
synthetic generator stands in for measured data and exposes a controllable
source-to-target domain shift.

Synthetic model: each pose class c gets an anchor vector mu_c drawn once
from N(0, ANCHOR_SIGMA^2) per feature. Source samples are mu_c plus
isotropic Gaussian noise. Target samples are g * mu_c + delta plus noise,
where the per-feature gain g and offset delta are drawn once per dataset;
the shift is shared across classes but acts differently on each class
through its anchor, which is what degrades a source-trained model.

All randomness uses numpy's PCG64 generator with independent child streams
spawned from one seed (anchors / source noise / target shift+noise), so
e.g. changing the target sample count never perturbs the source samples.

A dataset's canonical CSV text renders every feature with `repr(float)`,
in blocks of CSV_BLOCK_ROWS rows taken from one feature matrix each.
`write_csv` writes and hashes those blocks in one pass and returns the
digest; `dataset_sha256` hashes the same blocks without writing, so the
text is never held whole. `load_csv` streams the file a line at a time,
parses a row's 36 features with one numpy conversion (it accepts and
rejects the strings `float()` does) and names the line of any bad row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from hashlib import sha256
from pathlib import Path

import numpy as np

N_FEATURES = 36
N_CLASSES = 8
ANCHOR_SIGMA = 5.0

# Default per-pose mixing weights for the synthetic generator (per-domain
# sample mix observed across the original measurement sessions).
SOURCE_CLASS_WEIGHTS = (434, 499, 325, 347, 238, 314, 272, 432)
TARGET_CLASS_WEIGHTS = (151, 149, 173, 129, 88, 96, 119, 135)

# Source sessions 0..3 hold training-era measurements, target sessions 4..6
# the later ones.
SOURCE_SESSIONS = (0, 1, 2, 3)
TARGET_SESSIONS = (4, 5, 6)


class Domain(str, Enum):
    SOURCE = "source"
    TARGET = "target"


class CsvFormatError(ValueError):
    """Malformed dataset CSV; message names the offending line."""


@dataclass(eq=False)
class BeamSnrSample:
    features: np.ndarray
    label: int
    domain: Domain
    session: int

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} features, got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite")
        if not 0 <= int(self.label) < N_CLASSES:
            raise ValueError(f"label {self.label} outside 0..{N_CLASSES - 1}")
        feats.flags.writeable = False
        self.features = feats
        self.label = int(self.label)
        self.domain = Domain(self.domain)
        self.session = int(self.session)


@dataclass
class Dataset:
    samples: list[BeamSnrSample]

    def by_domain(self, domain: Domain) -> list[BeamSnrSample]:
        domain = Domain(domain)
        return [s for s in self.samples if s.domain is domain]

    def class_counts(self, domain: Domain) -> np.ndarray:
        counts = np.zeros(N_CLASSES, dtype=np.int64)
        for s in self.by_domain(domain):
            counts[s.label] += 1
        return counts


def features_matrix(samples) -> np.ndarray:
    return np.stack([s.features for s in samples]) if samples else np.empty((0, N_FEATURES))


def labels_vector(samples) -> np.ndarray:
    return np.array([s.label for s in samples], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class FeatureNormalizer:
    """Per-feature z-score transform, fitted once on the labeled source
    training split and frozen thereafter (shared by all model kinds)."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, samples) -> "FeatureNormalizer":
        x = features_matrix(samples)
        if x.shape[0] == 0:
            raise ValueError("cannot fit a normalizer on zero samples")
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        # A constant feature carries no signal; unit scale keeps it at zero
        # after centering instead of dividing by zero.
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean=mean, std=std)

    @classmethod
    def identity(cls, n_features: int = N_FEATURES) -> "FeatureNormalizer":
        return cls(mean=np.zeros(n_features), std=np.ones(n_features))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std


class CheckpointError(ValueError):
    """Malformed or unsupported checkpoint document; names the bad field."""


def checkpoint_arrays(section: str, doc, shapes: dict) -> dict[str, np.ndarray]:
    """Finite float64 arrays for exactly the names in ``shapes``, in that
    order. A None in a shape matches any length. Model classes restore
    their checkpoint sections through this."""
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint field {section} must be an object")
    extra = sorted(set(doc) - set(shapes))
    if extra:
        raise CheckpointError(f"checkpoint field {section} has unexpected names {extra}")
    arrays = {}
    for name, shape in shapes.items():
        field = f"{section}.{name}"
        if name not in doc:
            raise CheckpointError(f"checkpoint field {field} is missing")
        try:
            arr = np.array(doc[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint field {field} is not a numeric array") from exc
        if arr.ndim != len(shape) or any(s not in (None, a) for s, a in zip(shape, arr.shape)):
            raise CheckpointError(f"checkpoint field {field} has shape {arr.shape},"
                                  f" expected {shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"checkpoint field {field} is not finite")
        arrays[name] = arr
    return arrays


@dataclass(frozen=True)
class ShiftSpec:
    """Parameters of the synthetic source-to-target domain shift.

    Defaults are calibrated so that a model trained on the labeled source
    split degrades to roughly 77-86% accuracy on the target domain while
    staying near 100% in-domain. Feature anchors sit ~40 apart in L2 while
    per-feature offsets project onto class boundaries divided by sqrt(36),
    so the offset scale has to be comparable to the anchor spread before
    cross-domain accuracy drops at all (see scripts/calibrate_shift.py).
    """

    mean_offset_scale: float = 10.5
    feature_gain_spread: float = 0.3
    noise_sigma_source: float = 5.0
    noise_sigma_target: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("mean_offset_scale", "feature_gain_spread",
                     "noise_sigma_source", "noise_sigma_target"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def scaled(self, shift_scale: float) -> "ShiftSpec":
        """Scale the systematic shift (offset and gain spread) by a factor;
        noise levels are left alone."""
        if shift_scale < 0:
            raise ValueError("shift_scale must be nonnegative")
        return replace(
            self,
            mean_offset_scale=self.mean_offset_scale * shift_scale,
            feature_gain_spread=self.feature_gain_spread * shift_scale,
        )


def apportion(total: int, weights) -> list[int]:
    """Split ``total`` into integer counts proportional to ``weights``
    (largest-remainder rounding, ties broken by lowest index)."""
    weights = np.asarray(weights, dtype=np.float64)
    if total < 0 or weights.min() < 0 or weights.sum() <= 0:
        raise ValueError("need a nonnegative total and positive weight sum")
    quotas = total * weights / weights.sum()
    counts = np.floor(quotas).astype(int)
    remainder = total - int(counts.sum())
    order = sorted(range(len(weights)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return counts.tolist()


def generate_synthetic(
    n_source: int,
    n_target: int,
    shift: ShiftSpec,
    source_weights=SOURCE_CLASS_WEIGHTS,
    target_weights=TARGET_CLASS_WEIGHTS,
) -> Dataset:
    """Seeded synthetic dataset with the configured domain shift.

    Deterministic: the same arguments produce byte-identical datasets on any
    platform (PCG64 streams, fixed generation order).
    """
    if n_source <= 0 or n_target <= 0:
        raise ValueError("sample counts must be positive")
    anchors_ss, source_ss, target_ss = np.random.SeedSequence(shift.seed).spawn(3)
    anchors = np.random.default_rng(anchors_ss).normal(0.0, ANCHOR_SIGMA, (N_CLASSES, N_FEATURES))

    samples: list[BeamSnrSample] = []
    rng_src = np.random.default_rng(source_ss)
    for c, count in enumerate(apportion(n_source, source_weights)):
        noise = rng_src.normal(0.0, shift.noise_sigma_source, (count, N_FEATURES))
        for i, row in enumerate(anchors[c] + noise):
            samples.append(BeamSnrSample(row, c, Domain.SOURCE,
                                         SOURCE_SESSIONS[i % len(SOURCE_SESSIONS)]))

    rng_tgt = np.random.default_rng(target_ss)
    gain = rng_tgt.normal(1.0, shift.feature_gain_spread, N_FEATURES)
    offset = rng_tgt.normal(0.0, shift.mean_offset_scale, N_FEATURES)
    for c, count in enumerate(apportion(n_target, target_weights)):
        noise = rng_tgt.normal(0.0, shift.noise_sigma_target, (count, N_FEATURES))
        for i, row in enumerate(gain * anchors[c] + offset + noise):
            samples.append(BeamSnrSample(row, c, Domain.TARGET,
                                         TARGET_SESSIONS[i % len(TARGET_SESSIONS)]))
    return Dataset(samples)


# ---------------------------------------------------------------------------
# CSV schema: header `label,domain,session,b0,...,b35`, UTF-8, LF endings.
# Features are written with repr(float), which round-trips bit-exactly.
# ---------------------------------------------------------------------------

CSV_HEADER = "label,domain,session," + ",".join(f"b{i}" for i in range(N_FEATURES))
CSV_BLOCK_ROWS = 512


def _csv_blocks(dataset: Dataset):
    """The canonical CSV text in pieces: the header line, then the rows in
    blocks of CSV_BLOCK_ROWS, each rendered from one feature matrix."""
    yield CSV_HEADER + "\n"
    samples = dataset.samples
    for start in range(0, len(samples), CSV_BLOCK_ROWS):
        block = samples[start : start + CSV_BLOCK_ROWS]
        rows = features_matrix(block).tolist()
        yield "".join(f"{s.label},{s.domain.value},{s.session},{','.join(map(repr, row))}\n"
                      for s, row in zip(block, rows))


def write_csv(dataset: Dataset, path) -> str:
    """Write the canonical CSV text; returns its sha256, which equals
    `dataset_sha256(dataset)`."""
    digest = sha256()
    with open(path, "wb") as fh:
        for text in _csv_blocks(dataset):
            data = text.encode("utf-8")
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def dataset_sha256(dataset: Dataset) -> str:
    """sha256 of the dataset's canonical CSV text: the bytes `write_csv`
    writes, whatever file the dataset was read from."""
    digest = sha256()
    for text in _csv_blocks(dataset):
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def load_csv(path) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    samples: list[BeamSnrSample] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").rstrip("\r")
        if header != CSV_HEADER:
            raise CsvFormatError(f"line 1: bad header, expected `{CSV_HEADER}`")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 3 + N_FEATURES:
                raise CsvFormatError(
                    f"line {lineno}: expected {3 + N_FEATURES} fields, got {len(fields)}"
                )
            try:
                label = int(fields[0])
                domain = Domain(fields[1])
                session = int(fields[2])
                # numpy parses each string as float() does
                feats = np.array(fields[3:], dtype=np.float64)
                samples.append(BeamSnrSample(feats, label, domain, session))
            except (ValueError, KeyError) as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from exc
    return Dataset(samples)


# ---------------------------------------------------------------------------
# Labeled / evaluation splits.
# ---------------------------------------------------------------------------


@dataclass
class SplitResult:
    labeled: list[BeamSnrSample]
    evaluation: list[BeamSnrSample]
    stratified: bool


def stratified_subset(samples, count: int, seed: int):
    """Seeded class-stratified subset of ``count`` samples.

    Returns (chosen, rest, stratified). Falls back to unstratified sampling
    (stratified=False) when some class is absent from ``samples``; quota
    rounding is largest-remainder, which never exceeds a class's pool.
    """
    samples = list(samples)
    n = len(samples)
    if not 0 <= count <= n:
        raise ValueError(f"requested {count} samples from a pool of {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    by_class = [[i for i, s in enumerate(samples) if s.label == c] for c in range(N_CLASSES)]
    stratified = all(len(ix) > 0 for ix in by_class)
    if stratified:
        chosen: list[int] = []
        quotas = apportion(count, [len(ix) for ix in by_class])
        for ix, q in zip(by_class, quotas):
            chosen.extend(rng.permutation(ix)[:q].tolist())
    else:
        chosen = rng.permutation(n)[:count].tolist()
    chosen_set = set(chosen)
    subset = [samples[i] for i in sorted(chosen_set)]
    rest = [samples[i] for i in range(n) if i not in chosen_set]
    return subset, rest, stratified


def split_labeled(
    dataset: Dataset,
    domain: Domain,
    *,
    fraction: float | None = None,
    count: int | None = None,
    seed: int = 0,
) -> SplitResult:
    """Seeded split of one domain into a labeled training subset and the
    unlabeled-for-evaluation remainder.

    Sampling is stratified by class when every class is present in the
    domain; otherwise it falls back to unstratified sampling and the result
    carries ``stratified=False``.
    """
    if (fraction is None) == (count is None):
        raise ValueError("give exactly one of fraction or count")
    pool = dataset.by_domain(domain)
    n = len(pool)
    if fraction is not None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside [0, 1]")
        count = int(round(fraction * n))
    labeled, evaluation, stratified = stratified_subset(pool, count, seed)
    return SplitResult(labeled=labeled, evaluation=evaluation, stratified=stratified)
