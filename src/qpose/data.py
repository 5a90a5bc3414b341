"""Beam-SNR datasets: the columnar `Dataset`, CSV ingestion, and a seeded
synthetic generator.

A row holds 36 beam SNRs (dB), a pose label in 0..7, a domain tag (source =
earlier measurement sessions, target = later ones) and a session id. A
`Dataset` keeps its rows as four read-only columns, checked a column at a
time; every split and subset is again a `Dataset`, made by one index take.
Real measurements come in through `load_csv`; the synthetic generator
stands in for them with a controllable source-to-target domain shift.

Synthetic model: each pose class c gets an anchor vector mu_c drawn once
from N(0, ANCHOR_SIGMA^2) per feature. Source samples are mu_c plus
isotropic Gaussian noise. Target samples are g * mu_c + delta plus noise,
where the per-feature gain g and offset delta are drawn once per dataset;
the shift is shared across classes but acts differently on each class
through its anchor, which is what degrades a source-trained model. All
randomness comes from independent PCG64 child streams spawned from one seed
(anchors / source noise / target shift+noise), so e.g. changing the target
sample count never perturbs the source samples.

`write_csv` renders every feature with `repr(float)`. `load_csv` parses
CSV_BLOCK_ROWS lines at a time with one `np.loadtxt` call into structured
rows and checks their columns at once. A block that loadtxt refuses, or
that fails a check, is parsed again a row at a time, each value as
`float()` or `int()` reads it, which names the first bad line; so the file
loads to the same samples, or fails with the same error, either way.
`dataset_sha256` is the sha256 of a dataset file's bytes. `load_csv`
hashes the file once and keeps the digest on the `Dataset` it returns,
which every run record carries. A parsed file's columns are kept beside it
in a sidecar, `<csv>.npy`, keyed by that digest, so a later load of the
same bytes reads the columns instead of parsing the text again.
"""

from __future__ import annotations

import math
import os
import re
import threading
from dataclasses import dataclass, replace
from typing import NamedTuple
from enum import Enum
from hashlib import sha256
from itertools import chain, islice
from pathlib import Path

import numpy as np

N_FEATURES = 36
N_CLASSES = 8
ANCHOR_SIGMA = 5.0
# Rows a DNN, kNN or GNB scoring call works on at a time: a block's
# temporaries stay near L2 size, whatever the number of rows scored.
SCORE_BLOCK_ROWS = 256

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

    def __str__(self) -> str:  # the value, as StrEnum's, so numpy columns hold it
        return self.value


class CsvFormatError(ValueError):
    """Malformed dataset CSV; message names the offending line."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Beam-SNR rows as four columns: ``samples``, the (N, 36) float64
    features; ``labels``, int64 poses in 0..7; ``domain``, "source" or
    "target"; ``session``, int64 session ids. The constructor checks every
    column at once and marks it read-only (an array that already has the
    column's dtype is kept, not copied); `take` copies a subset of rows.
    ``sha256`` is the digest of the file bytes `load_csv` read the rows
    from, and None for rows made in memory or taken from other rows."""

    samples: np.ndarray
    labels: np.ndarray
    domain: np.ndarray
    session: np.ndarray
    sha256: str | None = None

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        labels, domain, session = (np.asarray(self.labels), np.asarray(self.domain, dtype=str),
                                   np.asarray(self.session))
        if samples.ndim != 2 or samples.shape[1] != N_FEATURES:
            raise ValueError(f"expected (n, {N_FEATURES}) features, got shape {samples.shape}")
        if not labels.shape == domain.shape == session.shape == (len(samples),):
            raise ValueError("labels, domain and session need one entry per feature row")
        for name, column in (("labels", labels), ("session", session)):
            if column.size and column.dtype.kind not in "iu":
                raise ValueError(f"{name} must be integers, got dtype {column.dtype}")
        if not np.isfinite(samples).all():
            raise ValueError("features must be finite")
        if labels.size and not 0 <= labels.min() <= labels.max() < N_CLASSES:
            raise ValueError(f"labels must lie in 0..{N_CLASSES - 1}")
        if not np.isin(domain, [d.value for d in Domain]).all():
            raise ValueError(f"domain must be one of {[d.value for d in Domain]}")
        for name, column in (("samples", samples), ("labels", labels.astype(np.int64, copy=False)),
                             ("domain", domain), ("session", session.astype(np.int64, copy=False))):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.samples)

    def take(self, index) -> "Dataset":
        """The rows at ``index`` (integer indices or a boolean mask), copied."""
        return Dataset(*(c[index] for c in (self.samples, self.labels, self.domain, self.session)))

    def by_domain(self, domain: Domain) -> "Dataset":
        return self.take(self.domain == Domain(domain).value)

    def class_counts(self, domain: Domain) -> np.ndarray:
        return np.bincount(self.labels[self.domain == Domain(domain).value], minlength=N_CLASSES)


def features_matrix(dataset: Dataset) -> np.ndarray:
    """The read-only (N, 36) feature matrix of ``dataset``."""
    return dataset.samples


@dataclass(frozen=True, eq=False)
class FeatureNormalizer:
    """Per-feature z-score transform, fitted once on the labeled source
    training split and frozen thereafter (shared by all model kinds)."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, dataset: Dataset) -> "FeatureNormalizer":
        x = features_matrix(dataset)
        if x.shape[0] == 0:
            raise ValueError("cannot fit a normalizer on zero samples")
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        # A constant feature carries no signal; unit scale keeps it at zero
        # after centering instead of dividing by zero.
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        """``x`` as normalized rows. A non-finite result, which a finite
        value can give under a small scale, raises ValueError without a
        numpy warning; every model kind reads its features through this."""
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.atleast_2d(np.asarray(x, dtype=np.float64)) - self.mean
            z /= self.std
        if not np.isfinite(z).all():
            raise ValueError("input features must be finite")
        return z


class CheckpointError(ValueError):
    """Malformed or unsupported checkpoint document; names the bad field."""


def _check_names(section: str, doc, names) -> None:
    """Require ``doc`` to be an object holding exactly ``names``; errors
    start with ``section``."""
    if not isinstance(doc, dict):
        raise CheckpointError(f"{section} must be an object")
    extra = sorted(set(doc) - set(names))
    if extra:
        raise CheckpointError(f"{section} has unexpected names {extra}")
    missing = next((name for name in names if name not in doc), None)
    if missing is not None:
        raise CheckpointError(f"{section}.{missing} is missing")


def checkpoint_arrays(section: str, doc, shapes: dict) -> dict[str, np.ndarray]:
    """Finite float64 arrays for exactly the names in ``shapes``, in that
    order. A None in a shape matches any length. Model classes restore
    their checkpoint sections through this."""
    _check_names(f"checkpoint field {section}", doc, shapes)
    arrays = {}
    for name, shape in shapes.items():
        field = f"{section}.{name}"
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


def check_config(kind: str, config, names) -> None:
    """Require a ``kind`` checkpoint's config to be an object holding
    exactly the integer fields ``names``. JSON floats (2.0 included) and
    booleans are refused here, before they reach a ``range`` or an array
    shape; errors name the kind and the field."""
    section = f"{kind} checkpoint field config"
    _check_names(section, config, names)
    for name in names:
        if type(config[name]) is not int:
            raise CheckpointError(f"{section}.{name} must be an integer,"
                                  f" got {config[name]!r}")


def _check_scale(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


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
            _check_scale(name, getattr(self, name))

    def scaled(self, shift_scale: float) -> "ShiftSpec":
        """Scale the systematic shift (offset and gain spread) by a factor;
        noise levels are left alone."""
        _check_scale("shift_scale", shift_scale)
        return replace(self, mean_offset_scale=self.mean_offset_scale * shift_scale,
                       feature_gain_spread=self.feature_gain_spread * shift_scale)


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


def generate_synthetic(n_source: int, n_target: int, shift: ShiftSpec,
                       source_weights=SOURCE_CLASS_WEIGHTS,
                       target_weights=TARGET_CLASS_WEIGHTS) -> Dataset:
    """Seeded synthetic dataset with the configured domain shift.

    Deterministic: the same arguments produce byte-identical datasets on any
    platform (PCG64 streams, fixed generation order). A feature that
    overflows float64 fails the dataset's finite check, not a numpy warning.
    """
    if n_source <= 0 or n_target <= 0:
        raise ValueError("sample counts must be positive")
    anchors_ss, source_ss, target_ss = np.random.SeedSequence(shift.seed).spawn(3)
    anchors = np.random.default_rng(anchors_ss).normal(0.0, ANCHOR_SIGMA, (N_CLASSES, N_FEATURES))

    with np.errstate(over="ignore", invalid="ignore"):
        rng = np.random.default_rng(source_ss)
        source = [anchors[c] + rng.normal(0.0, shift.noise_sigma_source, (count, N_FEATURES))
                  for c, count in enumerate(apportion(n_source, source_weights))]
        rng = np.random.default_rng(target_ss)
        gain = rng.normal(1.0, shift.feature_gain_spread, N_FEATURES)
        offset = rng.normal(0.0, shift.mean_offset_scale, N_FEATURES)
        target = [gain * anchors[c] + offset
                  + rng.normal(0.0, shift.noise_sigma_target, (count, N_FEATURES))
                  for c, count in enumerate(apportion(n_target, target_weights))]
    # class blocks in order, domain by domain; sessions cycle within a class
    blocks = [(rows, np.full(len(rows), c), np.full(len(rows), domain.value),
               np.resize(sessions, len(rows)))
              for domain, sessions, per_class in ((Domain.SOURCE, SOURCE_SESSIONS, source),
                                                  (Domain.TARGET, TARGET_SESSIONS, target))
              for c, rows in enumerate(per_class)]
    return Dataset(*(np.concatenate(column) for column in zip(*blocks)))


# ---------------------------------------------------------------------------
# CSV schema: header `label,domain,session,b0,...,b35`, UTF-8, LF endings.
# Features are written with repr(float), which round-trips bit-exactly.
# ---------------------------------------------------------------------------

CSV_HEADER = "label,domain,session," + ",".join(f"b{i}" for i in range(N_FEATURES))
CSV_BLOCK_ROWS = 512
HASH_BLOCK_BYTES = 1 << 20
# One CSV row as np.loadtxt reads it. The domain is read 7 characters wide,
# so a longer value is cut to one that is no domain, never to "source".
_CSV_ROW = np.dtype([("label", np.int64), ("domain", "U7"), ("session", np.int64),
                     ("features", np.float64, (N_FEATURES,))])
# The dtypes of the parsed (samples, labels, domain, session) columns, which
# a sidecar's columns must have exactly.
_COLUMN_DTYPES = tuple(map(np.dtype, (np.float64, np.int64, "<U6", np.int64)))
_DIGEST_DTYPE = np.dtype("<U64")


def write_csv(dataset: Dataset, path) -> None:
    """Write the canonical CSV text: the header line, then the rows in
    blocks of CSV_BLOCK_ROWS, each rendered from one slice of the columns."""
    x = features_matrix(dataset)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(dataset), CSV_BLOCK_ROWS):
            rows = slice(start, start + CSV_BLOCK_ROWS)
            fh.write("".join(f"{label},{domain},{session},{','.join(map(repr, feats))}\n"
                             for label, domain, session, feats in zip(
                                 dataset.labels[rows].tolist(), dataset.domain[rows].tolist(),
                                 dataset.session[rows].tolist(), x[rows].tolist())))


def dataset_sha256(path) -> str:
    """sha256 of a dataset file's bytes, read into one buffer of
    HASH_BLOCK_BYTES at a time so the file is never held whole."""
    digest, block = sha256(), bytearray(HASH_BLOCK_BYTES)
    with open(path, "rb") as fh, memoryview(block) as view:
        while n := fh.readinto(block):
            digest.update(view[:n])
    return digest.hexdigest()


def load_csv(path) -> Dataset:
    """Read a dataset CSV. The file is hashed first (`dataset_sha256`); if
    its sidecar ``<path>.npy`` holds that digest and four valid columns,
    those are the dataset (`_read_sidecar`). Otherwise the text is parsed
    (`_parse_csv`) and the sidecar is written for the next load, unless the
    file's size, mtime or inode moved while it was read. A missing, stale
    or damaged sidecar is a miss, never an error, and a file that fails to
    parse raises its CsvFormatError and writes no sidecar; deleting a
    sidecar is always safe. The dataset's ``sha256`` is the digest, or
    None when the file moved, since then the parse may have read other
    bytes than were hashed."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    sidecar = path.with_name(path.name + ".npy")
    stamp = _stamp(path)
    digest = dataset_sha256(path)
    dataset = _read_sidecar(sidecar, digest)
    if dataset is None:
        dataset = _parse_csv(path)
        if _stamp(path) == stamp:
            _write_sidecar(sidecar, digest, dataset)
            dataset = replace(dataset, sha256=digest)
    return dataset


def _stamp(path: Path) -> tuple[int, int, int]:
    st = path.stat()
    return st.st_size, st.st_mtime_ns, st.st_ino


def _read_sidecar(path: Path, digest: str) -> Dataset | None:
    """The dataset a sidecar holds, or None unless ``path`` is exactly five
    .npy records: ``digest`` as a 0-d unicode array, then samples, labels,
    domain and session in the dtypes the parse gives (`_COLUMN_DTYPES`),
    with one label, domain and session per feature row, which the Dataset
    constructor accepts."""
    try:
        with open(path, "rb") as fh:
            end = os.fstat(fh.fileno()).st_size
            if _read_record(fh, end, _DIGEST_DTYPE, ()) != digest:
                return None
            samples = _read_record(fh, end, _COLUMN_DTYPES[0], (None, N_FEATURES))
            columns = [samples] + [_read_record(fh, end, dtype, (len(samples),))
                                   for dtype in _COLUMN_DTYPES[1:]]
            if fh.read(1):
                return None
        return Dataset(*columns, sha256=digest)
    except (OSError, ValueError):
        return None


def _read_record(fh, end: int, dtype: np.dtype, shape: tuple) -> np.ndarray:
    """The next .npy record of ``fh``, which must be a C-order array of
    ``dtype`` and ``shape`` (a None matches any row count) whose data ends
    by byte ``end``. The header must be the exact text `write_array` gives
    such an array; it is matched before `read_array` parses it or
    allocates, so a damaged header is a ValueError and a record claiming
    more rows than the file holds costs nothing."""
    start = fh.tell()
    prefix = fh.read(10)
    header = (fh.read(int.from_bytes(prefix[8:], "little"))
              if prefix[:8] == b"\x93NUMPY\x01\x00" else b"")
    text = "{'descr': %r, 'fortran_order': False, 'shape': %r, }" % (
        np.lib.format.dtype_to_descr(dtype), shape)
    match = re.fullmatch(re.escape(text).replace("None", r"(\d{1,15})") + r" *\n",
                         header.decode("latin-1"))
    if not match:
        raise ValueError("sidecar record does not hold the expected column")
    rows = iter(match.groups())
    if fh.tell() + dtype.itemsize * math.prod(int(next(rows)) if n is None else n
                                              for n in shape) > end:
        raise ValueError("sidecar record is cut short")
    fh.seek(start)
    return np.lib.format.read_array(fh, allow_pickle=False)


def _write_sidecar(path: Path, digest: str, dataset: Dataset) -> None:
    """Write ``dataset``'s sidecar to a temporary file of this process and
    thread beside ``path``, then move it over ``path`` in one `os.replace`,
    so a reader never sees half a sidecar. Each column goes to the file as
    it is, uncopied. On an OSError (a read-only directory, a full disk) the
    temporary file is removed and no sidecar is written."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for array in (np.array(digest), dataset.samples, dataset.labels, dataset.domain,
                          dataset.session):
                np.lib.format.write_array(fh, array, allow_pickle=False)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass


def _parse_csv(path: Path) -> Dataset:
    """Parse a dataset CSV a block of CSV_BLOCK_ROWS lines at a time
    (`_read_block`) into four column buffers that grow in place (by a
    quarter, at least CSV_BLOCK_ROWS rows) and are trimmed at the end, so
    the features are never held twice; a bad row raises CsvFormatError
    naming its line. The file is decoded with surrogateescape: a byte that
    is not valid UTF-8 becomes a lone surrogate, which no field accepts, so
    the parse names the first bad line."""
    columns = [np.empty((0, N_FEATURES), _COLUMN_DTYPES[0])] + [
        np.empty(0, dtype) for dtype in _COLUMN_DTYPES[1:]]
    n, lineno = 0, 2
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        if fh.readline().rstrip("\n").rstrip("\r") != CSV_HEADER:
            raise CsvFormatError(f"line 1: bad header, expected `{CSV_HEADER}`")
        while True:
            read, n = _read_block(fh, lineno, columns, n)
            if not read:
                break
            lineno += read
    for column in columns:
        column.resize((n, *column.shape[1:]), refcheck=False)
    return Dataset(*columns)


def _read_block(fh, lineno: int, columns: list[np.ndarray], n: int) -> tuple[int, int]:
    """Parse the next CSV_BLOCK_ROWS lines of ``fh``, the first of them line
    ``lineno``, into ``columns`` after their first ``n`` rows; returns the
    lines read and the rows now filled. One `np.loadtxt` call streams the
    block's rows from the file (`_loadtxt_block`). A block that loadtxt
    refuses, or that fails a column check, is read again and parsed a row
    at a time (`_rows_block`), which raises the error for the first bad
    line, or returns the block when its rows hold spellings that only
    `float()` and `int()` accept (`1_0`, non-ASCII digits)."""
    start, tally = fh.tell(), [0, 0, 0]
    parts = _loadtxt_block(fh, tally)
    if parts is None:
        fh.seek(start)
        lines = list(islice(iter(fh.readline, ""), CSV_BLOCK_ROWS))
        parts, tally[0] = _rows_block(lines, lineno), len(lines)
    k = len(parts[0])
    if n + k > len(columns[0]):
        for column in columns:
            column.resize((n + max(CSV_BLOCK_ROWS, n // 4), *column.shape[1:]), refcheck=False)
    for column, part in zip(columns, parts):
        column[n:n + k] = part  # a copy: the block goes when this returns
    return tally[0], n + k


def _block_rows(fh, tally: list[int]):
    """The rows among the next CSV_BLOCK_ROWS lines of ``fh``, one line at a
    time, blank lines skipped. ``tally`` counts the lines read, the rows
    and the rows holding a character loadtxt reads otherwise than the row
    parse: NUL, which a numpy string drops at its end ("source\\0" would
    read as "source"), and the information separators U+001C..U+001F,
    which loadtxt strips around a number and `float()` and `int()` refuse."""
    for line in islice(iter(fh.readline, ""), CSV_BLOCK_ROWS):
        tally[0] += 1
        if line != "\n":
            tally[1] += 1
            tally[2] += ("\0" in line or "\x1c" in line or "\x1d" in line or "\x1e" in line
                         or "\x1f" in line)
            yield line


def _loadtxt_block(fh, tally: list[int]):
    """The next block's (features, labels, domain, session) from one
    `np.loadtxt` call on its rows (`_block_rows`), or None when loadtxt
    refuses a row, when a row holds a character counted in ``tally[2]`` or
    when a column fails its check (finite features, labels in 0..7, known
    domains)."""
    rows = _block_rows(fh, tally)
    first = next(rows, None)
    if first is None:  # only blank lines, or none: loadtxt would warn
        return np.empty((0, N_FEATURES)), (), (), ()
    try:
        block = np.loadtxt(chain([first], rows), dtype=_CSV_ROW, delimiter=",", comments=None,
                           quotechar=None, ndmin=1)
    except ValueError:
        return None
    features, labels, domain = block["features"], block["label"], block["domain"]
    if (tally[2] or len(block) != tally[1] or not np.isfinite(features).all()
            or not 0 <= labels.min() <= labels.max() < N_CLASSES
            or not ((domain == Domain.SOURCE.value) | (domain == Domain.TARGET.value)).all()):
        return None
    return features, labels, domain, block["session"]


def _rows_block(lines: list[str], lineno: int):
    """Parse a block a row at a time, each field as `float()` or `int()`
    reads it, skipping blank lines; ``lineno`` is the block's first line.
    A bad row raises CsvFormatError naming its line."""
    features = np.empty((len(lines) - lines.count("\n"), N_FEATURES))
    labels, domain, session = [], [], []
    for lineno, line in enumerate(lines, start=lineno):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split(",")
        try:
            if len(fields) != 3 + N_FEATURES:
                raise ValueError(f"expected {3 + N_FEATURES} fields, got {len(fields)}")
            label, row_domain, row_session = (int(fields[0]), Domain(fields[1]).value,
                                              int(fields[2]))
            features[len(labels)] = fields[3:]  # numpy parses each string as float() does
            if not np.isfinite(features[len(labels)]).all():
                raise ValueError("features must be finite")
            if not 0 <= label < N_CLASSES:
                raise ValueError(f"label {label} outside 0..{N_CLASSES - 1}")
            if not -(2**63) <= row_session < 2**63:
                raise ValueError(f"session {row_session} outside the int64 range")
        except ValueError as exc:
            raise CsvFormatError(f"line {lineno}: {exc}") from exc
        labels.append(label)
        domain.append(row_domain)
        session.append(row_session)
    return features, labels, domain, session


# ---------------------------------------------------------------------------
# Labeled / evaluation splits.
# ---------------------------------------------------------------------------


class SplitResult(NamedTuple):
    labeled: Dataset
    evaluation: Dataset
    stratified: bool


def stratified_subset(pool: Dataset, count: int, seed: int) -> SplitResult:
    """Seeded class-stratified subset of ``count`` rows of ``pool``.

    Returns (chosen, rest, stratified), each part in pool order. Falls back
    to unstratified sampling (stratified=False) when some class is absent
    from ``pool``; quota rounding is largest-remainder, which never exceeds
    a class's pool.
    """
    n = len(pool)
    if not 0 <= count <= n:
        raise ValueError(f"requested {count} samples from a pool of {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    by_class = [np.flatnonzero(pool.labels == c) for c in range(N_CLASSES)]
    stratified = all(ix.size > 0 for ix in by_class)
    if stratified:
        quotas = apportion(count, [ix.size for ix in by_class])
        chosen = np.concatenate([rng.permutation(ix)[:q] for ix, q in zip(by_class, quotas)])
    else:
        chosen = rng.permutation(n)[:count]
    mask = np.zeros(n, dtype=bool)
    mask[chosen] = True
    return SplitResult(pool.take(mask), pool.take(~mask), stratified)


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
    if fraction is not None:
        count = fraction_count(fraction, len(pool))
    return stratified_subset(pool, count, seed)


def fraction_count(fraction: float, n: int) -> int:
    """The rows that ``fraction`` of a pool of ``n`` rows takes, by
    `split_labeled`'s rounding; a caller checks a split's size with it
    before making the split."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    return int(round(fraction * n))
