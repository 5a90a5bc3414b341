"""Checkpoint and run-metadata documents.

One JSON schema covers every model kind:

    {"format_version": 1, "kind": "qnn"|"dnn"|"knn"|"gnb",
     "config": {...}, "normalizer": {"mean": [...], "std": [...]},
     "params": {name: nested lists}}

A kind is registered in `KINDS` (kind -> model class). This module owns the
envelope; each class writes its `config` and `params` sections in
`checkpoint_sections()` and restores itself in `from_checkpoint`. Loading
validates: integer config fields, a DNN config of 36 features and 8 classes,
parameter names and shapes against the config, finite values, a (36,)
normalizer with std > 0, kNN labels in 0..7, positive GNB priors; a
violation raises `CheckpointError` naming the field.

JSON float serialization uses repr, which round-trips float64 exactly, so a
saved and reloaded model is bitwise identical. Run metadata records
everything needed to reproduce a run: argv-style config, seeds, the SHA-256
of the bytes of the dataset file the run read (or `gen` wrote), the BLAS
thread variables in effect (null when unset), the numpy version, the SIMD
features numpy enabled on the host, the core whose kernels numpy's bundled
OpenBLAS runs (null without one), and the final metrics. numpy picks its
vector loops by those features and OpenBLAS its gemm kernels by the core,
so they are the conditions under which a rerun is bit-identical;
checkpoints and summaries never record them.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS
from .baselines import GnbModel, KnnModel
from .data import N_FEATURES, CheckpointError, FeatureNormalizer, checkpoint_arrays
from .neural import DnnModel
from .quantum_classifier import DressedQnnModel

FORMAT_VERSION = 1

# kind -> model class, in the order the CLI lists and reports them
KINDS = {"dnn": DnnModel, "qnn": DressedQnnModel, "knn": KnnModel, "gnb": GnbModel}


def checkpoint_dict(model) -> dict:
    config, params = model.checkpoint_sections()
    return {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "config": config,
        "normalizer": {"mean": model.normalizer.mean.tolist(),
                       "std": model.normalizer.std.tolist()},
        "params": params,
    }


def save_checkpoint(model, path) -> None:
    Path(path).write_text(json.dumps(checkpoint_dict(model)) + "\n", encoding="utf-8")


def model_from_dict(doc: dict):
    try:
        version = doc["format_version"]
        kind = doc["kind"]
        config = doc["config"]
        params = doc["params"]
        norm_doc = doc["normalizer"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"missing checkpoint field: {exc}") from exc
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format_version {version}")
    if not isinstance(kind, str) or kind not in KINDS:
        raise CheckpointError(f"unknown model kind `{kind}`")
    normalizer = FeatureNormalizer(
        **checkpoint_arrays("normalizer", norm_doc, {"mean": (N_FEATURES,), "std": (N_FEATURES,)})
    )
    if (normalizer.std <= 0).any():
        raise CheckpointError("checkpoint field normalizer.std must be positive")
    try:
        return KINDS[kind].from_checkpoint(config, params, normalizer)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid {kind} checkpoint config: {exc!r}") from exc


def load_checkpoint(path):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def _numpy_simd() -> list[str]:
    """The SIMD features numpy enabled on this host, in numpy's order."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return [name for name, enabled in __cpu_features__.items() if enabled]


@lru_cache(maxsize=None)
def _blas_core() -> str | None:
    """The core numpy's bundled OpenBLAS picked its kernels for at run time,
    such as SkylakeX, or Haswell with OPENBLAS_CORETYPE=Haswell exported;
    None when numpy bundles no scipy-openblas. Looked up on first use, once
    a process."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    lib = next(libs.glob("libscipy_openblas64_*"), None)
    if lib is None:
        return None
    try:
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def write_run_metadata(path, *, command: str, config: dict, seed: int,
                       dataset_hash: str, deterministic: bool, metrics: dict) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "config": config,
        "seed": seed,
        "dataset_sha256": dataset_hash,
        "deterministic": deterministic,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy_version": np.__version__,
        "numpy_simd": _numpy_simd(),
        "blas_core": _blas_core(),
        "metrics": metrics,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
