"""Checkpoint and run-metadata documents.

One JSON schema covers every model kind:

    {"format_version": 1, "kind": "qnn"|"dnn"|"knn"|"gnb",
     "config": {...}, "normalizer": {"mean": [...], "std": [...]},
     "params": {name: nested lists}}

JSON float serialization uses repr, which round-trips float64 exactly, so a
saved and reloaded model is bitwise identical. Run metadata records
everything needed to reproduce a run: argv-style config, seeds, a SHA-256
of the dataset's canonical CSV text, the BLAS thread variables in effect
(null when unset), and the final metrics.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS
from .baselines import GnbModel, KnnModel
from .data import FeatureNormalizer
from .neural import DnnConfig, DnnModel
from .quantum_classifier import DressedQnnModel, StdAnsatz

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or unsupported checkpoint document."""


def _array_map(params: dict[str, np.ndarray]) -> dict:
    return {k: np.asarray(v).tolist() for k, v in params.items()}


def checkpoint_dict(model) -> dict:
    norm = {"mean": model.normalizer.mean.tolist(), "std": model.normalizer.std.tolist()}
    if isinstance(model, DressedQnnModel):
        config = {"n_qubits": model.ansatz.n_qubits, "n_layers": model.ansatz.n_layers}
        params = _array_map(model.params)
    elif isinstance(model, DnnModel):
        c = model.config
        config = {
            "n_features": c.n_features,
            "n_classes": c.n_classes,
            "hidden": c.hidden,
            "n_blocks": c.n_blocks,
        }
        params = _array_map(model.params)
    elif isinstance(model, KnnModel):
        config = {"k": model.k}
        params = {"features": model.features.tolist(), "labels": model.labels.tolist()}
    elif isinstance(model, GnbModel):
        config = {}
        params = {
            "priors": model.priors.tolist(),
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
        }
    else:
        raise CheckpointError(f"unsupported model type {type(model).__name__}")
    return {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "config": config,
        "normalizer": norm,
        "params": params,
    }


def save_checkpoint(model, path) -> None:
    Path(path).write_text(json.dumps(checkpoint_dict(model)) + "\n", encoding="utf-8")


def model_from_dict(doc: dict):
    try:
        version = doc["format_version"]
        kind = doc["kind"]
        config = doc["config"]
        params_doc = doc["params"]
        norm_doc = doc["normalizer"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"missing checkpoint field: {exc}") from exc
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format_version {version}")
    normalizer = FeatureNormalizer(
        mean=np.array(norm_doc["mean"], dtype=np.float64),
        std=np.array(norm_doc["std"], dtype=np.float64),
    )
    if kind == "qnn":
        ansatz = StdAnsatz(n_qubits=config["n_qubits"], n_layers=config["n_layers"])
        params = {k: np.array(v, dtype=np.float64) for k, v in params_doc.items()}
        return DressedQnnModel(ansatz=ansatz, params=params, normalizer=normalizer)
    if kind == "dnn":
        params = {k: np.array(v, dtype=np.float64) for k, v in params_doc.items()}
        return DnnModel(config=DnnConfig(**config), params=params, normalizer=normalizer)
    if kind == "knn":
        return KnnModel(
            features=np.array(params_doc["features"], dtype=np.float64),
            labels=np.array(params_doc["labels"], dtype=np.int64),
            k=config["k"],
            normalizer=normalizer,
        )
    if kind == "gnb":
        return GnbModel(
            priors=np.array(params_doc["priors"], dtype=np.float64),
            means=np.array(params_doc["means"], dtype=np.float64),
            variances=np.array(params_doc["variances"], dtype=np.float64),
            normalizer=normalizer,
        )
    raise CheckpointError(f"unknown model kind `{kind}`")


def load_checkpoint(path):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


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
        "metrics": metrics,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
