"""Output checks for one CLI stage, and the digest of a pass's numbers.

A stage passes when every JSON document it writes parses, every accuracy
and AUC in it is finite and in [0, 1], row counts match the workload, and
every checkpoint it writes reloads with `load_checkpoint`. The numbers a
stage reports (accuracies, AUCs, losses) go into a digest: seeded reruns
are bit-identical by contract, so two passes of one seed must agree.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

from qpose.serialize import load_checkpoint

from workloads import Stage


class CheckError(Exception):
    pass


def _read_json(path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"{path.name}: {exc}") from exc


def _unit(value, what: str) -> None:
    if not isinstance(value, (int, float)) or not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise CheckError(f"{what} = {value!r} is not a finite value in [0, 1]")


def _report(doc: dict, what: str) -> None:
    for key in ("accuracy", "macro_auc", "micro_auc"):
        _unit(doc.get(key), f"{what}.{key}")
    for i, auc in enumerate(doc.get("per_class_auc") or [None]):
        _unit(auc, f"{what}.per_class_auc[{i}]")


def _checkpoint(path, kind: str) -> None:
    try:
        model = load_checkpoint(path)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name} does not reload: {exc}") from exc
    if model.kind != kind:
        raise CheckError(f"{path.name} holds a {model.kind} model, expected {kind}")


def check_stage(stage: Stage) -> dict:
    """Check a finished stage's outputs; return the numbers it reported.
    Raises CheckError on the first failed check."""
    out, expect = stage.out_dir, stage.expect or {}
    if stage.command == "gen":
        meta = _read_json(out / "gen_metadata.json")
        if meta["metrics"] != expect:
            raise CheckError(f"gen wrote {meta['metrics']}, expected {expect}")
        return {"counts": meta["metrics"], "dataset_sha256": meta["dataset_sha256"]}
    meta = _read_json(out / "metadata.json")
    if meta.get("command") != stage.command:
        raise CheckError(f"metadata.json records command {meta.get('command')!r}")
    if stage.command == "train":
        doc = _read_json(out / "summary.json")
        for part in ("in_domain", "cross_domain"):
            _report(doc[part], part)
        loss = doc.get("final_train_loss")
        if loss is not None and not math.isfinite(loss):
            raise CheckError(f"final_train_loss = {loss!r}")
        _checkpoint(out / "checkpoint.json", expect["model"])
        return doc
    if stage.command == "transfer":
        doc = _read_json(out / "transfer_summary.json")
        for key in ("pre_accuracy_mean", "post_accuracy_mean", "macro_auc_mean", "micro_auc_mean"):
            _unit(doc.get(key), key)
        for run in doc["runs"]:
            for key in ("pre_accuracy", "post_accuracy", "macro_auc", "micro_auc"):
                _unit(run[key], f"runs.{key}")
        _checkpoint(out / "transfer_checkpoint.json", expect["model"])
        return doc
    if stage.command == "eval":
        doc = _read_json(out / "eval_summary.json")
        _report(doc, "eval")
        if doc.get("n_samples") != expect["rows"]:
            raise CheckError(f"eval scored {doc.get('n_samples')} rows, expected {expect['rows']}")
        return doc
    if stage.command == "curve":
        points = meta["metrics"]
        for n, acc in points.items():
            _unit(acc, f"curve[{n}]")
        with open(out / "curve.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != expect["points"] or len(points) != expect["points"]:
            raise CheckError(f"curve has {len(rows)} points, expected {expect['points']}")
        return {"points": points, "csv": rows}
    raise CheckError(f"no checks for command {stage.command!r}")


def digest(numbers: dict) -> str:
    text = json.dumps(numbers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
