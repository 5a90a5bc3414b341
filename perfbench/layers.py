"""Which functions the traced run wraps, and the per-layer metrics it
derives from their spans.

Each hook patches the name a caller actually looks up: the statevector
kernels are wrapped where `z_from_angles` finds them
(`qpose.quantum_classifier.ry_rows`), and a function imported into several
modules is wrapped in each. Span names use the module that defines the
function, so `qpose.training.accuracy_of` and `qpose.evaluation.accuracy_of`
both record `evaluation.accuracy_of`.
"""

from __future__ import annotations

import os

import numpy as np
from qpose.quantum_classifier import evaluation_count

from spans import Hook, Tracer, percentile, tail_percentile

EPOCH_LOOPS = ("training.pretrain", "training.transfer_finetune")
KERNELS = ("statevector.ry_rows", "statevector.cz_rows",
           "statevector.z_expectations_rows", "statevector.zero_states")


def _rows_arg(index):
    def count(_state, args, kwargs, _result):
        return {"rows": np.atleast_2d(args[index]).shape[0]}
    return count


def _len_arg(index):
    def count(_state, args, kwargs, _result):
        return {"rows": len(args[index])}
    return count


# Computed traffic per kernel call on a (rows, 2^n) float64 buffer: bytes a
# single read-and-write sweep would move, and the arithmetic the gate needs.
def _ry_traffic(_state, args, kwargs, _result):
    size = args[0].size
    return {"bytes": 2 * 8 * size, "flops": 3 * size}


def _cz_traffic(_state, args, kwargs, _result):
    size = args[0].size
    return {"bytes": 2 * 8 * size // 4, "flops": size // 4}


def _z_traffic(_state, args, kwargs, _result):
    rows, dim = args[0].shape
    n = dim.bit_length() - 1
    return {"bytes": 8 * rows * dim, "flops": rows * dim * (1 + 2 * n)}


def _zero_traffic(_state, args, kwargs, result):
    return {"bytes": 8 * result.size, "flops": 0}


def _qnn_variant(args, kwargs):
    model = args[0]
    needed = kwargs.get("needed", args[3] if len(args) > 3 else None)
    if needed is None or set(needed) >= set(model.params):
        return "full"
    return "theta" if set(needed) == {"theta"} else "partial"


def _grad_counts(state, args, kwargs, result):
    model = args[0]
    needed = kwargs.get("needed", args[3] if len(args) > 3 else None)
    trainable = set(model.params) if needed is None else set(needed)
    grads = result[1]
    counts = {
        "samples": np.atleast_2d(args[1]).shape[0],
        "grad_entries": sum(g.size for g in grads.values()),
        "grad_used": sum(g.size for k, g in grads.items() if k in trainable),
    }
    if state is not None:
        counts["evals"] = evaluation_count() - state
    return counts


def _knn_counts(_state, args, kwargs, _result):
    model, x = args[0], np.atleast_2d(args[1])
    rows = x.shape[0]
    train_rows, features = model.features.shape
    return {"rows": rows, "temp_bytes": 8 * rows * train_rows * features}


def _load_counts(_state, args, kwargs, result):
    return {"rows": len(result.samples)}


def _saved_bytes(_state, args, kwargs, _result):
    return {"bytes": os.path.getsize(args[1])}


def _evals_delta(state, args, kwargs, _result):
    return {"rows": evaluation_count() - state}


def hooks() -> list[Hook]:
    qc = "qpose.quantum_classifier"
    hooks = [
        Hook(qc, "ry_rows", "statevector.ry_rows", count=_ry_traffic),
        Hook(qc, "cz_rows", "statevector.cz_rows", count=_cz_traffic),
        Hook(qc, "z_expectations_rows", "statevector.z_expectations_rows", count=_z_traffic),
        Hook(qc, "zero_states", "statevector.zero_states", count=_zero_traffic),
        Hook(qc, "z_from_angles", "quantum_classifier.z_from_angles",
             before=evaluation_count, count=_evals_delta),
        Hook(qc + ":DressedQnnModel", "loss_and_grad", "quantum_classifier.loss_and_grad",
             variant=_qnn_variant, before=evaluation_count, count=_grad_counts),
        Hook(qc + ":DressedQnnModel", "predict_proba", "quantum_classifier.predict_proba",
             count=_rows_arg(1)),
        Hook("qpose.neural:DnnModel", "loss_and_grad", "neural.DnnModel.loss_and_grad",
             count=_grad_counts),
        Hook("qpose.neural:DnnModel", "predict_proba", "neural.DnnModel.predict_proba",
             count=_rows_arg(1)),
        Hook("qpose.neural:AdamW", "step", "neural.AdamW.step"),
        Hook("qpose.training", "pretrain", "training.pretrain"),
        Hook("qpose.training", "transfer_finetune", "training.transfer_finetune"),
        Hook("qpose.training", "run_repeated", "training.run_repeated"),
        Hook("qpose.evaluation", "binary_roc", "evaluation.binary_roc"),
        Hook("qpose.evaluation", "accuracy_vs_samples_curve",
             "evaluation.accuracy_vs_samples_curve"),
        Hook("qpose.baselines:KnnModel", "predict_proba", "baselines.KnnModel.predict_proba",
             count=_knn_counts),
        Hook("qpose.baselines:GnbModel", "predict_proba", "baselines.GnbModel.predict_proba",
             count=_rows_arg(1)),
        Hook("qpose.data", "generate_synthetic", "data.generate_synthetic"),
        Hook("qpose.data", "write_csv", "data.write_csv"),
        Hook("qpose.data", "load_csv", "data.load_csv", count=_load_counts),
        Hook("qpose.data", "dataset_sha256", "data.dataset_sha256"),
        Hook("qpose.serialize", "save_checkpoint", "serialize.save_checkpoint",
             count=_saved_bytes),
        Hook("qpose.serialize", "load_checkpoint", "serialize.load_checkpoint"),
        Hook("qpose.serialize", "write_run_metadata", "serialize.write_run_metadata"),
        Hook("qpose.cli", "main", "cli", variant=lambda args, kwargs: args[0][0]),
    ]
    # functions imported by name into several modules: wrap every binding
    for owner in ("qpose.training", "qpose.evaluation"):
        hooks.append(Hook(owner, "accuracy_of", "evaluation.accuracy_of"))
        hooks.append(Hook(owner, "evaluate", "evaluation.evaluate", count=_len_arg(1)))
    for owner in ("qpose.data", "qpose.training"):
        hooks.append(Hook(owner, "split_labeled", "data.split_labeled"))
    for owner in ("qpose.data", "qpose.evaluation"):
        hooks.append(Hook(owner, "stratified_subset", "data.stratified_subset"))
    for owner in ("qpose.data", "qpose.training", "qpose.evaluation", "qpose.baselines"):
        hooks.append(Hook(owner, "features_matrix", "data.features_matrix"))
    return hooks


class _View:
    """Sums over the aggregates of one name, across parents, per pass."""

    def __init__(self, tracer: Tracer, passes: int):
        self.tracer = tracer
        self.passes = passes

    def aggs(self, name, parents=None):
        return [agg for (n, parent), agg in self.tracer.stats.items()
                if n == name and (parents is None or parent in parents)]

    def calls(self, name):
        return sum(a.calls for a in self.aggs(name)) / self.passes

    def busy(self, name, parents=None):
        return sum(a.busy_s for a in self.aggs(name, parents)) / self.passes

    def self_s(self, name):
        return sum(a.self_s for a in self.aggs(name)) / self.passes

    def counter(self, name, key, per_pass=True):
        total = sum(a.counters.get(key, 0) for a in self.aggs(name))
        return total / self.passes if per_pass else total

    def durations(self, name):
        return [d for a in self.aggs(name) for d in a.durations]

    def names(self, prefix):
        return {n for n, _ in self.tracer.stats if n.startswith(prefix)}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, circuit_evals: float,
                  overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric, as a value per traced pass. Names absent from
    a workload read 0."""
    v = _View(tracer, passes)
    m: dict[str, float] = {}

    ry = "statevector.ry_rows"
    m[f"{ry}.calls"] = v.calls(ry)
    m[f"{ry}.busy_s"] = v.busy(ry)
    m[f"{ry}.p50_us"] = percentile(v.durations(ry), 50) * 1e6
    pct, value = tail_percentile(v.durations(ry))
    m[f"{ry}.tail_us"] = value * 1e6
    m[f"{ry}.tail_pct"] = pct
    for name in ("statevector.cz_rows", "statevector.z_expectations_rows"):
        m[f"{name}.calls"] = v.calls(name)
        m[f"{name}.busy_s"] = v.busy(name)
    m["statevector.zero_states.busy_s"] = v.busy("statevector.zero_states")
    kernel_bytes = sum(v.counter(k, "bytes") for k in KERNELS)
    m["statevector.bytes_computed"] = kernel_bytes
    m["statevector.flops_computed"] = sum(v.counter(k, "flops") for k in KERNELS)
    m["statevector.gbytes_per_s"] = _ratio(kernel_bytes, sum(v.busy(k) for k in KERNELS)) / 1e9

    zfa = "quantum_classifier.z_from_angles"
    m[f"{zfa}.calls"] = v.calls(zfa)
    m[f"{zfa}.rows"] = v.counter(zfa, "rows")
    m[f"{zfa}.busy_s"] = v.busy(zfa)
    m[f"{zfa}.self_s"] = v.self_s(zfa)
    for variant in ("full", "theta"):
        name = f"quantum_classifier.loss_and_grad.{variant}"
        m[f"{name}.calls"] = v.calls(name)
        m[f"{name}.busy_s"] = v.busy(name)
        m[f"{name}.p50_ms"] = percentile(v.durations(name), 50) * 1e3
        m[f"quantum_classifier.evals_per_grad_sample.{variant}"] = _ratio(
            v.counter(name, "evals", per_pass=False), v.counter(name, "samples", per_pass=False))
    qpp = "quantum_classifier.predict_proba"
    m[f"{qpp}.rows"] = v.counter(qpp, "rows")
    m[f"{qpp}.busy_s"] = v.busy(qpp)
    m["quantum_classifier.circuit_evals"] = circuit_evals

    dlg = "neural.DnnModel.loss_and_grad"
    m[f"{dlg}.calls"] = v.calls(dlg)
    m[f"{dlg}.busy_s"] = v.busy(dlg)
    m[f"{dlg}.p50_ms"] = percentile(v.durations(dlg), 50) * 1e3
    pct, value = tail_percentile(v.durations(dlg))
    m[f"{dlg}.tail_ms"] = value * 1e3
    m[f"{dlg}.tail_pct"] = pct
    dpp = "neural.DnnModel.predict_proba"
    m[f"{dpp}.rows"] = v.counter(dpp, "rows")
    m[f"{dpp}.busy_s"] = v.busy(dpp)
    step = "neural.AdamW.step"
    m[f"{step}.calls"] = v.calls(step)
    m[f"{step}.busy_s"] = v.busy(step)
    m[f"{step}.p50_us"] = percentile(v.durations(step), 50) * 1e6

    for name in EPOCH_LOOPS:
        m[f"{name}.busy_s"] = v.busy(name)
        m[f"{name}.self_s"] = v.self_s(name)
    m["training.run_repeated.busy_s"] = v.busy("training.run_repeated")
    m["training.epoch_eval.busy_s"] = v.busy("evaluation.accuracy_of", parents=EPOCH_LOOPS)
    grad_spans = v.names("quantum_classifier.loss_and_grad.") | {dlg}
    m["training.grad_used_ratio"] = _ratio(
        sum(v.counter(n, "grad_used", per_pass=False) for n in grad_spans),
        sum(v.counter(n, "grad_entries", per_pass=False) for n in grad_spans))

    ev = "evaluation.evaluate"
    m[f"{ev}.calls"] = v.calls(ev)
    m[f"{ev}.rows"] = v.counter(ev, "rows")
    m[f"{ev}.busy_s"] = v.busy(ev)
    m[f"{ev}.self_s"] = v.self_s(ev)
    for name in ("evaluation.binary_roc", "evaluation.accuracy_of"):
        m[f"{name}.calls"] = v.calls(name)
        m[f"{name}.busy_s"] = v.busy(name)
    m["evaluation.accuracy_vs_samples_curve.busy_s"] = v.busy(
        "evaluation.accuracy_vs_samples_curve")

    knn = "baselines.KnnModel.predict_proba"
    m[f"{knn}.rows"] = v.counter(knn, "rows")
    m[f"{knn}.busy_s"] = v.busy(knn)
    m[f"{knn}.temp_bytes_computed"] = v.counter(knn, "temp_bytes")
    gnb = "baselines.GnbModel.predict_proba"
    m[f"{gnb}.rows"] = v.counter(gnb, "rows")
    m[f"{gnb}.busy_s"] = v.busy(gnb)

    for name in ("generate_synthetic", "write_csv", "split_labeled", "stratified_subset"):
        m[f"data.{name}.busy_s"] = v.busy(f"data.{name}")
    m["data.load_csv.calls"] = v.calls("data.load_csv")
    m["data.load_csv.rows"] = v.counter("data.load_csv", "rows")
    m["data.load_csv.busy_s"] = v.busy("data.load_csv")
    for name in ("dataset_sha256", "features_matrix"):
        m[f"data.{name}.calls"] = v.calls(f"data.{name}")
        m[f"data.{name}.busy_s"] = v.busy(f"data.{name}")

    save = "serialize.save_checkpoint"
    m[f"{save}.calls"] = v.calls(save)
    m[f"{save}.busy_s"] = v.busy(save)
    m[f"{save}.bytes"] = v.counter(save, "bytes")
    m["serialize.load_checkpoint.calls"] = v.calls("serialize.load_checkpoint")
    m["serialize.load_checkpoint.busy_s"] = v.busy("serialize.load_checkpoint")
    m["serialize.write_run_metadata.busy_s"] = v.busy("serialize.write_run_metadata")

    for command in ("gen", "train", "transfer", "eval", "curve"):
        m[f"cli.{command}.busy_s"] = v.busy(f"cli.{command}")
    m["cli.self_s"] = sum(v.self_s(n) for n in v.names("cli."))

    m["trace.overhead_ratio"] = overhead_ratio
    m["trace.spans"] = sum(a.calls for a in tracer.stats.values()) / passes
    return m
