"""Pretraining on source labels and few-shot transfer fine-tuning.

`fit_model` is the one place that builds a model by kind: it fits the
normalizer, creates the model and pretrains it when the kind trains. Both
pretraining and fine-tuning run one mini-batch loop, configured by a
`TrainConfig`, reach the model only through `loss_and_grad` and
`predict_proba`, and return the per-epoch mean batch losses. A non-finite
loss, gradient, optimizer moment, parameter or per-epoch evaluation score
stops the loop with `NonFiniteLossError`.

The transfer protocol: a model pretrained on the source domain is fine-tuned
on a small labeled target subset while the parameters its kind lists in
`transfer_frozen` stay fixed. For the quantum model only the circuit angles
theta train (input and output linear layers and the normalizer are fixed);
for the DNN the residual blocks train while the first and last layers are
fixed. Frozen parameters are bitwise invariant, not merely small-gradient.
Optimizer moments are reset when fine-tuning starts: the pretraining moments
describe curvature of layers that no longer move.

`run_repeated` reruns the fine-tuning several times and returns the mean and
standard deviation over the repeats as one JSON-ready dict; repeats differ
only in the seeds spawned from the config's seed, either resampling the
transfer subset each time (default) or keeping the subset and reshuffling
batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import GnbModel, KnnModel
from .data import (Dataset, Domain, FeatureNormalizer, features_matrix, fraction_count,
                   split_labeled)
from .evaluation import accuracy_of, evaluate
from .neural import AdamW, DnnModel
from .quantum_classifier import DressedQnnModel, StdAnsatz


@dataclass(frozen=True)
class TrainConfig:
    """Settings of the mini-batch loop, shared by pretraining and transfer."""

    batch_size: int = 100
    epochs: int = 100
    lr: float = 0.02
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


class NonFiniteLossError(ArithmeticError):
    """A batch loss, a gradient, an optimizer moment, a parameter or an
    epoch's evaluation scores came out NaN or infinite; training stops
    there."""


def _first_nonfinite(arrays: dict, skip) -> str | None:
    # a NaN or inf anywhere makes the sum non-finite; only a sum that
    # overflows on finite entries needs the exact elementwise test
    return next((name for name, a in arrays.items()
                 if name not in skip and not math.isfinite(a.sum())
                 and not np.isfinite(a).all()), None)


def _step(model, optimizer: AdamW, x, y, needed) -> tuple[float, str | None]:
    """One optimizer step with numpy's overflow and invalid-value warnings
    off. Returns the batch loss and what came out non-finite, if anything:
    the loss or a gradient (the optimizer then does not step), or a moment
    or a parameter after the step."""
    frozen = optimizer.frozen
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = model.loss_and_grad(x, y, needed=needed)
        if not np.isfinite(loss):
            return loss, f"batch loss is {loss}"
        if name := _first_nonfinite(grads, frozen):
            return loss, f"gradient of {name} is non-finite"
        optimizer.step(model.params, grads)
        for what, arrays in (("AdamW first moment", optimizer.m),
                             ("AdamW second moment", optimizer.v),
                             ("parameter", model.params)):
            if name := _first_nonfinite(arrays, frozen):
                return loss, f"{what} of {name} is non-finite"
    return loss, None


def _sgd_epochs(model, data: Dataset, config: TrainConfig, frozen, eval_data) -> list[float]:
    """Shared mini-batch loop; returns the per-epoch mean batch losses. The
    last incomplete batch is kept. A step that yields a non-finite loss,
    gradient, moment or parameter, or an epoch whose evaluation scores come
    out non-finite, raises `NonFiniteLossError` naming it, before the model
    is used again."""
    x = features_matrix(data)
    y = data.labels
    n = len(data)
    needed = None if not frozen else set(model.params) - frozen
    optimizer = AdamW(lr=config.lr, weight_decay=config.weight_decay, frozen=frozen)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    diverged = f" (lr {config.lr:g}); training diverged"
    losses = []
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, bad = _step(model, optimizer, x[idx], y[idx], needed)
            if bad is not None:
                raise NonFiniteLossError(f"{bad} at epoch {epoch}, step {step}" + diverged)
            step += 1
            batch_losses.append(loss)
        # scoring the epoch is the divergence check for a finite runaway
        # model whose scores overflow; the accuracy itself is not kept
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                accuracy_of(model, eval_data or data)
            except ValueError as exc:
                raise NonFiniteLossError(f"evaluation {exc} at epoch {epoch}" + diverged) from exc
        losses.append(float(np.mean(batch_losses)))
    return losses


def pretrain(model, labeled: Dataset, config: TrainConfig, eval_samples=None) -> list[float]:
    """Train ``model`` in place on the labeled source subset; returns the
    per-epoch mean batch losses.

    Each epoch ends by scoring ``eval_samples`` when given, else the
    training subset itself, as the divergence check.
    """
    if not labeled:
        raise ValueError("cannot pretrain on an empty labeled subset")
    return _sgd_epochs(model, labeled, config, frozenset(), eval_samples)


def fit_model(kind: str, samples: Dataset, *, config: TrainConfig, qubits: int = 10,
              layers: int = 1, k: int = 5, eval_samples=None):
    """Build a ``kind`` model on ``samples`` with a normalizer fitted on
    them. kNN and GNB are fitted directly; the DNN and the QNN are
    initialized from ``config.seed`` and pretrained.

    Returns ``(model, losses)``, the per-epoch losses of `pretrain`, with
    losses None for kNN and GNB.
    """
    normalizer = FeatureNormalizer.fit(samples)
    if kind == "knn":
        return KnnModel.fit(samples, normalizer, k=k), None
    if kind == "gnb":
        return GnbModel.fit(samples, normalizer), None
    if kind == "dnn":
        model = DnnModel.create(normalizer, seed=config.seed)
    elif kind == "qnn":
        ansatz = StdAnsatz(n_qubits=qubits, n_layers=layers)
        model = DressedQnnModel.create(normalizer, ansatz=ansatz, seed=config.seed)
    else:
        raise ValueError(f"unknown model kind `{kind}`")
    return model, pretrain(model, samples, config, eval_samples=eval_samples)


def transfer_finetune(model, fewshot: Dataset, config: TrainConfig) -> list[float]:
    """Fine-tune ``model`` in place on few-shot target labels with the model
    kind's parameters in ``transfer_frozen`` held fixed and a freshly
    initialized optimizer; returns the per-epoch mean batch losses. Each
    epoch ends by scoring the few-shot rows as the divergence check."""
    if not fewshot:
        raise ValueError("cannot fine-tune on an empty subset")
    return _sgd_epochs(model, fewshot, config, model.transfer_frozen, None)


def run_repeated(pretrained, dataset: Dataset, config: TrainConfig, *, count=None,
                 fraction=None, resample=True, n_repeats=5) -> tuple[dict, list]:
    """Repeated transfer fine-tuning from one pretrained model.

    Each repeat copies the pretrained model, draws a few-shot target subset
    of ``count`` rows or ``fraction`` of the target domain (exactly one of
    them), fine-tunes, and evaluates on the remaining target samples.
    resample=True gives every repeat its own subset; resample=False keeps
    the subset of repeat 0 and varies only batch shuffling. Repeat seeds
    are spawned from ``config.seed``.

    Returns ``(doc, models)``: ``doc`` holds ``n_repeats``, the mean and
    standard deviation of each measure over the repeats, and ``runs``, one
    dict a repeat; ``models`` are the fine-tuned models.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    # an empty subset would fail only after the first model is scored
    size = count if fraction is None else fraction_count(
        fraction, int((dataset.domain == Domain.TARGET.value).sum()))
    if size is not None and size < 1:
        raise ValueError(f"the transfer subset must be nonempty, got {size} rows from count"
                         f" {count}, fraction {fraction}")
    root = np.random.SeedSequence(config.seed)
    seeds = [int(s.generate_state(1)[0]) for s in root.spawn(n_repeats)]

    runs, models = [], []
    for seed in seeds:
        split = split_labeled(dataset, Domain.TARGET, fraction=fraction, count=count,
                              seed=seed if resample else seeds[0])
        model = pretrained.copy()
        pre_accuracy = accuracy_of(model, split.evaluation)
        transfer_finetune(model, split.labeled, replace(config, seed=seed))
        report = evaluate(model, split.evaluation)
        runs.append({"seed": seed, "n_fewshot": len(split.labeled),
                     "pre_accuracy": pre_accuracy, "post_accuracy": report.accuracy,
                     "macro_auc": report.macro_auc, "micro_auc": report.micro_auc})
        models.append(model)
    doc: dict = {"n_repeats": n_repeats}
    for key in ("pre_accuracy", "post_accuracy", "macro_auc", "micro_auc"):
        values = np.array([run[key] for run in runs])
        doc[f"{key}_mean"] = float(np.mean(values))
        doc[f"{key}_std"] = float(np.std(values))
    doc["runs"] = runs
    return doc, models
