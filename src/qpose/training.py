"""Pretraining on source labels and few-shot transfer fine-tuning.

`fit_model` is the one place that builds a model by kind: it fits the
normalizer, creates the model and pretrains it when the kind trains. Both
pretraining and fine-tuning run one mini-batch loop, configured by a
`TrainConfig` (`TransferConfig` adds the choice of the few-shot subset), and
reach the model only through `loss_and_grad` and `predict_proba`. A
non-finite loss, gradient, optimizer moment, parameter or per-epoch
evaluation score stops the loop with `NonFiniteLossError`.

The transfer protocol: a model pretrained on the source domain is fine-tuned
on a small labeled target subset while the parameters its kind lists in
`transfer_frozen` stay fixed. For the quantum model only the circuit angles
theta train (input and output linear layers and the normalizer are fixed);
for the DNN the residual blocks train while the first and last layers are
fixed. Frozen parameters are bitwise invariant, not merely small-gradient.
Optimizer moments are reset when fine-tuning starts: the pretraining moments
describe curvature of layers that no longer move.

`run_repeated` reruns the fine-tuning several times to report mean and
standard deviation; repeats differ only in the seeds spawned from the
config's seed, either resampling the transfer subset each time (default) or
keeping the subset and reshuffling batches.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .baselines import GnbModel, KnnModel
from .data import Dataset, Domain, FeatureNormalizer, features_matrix, split_labeled
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


@dataclass(frozen=True)
class TransferConfig(TrainConfig):
    """Few-shot fine-tuning settings. Exactly one of n_transfer /
    transfer_fraction picks the labeled target subset size; the model kind
    decides which parameters stay frozen."""

    epochs: int = 50
    n_transfer: int | None = None
    transfer_fraction: float | None = None
    resample: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.n_transfer is None) == (self.transfer_fraction is None):
            raise ValueError("give exactly one of n_transfer or transfer_fraction")
        if self.n_transfer is not None and self.n_transfer < 1:
            raise ValueError("n_transfer must be >= 1")
        if self.transfer_fraction is not None and not 0.0 < self.transfer_fraction <= 1.0:
            raise ValueError("transfer_fraction must be in (0, 1]")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    mean_batch_loss: float
    eval_accuracy: float


@dataclass
class TrainTrace:
    records: list[EpochRecord] = field(default_factory=list)
    total_steps: int = 0

    @property
    def losses(self) -> list[float]:
        return [r.mean_batch_loss for r in self.records]


class NonFiniteLossError(ArithmeticError):
    """A batch loss, a gradient, an optimizer moment, a parameter or an
    epoch's evaluation scores came out NaN or infinite; training stops
    there."""


def _first_nonfinite(arrays: dict, skip) -> str | None:
    return next((name for name, a in arrays.items()
                 if name not in skip and not np.isfinite(a).all()), None)


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


def _sgd_epochs(model, data: Dataset, config: TrainConfig, frozen, eval_data) -> TrainTrace:
    """Shared mini-batch loop. The last incomplete batch is kept; per-epoch
    loss is the mean over batch losses. A step that yields a non-finite
    loss, gradient, moment or parameter, or an epoch whose evaluation scores
    come out non-finite, raises `NonFiniteLossError` naming it, before the
    model is used again."""
    x = features_matrix(data)
    y = data.labels
    n = len(data)
    needed = None if not frozen else set(model.params) - frozen
    optimizer = AdamW(lr=config.lr, weight_decay=config.weight_decay, frozen=frozen)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    diverged = f" (lr {config.lr:g}); training diverged"
    trace = TrainTrace()
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, bad = _step(model, optimizer, x[idx], y[idx], needed)
            if bad is not None:
                raise NonFiniteLossError(f"{bad} at epoch {epoch}, step {trace.total_steps}"
                                         + diverged)
            trace.total_steps += 1
            batch_losses.append(loss)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                accuracy = accuracy_of(model, eval_data or data)
            except ValueError as exc:
                raise NonFiniteLossError(f"evaluation {exc} at epoch {epoch}" + diverged) from exc
        trace.records.append(EpochRecord(epoch=epoch,
                                         mean_batch_loss=float(np.mean(batch_losses)),
                                         eval_accuracy=accuracy))
    return trace


def pretrain(model, labeled: Dataset, config: TrainConfig, eval_samples=None) -> TrainTrace:
    """Train ``model`` in place on the labeled source subset.

    Per-epoch accuracy in the trace is measured on ``eval_samples`` when
    given, else on the training subset itself.
    """
    if not labeled:
        raise ValueError("cannot pretrain on an empty labeled subset")
    return _sgd_epochs(model, labeled, config, frozenset(), eval_samples)


def fit_model(kind: str, samples: Dataset, *, config: TrainConfig, qubits: int = 10,
              layers: int = 1, k: int = 5, eval_samples=None):
    """Build a ``kind`` model on ``samples`` with a normalizer fitted on
    them. kNN and GNB are fitted directly; the DNN and the QNN are
    initialized from ``config.seed`` and pretrained.

    Returns ``(model, trace)``, with trace None for kNN and GNB.
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


def transfer_finetune(model, fewshot, config: TransferConfig) -> TrainTrace:
    """Fine-tune ``model`` in place on few-shot target labels with the model
    kind's parameters in ``transfer_frozen`` held fixed and a freshly
    initialized optimizer. Per-epoch accuracy in the trace is measured on
    the few-shot rows."""
    if not fewshot:
        raise ValueError("cannot fine-tune on an empty subset")
    return _sgd_epochs(model, fewshot, config, model.transfer_frozen, None)


@dataclass(frozen=True)
class TransferRun:
    seed: int
    n_fewshot: int
    pre_accuracy: float
    post_accuracy: float
    macro_auc: float
    micro_auc: float


@dataclass(frozen=True)
class RepeatedTransferResult:
    runs: tuple[TransferRun, ...]

    def to_dict(self) -> dict:
        doc: dict = {"n_repeats": len(self.runs)}
        for key in ("pre_accuracy", "post_accuracy", "macro_auc", "micro_auc"):
            values = np.array([getattr(r, key) for r in self.runs])
            doc[f"{key}_mean"] = float(np.mean(values))
            doc[f"{key}_std"] = float(np.std(values))
        doc["runs"] = [asdict(r) for r in self.runs]
        return doc


def run_repeated(
    pretrained,
    dataset: Dataset,
    config: TransferConfig,
    n_repeats: int = 5,
) -> tuple[RepeatedTransferResult, list]:
    """Repeated transfer fine-tuning from one pretrained model.

    Each repeat copies the pretrained model, draws the few-shot target
    subset, fine-tunes, and evaluates on the remaining target samples.
    resample=True gives every repeat its own subset; resample=False keeps
    the subset of repeat 0 and varies only batch shuffling. Repeat seeds
    are spawned from ``config.seed``.

    Returns the aggregate result and the fine-tuned models.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    root = np.random.SeedSequence(config.seed)
    seeds = [int(s.generate_state(1)[0]) for s in root.spawn(n_repeats)]

    runs = []
    models = []
    for run_seed in seeds:
        split_seed = run_seed if config.resample else seeds[0]
        split = split_labeled(
            dataset,
            Domain.TARGET,
            fraction=config.transfer_fraction,
            count=config.n_transfer,
            seed=split_seed,
        )
        model = pretrained.copy()
        pre_acc = accuracy_of(model, split.evaluation)
        transfer_finetune(model, split.labeled, replace(config, seed=run_seed))
        report = evaluate(model, split.evaluation)
        runs.append(
            TransferRun(
                seed=run_seed,
                n_fewshot=len(split.labeled),
                pre_accuracy=pre_acc,
                post_accuracy=report.accuracy,
                macro_auc=report.macro_auc,
                micro_auc=report.micro_auc,
            )
        )
        models.append(model)
    return RepeatedTransferResult(runs=tuple(runs)), models
