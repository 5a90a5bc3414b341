"""Pretraining loop, freeze contracts, repeated transfer runs."""

import warnings

import numpy as np
import pytest

from oracles import identity_normalizer
from rows import rows
from qpose.data import (
    Dataset,
    Domain,
    FeatureNormalizer,
    N_CLASSES,
    N_FEATURES,
    ShiftSpec,
    generate_synthetic,
    split_labeled,
)
from qpose.neural import DnnConfig, DnnModel
from qpose.quantum_classifier import DressedQnnModel, StdAnsatz
from qpose.training import (
    NonFiniteLossError,
    TrainConfig,
    TransferConfig,
    pretrain,
    run_repeated,
    transfer_finetune,
)


def small_dnn(seed=0):
    cfg = DnnConfig(hidden=12, n_blocks=1)
    return DnnModel.create(identity_normalizer(), config=cfg, seed=seed)


def zero_rows(n=1):
    return rows(np.zeros((n, N_FEATURES)), np.zeros(n, dtype=int))


class FixedGradient:
    """Model with one parameter vector whose loss and gradient are the
    same at every step."""

    def __init__(self, grad, init=0.0, loss=1.0):
        self.params = {"w": np.full(3, init)}
        self.grad = np.asarray(grad, dtype=np.float64)
        self.loss = loss

    def loss_and_grad(self, x, labels, needed=None):
        return self.loss, {"w": self.grad.copy()}

    def predict_proba(self, x):
        return np.full((len(x), N_CLASSES), 1.0 / N_CLASSES)


def params_snapshot(model):
    return {k: v.copy() for k, v in model.params.items()}


def assert_bitwise_equal(a, b, names=None):
    for k in names or a:
        assert (a[k] == b[k]).all(), k


class TestPretrain:
    def test_one_sample_one_epoch_takes_one_step(self):
        model = small_dnn()
        trace = pretrain(model, zero_rows(), TrainConfig(epochs=1, seed=0))
        assert trace.total_steps == 1
        assert len(trace.records) == 1

    def test_step_count_with_partial_batches(self):
        samples = zero_rows(250)
        model = small_dnn()
        trace = pretrain(model, samples, TrainConfig(batch_size=100, epochs=2, seed=0))
        # 250 samples -> 3 batches per epoch, last one partial but kept
        assert trace.total_steps == 6

    def test_seeded_rerun_bitwise_identical(self):
        ds = generate_synthetic(60, 60, ShiftSpec(seed=3))
        labeled = split_labeled(ds, Domain.SOURCE, fraction=0.5, seed=1).labeled
        ms = []
        for _ in range(2):
            m = small_dnn(seed=5)
            pretrain(m, labeled, TrainConfig(epochs=3, seed=9))
            ms.append(params_snapshot(m))
        assert_bitwise_equal(*ms)

    def test_lr_zero_is_bitwise_noop(self):
        model = small_dnn(seed=2)
        before = params_snapshot(model)
        pretrain(model, zero_rows(30), TrainConfig(epochs=3, lr=0.0, seed=0))
        assert_bitwise_equal(before, model.params)

    def test_zero_epochs_is_noop(self):
        model = small_dnn(seed=3)
        before = params_snapshot(model)
        trace = pretrain(model, zero_rows(10), TrainConfig(epochs=0, seed=0))
        assert trace.total_steps == 0
        assert_bitwise_equal(before, model.params)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            pretrain(small_dnn(), zero_rows(0), TrainConfig(seed=0))

    def test_trace_ranges(self):
        ds = generate_synthetic(80, 80, ShiftSpec(seed=4))
        labeled = split_labeled(ds, Domain.SOURCE, fraction=0.5, seed=0).labeled
        model = small_dnn(seed=1)
        trace = pretrain(model, labeled, TrainConfig(epochs=4, seed=0))
        for r in trace.records:
            assert r.mean_batch_loss >= 0 and 0 <= r.eval_accuracy <= 1
        assert len(trace.losses) == 4

    def test_epoch_visits_every_sample_once(self, monkeypatch):
        # multiset of visited samples per epoch == the labeled subset
        ds = generate_synthetic(40, 40, ShiftSpec(seed=6))
        labeled = split_labeled(ds, Domain.SOURCE, fraction=1.0, seed=0).labeled
        seen = []
        model = small_dnn(seed=0)
        orig = type(model).loss_and_grad

        def spy(self, x, labels, needed=None):
            seen.append(x.copy())
            return orig(self, x, labels, needed=needed)

        monkeypatch.setattr(type(model), "loss_and_grad", spy)
        pretrain(model, labeled, TrainConfig(batch_size=7, epochs=1, seed=3))
        visited = np.concatenate(seen)
        want = labeled.samples
        order = np.lexsort(visited.T)
        order_w = np.lexsort(want.T)
        assert (visited[order] == want[order_w]).all()

    @pytest.mark.parametrize("grad, init, loss, lr, named", [
        ([0.0, 0.0, 0.0], 0.0, np.nan, 0.02, "batch loss is nan"),
        ([0.0, np.inf, 0.0], 0.0, 1.0, 0.02, "gradient of w is non-finite"),
        ([0.0, 1e200, 0.0], 0.0, 1.0, 0.02, "AdamW second moment of w is non-finite"),
        ([1.0, 1.0, 1.0], 1e300, 1.0, 1e10, "parameter of w is non-finite"),
    ])
    def test_nonfinite_step_named_without_warnings(self, grad, init, loss, lr, named):
        model = FixedGradient(grad, init, loss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteLossError, match=f"^{named} at epoch 0, step 0 "):
                pretrain(model, zero_rows(), TrainConfig(epochs=3, lr=lr, weight_decay=1.0))

    def test_nonfinite_epoch_evaluation_named_without_warnings(self):
        # lr 1e300 leaves huge but finite weights after the first step; the
        # epoch's evaluation overflows before the next step could notice
        ds = generate_synthetic(80, 80, ShiftSpec(seed=3))
        labeled = split_labeled(ds, Domain.SOURCE, fraction=0.5, seed=1).labeled
        model = small_dnn(seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteLossError,
                               match=r"^evaluation scores must be finite at epoch 0 \(lr 1e\+300\)"):
                pretrain(model, labeled, TrainConfig(epochs=5, lr=1e300))

    def test_in_domain_accuracy_reaches_95(self):
        # committed regression fixture: separable synthetic source data
        ds = generate_synthetic(400, 100, ShiftSpec(seed=7))
        split = split_labeled(ds, Domain.SOURCE, fraction=0.5, seed=7)
        norm = FeatureNormalizer.fit(split.labeled)
        model = DnnModel.create(norm, seed=7)
        pretrain(model, split.labeled, TrainConfig(epochs=60, seed=7),
                 eval_samples=split.evaluation)
        from qpose.evaluation import accuracy_of
        assert accuracy_of(model, split.evaluation) >= 0.95


class TestTransfer:
    def fewshot_setup(self, model_seed=0):
        ds = generate_synthetic(200, 200, ShiftSpec(seed=5))
        src = split_labeled(ds, Domain.SOURCE, fraction=0.5, seed=0)
        norm = FeatureNormalizer.fit(src.labeled)
        model = DressedQnnModel.create(norm, StdAnsatz(4, 1), seed=model_seed)
        pretrain(model, src.labeled, TrainConfig(epochs=2, seed=0))
        few = split_labeled(ds, Domain.TARGET, count=20, seed=1).labeled
        return model, few

    def test_qnn_frozen_layers_bitwise_unchanged(self):
        model, few = self.fewshot_setup()
        before = params_snapshot(model)
        transfer_finetune(model, few, TransferConfig(n_transfer=20, epochs=3, seed=2))
        assert_bitwise_equal(before, model.params,
                             names=["in.w", "in.b", "out.w", "out.b"])
        assert not (before["theta"] == model.params["theta"]).all()

    def test_dnn_frozen_layers_bitwise_unchanged(self):
        ds = generate_synthetic(100, 100, ShiftSpec(seed=8))
        src = split_labeled(ds, Domain.SOURCE, fraction=0.5, seed=0)
        model = DnnModel.create(FeatureNormalizer.fit(src.labeled), seed=3)
        pretrain(model, src.labeled, TrainConfig(epochs=2, seed=0))
        few = split_labeled(ds, Domain.TARGET, count=30, seed=4).labeled
        before = params_snapshot(model)
        transfer_finetune(model, few, TransferConfig(n_transfer=30, epochs=2, seed=0))
        assert_bitwise_equal(before, model.params,
                             names=["in.w", "in.b", "out.w", "out.b"])
        assert not (before["res0.w"] == model.params["res0.w"]).all()

    def test_zero_epochs_leaves_model_unchanged(self):
        model, few = self.fewshot_setup()
        before = params_snapshot(model)
        transfer_finetune(model, few, TransferConfig(n_transfer=20, epochs=0, seed=0))
        assert_bitwise_equal(before, model.params)

    def test_custom_freeze_policy_applies(self):
        # the policy is the model's own `transfer_frozen`, whatever it holds
        model, few = self.fewshot_setup()
        model.transfer_frozen = frozenset({"theta"})
        before = params_snapshot(model)
        transfer_finetune(model, few, TransferConfig(n_transfer=20, epochs=2, seed=0))
        assert (before["theta"] == model.params["theta"]).all()
        assert not (before["out.w"] == model.params["out.w"]).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransferConfig(n_transfer=10, transfer_fraction=0.1, seed=0)
        with pytest.raises(ValueError):
            TransferConfig(n_transfer=0, seed=0)

    @pytest.mark.parametrize("field", ["lr", "weight_decay"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_optimizer_fields_must_be_finite_and_nonnegative(self, field, value):
        for make in (lambda **kw: TrainConfig(**kw),
                     lambda **kw: TransferConfig(n_transfer=10, **kw)):
            with pytest.raises(ValueError, match=f"^{field} must be finite and nonnegative"):
                make(**{field: value})


class TestRunRepeated:
    def make_pretrained(self):
        ds = generate_synthetic(150, 150, ShiftSpec(seed=9))
        src = split_labeled(ds, Domain.SOURCE, fraction=0.5, seed=0)
        norm = FeatureNormalizer.fit(src.labeled)
        model = DnnModel.create(norm, config=DnnConfig(hidden=16, n_blocks=1), seed=0)
        pretrain(model, src.labeled, TrainConfig(epochs=5, seed=0))
        return model, ds

    def test_single_repeat_zero_std(self):
        model, ds = self.make_pretrained()
        result, _ = run_repeated(model, ds, TransferConfig(n_transfer=24, epochs=2, seed=0),
                                 n_repeats=1)
        assert result.to_dict()["post_accuracy_std"] == 0.0
        assert len(result.runs) == 1

    def test_pretrained_model_not_mutated(self):
        model, ds = self.make_pretrained()
        before = params_snapshot(model)
        run_repeated(model, ds, TransferConfig(n_transfer=24, epochs=2, seed=0), n_repeats=2)
        assert_bitwise_equal(before, model.params)

    def test_resample_vs_reshuffle_modes(self):
        model, ds = self.make_pretrained()
        res_a, _ = run_repeated(model, ds,
                                TransferConfig(n_transfer=24, epochs=1, seed=0, resample=True),
                                n_repeats=2)
        res_b, _ = run_repeated(model, ds,
                                TransferConfig(n_transfer=24, epochs=1, seed=0, resample=False),
                                n_repeats=2)
        # reshuffle mode shares the repeat-0 subset, so pre-transfer accuracy
        # is constant across repeats; resample mode generally varies
        pre_b = [r.pre_accuracy for r in res_b.runs]
        assert pre_b[0] == pre_b[1]
        assert len({r.n_fewshot for r in res_a.runs}) == 1

    def test_repeats_validated(self):
        model, ds = self.make_pretrained()
        with pytest.raises(ValueError):
            run_repeated(model, ds, TransferConfig(n_transfer=24, epochs=1, seed=0),
                         n_repeats=0)

    def test_to_dict_round_numbers(self):
        model, ds = self.make_pretrained()
        result, _ = run_repeated(model, ds, TransferConfig(n_transfer=24, epochs=1, seed=0),
                                 n_repeats=2)
        doc = result.to_dict()
        stats = [f"{key}_{stat}" for key in ("pre_accuracy", "post_accuracy", "macro_auc",
                                             "micro_auc") for stat in ("mean", "std")]
        assert list(doc) == ["n_repeats", *stats, "runs"]
        for key in ("pre_accuracy", "post_accuracy", "macro_auc", "micro_auc"):
            values = np.array([run[key] for run in doc["runs"]])
            assert doc[f"{key}_mean"] == float(np.mean(values))
            assert doc[f"{key}_std"] == float(np.std(values))
        assert len(doc["runs"]) == 2
        assert list(doc["runs"][0]) == ["seed", "n_fewshot", "pre_accuracy", "post_accuracy",
                                        "macro_auc", "micro_auc"]
