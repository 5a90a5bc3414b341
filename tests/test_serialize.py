"""Checkpoint round-trips and format validation."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from oracles import identity_normalizer
from qpose.baselines import GnbModel, KnnModel
from qpose.data import (
    Domain,
    FeatureNormalizer,
    N_CLASSES,
    ShiftSpec,
    generate_synthetic,
    split_labeled,
)
from qpose.neural import DnnConfig, DnnModel
from qpose.quantum_classifier import DressedQnnModel, StdAnsatz
from qpose.cli import build_parser
from qpose.serialize import (
    KINDS,
    CheckpointError,
    checkpoint_dict,
    load_checkpoint,
    model_from_dict,
    save_checkpoint,
    write_run_metadata,
)
from qpose.training import TrainConfig, fit_model


def fitted_models():
    ds = generate_synthetic(64, 64, ShiftSpec(seed=1))
    labeled = split_labeled(ds, Domain.SOURCE, fraction=1.0, seed=0).labeled
    norm = FeatureNormalizer.fit(labeled)
    return {
        "dnn": DnnModel.create(norm, config=DnnConfig(hidden=9, n_blocks=2), seed=2),
        "qnn": DressedQnnModel.create(norm, StdAnsatz(3, 1), seed=3),
        "knn": KnnModel.fit(labeled, norm, k=3),
        "gnb": GnbModel.fit(labeled, norm),
    }


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["dnn", "qnn", "knn", "gnb"])
    def test_bitwise_round_trip(self, kind, tmp_path):
        model = fitted_models()[kind]
        path = tmp_path / f"{kind}.json"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.kind == model.kind
        assert (back.normalizer.mean == model.normalizer.mean).all()
        assert (back.normalizer.std == model.normalizer.std).all()
        if kind in ("dnn", "qnn"):
            for name in model.params:
                assert (back.params[name] == model.params[name]).all(), name
        elif kind == "knn":
            assert (back.features == model.features).all()
            assert (back.labels == model.labels).all()
            assert back.k == model.k
        else:
            assert (back.priors == model.priors).all()
            assert (back.means == model.means).all()
            assert (back.variances == model.variances).all()

    @pytest.mark.parametrize("kind", ["dnn", "qnn", "knn", "gnb"])
    def test_reloaded_predictions_identical(self, kind, tmp_path):
        model = fitted_models()[kind]
        path = tmp_path / f"{kind}.json"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        x = np.random.default_rng(4).normal(size=(5, 36))
        assert (back.predict_proba(x) == model.predict_proba(x)).all()

    def test_double_round_trip_stable(self, tmp_path):
        model = fitted_models()["qnn"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_text() == p2.read_text()


class TestRegistry:
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_fit_save_load_predicts_bitwise(self, kind, tmp_path):
        ds = generate_synthetic(48, 16, ShiftSpec(seed=5))
        labeled = split_labeled(ds, Domain.SOURCE, fraction=1.0, seed=0).labeled
        model, losses = fit_model(kind, labeled, config=TrainConfig(epochs=1, batch_size=16),
                                  qubits=3, k=3)
        assert isinstance(model, KINDS[kind])
        assert (losses is None) == (kind in ("knn", "gnb"))
        save_checkpoint(model, tmp_path / "m.json")
        back = load_checkpoint(tmp_path / "m.json")
        x = np.random.default_rng(6).normal(size=(7, 36))
        assert np.array_equal(back.predict_proba(x), model.predict_proba(x))

    def test_unknown_kind_not_fitted(self):
        ds = generate_synthetic(16, 16, ShiftSpec(seed=5))
        with pytest.raises(ValueError, match="kind"):
            fit_model("svm", ds, config=TrainConfig())

    @pytest.mark.parametrize("command", ["train", "curve"])
    def test_model_choices_are_the_registry(self, command):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        model = next(a for a in sub.choices[command]._actions if a.dest == "model")
        assert model.choices == list(KINDS)


class TestValidation:
    def good_doc(self):
        return checkpoint_dict(fitted_models()["dnn"])

    def test_wrong_version_rejected(self):
        doc = self.good_doc()
        doc["format_version"] = 999
        with pytest.raises(CheckpointError, match="format_version"):
            model_from_dict(doc)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_format_version_must_be_the_json_integer_1(self, version, tmp_path):
        doc = self.good_doc()
        doc["format_version"] = version
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointError,
                           match=rf"^unsupported format_version {re.escape(repr(version))}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["format_version", "kind", "config", "params", "normalizer"])
    def test_missing_field_rejected(self, field):
        doc = self.good_doc()
        del doc[field]
        with pytest.raises(CheckpointError, match="missing"):
            model_from_dict(doc)

    def test_unknown_kind_rejected(self):
        doc = self.good_doc()
        doc["kind"] = "transformer"
        with pytest.raises(CheckpointError, match="kind"):
            model_from_dict(doc)

    def test_non_finite_param_rejected(self):
        doc = self.good_doc()
        doc["params"]["res1.w"] = np.full((9, 9), np.nan).tolist()
        with pytest.raises(CheckpointError, match=r"params\.res1\.w.*finite"):
            model_from_dict(doc)

    def test_missing_param_rejected(self):
        doc = self.good_doc()
        del doc["params"]["res1.b"]
        with pytest.raises(CheckpointError, match=r"params\.res1\.b.*missing"):
            model_from_dict(doc)

    def test_unexpected_param_rejected(self):
        doc = self.good_doc()
        doc["params"]["res9.w"] = [[0.0]]
        with pytest.raises(CheckpointError, match="res9.w"):
            model_from_dict(doc)

    def test_param_shape_must_match_config(self):
        doc = self.good_doc()
        doc["config"]["hidden"] = 10
        with pytest.raises(CheckpointError, match=r"params\.in\.w.*shape"):
            model_from_dict(doc)

    def test_truncated_qnn_theta_rejected(self):
        doc = checkpoint_dict(fitted_models()["qnn"])
        doc["params"]["theta"] = doc["params"]["theta"][:-1]
        with pytest.raises(CheckpointError, match=r"params\.theta.*shape"):
            model_from_dict(doc)

    def test_zero_normalizer_std_rejected(self):
        doc = self.good_doc()
        doc["normalizer"]["std"][0] = 0.0
        with pytest.raises(CheckpointError, match=r"normalizer\.std"):
            model_from_dict(doc)

    def test_normalizer_shape_rejected(self):
        doc = self.good_doc()
        doc["normalizer"]["mean"] = doc["normalizer"]["mean"][:35]
        with pytest.raises(CheckpointError, match=r"normalizer\.mean.*shape"):
            model_from_dict(doc)

    def test_knn_empty_params_rejected(self):
        doc = checkpoint_dict(fitted_models()["knn"])
        doc["params"] = {}
        with pytest.raises(CheckpointError, match=r"params\.features"):
            model_from_dict(doc)

    @pytest.mark.parametrize("label", [-1, N_CLASSES, 2.5])
    def test_knn_label_outside_classes_rejected(self, label):
        doc = checkpoint_dict(fitted_models()["knn"])
        doc["params"]["labels"][0] = label
        with pytest.raises(CheckpointError, match=r"params\.labels"):
            model_from_dict(doc)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_config_holds_exactly_the_kinds_integer_fields(self, kind):
        doc = checkpoint_dict(fitted_models()[kind])
        good = doc["config"]
        cases = [([1], " must be an object"), ("x", " must be an object"),
                 (None, " must be an object"),
                 (good | {"extra": 1}, r" has unexpected names \['extra'\]")]
        cases += [({k: v for k, v in good.items() if k != name}, rf"\.{name} is missing")
                  for name in good]
        for config, error in cases:
            doc["config"] = config
            with pytest.raises(CheckpointError, match=rf"^{kind} checkpoint field config{error}"):
                model_from_dict(doc)

    def test_bad_config_is_checkpoint_error(self):
        doc = checkpoint_dict(fitted_models()["knn"])
        doc["config"] = {}
        with pytest.raises(CheckpointError, match="knn"):
            model_from_dict(doc)

    @pytest.mark.parametrize("kind, field, value", [
        ("knn", "k", 2.5), ("knn", "k", 3.0), ("knn", "k", True),
        ("qnn", "n_qubits", 3.0), ("qnn", "n_layers", 1.0), ("qnn", "n_layers", True),
        ("dnn", "n_features", 36.0), ("dnn", "n_classes", 8.0), ("dnn", "hidden", 9.0),
        ("dnn", "n_blocks", 2.0), ("dnn", "hidden", "9"),
    ])
    def test_non_integer_config_rejected(self, kind, field, value, tmp_path):
        doc = checkpoint_dict(fitted_models()[kind])
        doc["config"][field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointError, match=rf"config\.{field} must be an integer"):
            load_checkpoint(path)

    def test_huge_n_blocks_rejected_before_building_shapes(self):
        doc = self.good_doc()
        doc["config"]["n_blocks"] = 10**9
        with pytest.raises(CheckpointError, match=r"config\.n_blocks"):
            model_from_dict(doc)

    @pytest.mark.parametrize("field, value", [("n_features", 5), ("n_classes", 3)])
    def test_dnn_dimensions_must_match_the_data(self, field, value):
        # consistent with its own params, but not with 36 features and 8 classes
        config = DnnConfig(**{field: value}, hidden=9, n_blocks=1)
        doc = checkpoint_dict(DnnModel.create(identity_normalizer(), config=config))
        with pytest.raises(CheckpointError, match=rf"config\.{field} is {value}, expected"):
            model_from_dict(doc)

    def test_gnb_negative_prior_rejected(self, tmp_path):
        doc = checkpoint_dict(fitted_models()["gnb"])
        # sums to 1, so only the sign check can catch it
        doc["params"]["priors"] = [0.65, -0.325, 0.125, 0.11, 0.11, 0.11, 0.11, 0.11]
        path = tmp_path / "gnb.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointError, match=r"params\.priors must be positive"):
            load_checkpoint(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.json")


class TestRunMetadata:
    def test_document_fields(self, tmp_path):
        path = tmp_path / "metadata.json"
        write_run_metadata(
            path,
            command="train",
            config={"epochs": 3},
            seed=11,
            dataset_hash="ab" * 32,
            deterministic=True,
            metrics={"accuracy": 0.5},
        )
        doc = json.loads(path.read_text())
        assert doc["command"] == "train"
        assert doc["seed"] == 11
        assert doc["deterministic"] is True
        assert set(doc["blas_threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
        }
        assert doc["metrics"]["accuracy"] == 0.5
        assert len(doc["dataset_sha256"]) == 64
        assert doc["numpy_version"] == np.__version__
        assert all(isinstance(feature, str) for feature in doc["numpy_simd"])
        assert "blas_core" in doc
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert doc["blas_version"] == blas["version"]

    def test_blas_core_follows_openblas_coretype(self):
        # a process per setting: OpenBLAS picks its core when it loads
        def core(**env):
            return subprocess.run(
                [sys.executable, "-c", "from qpose import serialize; print(serialize._blas_core())"],
                capture_output=True, text=True, env={**os.environ, **env}, check=True,
            ).stdout.strip()

        if core() == "None":
            pytest.skip("numpy bundles no scipy-openblas")
        assert core(OPENBLAS_CORETYPE="Haswell") == "Haswell"
