"""Checkpoint round-trips and format validation."""

import json

import numpy as np
import pytest

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
from qpose.serialize import (
    CheckpointError,
    checkpoint_dict,
    load_checkpoint,
    model_from_dict,
    save_checkpoint,
    write_run_metadata,
)


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


class TestValidation:
    def good_doc(self):
        return checkpoint_dict(fitted_models()["dnn"])

    def test_wrong_version_rejected(self):
        doc = self.good_doc()
        doc["format_version"] = 999
        with pytest.raises(CheckpointError, match="format_version"):
            model_from_dict(doc)

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
