"""End-to-end CLI behavior: determinism, error documents, output files."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import identity_normalizer
from qpose import cli
from qpose.baselines import GnbModel, KnnModel
from qpose.data import FeatureNormalizer
from qpose.neural import DnnConfig, DnnModel
from qpose.quantum_classifier import DressedQnnModel, StdAnsatz
from qpose.serialize import checkpoint_dict


def run_cli(argv, out_dir):
    """In-process invocation with a pinned output directory."""
    return cli.main([*argv, "--out-dir", str(out_dir)])


def run_proc(argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "qpose", *argv],
        capture_output=True, text=True, timeout=300, env=env,
    )


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "ds.csv"
    code = run_cli(
        ["gen", "--seed", "3", "--n-source", "160", "--n-target", "160",
         "--out", str(path)],
        tmp_path / "gen",
    )
    assert code == 0
    return path


class TestGen:
    def test_byte_identical_reruns(self, tmp_path):
        paths = []
        for i in range(2):
            p = tmp_path / f"ds{i}.csv"
            code = run_cli(
                ["gen", "--seed", "7", "--n-source", "120", "--n-target", "80",
                 "--out", str(p)],
                tmp_path / f"run{i}",
            )
            assert code == 0
            paths.append(p)
        assert sha(paths[0]) == sha(paths[1])

    def test_counts_table_printed(self, tmp_path, capsys):
        run_cli(["gen", "--seed", "0", "--n-source", "800", "--n-target", "1040",
                 "--out", str(tmp_path / "d.csv")], tmp_path)
        out = capsys.readouterr().out
        assert "pose  source  target" in out
        assert "sum      800    1040" in out
        class2 = next(line for line in out.splitlines() if line.startswith("   2"))
        assert class2.endswith("173")  # largest target class from the committed ratios

    def test_null_shift_keeps_domains_close(self, tmp_path):
        data = tmp_path / "null.csv"
        run_cli(["gen", "--seed", "5", "--shift", "0", "--n-source", "400",
                 "--n-target", "400", "--out", str(data)], tmp_path / "g")
        train_dir = tmp_path / "train"
        code = run_cli(
            ["train", "--seed", "5", "--data", str(data), "--model", "knn"],
            train_dir,
        )
        assert code == 0
        summary = json.loads((train_dir / "summary.json").read_text())
        gap = summary["in_domain"]["accuracy"] - summary["cross_domain"]["accuracy"]
        assert abs(gap) <= 0.02

    def test_metadata_written(self, tmp_path):
        out = tmp_path / "m"
        run_cli(["gen", "--seed", "1", "--n-source", "24", "--n-target", "24",
                 "--out", str(tmp_path / "d.csv")], out)
        doc = json.loads((out / "gen_metadata.json").read_text())
        assert doc["seed"] == 1
        assert len(doc["dataset_sha256"]) == 64

    @pytest.mark.parametrize("flag, value, message", [
        ("--noise-source", "nan", "noise_sigma_source must be finite and nonnegative, got nan"),
        ("--offset-scale", "inf", "mean_offset_scale must be finite and nonnegative, got inf"),
        ("--shift", "inf", "shift_scale must be finite and nonnegative, got inf"),
        ("--shift", "nan", "shift_scale must be finite and nonnegative, got nan"),
        # finite flags whose draw overflows float64 fail the dataset's check
        ("--gain-spread", "1e308", "features must be finite"),
    ])
    def test_bad_shift_flag_prints_only_the_error_document(self, tmp_path, flag, value,
                                                           message):
        out = tmp_path / "gen"
        proc = run_proc(["gen", "--seed", "1", "--n-source", "40", "--n-target", "40",
                         flag, value, "--out-dir", str(out)])
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        doc = json.loads(lines[0])
        assert doc == {"error": "ValueError", "message": message}
        assert not any(out.iterdir())


def test_each_stage_records_the_sha256_of_the_file_it_read(dataset, tmp_path):
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(dataset.read_bytes().replace(b"\n", b"\r\n"))
    summaries = []
    for data in (dataset, crlf):
        out = tmp_path / data.stem
        assert run_cli(["train", "--seed", "0", "--data", str(data), "--model", "knn"],
                       out / "train") == 0
        assert run_cli(["eval", "--seed", "0", "--data", str(data),
                        "--checkpoint", str(out / "train" / "checkpoint.json")], out / "eval") == 0
        for stage in ("train", "eval"):
            meta = json.loads((out / stage / "metadata.json").read_text())
            assert meta["dataset_sha256"] == sha(data), (data.name, stage)
        summaries.append((out / "train" / "summary.json").read_bytes())
    gen = json.loads((tmp_path / "gen" / "gen_metadata.json").read_text())
    assert gen["dataset_sha256"] == sha(dataset) != sha(crlf)
    assert summaries[0] == summaries[1]


class TestTrain:
    def test_qnn_summary_reports_18_quantum_params(self, dataset, tmp_path):
        out = tmp_path / "qnn"
        code = run_cli(
            ["train", "--seed", "2", "--data", str(dataset), "--model", "qnn",
             "--qubits", "10", "--layers", "1", "--epochs", "1"],
            out,
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["quantum_params"] == 18
        assert summary["classical_params"] == 458
        assert (out / "checkpoint.json").exists()

    def test_input_csv_not_mutated(self, dataset, tmp_path):
        before = sha(dataset)
        run_cli(["train", "--seed", "0", "--data", str(dataset), "--model", "gnb"],
                tmp_path / "t")
        assert sha(dataset) == before

    def test_labeled_count_flag(self, dataset, tmp_path):
        out = tmp_path / "c"
        code = run_cli(
            ["train", "--seed", "0", "--data", str(dataset), "--model", "knn",
             "--labeled-count", "64"],
            out,
        )
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["labeled_count"] == 64


    def test_diverging_training_stops_with_error_document(self, dataset, tmp_path, capsys):
        out = tmp_path / "div"
        code = run_cli(["train", "--seed", "1", "--data", str(dataset), "--model", "dnn",
                        "--lr", "1e30", "--epochs", "20"], out)
        assert code == 1
        doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert doc["error"] == "NonFiniteLossError"
        assert "epoch" in doc["message"] and "step" in doc["message"]
        assert "1e+30" in doc["message"]
        assert not (out / "checkpoint.json").exists()

    def test_diverging_training_prints_only_the_error_document(self, dataset, tmp_path):
        proc = run_proc(["train", "--seed", "1", "--data", str(dataset), "--model", "dnn",
                         "--lr", "1e30", "--epochs", "20", "--out-dir", str(tmp_path / "div")])
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        doc = json.loads(lines[0])
        assert doc["error"] == "NonFiniteLossError"
        assert "AdamW second moment" in doc["message"]

    def test_divergence_in_epoch_evaluation_prints_only_the_error_document(self, dataset,
                                                                           tmp_path):
        # the first step leaves huge but finite weights; the epoch's
        # evaluation scores overflow and stop the run there
        out = tmp_path / "div"
        proc = run_proc(["train", "--seed", "1", "--data", str(dataset), "--model", "dnn",
                         "--lr", "1e300", "--epochs", "20", "--out-dir", str(out)])
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        doc = json.loads(lines[0])
        assert doc["error"] == "NonFiniteLossError"
        assert "epoch 0" in doc["message"] and "1e+300" in doc["message"]
        assert not (out / "checkpoint.json").exists()

    @pytest.mark.parametrize("model, fraction, clauses", [
        ("gnb", "0.5", ["in-domain accuracy"]),
        ("knn", "0.5", ["in-domain accuracy"]),
        ("knn", "1.0", []),
        ("dnn", "1.0", ["params"]),
    ])
    def test_stdout_names_only_what_the_run_has(self, dataset, tmp_path, capsys, model,
                                                fraction, clauses):
        # knn and gnb have no parameter count, and fraction 1.0 leaves no held-out split
        out = tmp_path / model
        assert run_cli(["train", "--seed", "0", "--data", str(dataset), "--model", model,
                        "--labeled-fraction", fraction, "--epochs", "1"], out) == 0
        summary = json.loads((out / "summary.json").read_text())
        values = {"params": summary.get("total_params"),
                  "in-domain accuracy": summary.get("in_domain", {}).get("accuracy")}
        expected = f"trained {model}"
        if clauses:
            expected += ": " + " ".join(f"{c}={values[c]}" for c in clauses)
        assert capsys.readouterr().out == expected + "\n"


def _assert_flag_rejected(code, capsys, flag, out):
    field = flag[2:].replace("-", "_")
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    doc = json.loads(lines[0])
    assert doc["error"] == "ValueError" and doc["message"].startswith(f"{field} must be finite")
    assert not any(out.glob("*checkpoint.json"))


NON_FINITE_FLAGS = [("--lr", "nan"), ("--lr", "inf"), ("--weight-decay", "nan"),
                    ("--weight-decay", "inf")]


def test_train_rejects_a_register_over_the_amplitude_limit(dataset, tmp_path, capsys):
    out = tmp_path / "big"
    code = run_cli(["train", "--data", str(dataset), "--model", "qnn", "--qubits", "30",
                    "--layers", "8"], out)
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert "30 qubits at 8 layers" in err["message"]
    assert "MAX_CONE_AMPLITUDES" in err["message"]
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("flag, value", NON_FINITE_FLAGS)
def test_train_rejects_non_finite_optimizer_flag(dataset, tmp_path, capsys, flag, value):
    out = tmp_path / "train"
    code = run_cli(["train", "--seed", "1", "--data", str(dataset), "--model", "dnn",
                    "--epochs", "0", flag, value], out)
    _assert_flag_rejected(code, capsys, flag, out)


@pytest.mark.parametrize("flag, value", NON_FINITE_FLAGS)
def test_transfer_rejects_non_finite_optimizer_flag(dataset, tmp_path, capsys, flag, value):
    train_dir = tmp_path / "dnn"
    assert run_cli(["train", "--seed", "1", "--data", str(dataset), "--model", "dnn",
                    "--epochs", "1"], train_dir) == 0
    capsys.readouterr()
    out = tmp_path / "tl"
    code = run_cli(["transfer", "--seed", "1", "--data", str(dataset),
                    "--checkpoint", str(train_dir / "checkpoint.json"),
                    "--samples", "24", "--epochs", "1", flag, value], out)
    _assert_flag_rejected(code, capsys, flag, out)


class TestEval:
    def test_perfect_fit_scores_one(self, dataset, tmp_path):
        train_dir = tmp_path / "knn"
        run_cli(["train", "--seed", "0", "--data", str(dataset), "--model", "knn",
                 "--k", "1", "--labeled-fraction", "1.0"], train_dir)
        eval_dir = tmp_path / "eval"
        code = run_cli(
            ["eval", "--seed", "0", "--data", str(dataset),
             "--checkpoint", str(train_dir / "checkpoint.json"),
             "--domain", "source"],
            eval_dir,
        )
        assert code == 0
        summary = json.loads((eval_dir / "eval_summary.json").read_text())
        assert summary["accuracy"] == 1.0
        assert (eval_dir / "confusion.csv").exists()
        assert (eval_dir / "roc_class_0.csv").exists()

    def test_missing_checkpoint_error_document(self, dataset, tmp_path):
        proc = run_proc(["eval", "--data", str(dataset),
                         "--checkpoint", str(tmp_path / "absent.json"),
                         "--out-dir", str(tmp_path / "e")])
        assert proc.returncode != 0
        doc = json.loads(proc.stderr.strip().splitlines()[-1])
        assert doc["error"]
        assert "message" in doc


    @pytest.mark.parametrize("kind, section, field, value", [
        ("knn", "config", "k", 2.5),
        ("qnn", "config", "n_qubits", 3.0),
        ("dnn", "config", "n_blocks", 2.0),
        ("gnb", "params", "priors", [0.65, -0.325, 0.125, 0.11, 0.11, 0.11, 0.11, 0.11]),
    ])
    def test_malformed_checkpoint_error_document(self, dataset, tmp_path, capsys,
                                                 kind, section, field, value):
        norm = identity_normalizer()
        model = {
            "knn": lambda: KnnModel(np.zeros((4, 36)), np.arange(4), 3, norm),
            "qnn": lambda: DressedQnnModel.create(norm, StdAnsatz(3, 1)),
            "dnn": lambda: DnnModel.create(norm, config=DnnConfig(hidden=9, n_blocks=2)),
            "gnb": lambda: GnbModel(np.full(8, 0.125), np.zeros((8, 36)), np.ones((8, 36)),
                                    norm),
        }[kind]()
        doc = checkpoint_dict(model)
        doc[section][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run_cli(["eval", "--data", str(dataset), "--checkpoint", str(path)],
                       tmp_path / "e")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CheckpointError"
        assert f"{section}.{field}" in err["message"]

    def test_checkpoint_over_the_amplitude_limit_error_document(self, dataset, tmp_path,
                                                               capsys):
        # 30 qubits at 8 layers is one group of 2^30 amplitudes, 8 GiB a state
        doc = checkpoint_dict(DressedQnnModel.create(identity_normalizer(),
                                                     StdAnsatz(30, 1)))
        doc["config"]["n_layers"] = 8
        doc["params"]["theta"] = [0.0] * (2 * 29 * 8)
        path = tmp_path / "qnn.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run_cli(["eval", "--data", str(dataset), "--checkpoint", str(path)],
                       tmp_path / "e")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "CheckpointError"
        assert "config.n_qubits=30 and config.n_layers=8" in err["message"]
        assert "MAX_CONE_AMPLITUDES" in err["message"]

    @pytest.mark.parametrize("command", ["eval", "transfer"])
    def test_dnn_checkpoint_of_other_dimensions_error_document(self, dataset, tmp_path,
                                                                command):
        config = DnnConfig(n_features=5, n_classes=3, hidden=9, n_blocks=1)
        path = tmp_path / "dnn.json"
        path.write_text(json.dumps(checkpoint_dict(
            DnnModel.create(identity_normalizer(), config=config))), encoding="utf-8")
        proc = run_proc([command, "--data", str(dataset), "--checkpoint", str(path),
                         "--out-dir", str(tmp_path / "e")])
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        doc = json.loads(lines[0])
        assert doc["error"] == "CheckpointError"
        assert "config.n_features" in doc["message"]

    @pytest.mark.parametrize("kind", ["dnn", "qnn", "knn", "gnb"])
    def test_feature_overflowing_its_normalizer_error_document(self, dataset, tmp_path, kind):
        # 1e300 is finite, but over a 1e-12 feature scale it overflows:
        # the run prints the error document and no numpy warning before it
        norm = FeatureNormalizer(mean=np.zeros(36), std=np.full(36, 1e-12))
        model = {
            "dnn": lambda: DnnModel.create(norm, config=DnnConfig(hidden=9, n_blocks=1)),
            "qnn": lambda: DressedQnnModel.create(norm, StdAnsatz(3, 1)),
            "knn": lambda: KnnModel(np.zeros((4, 36)), np.arange(4), 3, norm),
            "gnb": lambda: GnbModel(np.full(8, 0.125), np.zeros((8, 36)), np.ones((8, 36)),
                                    norm),
        }[kind]()
        checkpoint = tmp_path / "model.json"
        checkpoint.write_text(json.dumps(checkpoint_dict(model)), encoding="utf-8")
        header, *lines = dataset.read_text(encoding="utf-8").splitlines()
        fields = [line.split(",") for line in lines]
        for row in fields:
            row[3] = "1e300"  # the first feature of every row
        data = tmp_path / "huge.csv"
        data.write_text("\n".join([header] + [",".join(row) for row in fields]) + "\n",
                        encoding="utf-8")
        proc = run_proc(["eval", "--data", str(data), "--checkpoint", str(checkpoint),
                         "--out-dir", str(tmp_path / "e")])
        assert proc.returncode == 1
        assert proc.stderr == json.dumps({"error": "ValueError",
                                          "message": "input features must be finite"}) + "\n"


class TestTransfer:
    def test_repeated_transfer_outputs(self, dataset, tmp_path):
        train_dir = tmp_path / "dnn"
        run_cli(["train", "--seed", "1", "--data", str(dataset), "--model", "dnn",
                 "--epochs", "5"], train_dir)
        tl_dir = tmp_path / "tl"
        code = run_cli(
            ["transfer", "--seed", "1", "--data", str(dataset),
             "--checkpoint", str(train_dir / "checkpoint.json"),
             "--samples", "24", "--epochs", "2", "--repeats", "3"],
            tl_dir,
        )
        assert code == 0
        doc = json.loads((tl_dir / "transfer_summary.json").read_text())
        assert doc["n_repeats"] == 3
        assert len(doc["runs"]) == 3
        assert all(r["n_fewshot"] == 24 for r in doc["runs"])
        assert (tl_dir / "transfer_checkpoint.json").exists()

    def test_baseline_checkpoint_rejected(self, dataset, tmp_path):
        train_dir = tmp_path / "knn"
        run_cli(["train", "--seed", "0", "--data", str(dataset), "--model", "knn"],
                train_dir)
        proc = run_proc(["transfer", "--data", str(dataset),
                         "--checkpoint", str(train_dir / "checkpoint.json"),
                         "--samples", "8", "--out-dir", str(tmp_path / "x")])
        assert proc.returncode != 0
        doc = json.loads(proc.stderr.strip().splitlines()[-1])
        assert "fine-tun" in doc["message"]


class TestCurve:
    def test_curve_csv_written(self, dataset, tmp_path):
        out = tmp_path / "curve"
        code = run_cli(
            ["curve", "--seed", "0", "--data", str(dataset), "--model", "knn",
             "--grid", "16,40", "--repeats", "2", "--eval-domain", "target"],
            out,
        )
        assert code == 0
        lines = (out / "curve.csv").read_text().strip().splitlines()
        assert lines[0].startswith("n_labeled")
        assert len(lines) == 3


class TestHarness:
    def test_help_exits_zero(self):
        proc = run_proc(["--help"])
        assert proc.returncode == 0
        for sub in ("gen", "train", "transfer", "eval", "curve", "make-figures"):
            assert sub in proc.stdout

    def test_subcommand_help_exits_zero(self):
        for sub in ("gen", "train", "transfer", "eval", "curve", "make-figures"):
            proc = run_proc([sub, "--help"])
            assert proc.returncode == 0
            assert "--seed" in proc.stdout

    def test_unknown_subcommand_fails(self):
        proc = run_proc(["frobnicate"])
        assert proc.returncode != 0

    def test_error_document_on_missing_data(self, tmp_path):
        proc = run_proc(["train", "--data", str(tmp_path / "no.csv"),
                         "--model", "dnn", "--out-dir", str(tmp_path / "o")])
        assert proc.returncode == 1
        doc = json.loads(proc.stderr.strip().splitlines()[-1])
        assert doc["error"] == "FileNotFoundError"

    def test_out_dir_env_var(self, dataset, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
        code = cli.main(["train", "--seed", "0", "--data", str(dataset),
                         "--model", "gnb"])
        assert code == 0
        assert (target / "summary.json").exists()

    def test_make_figures_quick_end_to_end(self, tmp_path):
        out = tmp_path / "figs"
        code = run_cli(["make-figures", "--quick", "--seed", "11"], out)
        assert code == 0
        facts = json.loads((out / "facts.json").read_text())
        assert set(facts["models"]) == {"dnn", "qnn", "knn", "gnb"}
        for name, entry in facts["models"].items():
            assert 0.0 <= entry["in_domain_accuracy"] <= 1.0
            assert 0.0 <= entry["cross_domain_accuracy"] <= 1.0
        assert "transfer" in facts["models"]["qnn"]
        assert (out / "curve_dnn" / "curve.csv").exists()
        assert (out / "eval_qnn" / "confusion.csv").exists()

    def test_numpy_build_is_recorded_in_metadata_only(self, tmp_path):
        # the numpy version and SIMD features a run had go into every
        # metadata.json, and into no facts, checkpoint or summary
        out = tmp_path / "figs"
        assert run_cli(["make-figures", "--quick", "--seed", "11"], out) == 0
        metas = sorted(out.rglob("*metadata.json"))
        assert len(metas) == 11
        for path in metas:
            doc = json.loads(path.read_text())
            assert doc["numpy_version"] == np.__version__, path
            assert doc["numpy_simd"] and all(isinstance(f, str) for f in doc["numpy_simd"])
        for path in out.rglob("*.json"):
            if path not in metas:
                assert "numpy" not in path.read_text(), path

    def test_make_figures_parses_the_dataset_once(self, tmp_path, monkeypatch):
        import qpose.data

        calls = []
        load_csv = qpose.data.load_csv
        monkeypatch.setattr(qpose.data, "load_csv",
                            lambda path: calls.append(path) or load_csv(path))
        out = tmp_path / "figs"
        assert run_cli(["make-figures", "--quick"], out) == 0
        assert calls == [str(out / "dataset.csv")]

    def test_make_figures_stages_write_what_standalone_runs_write(self, tmp_path):
        # a stage handed make-figures' Dataset writes the bytes it writes
        # when it loads --data itself, metadata.json included
        out = tmp_path / "figs"
        assert run_cli(["make-figures", "--quick", "--deterministic"], out) == 0
        fx, data, seed = cli.QUICK, str(out / "dataset.csv"), str(cli.FIXTURE_SEED)
        stages = {
            "dnn": ["train", "--seed", seed, "--data", data, "--model", "dnn",
                    "--labeled-fraction", str(fx["labeled_fraction"]),
                    "--epochs", str(fx["dnn_epochs"])],
            "eval_qnn": ["eval", "--seed", seed, "--data", data,
                         "--checkpoint", str(out / "qnn" / "checkpoint.json"),
                         "--domain", "target"],
        }
        for name, argv in stages.items():
            stage_dir = out / name
            written = {p.name: p.read_bytes() for p in stage_dir.iterdir()}
            for p in stage_dir.iterdir():
                p.unlink()
            assert run_cli([*argv, "--deterministic"], stage_dir) == 0
            assert {p.name: p.read_bytes() for p in stage_dir.iterdir()} == written, name

    def test_make_figures_failure_prints_one_error_document(self, tmp_path):
        out = tmp_path / "figs"
        out.mkdir()
        (out / "dnn").write_text("a file where the dnn stage wants its directory\n")
        proc = run_proc(["make-figures", "--quick", "--out-dir", str(out)])
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "FileExistsError"

    def test_deterministic_reruns_bit_identical(self, tmp_path):
        # two fresh subprocesses, same seed, --deterministic: identical metrics
        data = tmp_path / "d.csv"
        run_cli(["gen", "--seed", "9", "--n-source", "120", "--n-target", "120",
                 "--out", str(data)], tmp_path / "g")
        summaries = []
        for i in range(2):
            out = tmp_path / f"run{i}"
            proc = run_proc(["train", "--seed", "9", "--deterministic",
                             "--data", str(data), "--model", "dnn",
                             "--epochs", "8", "--out-dir", str(out)])
            assert proc.returncode == 0, proc.stderr
            summaries.append((out / "summary.json").read_bytes())
            checkpoint = (out / "checkpoint.json").read_bytes()
            if i == 0:
                first_checkpoint = checkpoint
        assert summaries[0] == summaries[1]
        assert checkpoint == first_checkpoint

    def test_deterministic_overrides_exported_thread_counts(self, dataset, tmp_path):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "8", "OMP_NUM_THREADS": "4"}
        threads = {}
        for flag in ([], ["--deterministic"]):
            out = tmp_path / f"run{len(flag)}"
            proc = run_proc(["train", "--seed", "0", *flag, "--data", str(dataset),
                             "--model", "gnb", "--out-dir", str(out)], env=env)
            assert proc.returncode == 0, proc.stderr
            threads[bool(flag)] = json.loads((out / "metadata.json").read_text())["blas_threads"]
        assert threads[False]["OPENBLAS_NUM_THREADS"] == "8"
        assert threads[False]["OMP_NUM_THREADS"] == "4"
        assert set(threads[True].values()) == {"1"}

    def test_abbreviated_deterministic_pins_the_threads(self, tmp_path):
        # argparse accepts --det as --deterministic, so it must pin BLAS too
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "8"}
        out = tmp_path / "g"
        proc = run_proc(["gen", "--seed", "1", "--n-source", "24", "--n-target", "24",
                         "--out", str(tmp_path / "d.csv"), "--det", "--out-dir", str(out)],
                        env=env)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((out / "gen_metadata.json").read_text())
        assert doc["deterministic"] is True
        assert doc["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"

    def test_deterministic_in_process_keeps_and_records_loaded_threads(self, tmp_path,
                                                                        monkeypatch, capsys):
        # numpy is already loaded here, so the variables can no longer take effect
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        out = tmp_path / "g"
        code = run_cli(["gen", "--seed", "1", "--n-source", "24", "--n-target", "24",
                        "--out", str(tmp_path / "d.csv"), "--deterministic"], out)
        assert code == 0
        doc = json.loads((out / "gen_metadata.json").read_text())
        assert doc["blas_threads"]["OPENBLAS_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        err = capsys.readouterr().err
        assert "--deterministic" in err and len(err.strip().splitlines()) == 1


def load_script(name):
    path = Path(__file__).parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestScripts:
    def test_headline_table_is_the_readme_markdown(self):
        facts = {"seed": 7, "models": {
            "dnn": {"params": {"total_params": 34808}, "in_domain_accuracy": 0.985,
                    "cross_domain_accuracy": 0.85766,
                    "transfer": {"post_accuracy_mean": 0.97308, "post_accuracy_std": 0.00971,
                                 "n_repeats": 5}},
            "knn": {"params": {}, "in_domain_accuracy": 0.99, "cross_domain_accuracy": None},
        }}
        lines = load_script("reproduce_results").headline_table(facts)
        assert lines == [
            "| model | params | in-domain | cross-domain | few-shot transfer (5 repeats) |",
            "|-------|--------|-----------|--------------|-------------------------------|",
            "| dnn   | 34808  | 0.9850    | 0.8577       | 0.9731 +- 0.0097              |",
            "| knn   | -      | 0.9900    | -            | -                             |",
        ]
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        assert "\n".join(lines[:2]) in readme

    def test_calibrate_shift_smoke(self, capsys):
        script = load_script("calibrate_shift")
        code = script.main(["--n-source", "64", "--n-target", "64", "--dnn-epochs", "1",
                            "--qnn-epochs", "1", "--offset-grid", "0,10.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("offset"))
        rows = [line.split() for line in lines[header + 1:]]
        assert [row[0] for row in rows] == ["0.00", "10.50"]
        assert all(len(row) == 3 for row in rows)
