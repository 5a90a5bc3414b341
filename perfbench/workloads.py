"""The benchmark workloads: set-up stages, timed stages and closed forms.

Every stage is one `qpose` CLI call. Besides its argv, a stage carries what
the benchmark knows about it in advance: the circuit evaluations it must
make (closed form, checked against `evaluation_count()`), the training
samples it processes (epochs x rows) and the rows its `eval` scores.

The QNN is the paper's 10-qubit, 1-layer dressed circuit, so a
full-gradient sample costs 1 + 2 x 28 = 57 circuit passes and a theta-only
sample 1 + 2 x 18 = 37; every forward row costs one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

QUBITS = 10
LAYERS = 1
N_THETA = 2 * (QUBITS - 1) * LAYERS
FULL_EVALS = 1 + 2 * (QUBITS + N_THETA)
THETA_EVALS = 1 + 2 * N_THETA

# A QNN that sees only ~100 samples stays near chance with the CLI's default
# batch of 100 (one optimizer step per epoch). Batch 1 gives it 100 steps at
# the same circuit cost per sample; of the settings tried on seeds 1-20,
# these learning rates gave the steadiest accuracy.
QNN_STEPS = ["--batch-size", "1", "--lr", "0.01"]
QNN_TRANSFER_STEPS = ["--batch-size", "4", "--lr", "0.03"]

# Sizes per workload. "standard" is what run.py measures by default; "tiny" keeps
# every code path at a size the benchmark's own smoke tests can afford.
SIZES = {
    # Cost does not depend on the data's noise or domain shift, but a
    # short-trained QNN's accuracy does: with the default noise and shift its
    # post-transfer accuracy quartiles lay 10-28% apart over ten seeds; on
    # well-separated classes (noise 2.5) without shift, 6%.
    "qnn_fewshot": {
        "standard": {"n_source": 800, "n_target": 1040, "shift": 0.0, "noise": 2.5,
                     "train_fraction": 0.125, "train_epochs": 1, "transfer_samples": 104,
                     "transfer_epochs": 2, "repeats": 1},
        "tiny": {"n_source": 80, "n_target": 80, "shift": 0.0, "noise": 2.5,
                 "train_fraction": 0.25, "train_epochs": 1, "transfer_samples": 20,
                 "transfer_epochs": 1, "repeats": 2},
    },
    # Scoring cost does not depend on the domain shift either, but
    # cross-domain accuracy swings with each seed's shift; without it the
    # target rows measure generalisation and the accuracy guard holds steady.
    "dnn_bulk": {
        "standard": {"n_source": 800, "n_target": 4000, "shift": 0.0, "train_fraction": 0.5,
                     "train_epochs": 50, "transfer_samples": 104, "transfer_epochs": 20,
                     "repeats": 2, "curve_grid": [32, 64, 128], "curve_epochs": 40,
                     "setup_qnn_fraction": 0.125},
        "tiny": {"n_source": 80, "n_target": 120, "shift": 0.0, "train_fraction": 0.5,
                 "train_epochs": 3, "transfer_samples": 24, "transfer_epochs": 2, "repeats": 2,
                 "curve_grid": [16, 24], "curve_epochs": 2, "setup_qnn_fraction": 0.2},
    },
}


@dataclass(frozen=True)
class Stage:
    label: str
    argv: tuple[str, ...]
    out_dir: Path
    circuit_evals: int = 0
    train_samples: int = 0
    eval_rows: int = 0
    expect: dict | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def _flags(seed: int, out_dir: Path) -> list[str]:
    return ["--seed", str(seed), "--out-dir", str(out_dir), "--deterministic"]


def _count(fraction: float, n: int) -> int:
    # the CLI's own rule for a labeled fraction of n rows
    return int(round(fraction * n))


def gen_stage(out_dir: Path, csv: Path, seed: int, sz: dict) -> Stage:
    noise = str(sz.get("noise", 5.0))
    argv = ["gen", "--n-source", str(sz["n_source"]), "--n-target", str(sz["n_target"]),
            "--shift", str(sz.get("shift", 1.0)), "--noise-source", noise,
            "--noise-target", noise, "--out", str(csv)] + _flags(seed, out_dir)
    return Stage("gen", tuple(argv), out_dir,
                 expect={"n_source": sz["n_source"], "n_target": sz["n_target"]})


def train_stage(label: str, out_dir: Path, csv: Path, seed: int, sz: dict, model: str,
                fraction: float, epochs: int = 1) -> Stage:
    rows = _count(fraction, sz["n_source"])
    holdout = sz["n_source"] - rows
    argv = ["train", "--data", str(csv), "--model", model,
            "--labeled-fraction", str(fraction), "--epochs", str(epochs)]
    evals = 0
    if model == "qnn":
        argv += ["--qubits", str(QUBITS), "--layers", str(LAYERS)] + QNN_STEPS
        # gradient samples, per-epoch accuracy (holdout, else the train rows),
        # then the summary's in-domain and cross-domain reports
        evals = (FULL_EVALS * epochs * rows + epochs * (holdout or rows)
                 + holdout + sz["n_target"])
    samples = epochs * rows if model in ("qnn", "dnn") else rows
    return Stage(label, tuple(argv + _flags(seed, out_dir)), out_dir, circuit_evals=evals,
                 train_samples=samples, expect={"model": model})


def transfer_stage(label: str, out_dir: Path, csv: Path, seed: int, sz: dict, model: str,
                   checkpoint: Path) -> Stage:
    fewshot = sz["transfer_samples"]
    rest = sz["n_target"] - fewshot
    epochs, repeats = sz["transfer_epochs"], sz["repeats"]
    argv = ["transfer", "--data", str(csv), "--checkpoint", str(checkpoint),
            "--samples", str(fewshot), "--epochs", str(epochs), "--repeats", str(repeats)]
    evals = 0
    if model == "qnn":
        argv += QNN_TRANSFER_STEPS
        # per repeat: pre-accuracy on the rest, theta-only gradient samples,
        # per-epoch accuracy on the few-shot rows, final report on the rest
        evals = repeats * (rest + THETA_EVALS * epochs * fewshot + epochs * fewshot + rest)
    return Stage(label, tuple(argv + _flags(seed, out_dir)), out_dir, circuit_evals=evals,
                 train_samples=repeats * epochs * fewshot, expect={"model": model})


def eval_stage(label: str, out_dir: Path, csv: Path, seed: int, sz: dict, model: str,
               checkpoint: Path) -> Stage:
    rows = sz["n_target"]
    argv = ["eval", "--data", str(csv), "--checkpoint", str(checkpoint), "--domain", "target"]
    return Stage(label, tuple(argv + _flags(seed, out_dir)), out_dir,
                 circuit_evals=rows if model == "qnn" else 0, eval_rows=rows,
                 expect={"model": model, "rows": rows})


def curve_stage(label: str, out_dir: Path, csv: Path, seed: int, sz: dict) -> Stage:
    grid, epochs = sz["curve_grid"], sz["curve_epochs"]
    argv = ["curve", "--data", str(csv), "--model", "dnn",
            "--grid", ",".join(str(g) for g in grid), "--epochs", str(epochs)]
    return Stage(label, tuple(argv + _flags(seed, out_dir)), out_dir,
                 train_samples=epochs * sum(grid), expect={"points": len(grid)})


# ---------------------------------------------------------------------------
# Workloads: set-up stages run into `base`; timed stages write under `pass_dir`.
# ---------------------------------------------------------------------------


def setup_stages(name: str, sz: dict, seed: int, base: Path) -> list[Stage]:
    csv = base / "dataset.csv"
    stages = [gen_stage(base / "gen", csv, seed, sz)]
    if name == "dnn_bulk":
        stages.append(train_stage("setup-qnn", base / "qnn", csv, seed, sz, "qnn",
                                  sz["setup_qnn_fraction"]))
    return stages


def timed_stages(name: str, sz: dict, seed: int, base: Path, pass_dir: Path) -> list[Stage]:
    csv = base / "dataset.csv"
    model = "qnn" if name == "qnn_fewshot" else "dnn"
    train = train_stage(f"train-{model}", pass_dir / model, csv, seed, sz, model,
                        sz["train_fraction"], sz["train_epochs"])
    transfer = transfer_stage(f"transfer-{model}", pass_dir / f"transfer_{model}", csv, seed,
                              sz, model, train.out_dir / "checkpoint.json")
    if name == "qnn_fewshot":
        # the fixture scores the pretrained checkpoint on the target domain; the
        # fine-tuned one is what few-shot transfer delivers. Scoring both also
        # doubles the eval time that eval_rows_per_s is measured over.
        return [train, transfer] + [
            eval_stage(f"eval-qnn-{kind}", pass_dir / f"eval_qnn_{kind}", csv, seed, sz, "qnn",
                       ckpt)
            for kind, ckpt in (("pretrained", train.out_dir / "checkpoint.json"),
                               ("transfer", transfer.out_dir / "transfer_checkpoint.json"))]
    stages = [train, transfer, curve_stage("curve-dnn", pass_dir / "curve_dnn", csv, seed, sz)]
    stages += [train_stage(f"train-{m}", pass_dir / m, csv, seed, sz, m, sz["train_fraction"])
               for m in ("knn", "gnb")]
    checkpoints = {"qnn": base / "qnn" / "checkpoint.json",
                   "dnn": transfer.out_dir / "transfer_checkpoint.json",
                   "knn": pass_dir / "knn" / "checkpoint.json",
                   "gnb": pass_dir / "gnb" / "checkpoint.json"}
    stages += [eval_stage(f"eval-{m}", pass_dir / f"eval_{m}", csv, seed, sz, m, ckpt)
               for m, ckpt in checkpoints.items()]
    return stages
