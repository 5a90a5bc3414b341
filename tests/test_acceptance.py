"""Acceptance gate: every headline contract, one printed verdict per item.

The experiment items run the committed fixture pipeline (seeded, 5 transfer
repeats, single-threaded) once per session and read the aggregated numbers
from facts.json.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    central_difference,
    dense_shift_sweep,
    dressed_gates,
    identity_normalizer,
    pairwise_auc,
    random_circuit,
    run_circuit,
    simulate_dense,
)
from qpose.evaluation import binary_roc
from qpose.neural import DnnConfig, dnn_init, n_params, softmax_cross_entropy
from qpose.quantum_classifier import DressedQnnModel, StdAnsatz, z_from_angles

RUNTIME_BUDGET_S = 15 * 60
# sha256 of the fixture's facts.json and checkpoints per numpy version, SIMD
# features and BLAS core, written by scripts/record_fixture_digests.py
FIXTURE_DIGESTS = Path(__file__).with_name("fixture_digests.json")


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        mark = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[{mark}] {name}{suffix}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def fixture_run(tmp_path_factory):
    """One full pipeline run on the committed fixture; returns (facts,
    seconds, output directory)."""
    out = tmp_path_factory.mktemp("acceptance")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "qpose", "make-figures", "--deterministic",
         "--out-dir", str(out)],
        capture_output=True, text=True, timeout=RUNTIME_BUDGET_S + 300,
    )
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fixture pipeline failed:\n{proc.stderr[-2000:]}")
    facts = json.loads((out / "facts.json").read_text(encoding="utf-8"))
    return facts, elapsed, out


def test_ansatz_parameter_law(capsys):
    ok = True
    for n in range(2, 13):
        for layers in range(1, 5):
            ansatz = StdAnsatz(n, layers)
            want = 2 * (n - 1) * layers
            ry_slots = sum(1 for _, control, _ in dressed_gates(n, layers)[n:] if control is None)
            ok = ok and ansatz.n_theta == want and ry_slots == want
    ok = ok and StdAnsatz(10, 1).n_theta == 18
    report(capsys, "ansatz parameter law 2(n-1)L, 18 at n=10 L=1", ok)


def test_dnn_parameter_count(capsys):
    count = n_params(dnn_init(DnnConfig(), seed=0))
    report(capsys, "DNN trainable parameter count", count == 34_808, f"{count}")


def test_simulator_matches_dense_oracle(capsys):
    rng = np.random.default_rng(2024)
    worst_amp, worst_norm = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        ops, angles = random_circuit(rng, n, int(rng.integers(1, 21)))
        got = run_circuit(n, ops, angles)
        want = simulate_dense(n, ops, angles)
        worst_amp = max(worst_amp, float(np.abs(got - want).max()))
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(got)) - 1.0))
    ok = worst_amp < 1e-10 and worst_norm < 1e-10
    report(capsys, "simulator vs dense Kronecker oracle, 100 circuits",
           ok, f"amp err {worst_amp:.2e}, norm drift {worst_norm:.2e}")


def test_light_cone_sweep_matches_dense_oracle(capsys):
    # n <= 4 (any L) and n <= 8 at L >= 2 run one full-width group; n >= 5
    # at L = 1 and n = 9 at L = 2 split the register into light cones
    rng = np.random.default_rng(2025)
    sizes = [(n, layers) for n in range(2, 10) for layers in (1, 2, 3)] + [(10, 1)]
    worst = 0.0
    for n, layers in sizes:
        ansatz = StdAnsatz(n, layers)
        angles = rng.uniform(-np.pi, np.pi, ansatz.n_slots)
        z, z_plus, z_minus = z_from_angles(ansatz, angles, slots=range(ansatz.n_slots))
        got = np.concatenate([z, np.stack([z_plus[0], z_minus[0]], axis=1).reshape(-1, n)])
        worst = max(worst, float(np.abs(got - dense_shift_sweep(ansatz, angles)).max()))
    report(capsys, "light-cone sweep vs dense Kronecker oracle, every +-pi/2 shift",
           worst < 1e-10, f"n=2..9 at L=1..3 and n=10 at L=1, max err {worst:.2e}")


def test_parameter_shift_matches_finite_differences(capsys):
    rng = np.random.default_rng(7)
    worst_shift = 0.0
    for n in (4, 5, 6):
        model = DressedQnnModel.create(
            identity_normalizer(n), StdAnsatz(n, 1), seed=n, n_features=n)
        x = rng.normal(size=n)
        # full Jacobian of every readout over every angle slot, encoding and theta
        angles = np.concatenate([model.encoding_angles(x)[0], model.params["theta"]])
        _, z_plus, z_minus = z_from_angles(model.ansatz, angles,
                                           slots=range(model.ansatz.n_slots))
        jacobian = (z_plus[0] - z_minus[0]) / 2.0
        for q in range(n):
            fd = central_difference(lambda a, q=q, m=model: z_from_angles(m.ansatz, a)[0, q],
                                    angles, step=1e-5)
            worst_shift = max(worst_shift, float(np.abs(jacobian[:, q] - fd).max()))

    # end-to-end hybrid loss gradient, every named parameter of a 4-qubit model
    model = DressedQnnModel.create(
        identity_normalizer(4), StdAnsatz(4, 1), seed=1, n_features=4)
    x = rng.normal(size=4)
    label = 5
    _, grads = model.loss_and_grad(x, np.array([label]))
    worst_rel = 0.0
    for name in sorted(model.params):
        def loss_at(values, name=name):
            m = model.copy()
            m.params[name] = values.reshape(model.params[name].shape)
            loss, _ = softmax_cross_entropy(m.logits(x), np.array([label]))
            return loss

        fd = central_difference(loss_at, model.params[name].ravel(), step=1e-5)
        rel = np.abs(grads[name].ravel() - fd) / np.maximum(np.abs(fd), 1e-6)
        worst_rel = max(worst_rel, float(rel.max()))
    ok = worst_shift < 1e-6 and worst_rel < 1e-4
    report(capsys, "parameter-shift vs finite differences",
           ok, f"shift err {worst_shift:.2e}, end-to-end rel {worst_rel:.2e}")


def test_auc_matches_pairwise_oracle(capsys):
    rng = np.random.default_rng(11)
    ok = True
    for trial in range(200):
        n = int(rng.integers(2, 51))
        if trial % 2:
            scores = rng.integers(0, 8, n) / 7.0  # force ties
        else:
            scores = rng.uniform(size=n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        ok = ok and binary_roc(scores, labels).auc == float(pairwise_auc(scores, labels))
    report(capsys, "AUC equals pairwise oracle exactly, 200 trials <= 50 samples", ok)


def test_transfer_freeze_is_bitwise(capsys):
    from qpose.data import Dataset, Domain, N_FEATURES
    from qpose.training import TransferConfig, transfer_finetune

    rng = np.random.default_rng(3)
    model = DressedQnnModel.create(identity_normalizer(), StdAnsatz(4, 1), seed=0)
    draws = [(rng.normal(size=N_FEATURES), int(rng.integers(0, 8))) for _ in range(12)]
    few = Dataset(np.stack([x for x, _ in draws]), [label for _, label in draws],
                  [Domain.TARGET] * 12, [0] * 12)
    before = {k: v.copy() for k, v in model.params.items()}
    transfer_finetune(model, few, TransferConfig(n_transfer=12, epochs=4, seed=1))
    frozen_ok = all((before[k] == model.params[k]).all()
                    for k in ("in.w", "in.b", "out.w", "out.b"))
    moved = not (before["theta"] == model.params["theta"]).all()
    report(capsys, "QNN fine-tuning freezes input/output layers bitwise",
           frozen_ok and moved)


def test_fixture_in_domain_accuracy(capsys, fixture_run):
    facts, _, _ = fixture_run
    dnn = facts["models"]["dnn"]["in_domain_accuracy"]
    qnn = facts["models"]["qnn"]["in_domain_accuracy"]
    report(capsys, "fixture in-domain accuracy >= 95% (DNN and QNN)",
           dnn >= 0.95 and qnn >= 0.95, f"dnn {dnn:.4f}, qnn {qnn:.4f}")


def test_fixture_cross_domain_band(capsys, fixture_run):
    facts, _, _ = fixture_run
    ok = True
    details = []
    for name in ("dnn", "qnn"):
        entry = facts["models"][name]
        cross = entry["cross_domain_accuracy"]
        degradation = entry["in_domain_accuracy"] - cross
        ok = ok and 0.75 <= cross <= 0.88 and degradation >= 0.05
        details.append(f"{name} {cross:.4f} (-{degradation:.3f})")
    report(capsys, "fixture cross-domain accuracy in 75-88% with >= 5pt drop",
           ok, ", ".join(details))


def test_fixture_transfer_recovery(capsys, fixture_run):
    facts, _, _ = fixture_run
    ok = True
    details = []
    for name in ("dnn", "qnn"):
        t = facts["models"][name]["transfer"]
        post = t["post_accuracy_mean"]
        gain = post - t["pre_accuracy_mean"]
        ok = ok and post >= 0.90 and gain >= 0.05
        details.append(f"{name} {post:.4f} (+{gain:.3f}) over {t['n_repeats']} repeats")
    report(capsys, "fixture transfer recovery >= 90% with >= 5pt gain",
           ok, ", ".join(details))


def test_fixture_runtime_budget(capsys, fixture_run):
    _, elapsed, _ = fixture_run
    report(capsys, "fixture pipeline within 15-minute budget",
           elapsed <= RUNTIME_BUDGET_S, f"{elapsed:.0f}s")


def test_fixture_outputs_equal_the_digests_of_their_simd_class(capsys, fixture_run):
    # numpy picks its loops by CPU feature and OpenBLAS its gemm kernels by
    # core, so "byte-identical" holds within a class: the numpy version, SIMD
    # features and BLAS core the run's metadata records
    _, _, out = fixture_run
    meta = json.loads((out / "gen_metadata.json").read_text(encoding="utf-8"))
    key = ("numpy_version", "numpy_simd", "blas_core")
    host = [meta[field] for field in key]
    record = json.loads(FIXTURE_DIGESTS.read_text(encoding="utf-8"))
    digests = [c["sha256"] for c in record["classes"] if [c[field] for field in key] == host]
    if not digests:
        pytest.skip(f"no fixture digests recorded for numpy {host[0]}, BLAS core {host[2]}"
                    f" and SIMD features {' '.join(host[1])}")
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests[0]}
    moved = sorted(name for name in got if got[name] != digests[0][name])
    report(capsys, "fixture facts.json and checkpoints equal the digests of their SIMD class",
           not moved, f"numpy {host[0]}, {len(host[1])} SIMD features, BLAS core {host[2]}"
           + (f"; moved: {', '.join(moved)}" if moved else ""))


def test_deterministic_rerun_bit_identical(capsys, tmp_path):
    data = tmp_path / "d.csv"
    gen = subprocess.run(
        [sys.executable, "-m", "qpose", "gen", "--seed", "7", "--deterministic",
         "--n-source", "160", "--n-target", "160", "--out", str(data),
         "--out-dir", str(tmp_path / "g")],
        capture_output=True, text=True, timeout=120,
    )
    assert gen.returncode == 0, gen.stderr
    blobs = {"dnn": [], "qnn": []}
    for rep in range(2):
        for model, epochs in (("dnn", "8"), ("qnn", "2")):
            out = tmp_path / f"{model}{rep}"
            proc = subprocess.run(
                [sys.executable, "-m", "qpose", "train", "--seed", "7",
                 "--deterministic", "--data", str(data), "--model", model,
                 "--epochs", epochs, "--out-dir", str(out)],
                capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            blobs[model].append((out / "checkpoint.json").read_bytes() +
                                (out / "summary.json").read_bytes())
    ok = blobs["dnn"][0] == blobs["dnn"][1] and blobs["qnn"][0] == blobs["qnn"][1]
    report(capsys, "seeded --deterministic reruns are bit-identical", ok)
