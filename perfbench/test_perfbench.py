"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They cover the span arithmetic, the tail-percentile rule, the metric
names and BENCHMARK.json's shape, wrapper restoration, and a tiny-size
run of every workload through run.py.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
from spans import Hook, Installed, Tracer, self_time, tail_percentile  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


class ScriptedClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_the_union_of_children():
    assert self_time(0, 10, []) == 10
    assert self_time(0, 10, [(1, 4), (5, 9)]) == 3
    assert self_time(0, 10, [(1, 4), (3, 6)]) == 5  # overlap counted once
    assert self_time(0, 10, [(-2, 1), (9, 12), (20, 30)]) == 8  # clipped to the parent


def test_tracer_self_time_matches_hand_built_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > kernel [5, 9]
    tree = {"root": (0, 10, None), "a": (1, 4, "root"), "a1": (2, 3, "a"),
            "statevector.k": (5, 9, "root")}
    tracer = Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.enter("root")
    tracer.enter("a")
    tracer.enter("a1")
    tracer.exit()
    tracer.exit()
    tracer.enter("statevector.k")
    tracer.exit()
    tracer.exit()
    for name, (start, end, parent) in tree.items():
        children = [(s, e) for s, e, p in tree.values() if p == name]
        agg = tracer.stats[(name, parent)]
        assert agg.calls == 1
        assert agg.busy_s == end - start
        assert agg.self_s == self_time(start, end, children)
    # kernel spans are aggregated only; the others keep a full record
    assert [r["name"] for r in tracer.records] == ["root", "a", "a1"]
    assert tracer.records[2]["parent"] == tracer.records[1]["id"]


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(range(1, 20)) == (0.0, 0.0)
    assert tail_percentile(range(1, 21)) == (50.0, 10)
    assert tail_percentile(range(1, 100)) == (50.0, 50)
    assert tail_percentile(range(1, 101)) == (90.0, 90)
    assert tail_percentile(range(1, 1001)) == (99.0, 990)
    assert tail_percentile(range(1, 10001)) == (99.9, 9990)
    assert tail_percentile(range(1, 100001)) == (99.99, 99990)
    assert spans.percentile([], 50) == 0.0
    assert spans.percentile([3, 1, 2], 50) == 2


def _declared():
    return {key: [m["name"] for m in BENCHMARK[key]] for key in ("end_to_end", "per_layer")}


def test_metric_names_units_and_benchmark_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for key in ("end_to_end", "per_layer"):
        for m in BENCHMARK[key]:
            expected = {"name", "unit", "better"} | ({"bound"} if key == "end_to_end" else set())
            assert set(m) == expected, m
            assert UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
            names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["command"][1:] == ["perfbench/run.py"]


def test_layer_metrics_are_the_declared_per_layer_names():
    computed = layers.layer_metrics(Tracer(), passes=1, circuit_evals=0, overhead_ratio=0.0)
    assert list(computed) == _declared()["per_layer"]


def _hooked_objects():
    return {(h.owner, h.attr): vars(spans._resolve(h.owner))[h.attr] for h in layers.hooks()}


def test_wrappers_are_installed_then_restored():
    from qpose.quantum_classifier import StdAnsatz

    originals = _hooked_objects()
    tracer = Tracer()
    installed = Installed(tracer, layers.hooks())
    try:
        current = _hooked_objects()
        assert all(current[key] is not fn for key, fn in originals.items())
        import qpose.quantum_classifier as qc

        qc.z_from_angles(StdAnsatz(n_qubits=2, n_layers=1), np.zeros((3, 4)))
    finally:
        installed.restore()
    assert installed.verify_restored() == []
    assert all(vars(spans._resolve(o))[a] is fn for (o, a), fn in originals.items())
    agg = tracer.stats[("quantum_classifier.z_from_angles", None)]
    assert agg.calls == 1 and agg.counters["rows"] == 3
    assert tracer.stats[("statevector.ry_rows", "quantum_classifier.z_from_angles")].calls == 4


def test_failed_install_restores_what_it_had_wrapped():
    originals = _hooked_objects()
    hooks = layers.hooks() + [Hook("qpose.data", "no_such_function", "data.none")]
    with pytest.raises(KeyError):
        Installed(Tracer(), hooks)
    assert _hooked_objects() == originals


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_declared_metric(tmp_path, workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny", "--work-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, float) for v in values.values())
    if trace and workload == "qnn_fewshot":
        assert values["quantum_classifier.evals_per_grad_sample.full"] == 57
        assert values["quantum_classifier.evals_per_grad_sample.theta"] == 37
        assert values["quantum_classifier.circuit_evals"] == \
            values["quantum_classifier.z_from_angles.rows"]
    if not trace:
        assert all(v > 0 for v in values.values()), values


def test_rerun_with_different_numbers_fails(tmp_path):
    args = ("--workload", "dnn_bulk", "--seed", "5", "--seconds", "1", "--scale", "tiny",
            "--work-dir", str(tmp_path))
    first = json.loads(_run(ROOT, *args).stdout.strip().splitlines()[-1])
    assert first["correct"]
    store = tmp_path / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8"))
    store.write_text(json.dumps({k: "0" * 64 for k in known}), encoding="utf-8")
    second = json.loads(_run(ROOT, *args).stdout.strip().splitlines()[-1])
    assert not second["correct"] and second["failed"] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
