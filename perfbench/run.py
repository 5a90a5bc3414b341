"""Benchmark driver for qpose.

    python3 perfbench/run.py --workload qnn_fewshot --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

One workload runs through `qpose.cli.main`, in this process, one stage at
a time: a closed loop with a single caller, each stage starting when the
previous one returns, and BLAS pinned to one thread. Set-up (imports,
`gen`, and for dnn_bulk the QNN checkpoint it scores) is repeated and its
median reported as `setup_s`; then whole passes of the timed stages repeat
until --seconds is spent, and the end-to-end metrics are medians over the
passes. With --trace 1 the run instead alternates untraced and traced
passes (set-up included) and reports the per-layer metrics of
BENCHMARK.json from the traced ones.

The last line of standard output is the result object with the keys
`correct`, `attempted`, `failed` and `metrics`. An operation is one CLI
stage or one digest comparison; it fails when the stage exits nonzero,
an output check fails, its circuit-evaluation count differs from the
closed form, or the numbers of a seeded rerun differ.

`--workload all` runs every workload in a process of its own, because
`ru_maxrss` never falls during a process's life, and prints every
end-to-end metric with its unit plus the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

# numpy and qpose load after this, inside run_one, so their import time
# counts toward setup_s
T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("qnn_fewshot", "dnn_bulk")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
QPOSE_MODULES = ("cli", "data", "training", "evaluation", "neural", "quantum_classifier",
                 "statevector", "baselines", "serialize")
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=7, help="workload seed (default: the fixture's 7)")
    p.add_argument("--seconds", type=float, default=50.0,
                   help="measuring time; whole passes run until it is spent")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("standard", "tiny"), default="standard",
                   help="tiny keeps the code paths at smoke-test sizes")
    p.add_argument("--work-dir", default=".perfbench_work",
                   help="scratch, results and traces, relative to the working directory")
    return p.parse_args(argv)


def pin_threads() -> dict:
    """Force one BLAS thread before numpy loads: the CLI's --deterministic
    only uses setdefault and loses to an exported value. Returns what was
    exported before."""
    exported = {var: os.environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return exported


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def conditions(args, sizes: dict, exported: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_env_exported": exported,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "sizes": sizes,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


class Runner:
    """Runs stages through the CLI and keeps the operation tally."""

    def __init__(self, workload: str, sizes: dict, seed: int, run_dir: Path):
        self.workload = workload
        self.sizes = sizes
        self.seed = seed
        self.run_dir = run_dir
        self.attempted = 0
        self.errors: list[str] = []
        self.tracer = None
        self.digests: dict[str, str] = {}

    def fail(self, what: str, problem: str) -> None:
        self.errors.append(f"{what}: {problem}")

    def stage(self, st) -> tuple[float, object]:
        """(seconds, reported numbers) for one CLI call; the numbers are None
        when the stage failed."""
        import checks
        from qpose import cli, quantum_classifier

        before = quantum_classifier.evaluation_count()
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t = time.perf_counter()
            try:
                code = cli.main(list(st.argv))
            except SystemExit as exc:  # argparse rejects its argv
                code = exc.code if isinstance(exc.code, int) else 1
            seconds = time.perf_counter() - t
        evals = quantum_classifier.evaluation_count() - before
        self.attempted += 1
        if code != 0:
            self.fail(st.label, f"exit code {code}: {err.getvalue().strip()[-400:]}")
            return seconds, None
        if evals != st.circuit_evals:
            self.fail(st.label, f"{evals} circuit evaluations, closed form {st.circuit_evals}")
            return seconds, None
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            return seconds, checks.check_stage(st)
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            self.fail(st.label, f"output check: {exc!r}")
            return seconds, None
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def stages(self, stages) -> tuple[dict, dict]:
        times, numbers = {}, {}
        for st in stages:
            times[st.label], numbers[st.label] = self.stage(st)
        return times, numbers

    def same_numbers(self, key: str, numbers: dict) -> None:
        """Counts one operation: a rerun of `key` must report what the first
        run of it in this process reported."""
        import checks

        self.attempted += 1
        got = checks.digest(numbers)
        first = self.digests.setdefault(key, got)
        if got != first:
            self.fail(key, f"numbers differ between seeded reruns ({got[:12]} != {first[:12]})")

    def same_as_stored(self, stages, numbers: dict) -> None:
        """Counts one operation: the numbers must equal those that an earlier
        run with the same stage inputs and sources recorded."""
        import checks

        self.attempted += 1
        inputs = [[arg if str(self.run_dir) not in arg else "<path>" for arg in st.argv]
                  for st in stages]
        key = f"{self.workload}|seed={self.seed}|inputs={checks.digest(inputs)}" \
              f"|src={source_sha256()}"
        store = self.run_dir.parent / "digests.json"
        got = checks.digest(numbers)
        known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
        first = known.setdefault(key, got)
        if got != first:
            self.fail("digest", f"{key} differs from an earlier run ({got[:12]} != {first[:12]})")
            return
        store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(stages, times: dict, attr: str) -> float:
    work = sum(getattr(st, attr) for st in stages)
    seconds = sum(times[st.label] for st in stages if getattr(st, attr))
    return work / seconds if seconds else 0.0


def measure(runner: Runner, import_s: float, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics and the per-pass record."""
    import workloads

    name, sizes, seed = runner.workload, runner.sizes, runner.seed
    setup_times = []
    for k in range(SETUP_REPEATS):
        base = runner.run_dir / f"setup{k}"
        setup = workloads.setup_stages(name, sizes, seed, base)
        times, setup_numbers = runner.stages(setup)
        setup_times.append(sum(times.values()))
        runner.same_numbers("setup", setup_numbers)

    passes, loop_times = [], []
    first_numbers = accuracy = None
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        pass_dir = runner.run_dir / f"pass{len(passes)}"
        stages = workloads.timed_stages(name, sizes, seed, base, pass_dir)
        times, numbers = runner.stages(stages)
        shutil.rmtree(pass_dir, ignore_errors=True)
        runner.same_numbers("pass", numbers)
        passes.append({
            "stage_s": times,
            "wall_s": sum(times.values()),
            "train_samples_per_s": _rate(stages, times, "train_samples"),
            "eval_rows_per_s": _rate(stages, times, "eval_rows"),
        })
        if first_numbers is None:
            first_stages, first_numbers = setup + stages, {"setup": setup_numbers, "pass": numbers}
            accuracy = workload_accuracy(name, numbers)
        loop_times.append(time.perf_counter() - t)
        if time.perf_counter() - start + _median(loop_times) > seconds:
            break
    runner.same_as_stored(first_stages, first_numbers)

    metrics = {
        "wall_s": _median([p["wall_s"] for p in passes]),
        "setup_s": import_s + _median(setup_times),
        "train_samples_per_s": _median([p["train_samples_per_s"] for p in passes]),
        "eval_rows_per_s": _median([p["eval_rows_per_s"] for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": accuracy if accuracy is not None else 0.0,
    }
    return metrics, {"import_s": import_s, "setup_s": setup_times, "passes": passes}


def measure_traced(runner: Runner, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics from alternating untraced and traced set-up+pass
    rounds; `trace.overhead_ratio` compares their stage time."""
    import layers
    import spans
    import workloads
    from qpose import quantum_classifier

    name, sizes, seed = runner.workload, runner.sizes, runner.seed
    tracer = spans.Tracer()
    runner.tracer = tracer
    totals = {False: 0.0, True: 0.0}
    traced_evals = 0
    rounds = 0
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            base = runner.run_dir / f"round{rounds}-{'traced' if traced else 'plain'}"
            installed = spans.Installed(tracer, layers.hooks()) if traced else None
            before = quantum_classifier.evaluation_count()
            setup = workloads.setup_stages(name, sizes, seed, base)
            timed = workloads.timed_stages(name, sizes, seed, base, base / "pass")
            try:
                setup_times, setup_numbers = runner.stages(setup)
                times, numbers = runner.stages(timed)
            finally:
                if installed is not None:
                    installed.restore()
            if installed is not None:
                traced_evals += quantum_classifier.evaluation_count() - before
                for leftover in installed.verify_restored():
                    runner.fail("trace", f"wrapper still installed at {leftover}")
            totals[traced] += sum(setup_times.values()) + sum(times.values())
            shutil.rmtree(base, ignore_errors=True)
            runner.same_numbers("setup+pass", {"setup": setup_numbers, "pass": numbers})
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    runner.same_as_stored(setup + timed, {"setup": setup_numbers, "pass": numbers})

    overhead = totals[True] / totals[False] - 1.0 if totals[False] else 0.0
    metrics = layers.layer_metrics(tracer, rounds, traced_evals / rounds, overhead)
    for variant, cost in (("full", workloads.FULL_EVALS), ("theta", workloads.THETA_EVALS)):
        got = metrics[f"quantum_classifier.evals_per_grad_sample.{variant}"]
        if got and got != cost:
            runner.fail("trace", f"{variant} gradient took {got} evaluations per sample, "
                                 f"closed form {cost}")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    return metrics, {"rounds": rounds, "stage_s": totals, "trace": str(trace_path)}


def workload_accuracy(name: str, numbers: dict) -> float | None:
    """Mean post-transfer accuracy for qnn_fewshot; for dnn_bulk the mean
    target accuracy of the four scored models."""
    prefix, key = ("transfer-", "post_accuracy_mean") if name == "qnn_fewshot" \
        else ("eval-", "accuracy")
    docs = [doc for label, doc in numbers.items() if label.startswith(prefix)]
    if not docs or any(doc is None for doc in docs):
        return None
    return statistics.fmean(doc[key] for doc in docs)


def declared_metrics(trace: int) -> dict[str, str]:
    """name -> unit, from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def run_one(args, exported: dict) -> int:
    import numpy  # noqa: F401

    for module in QPOSE_MODULES:
        importlib.import_module(f"qpose.{module}")
    sys.path.insert(0, str(HERE))
    import workloads

    import_s = time.perf_counter() - T0
    sizes = workloads.SIZES[args.workload][args.scale]
    work = Path(args.work_dir)
    run_dir = work / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, sizes, args.seed, run_dir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            values, record = measure_traced(runner, args.seconds,
                                            work / "traces" / f"{tag}.jsonl")
        else:
            values, record = measure(runner, import_s, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = declared_metrics(args.trace)
    if set(values) != set(units):
        runner.fail("metrics", f"computed {sorted(set(values) ^ set(units))} "
                               "differently from BENCHMARK.json")
    failed = len(runner.errors)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    cond = conditions(args, sizes, exported)
    (work / "results").mkdir(parents=True, exist_ok=True)
    (work / "results" / f"{tag}.json").write_text(json.dumps(
        {"conditions": cond, "errors": runner.errors, "record": record, "result": result},
        indent=1) + "\n", encoding="utf-8")

    for error in runner.errors:
        print(f"FAIL {error}")
    for name, metric in result["metrics"].items():
        print(f"{name:52s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'error_rate':52s} {failed / max(runner.attempted, 1):>16.6g} fraction"
          f" ({failed} of {runner.attempted} operations failed)")
    print("conditions " + json.dumps(cond, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints one table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale, "--work-dir", args.work_dir]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit code {done.returncode}\n{done.stderr[-2000:]}",
                  file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':52s}" + "".join(f"{w:>16s}" for w in WORKLOADS) + "  unit")
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:52s}" + "".join(f"{results[w]['metrics'][name]['value']:>16.6g}"
                                      for w in WORKLOADS) + f"  {unit}")
    print(f"{'error_rate':52s}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:>16.6g}" for w in WORKLOADS)
        + "  fraction")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    exported = pin_threads()
    if not (SRC / "qpose" / "cli.py").is_file():
        print(f"error: no qpose sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, exported)


if __name__ == "__main__":
    sys.exit(main())
