"""Command-line experiment driver.

Subcommands chain into the usual pipeline:

    qpose gen          synthetic dataset CSV with a controllable domain shift
    qpose train        pretrain a model on labeled source samples
    qpose transfer     few-shot fine-tuning on target labels, repeated
    qpose eval         accuracy / confusion / ROC-AUC report for a checkpoint
    qpose curve        accuracy vs number of labeled training samples
    qpose make-figures the whole pipeline on the committed fixture settings

Every subcommand takes --seed (all randomness derives from it) and writes a
metadata document that suffices to re-run it bit-identically. Exit code 0 on
success; on failure a JSON error document goes to stderr and the exit code
is nonzero. --out-dir defaults to $QPOSE_OUT_DIR or ./qpose_out.

`_run` is the one place a parsed subcommand runs. It makes the out-dir, and
for a stage that reads --data it loads that CSV, calls the stage with the
`Dataset`, and writes the stage's metrics to metadata.json with the sha256
of the file. `make-figures` runs every stage through it and parses
dataset.csv once, after `gen`: the 10 stages that read it share that one
read-only `Dataset`, and a standalone subcommand loads its own.

Heavy imports stay inside functions so --deterministic can pin the BLAS
thread count before numpy loads. Called in a process that has already loaded
numpy, it warns on stderr and leaves the thread variables as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import BLAS_THREAD_VARS

OUT_DIR_ENV = "QPOSE_OUT_DIR"


def _force_single_thread() -> None:
    # overrides exported values so the flag always means one thread; BLAS
    # reads them only when numpy loads, so a late change would only falsify
    # the thread record in metadata.json
    if "numpy" in sys.modules and any(os.environ.get(v) != "1" for v in BLAS_THREAD_VARS):
        print("qpose: --deterministic cannot pin BLAS threads after numpy has loaded;"
              " thread variables left as they are", file=sys.stderr)
        return
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _shift_from_args(args):
    from .data import ShiftSpec

    spec = ShiftSpec(
        mean_offset_scale=args.offset_scale,
        feature_gain_spread=args.gain_spread,
        noise_sigma_source=args.noise_source,
        noise_sigma_target=args.noise_target,
        seed=args.seed,
    )
    return spec.scaled(args.shift)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (default: ${OUT_DIR_ENV} or ./qpose_out)")
    parser.add_argument("--deterministic", action="store_true",
                        help="pin numerics to one thread for bit-identical reruns")


def _add_shift_args(parser: argparse.ArgumentParser) -> None:
    from .data import ShiftSpec

    d = ShiftSpec()
    parser.add_argument("--shift", type=float, default=1.0,
                        help="domain-shift scale: 0 disables the shift, 1 is the default strength")
    parser.add_argument("--offset-scale", type=float, default=d.mean_offset_scale)
    parser.add_argument("--gain-spread", type=float, default=d.feature_gain_spread)
    parser.add_argument("--noise-source", type=float, default=d.noise_sigma_source)
    parser.add_argument("--noise-target", type=float, default=d.noise_sigma_target)


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    from .serialize import KINDS

    parser.add_argument("--model", required=True, choices=list(KINDS))
    parser.add_argument("--qubits", type=int, default=10)
    parser.add_argument("--layers", type=int, default=1)
    parser.add_argument("--k", type=int, default=5, help="neighbors for knn")


def _add_optimizer_args(parser: argparse.ArgumentParser, epochs: int) -> None:
    parser.add_argument("--epochs", type=int, default=epochs)
    parser.add_argument("--batch-size", type=int, default=100)
    parser.add_argument("--lr", type=float, default=0.02)
    parser.add_argument("--weight-decay", type=float, default=1e-4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpose",
        description="Hybrid quantum-classical pose recognition from Wi-Fi beam SNRs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic beam-SNR dataset CSV")
    _add_common(p)
    _add_shift_args(p)
    p.add_argument("--n-source", type=int, default=800)
    p.add_argument("--n-target", type=int, default=1040)
    p.add_argument("--out", default=None, help="CSV path (default OUT_DIR/dataset.csv)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="pretrain a model on the labeled source split")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset CSV from `gen` (or external)")
    _add_model_args(p)
    p.add_argument("--labeled-fraction", type=float, default=None,
                   help="fraction of source samples labeled for training (default 0.5)")
    p.add_argument("--labeled-count", type=int, default=None)
    _add_optimizer_args(p, epochs=100)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("transfer", help="few-shot fine-tuning on target labels")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--samples", type=int, default=None, help="labeled target sample count")
    p.add_argument("--fraction", type=float, default=None,
                   help="labeled target fraction (default 0.10)")
    _add_optimizer_args(p, epochs=50)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--mode", choices=["resample", "reshuffle"], default="resample",
                   help="resample the transfer subset per repeat, or reshuffle batches only")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset domain")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--domain", choices=["source", "target"], default="target")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("curve", help="accuracy vs labeled training sample count")
    _add_common(p)
    p.add_argument("--data", required=True)
    _add_model_args(p)
    p.add_argument("--grid", required=True,
                   help="comma-separated labeled sample counts, e.g. 52,104,208")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--eval-domain", choices=["source", "target"], default="target")
    _add_optimizer_args(p, epochs=100)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("make-figures",
                       help="gen -> train -> transfer -> eval -> curve on fixture settings")
    _add_common(p)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes for smoke testing (not the committed fixture)")
    p.set_defaults(func=cmd_make_figures, seed=FIXTURE_SEED)

    return parser


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def _fit(args, samples, seed: int, *, k: int, eval_samples=None):
    """``fit_model`` with the model and optimizer flags of ``args``."""
    from .training import TrainConfig, fit_model

    config = TrainConfig(batch_size=args.batch_size, epochs=args.epochs, lr=args.lr,
                         weight_decay=args.weight_decay, seed=seed)
    return fit_model(args.model, samples, config=config, qubits=args.qubits,
                     layers=args.layers, k=k, eval_samples=eval_samples)


def _run(args, dataset=None) -> None:
    """Run one parsed subcommand; ``dataset``, if given, is ``args.data``
    already loaded, so the stage does not parse the file again."""
    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or "qpose_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    if not hasattr(args, "data"):  # gen and make-figures
        args.func(args, out_dir)
        return
    from .data import dataset_sha256, load_csv
    from .serialize import write_run_metadata

    if dataset is None:
        dataset = load_csv(args.data)
    metrics = args.func(args, dataset, out_dir)
    write_run_metadata(out_dir / "metadata.json", command=args.command,
                       config={k: v for k, v in vars(args).items() if k != "func"},
                       seed=args.seed, dataset_hash=dataset_sha256(args.data),
                       deterministic=args.deterministic, metrics=metrics)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_gen(args, out_dir: Path) -> None:
    from .data import Domain, dataset_sha256, generate_synthetic, write_csv
    from .serialize import write_run_metadata

    shift = _shift_from_args(args)
    dataset = generate_synthetic(args.n_source, args.n_target, shift)
    out = Path(args.out) if args.out else out_dir / "dataset.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(dataset, out)

    src = dataset.class_counts(Domain.SOURCE)
    tgt = dataset.class_counts(Domain.TARGET)
    print(f"wrote {out} ({len(dataset)} samples)")
    print("pose  source  target")
    for c in range(len(src)):
        print(f"{c:4d}  {src[c]:6d}  {tgt[c]:6d}")
    print(f"sum   {src.sum():6d}  {tgt.sum():6d}")

    write_run_metadata(
        out_dir / "gen_metadata.json",
        command="gen",
        config={
            "n_source": args.n_source,
            "n_target": args.n_target,
            "shift_scale": args.shift,
            "shift_spec": vars(shift),
            "out": str(out),
        },
        seed=args.seed,
        dataset_hash=dataset_sha256(out),
        deterministic=args.deterministic,
        metrics={"n_source": int(src.sum()), "n_target": int(tgt.sum())},
    )


def cmd_train(args, dataset, out_dir: Path) -> dict:
    from .data import Domain, split_labeled
    from .evaluation import evaluate
    from .serialize import save_checkpoint

    fraction = args.labeled_fraction
    if fraction is None and args.labeled_count is None:
        fraction = 0.5
    split = split_labeled(dataset, Domain.SOURCE, fraction=fraction, count=args.labeled_count,
                          seed=args.seed)
    if not split.labeled:
        raise ValueError("labeled source split is empty; raise --labeled-fraction")
    model, trace = _fit(args, split.labeled, args.seed, k=args.k,
                        eval_samples=split.evaluation or None)

    summary = {"model": args.model}
    if hasattr(model, "param_counts"):
        summary |= model.param_counts()
    if split.evaluation:
        summary["in_domain"] = evaluate(model, split.evaluation).to_dict()
    target = dataset.by_domain(Domain.TARGET)
    if target:
        summary["cross_domain"] = evaluate(model, target).to_dict()
    if trace is not None:
        summary["final_train_loss"] = trace.losses[-1] if trace.losses else None
        summary["epochs_run"] = len(trace.records)

    save_checkpoint(model, out_dir / "checkpoint.json")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    acc = summary.get("in_domain", {}).get("accuracy")
    # knn and gnb have no parameter count, and --labeled-fraction 1.0 holds nothing out
    clauses = []
    if "total_params" in summary:
        clauses.append(f"params={summary['total_params']}")
    if acc is not None:
        clauses.append(f"in-domain accuracy={acc}")
    print(f"trained {args.model}" + (": " + " ".join(clauses) if clauses else ""))
    return {"in_domain_accuracy": acc,
            "cross_domain_accuracy": summary.get("cross_domain", {}).get("accuracy")}


def cmd_transfer(args, dataset, out_dir: Path) -> dict:
    from .serialize import load_checkpoint, save_checkpoint
    from .training import TransferConfig, run_repeated

    model = load_checkpoint(args.checkpoint)
    if not hasattr(model, "transfer_frozen"):
        raise ValueError(f"model kind `{model.kind}` does not support fine-tuning")

    samples = args.samples
    fraction = args.fraction
    if samples is None and fraction is None:
        fraction = 0.10
    config = TransferConfig(
        n_transfer=samples,
        transfer_fraction=fraction,
        batch_size=args.batch_size,
        epochs=args.epochs,
        lr=args.lr,
        weight_decay=args.weight_decay,
        seed=args.seed,
        resample=args.mode == "resample",
    )
    result, models = run_repeated(model, dataset, config, n_repeats=args.repeats)

    save_checkpoint(models[0], out_dir / "transfer_checkpoint.json")
    doc = result.to_dict() | {"mode": args.mode}
    (out_dir / "transfer_summary.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )
    print(f"transfer {model.kind}: pre={doc['pre_accuracy_mean']:.4f}"
          f" post={doc['post_accuracy_mean']:.4f} +- {doc['post_accuracy_std']:.4f}"
          f" over {args.repeats} repeats")
    return {k: doc[k] for k in ("pre_accuracy_mean", "post_accuracy_mean", "post_accuracy_std")}


def cmd_eval(args, dataset, out_dir: Path) -> dict:
    from .data import Domain
    from .evaluation import evaluate, write_confusion_csv, write_roc_csvs, write_summary_json
    from .serialize import load_checkpoint

    model = load_checkpoint(args.checkpoint)
    samples = dataset.by_domain(Domain(args.domain))
    if not samples:
        raise ValueError(f"dataset has no {args.domain} samples")
    report = evaluate(model, samples)

    write_summary_json(report, out_dir / "eval_summary.json")
    write_confusion_csv(report, out_dir / "confusion.csv")
    write_roc_csvs(report, out_dir)
    print(f"eval {model.kind} on {args.domain}: accuracy={report.accuracy:.4f}"
          f" macro_auc={report.macro_auc:.4f} micro_auc={report.micro_auc:.4f}")
    return {"accuracy": report.accuracy, "macro_auc": report.macro_auc,
            "micro_auc": report.micro_auc}


def cmd_curve(args, dataset, out_dir: Path) -> dict:
    from .data import Domain, split_labeled
    from .evaluation import accuracy_vs_samples_curve, write_curve_csv

    grid = [int(v) for v in args.grid.split(",") if v.strip()]
    if not grid:
        raise ValueError("empty --grid")

    if args.eval_domain == "target":
        pool = dataset.by_domain(Domain.SOURCE)
        eval_samples = dataset.by_domain(Domain.TARGET)
    else:
        # in-domain curve: hold out a fixed quarter of the source domain
        split = split_labeled(dataset, Domain.SOURCE, fraction=0.75, seed=args.seed)
        pool, eval_samples = split.labeled, split.evaluation

    def factory(samples, seed):
        return _fit(args, samples, seed, k=min(args.k, len(samples)))[0]

    points = accuracy_vs_samples_curve(
        factory, pool, eval_samples, grid, seed=args.seed, n_repeats=args.repeats,
    )
    write_curve_csv(points, out_dir / "curve.csv")
    for p in points:
        print(f"n={p.n_labeled:5d} accuracy={p.mean_accuracy:.4f} +- {p.std_accuracy:.4f}")
    return {str(p.n_labeled): p.mean_accuracy for p in points}


# ---------------------------------------------------------------------------
# The committed fixture pipeline.
# ---------------------------------------------------------------------------

# Committed fixture: seeds and sizes are part of the regression surface, so
# changing any value here invalidates the stored expectations in the tests.
FIXTURE_SEED = 7

FIXTURE = {
    "n_source": 800,
    "n_target": 1040,
    "labeled_fraction": 0.5,
    "dnn_epochs": 100,
    "qnn_epochs": 60,
    "transfer_fraction": 0.10,
    "transfer_epochs": 40,
    "repeats": 5,
    "curve_grid": [32, 64, 128, 256, 400],
}

QUICK = {
    "n_source": 160,
    "n_target": 160,
    "labeled_fraction": 0.5,
    "dnn_epochs": 10,
    "qnn_epochs": 3,
    "transfer_fraction": 0.10,
    "transfer_epochs": 2,
    "repeats": 2,
    "curve_grid": [16, 40],
}


def cmd_make_figures(args, out_dir: Path) -> None:
    from .data import load_csv
    from .serialize import KINDS

    fx = QUICK if args.quick else FIXTURE
    seed = args.seed
    det = ["--deterministic"] if args.deterministic else []
    data = str(out_dir / "dataset.csv")
    parser = build_parser()

    # a failing stage raises to main, which prints its one error document
    _run(parser.parse_args(["gen", "--seed", str(seed), "--n-source", str(fx["n_source"]),
                            "--n-target", str(fx["n_target"]), "--out", data,
                            "--out-dir", str(out_dir)] + det))
    dataset = load_csv(data)

    def run(argv) -> None:
        _run(parser.parse_args(argv), dataset)

    for model in KINDS:
        epochs = fx["qnn_epochs"] if model == "qnn" else fx["dnn_epochs"]
        run(["train", "--seed", str(seed), "--data", data, "--model", model,
             "--labeled-fraction", str(fx["labeled_fraction"]),
             "--epochs", str(epochs),
             "--out-dir", str(out_dir / model)] + det)

    tunable = [kind for kind, cls in KINDS.items() if hasattr(cls, "transfer_frozen")]
    for model in tunable:
        run(["transfer", "--seed", str(seed), "--data", data,
             "--checkpoint", str(out_dir / model / "checkpoint.json"),
             "--fraction", str(fx["transfer_fraction"]),
             "--epochs", str(fx["transfer_epochs"]),
             "--repeats", str(fx["repeats"]),
             "--out-dir", str(out_dir / f"transfer_{model}")] + det)

    for model in tunable:
        run(["eval", "--seed", str(seed), "--data", data,
             "--checkpoint", str(out_dir / model / "checkpoint.json"),
             "--domain", "target",
             "--out-dir", str(out_dir / f"eval_{model}")] + det)

    grid = ",".join(str(g) for g in fx["curve_grid"])
    for model in ("dnn", "knn"):
        run(["curve", "--seed", str(seed), "--data", data, "--model", model,
             "--grid", grid, "--epochs", str(fx["dnn_epochs"]),
             "--out-dir", str(out_dir / f"curve_{model}")] + det)

    facts = {"fixture": fx, "seed": seed, "models": {}}
    for model in KINDS:
        summary = json.loads((out_dir / model / "summary.json").read_text(encoding="utf-8"))
        entry = {
            "params": {k: summary[k] for k in
                       ("total_params", "quantum_params", "classical_params") if k in summary},
            "in_domain_accuracy": summary["in_domain"]["accuracy"],
            "cross_domain_accuracy": summary["cross_domain"]["accuracy"],
            "cross_domain_macro_auc": summary["cross_domain"]["macro_auc"],
            "cross_domain_micro_auc": summary["cross_domain"]["micro_auc"],
        }
        if model in tunable:
            tdoc = json.loads(
                (out_dir / f"transfer_{model}" / "transfer_summary.json").read_text(
                    encoding="utf-8"
                )
            )
            entry["transfer"] = tdoc
        facts["models"][model] = entry
    (out_dir / "facts.json").write_text(json.dumps(facts, indent=2) + "\n", encoding="utf-8")
    print(f"fixture pipeline complete; aggregated numbers in {out_dir / 'facts.json'}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads any unique prefix as the option, so `--det` pins too
    if any(len(a) > 2 and "--deterministic".startswith(a) for a in argv):
        _force_single_thread()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args)
        return 0
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001  - boundary: report and exit nonzero
        doc = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(doc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
