"""Sweep the domain-shift knobs and report cross-domain accuracy per setting.

Source-domain samples depend only on (seed, noise_sigma_source): the anchor,
source, and target draws come from three independent child streams with fixed
draw counts, so changing the offset scale, gain spread, or target noise level
leaves every source row byte-identical. Each model is therefore pretrained
once, and a whole grid of shift settings costs evaluation passes only.

This is how the committed ShiftSpec defaults were picked. The offset scale is
the knob with leverage: class anchors sit roughly 40 apart in L2, and a
per-feature offset of scale s moves every sample by about s per axis, so
cross-domain accuracy barely moves until s becomes comparable to the anchor
spread and then drops quickly. The quantum model degrades a few points faster
than the residual DNN, which narrows the window where both land in the same
accuracy band; offset 10.5 with gain spread 0.3 and noise 5.0 puts both
inside 75-88% cross-domain while in-domain accuracy stays above 95%.

    python3 scripts/calibrate_shift.py --models dnn,qnn \
        --offset-grid 8,9,10,10.5,11,12
"""

import argparse
import sys


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--models", default="dnn,qnn",
                        help="comma-separated subset of dnn,qnn")
    parser.add_argument("--offset-grid", default="0,4,8,9,10,10.5,11,12,16",
                        help="comma-separated mean_offset_scale values to sweep")
    parser.add_argument("--gain-spread", type=float, default=None,
                        help="feature_gain_spread (default: committed value)")
    parser.add_argument("--noise-source", type=float, default=None)
    parser.add_argument("--noise-target", type=float, default=None)
    parser.add_argument("--n-source", type=int, default=800)
    parser.add_argument("--n-target", type=int, default=1040)
    parser.add_argument("--labeled-fraction", type=float, default=0.5)
    parser.add_argument("--dnn-epochs", type=int, default=100)
    parser.add_argument("--qnn-epochs", type=int, default=60)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)

    from qpose.data import Domain, ShiftSpec, generate_synthetic, split_labeled
    from qpose.training import TrainConfig, accuracy_of, fit_model

    base = ShiftSpec()
    spread = base.feature_gain_spread if args.gain_spread is None else args.gain_spread
    noise_s = base.noise_sigma_source if args.noise_source is None else args.noise_source
    noise_t = base.noise_sigma_target if args.noise_target is None else args.noise_target
    offsets = [float(v) for v in args.offset_grid.split(",") if v.strip()]
    names = [m.strip() for m in args.models.split(",") if m.strip()]
    unknown = set(names) - {"dnn", "qnn"}
    if unknown:
        raise SystemExit(f"unsupported models: {sorted(unknown)}")

    def spec(offset: float) -> ShiftSpec:
        return ShiftSpec(mean_offset_scale=offset, feature_gain_spread=spread,
                         noise_sigma_source=noise_s, noise_sigma_target=noise_t,
                         seed=args.seed)

    # source rows are invariant to the swept knobs, so any offset works here
    dataset = generate_synthetic(args.n_source, args.n_target, spec(0.0))
    split = split_labeled(dataset, Domain.SOURCE, fraction=args.labeled_fraction,
                          seed=args.seed)

    models = {}
    for name in names:
        epochs = args.dnn_epochs if name == "dnn" else args.qnn_epochs
        print(f"pretraining {name} ({epochs} epochs on "
              f"{len(split.labeled)} labeled source samples)...", flush=True)
        model, _ = fit_model(name, split.labeled, config=TrainConfig(epochs=epochs, seed=args.seed))
        in_domain = accuracy_of(model, split.evaluation or split.labeled)
        print(f"  {name} in-domain accuracy {in_domain:.4f}")
        models[name] = model

    header = "offset  " + "  ".join(f"{n:>8s}" for n in names)
    print()
    print(header)
    for offset in offsets:
        target = generate_synthetic(args.n_source, args.n_target,
                                    spec(offset)).by_domain(Domain.TARGET)
        row = "  ".join(f"{accuracy_of(models[n], target):8.4f}" for n in names)
        print(f"{offset:6.2f}  {row}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
