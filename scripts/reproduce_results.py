"""Run the committed fixture pipeline and print the headline accuracy table.

Wraps `qpose make-figures --deterministic` (seed 7, single-threaded numerics,
about 20 seconds on one core) and digests facts.json afterwards. --quick
substitutes a tiny smoke-test fixture that finishes in under a minute.
"""

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for a fast smoke run")
    args = parser.parse_args(argv)

    # import kept local so --deterministic pins threads before numpy loads
    from qpose.cli import main as qpose_main

    cmd = ["make-figures", "--deterministic", "--out-dir", args.out_dir]
    if args.quick:
        cmd.append("--quick")
    code = qpose_main(cmd)
    if code != 0:
        return code

    facts = json.loads((Path(args.out_dir) / "facts.json").read_text(encoding="utf-8"))
    print()
    print(f"seed {facts['seed']}  ({'quick smoke fixture' if args.quick else 'committed fixture'})")
    print("model  params  in-domain  cross-domain  few-shot transfer")
    for name, entry in facts["models"].items():
        params = entry["params"].get("total_params")
        transfer = entry.get("transfer")
        post = (f"{transfer['post_accuracy_mean']:.4f} +- {transfer['post_accuracy_std']:.4f}"
                f" ({transfer['n_repeats']} repeats)") if transfer else "-"
        print(f"{name:5s}  {params if params is not None else '-':>6}  "
              f"{entry['in_domain_accuracy']:9.4f}  {entry['cross_domain_accuracy']:12.4f}  {post}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
