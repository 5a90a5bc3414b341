"""Run the committed fixture pipeline and print the headline accuracy table.

Wraps `qpose make-figures --deterministic` (seed 7, single-threaded numerics,
about 20 seconds on one core) and digests facts.json afterwards into the
markdown rows of the README's table. --quick substitutes a tiny smoke-test
fixture that finishes in under a minute.
"""

import argparse
import json
import sys
from pathlib import Path


def headline_table(facts: dict) -> list[str]:
    """The README table rows for ``facts``: 4 decimals, `-` where a model has
    no such value, columns padded to a common width."""
    repeats = {e["transfer"]["n_repeats"] for e in facts["models"].values() if e.get("transfer")}
    transfer_head = "few-shot transfer" + (f" ({repeats.pop()} repeats)" if len(repeats) == 1 else "")
    table = [["model", "params", "in-domain", "cross-domain", transfer_head]]
    for name, entry in facts["models"].items():
        params = entry["params"].get("total_params")
        transfer = entry.get("transfer")
        table.append([
            name,
            "-" if params is None else str(params),
            *("-" if entry.get(key) is None else f"{entry[key]:.4f}"
              for key in ("in_domain_accuracy", "cross_domain_accuracy")),
            f"{transfer['post_accuracy_mean']:.4f} +- {transfer['post_accuracy_std']:.4f}"
            if transfer else "-",
        ])
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = ["| " + " | ".join(cell.ljust(w) for cell, w in zip(row, widths)) + " |"
             for row in table]
    lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return lines


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
    print("\n".join(headline_table(facts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
