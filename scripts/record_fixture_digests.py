"""Record the sha256 of the committed fixture's facts.json and checkpoints
for this host's class in tests/fixture_digests.json.

A class is the numpy version and the SIMD features numpy enabled, as every
metadata.json records them: numpy picks its loops by CPU feature, and the
DNN and QNN outputs follow them in the last digits. tests/test_acceptance.py
compares its fixture run with the digests of the run's class, and skips on
a class with none. Record every class a host can run, for example:

    python3 scripts/record_fixture_digests.py
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" python3 scripts/record_fixture_digests.py

and re-record only when a change moves the outputs on purpose.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

RECORD = Path(__file__).resolve().parents[1] / "tests" / "fixture_digests.json"
FILES = ("facts.json", "dnn/checkpoint.json", "qnn/checkpoint.json", "knn/checkpoint.json",
         "gnb/checkpoint.json", "transfer_dnn/transfer_checkpoint.json",
         "transfer_qnn/transfer_checkpoint.json")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        subprocess.run([sys.executable, "-m", "qpose", "make-figures", "--deterministic",
                        "--out-dir", str(out)], check=True, stdout=subprocess.DEVNULL)
        meta = json.loads((out / "gen_metadata.json").read_text(encoding="utf-8"))
        entry = {"numpy_version": meta["numpy_version"], "numpy_simd": meta["numpy_simd"],
                 "sha256": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in FILES}}
    classes = json.loads(RECORD.read_text(encoding="utf-8"))["classes"] if RECORD.exists() else []
    key = (entry["numpy_version"], entry["numpy_simd"])
    classes = [c for c in classes if (c["numpy_version"], c["numpy_simd"]) != key] + [entry]
    RECORD.write_text(json.dumps({"classes": classes}, indent=2) + "\n", encoding="utf-8")
    print(f"recorded numpy {key[0]} with {len(key[1])} SIMD features in {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
