"""Hybrid quantum-classical pose recognition from Wi-Fi beam SNRs.

Submodules: statevector (circuit simulator), quantum_classifier (dressed
variational classifier), neural (residual DNN, AdamW), data (datasets and
the synthetic domain-shift generator), baselines (kNN, GNB), training
(pretrain / transfer fine-tuning), evaluation (accuracy, ROC-AUC),
serialize (checkpoints), cli (experiment driver).

Submodules load lazily so the CLI can pin thread counts before numpy
comes in.
"""

from importlib import import_module

__version__ = "0.1.0"

# Thread-count variables of the BLAS / OpenMP runtimes numpy may load.
# `--deterministic` pins each to 1; run metadata records their values.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

_SUBMODULES = (
    "statevector",
    "quantum_classifier",
    "neural",
    "data",
    "baselines",
    "training",
    "evaluation",
    "serialize",
    "cli",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
