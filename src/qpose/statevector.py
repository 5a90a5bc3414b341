"""Gate description and row kernels for the classifier's RY/CZ circuits.

Conventions
-----------
Qubit 0 is the least significant bit of the basis index, so for two qubits
the basis order is |00>, |01>, |10>, |11> with the rightmost bit belonging
to qubit 0. The gate set is exactly what the classifier needs: parameterized
Pauli-Y rotations, controlled-Z entanglers, and exact (noise-free) Pauli-Z
expectation readout per qubit.

RY and CZ have real matrix elements, so circuits starting from |0...0> keep
purely real amplitudes, and every buffer here is float64. The gate kernels
(`zero_states`, `ry_rows`, `cz_rows`) act in place on a basis-major
(2^n, batch) buffer: column i holds state i, and row b holds amplitude b of
every state. A gate then pairs whole rows, so each kernel call is a few
long row operations whatever the batch, O(2^n) work per gate and state; a
2^n x 2^n matrix is never materialized. A column slice of the buffer is a
valid argument, which lets a caller run a gate on its leading states only.
`z_expectations_rows` reads out (batch, 2^n) basis-state probabilities, one
state per row. `quantum_classifier.z_from_angles` is the one circuit runner
built on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np


class GateKind(Enum):
    RY = "ry"
    CZ = "cz"


@dataclass(frozen=True)
class GateOp:
    """One circuit instruction.

    RY carries an ``angle_slot`` index into a parameter vector and no
    control; CZ carries a control qubit and no angle.
    """

    kind: GateKind
    target: int
    control: int | None = None
    angle_slot: int | None = None

    def __post_init__(self) -> None:
        if self.target < 0:
            raise IndexError(f"negative target qubit {self.target}")
        if self.kind is GateKind.RY:
            if self.angle_slot is None:
                raise ValueError("RY gate requires an angle_slot")
            if self.control is not None:
                raise ValueError("RY gate takes no control qubit")
        else:
            if self.angle_slot is not None:
                raise ValueError("CZ gate takes no angle_slot")
            if self.control is None:
                raise ValueError("CZ gate requires a control qubit")
            if self.control == self.target:
                raise IndexError("CZ control and target must differ")
            if self.control < 0:
                raise IndexError(f"negative control qubit {self.control}")


def ry(target: int, angle_slot: int) -> GateOp:
    return GateOp(GateKind.RY, target, angle_slot=angle_slot)


def cz(control: int, target: int) -> GateOp:
    return GateOp(GateKind.CZ, target, control=control)


def _check_qubit(qubit: int, n_qubits: int) -> None:
    if not 0 <= qubit < n_qubits:
        raise IndexError(f"qubit {qubit} out of range for {n_qubits} qubits")


# ---------------------------------------------------------------------------
# Kernels: gates act in place on a (2^n, batch) buffer, one state per column.
# ---------------------------------------------------------------------------


def zero_states(n_qubits: int, batch: int = 1) -> np.ndarray:
    """``batch`` copies of |0...0> as the columns of a float64 (2^n, batch)
    buffer."""
    amps = np.zeros((1 << n_qubits, batch))
    amps[0] = 1.0
    return amps


def ry_rows(amps: np.ndarray, qubit: int, theta) -> None:
    """Apply RY(theta) on ``qubit`` to every state (column) of ``amps``, in
    place.

    ``theta`` is a scalar shared by all states or a per-column vector.
    """
    dim, batch = amps.shape
    _check_qubit(qubit, dim.bit_length() - 1)
    low = 1 << qubit
    view = amps.reshape(dim >> (qubit + 1), 2, low, batch)
    c = np.cos(np.multiply(theta, 0.5))
    s = np.sin(np.multiply(theta, 0.5))
    a0 = view[:, 0]
    a1 = view[:, 1]
    s_a0 = s * a0
    a0 *= c
    a0 -= s * a1
    a1 *= c
    a1 += s_a0


def cz_rows(amps: np.ndarray, a: int, b: int) -> None:
    """Apply CZ between qubits ``a`` and ``b`` to every state, in place."""
    dim, batch = amps.shape
    n = dim.bit_length() - 1
    _check_qubit(a, n)
    _check_qubit(b, n)
    if a == b:
        raise IndexError("CZ control and target must differ")
    lo, hi = (a, b) if a < b else (b, a)
    view = amps.reshape(dim >> (hi + 1), 2, 1 << (hi - lo - 1), 2, 1 << lo, batch)
    view[:, 1, :, 1] *= -1.0


@lru_cache(maxsize=None)
def z_signs(n_qubits: int) -> np.ndarray:
    """(2^n, n) matrix of Pauli-Z eigenvalues: column q holds +1/-1 per basis
    state according to bit q."""
    idx = np.arange(1 << n_qubits)
    bits = (idx[:, None] >> np.arange(n_qubits)[None, :]) & 1
    return 1.0 - 2.0 * bits.astype(np.float64)


def z_expectations_rows(probs: np.ndarray) -> np.ndarray:
    """Per-qubit <Z> from a (batch, 2^n) buffer of basis-state
    probabilities (squared amplitudes, one state per row), as (batch, n)."""
    dim = probs.shape[1]
    return probs @ z_signs(dim.bit_length() - 1)
