"""Gate description and row kernels for the classifier's RY/CZ circuits.

Conventions
-----------
Qubit 0 is the least significant bit of the basis index, so for two qubits
the basis order is |00>, |01>, |10>, |11> with the rightmost bit belonging
to qubit 0. The gate set is exactly what the classifier needs: parameterized
Pauli-Y rotations, controlled-Z entanglers, and exact (noise-free) Pauli-Z
expectation readout per qubit.

RY and CZ have real matrix elements, so circuits starting from |0...0> keep
purely real amplitudes, and every buffer here is float64. The row kernels
(`zero_states`, `ry_rows`, `cz_rows`, `z_expectations_rows`) act in place
on a (batch, 2^n) buffer of stacked states with stride-based pair
indexing, O(2^n) work per gate and row; a 2^n x 2^n matrix is never
materialized. `quantum_classifier.z_from_angles` is the one circuit runner
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
# Row kernels: operate in place on a C-contiguous (batch, 2^n) buffer.
# ---------------------------------------------------------------------------


def zero_states(n_qubits: int, batch: int = 1) -> np.ndarray:
    """Stack of ``batch`` copies of |0...0> as a float64 (batch, 2^n) buffer."""
    amps = np.zeros((batch, 1 << n_qubits))
    amps[:, 0] = 1.0
    return amps


def ry_rows(amps: np.ndarray, qubit: int, theta) -> None:
    """Apply RY(theta) on ``qubit`` to every row of ``amps``, in place.

    ``theta`` is a scalar shared by all rows or a per-row vector.
    """
    batch, dim = amps.shape
    _check_qubit(qubit, dim.bit_length() - 1)
    low = 1 << qubit
    view = amps.reshape(batch, dim >> (qubit + 1), 2, low)
    c = np.cos(np.multiply(theta, 0.5))
    s = np.sin(np.multiply(theta, 0.5))
    if np.ndim(c):
        c = c[:, None, None]
        s = s[:, None, None]
    a0 = view[:, :, 0, :].copy()
    a1 = view[:, :, 1, :]
    view[:, :, 0, :] = c * a0 - s * a1
    view[:, :, 1, :] *= c
    view[:, :, 1, :] += s * a0


def cz_rows(amps: np.ndarray, a: int, b: int) -> None:
    """Apply CZ between qubits ``a`` and ``b`` to every row, in place."""
    batch, dim = amps.shape
    n = dim.bit_length() - 1
    _check_qubit(a, n)
    _check_qubit(b, n)
    if a == b:
        raise IndexError("CZ control and target must differ")
    lo, hi = (a, b) if a < b else (b, a)
    view = amps.reshape(batch, dim >> (hi + 1), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    view[:, :, 1, :, 1, :] *= -1.0


@lru_cache(maxsize=None)
def z_signs(n_qubits: int) -> np.ndarray:
    """(2^n, n) matrix of Pauli-Z eigenvalues: column q holds +1/-1 per basis
    state according to bit q."""
    idx = np.arange(1 << n_qubits)
    bits = (idx[:, None] >> np.arange(n_qubits)[None, :]) & 1
    return 1.0 - 2.0 * bits.astype(np.float64)


def z_expectations_rows(amps: np.ndarray) -> np.ndarray:
    """Per-qubit <Z> for every row of a (batch, 2^n) buffer, as (batch, n)."""
    dim = amps.shape[1]
    return (amps * amps) @ z_signs(dim.bit_length() - 1)
