"""Dense statevector simulation of RY/CZ circuits.

Conventions
-----------
Qubit 0 is the least significant bit of the basis index, so for two qubits
the basis order is |00>, |01>, |10>, |11> with the rightmost bit belonging
to qubit 0. The gate set is exactly what the classifier needs: parameterized
Pauli-Y rotations, controlled-Z entanglers, and exact (noise-free) Pauli-Z
expectation readout per qubit.

Gates act in place on the amplitude buffer with stride-based pair indexing,
O(2^n) work per gate; a 2^n x 2^n matrix is never materialized. RY and CZ
both have real matrix elements, so circuits starting from |0...0> keep
purely real amplitudes; the row kernels (`ry_rows`, `cz_rows`,
`z_expectations_rows`) therefore accept a float64 buffer of stacked states
as well. `QuantumState` itself always stores complex128.
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


@dataclass(eq=False)
class QuantumState:
    """Dense complex amplitude vector over the 2^n computational basis."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({1 << self.n_qubits},)"
            )
        self.amplitudes = amps

    @classmethod
    def zero(cls, n_qubits: int) -> "QuantumState":
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        a = self.amplitudes
        return a.real * a.real + a.imag * a.imag


def _check_qubit(qubit: int, n_qubits: int) -> None:
    if not 0 <= qubit < n_qubits:
        raise IndexError(f"qubit {qubit} out of range for {n_qubits} qubits")


# ---------------------------------------------------------------------------
# Row kernels: operate in place on a C-contiguous (batch, 2^n) buffer.
# ---------------------------------------------------------------------------


def zero_states(n_qubits: int, batch: int = 1, dtype=np.complex128) -> np.ndarray:
    """Stack of ``batch`` copies of |0...0> as a (batch, 2^n) buffer."""
    amps = np.zeros((batch, 1 << n_qubits), dtype=dtype)
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
    n = dim.bit_length() - 1
    if np.iscomplexobj(amps):
        probs = amps.real * amps.real + amps.imag * amps.imag
    else:
        probs = amps * amps
    return probs @ z_signs(n)


# ---------------------------------------------------------------------------
# Whole circuits.
# ---------------------------------------------------------------------------


def run_circuit(n_qubits: int, ops, params) -> QuantumState:
    """Apply ``ops`` in order to |0...0>, binding RY angles from ``params``.

    Raises ValueError for an angle_slot with no matching parameter, before
    any gate is applied.
    """
    params = np.asarray(params, dtype=np.float64)
    ops = list(ops)
    for op in ops:
        if op.kind is GateKind.RY and op.angle_slot >= params.shape[0]:
            raise ValueError(
                f"angle_slot {op.angle_slot} is not bound by a "
                f"{params.shape[0]}-element parameter vector"
            )
    amps = zero_states(n_qubits, batch=1)
    for op in ops:
        if op.kind is GateKind.RY:
            _check_qubit(op.target, n_qubits)
            ry_rows(amps, op.target, params[op.angle_slot])
        else:
            _check_qubit(op.target, n_qubits)
            _check_qubit(op.control, n_qubits)
            cz_rows(amps, op.control, op.target)
    return QuantumState(n_qubits, amps[0])
