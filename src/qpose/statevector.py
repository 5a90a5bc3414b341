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
state per row, by elementwise adds and subtracts in an order fixed by n,
so a state's <Z> has the same bits in any batch, strides or SIMD width; no
BLAS call is made. `quantum_classifier.z_from_angles` is the one circuit
runner built on them.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np


class GateKind(Enum):
    RY = "ry"
    CZ = "cz"


class GateOp(NamedTuple):
    """One circuit instruction.

    RY carries an ``angle_slot`` index into a parameter vector and no
    control; CZ carries a control qubit and no angle. Nothing is checked
    here: `ry_rows` and `cz_rows` refuse a bad qubit when the gate runs.
    """

    kind: GateKind
    target: int
    control: int | None = None
    angle_slot: int | None = None


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


def z_expectations_rows(probs: np.ndarray) -> np.ndarray:
    """Per-qubit <Z> from a (batch, 2^n) buffer of basis-state
    probabilities (squared amplitudes, one state per row, any strides), as
    (batch, n).

    A butterfly, highest qubit first: the basis axis splits into halves
    lo, hi; lo - hi, summed down to one value by halving, is that qubit's
    <Z>, and lo + hi carries on to the next qubit. One (k + 1, 2^(n-k),
    batch) buffer holds the k differences being halved, newest first, and
    the carry last, so a step is one subtract and one add."""
    dim = probs.shape[1]
    buf = probs.T[None]
    while dim > 1:
        dim //= 2
        lo, hi = buf[:, :dim], buf[:, dim:]
        nxt = np.empty((len(buf) + 1, dim, probs.shape[0]))
        np.subtract(lo[-1], hi[-1], out=nxt[0])
        np.add(lo, hi, out=nxt[1:])
        buf = nxt
    return buf[:-1, 0].T
