"""Row kernels for the classifier's RY/CZ circuits.

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
`ry_rows(amps, qubit, cos, sines)` takes its angle as the half-angle
factors of `ry_factors`, so a caller can take the cos and sin of many gates
in one pass; the kernel itself is three in-place row operations.
`z_expectations_rows` reads out (batch, 2^n) basis-state probabilities, one
state per row, by elementwise adds and subtracts in an order fixed by n,
so a state's <Z> has the same bits in any batch, strides or SIMD width; no
BLAS call is made. `quantum_classifier.z_from_angles` is the one circuit
runner built on them.
"""

from __future__ import annotations

import numpy as np


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


def ry_factors(theta):
    """The factors `ry_rows` takes for RY(``theta``): ``(cos, sines)``, the
    cosine of the half angle and the (2, ...) pair (-sin, +sin) of it, for a
    scalar ``theta`` or a per-column vector."""
    half = np.multiply(theta, 0.5)
    sin = np.sin(half)
    return np.cos(half), np.stack([-sin, sin])


def ry_rows(amps: np.ndarray, qubit: int, cos, sines) -> None:
    """Apply RY on ``qubit`` to every state (column) of ``amps``, in place,
    from its `ry_factors`: ``cos`` a scalar or per-column vector and
    ``sines`` the matching (2, ...) pair (-sin, +sin).

    Three operations: the pair-swapped amplitudes times their signed sines,
    then ``a * cos`` plus that. Each amplitude takes the two products and
    the one add or subtract of a 2x2 rotation; negation is exact, so
    ``a0 * c + (-s) * a1`` has the bits of ``a0 * c - s * a1``.
    """
    dim, batch = amps.shape
    _check_qubit(qubit, dim.bit_length() - 1)
    view = amps.reshape(dim >> (qubit + 1), 2, 1 << qubit, batch)
    swapped = sines.reshape(2, 1, -1) * view[:, ::-1]
    view *= cos
    view += swapped


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
