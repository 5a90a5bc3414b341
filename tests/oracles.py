"""Independent reference implementations used to verify the package.

Everything here deliberately avoids the production code paths: circuits are
simulated with 2^n x 2^n gate matrices built from Kronecker products, AUC
is computed by brute-force pairwise comparison in exact rational
arithmetic, gradients come from central finite differences, and Gaussian
naive Bayes posteriors from direct density products at 50-digit precision.

`dressed_gates` is the reference circuit: the dressed QNN's whole gate
list as plain ``(target, control, slot)`` tuples, stated apart from the
package, whose light cones compute their gates by slot arithmetic. Every
circuit oracle here runs on it. `dense_shift_sweep` is the Kronecker
reference for the package's circuit runner, `z_from_angles`: the dressed
circuit and every +-pi/2 shift of it on the whole register.

The exceptions drive the production kernels (`ry_rows`, `cz_rows`,
`z_expectations_rows`): `run_circuit` (one kernel call per gate) and the
single-state helpers `apply_ry`, `apply_cz` and `expectation_z`, which the
tests check against the Kronecker oracle, and `full_width_sweep`, the
all-qubit staircase that the light cones of `z_from_angles` must match to
1e-12. `per_gate_sweep` is the sweep of `z_from_angles` before its RY
factors were taken once a staircase: each light-cone group of
`cone_stacks` alone, every RY gate building its angles and taking their
cos and sin as it runs, through `six_op_ry_rows`, the kernel `ry_rows`
replaced. `z_from_angles` must match it bit for bit. `per_cone_sweep` runs the light-cone groups of `walk_light_cones`
one at a time on row-major (states, 2^w) buffers, all rows at once, with
its own row kernels and the production readout: the form that the
basis-major, stacked and chunked sweep of `z_from_angles` must match bit
for bit. `walk_light_cones` finds each readout qubit's cone with a set of
live qubits, not the interval steps of the package's `cone_stacks`.
`gemm_z_expectations` is the readout as one matrix product with the table
of Z eigenvalues, which the butterfly of `z_expectations_rows` must match
to 1e-13.

`loop_binary_roc`, `csv_text_by_value`, `per_row_load_csv` and
`loop_stratified_subset` are the loop forms of the array-at-a-time ROC
sweep, CSV rendering, CSV parse and subset draw in the package: one tie
group, one float and one row at a time, with Python integers and lists.
`roc_vertices` reduces `loop_binary_roc`'s full curve to the vertices the
package keeps, one point at a time, by an integer cross product of the
counts behind the rates.

`full_sort_knn_scores` is the kNN vote before its shortlist: one
(queries, references, features) difference, its squares summed over the
last axis and a stable argsort of every distance row.
`broadcast_gnb_log_posteriors` is GNB's scoring before its row blocks: one
(queries, classes, features) difference for all queries at once.

`logaddexp_mish` and `logaddexp_mish_grad` form softplus with
`np.logaddexp`, which numpy evaluates through scalar libm calls; the
package's exp/log1p form runs numpy's vector loops and may differ from them
by a few ulp. `mish_grad` is Mish' in the package's own form, its
backprop expression with softplus and tanh recomputed, and
`identity_normalizer` the normalizer that changes nothing; only the tests
need these two.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from qpose.data import (CSV_BLOCK_ROWS, CSV_HEADER, N_CLASSES, N_FEATURES, CsvFormatError,
                        Dataset, Domain, FeatureNormalizer, apportion)
from qpose.neural import _mish_derivative, softplus
from qpose.quantum_classifier import cone_stacks
from qpose.statevector import cz_rows, ry_factors, ry_rows, z_expectations_rows, zero_states


def dressed_gates(n_qubits: int, n_layers: int) -> list[tuple]:
    """The dressed circuit as ``(target, control, slot)`` gates, an RY with
    no control and a CZ with no slot: an encoding RY on every qubit (slots
    0..n-1), then the ansatz's layers (slots n..n+2(n-1)L-1), each block
    A's pairs (0,1),(2,3),... and then block B's pairs (1,2),(3,4),...,
    each pair a CZ and an RY on both of its qubits."""
    gates = [(q, None, q) for q in range(n_qubits)]
    slot = n_qubits
    for _ in range(n_layers):
        for start in (0, 1):
            for a in range(start, n_qubits - 1, 2):
                gates += [(a + 1, a, None), (a, None, slot), (a + 1, None, slot + 1)]
                slot += 2
    return gates


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def single_qubit_embed(n_qubits: int, qubit: int, m2: np.ndarray) -> np.ndarray:
    """Embed a one-qubit matrix at `qubit` (little-endian: qubit 0 is the
    least-significant bit, so it sits rightmost in the Kronecker chain)."""
    out = np.eye(1, dtype=np.complex128)
    for q in reversed(range(n_qubits)):
        out = np.kron(out, m2 if q == qubit else np.eye(2))
    return out


def cz_matrix(n_qubits: int, a: int, b: int) -> np.ndarray:
    dim = 1 << n_qubits
    diag = np.ones(dim, dtype=np.complex128)
    for i in range(dim):
        if (i >> a) & 1 and (i >> b) & 1:
            diag[i] = -1.0
    return np.diag(diag)


def z_matrix(n_qubits: int, qubit: int) -> np.ndarray:
    return single_qubit_embed(n_qubits, qubit, np.diag([1.0, -1.0]).astype(np.complex128))


def circuit_matrix(n_qubits: int, ops, params) -> np.ndarray:
    """Full unitary of the gate sequence (later gates multiply from the left)."""
    u = np.eye(1 << n_qubits, dtype=np.complex128)
    for target, control, slot in ops:
        if control is None:
            g = single_qubit_embed(n_qubits, target, ry_matrix(params[slot]))
        else:
            g = cz_matrix(n_qubits, control, target)
        u = g @ u
    return u


def simulate_dense(n_qubits: int, ops, params) -> np.ndarray:
    """State after the circuit, starting from |0...0>."""
    start = np.zeros(1 << n_qubits, dtype=np.complex128)
    start[0] = 1.0
    return circuit_matrix(n_qubits, ops, params) @ start


def z_expectation_dense(state: np.ndarray, qubit: int) -> float:
    n_qubits = int(np.log2(state.size))
    return float(np.real(np.conj(state) @ z_matrix(n_qubits, qubit) @ state))


def dense_shift_sweep(ansatz, angles) -> np.ndarray:
    """<Z> of the dressed circuit and of every circuit with one angle slot
    shifted by +-pi/2, from Kronecker-embedded gate matrices.

    All 1 + 2K circuits (K = ``ansatz.n_slots``) run as the columns of one
    (2^n, 1 + 2K) block of states, each gate one matrix product. Column 0
    is the base circuit and columns 1 + 2j and 2 + 2j are the shifts of
    slot j by +pi/2 and -pi/2. Returns (1 + 2K, n)."""
    n = ansatz.n_qubits
    angles = np.asarray(angles, dtype=np.float64)
    block = np.zeros((1 << n, 1 + 2 * ansatz.n_slots), dtype=np.complex128)
    block[0] = 1.0
    for target, control, j in dressed_gates(ansatz.n_qubits, ansatz.n_layers):
        if control is not None:
            block = cz_matrix(n, control, target) @ block
            continue
        theta = angles[j]
        out = single_qubit_embed(n, target, ry_matrix(theta)) @ block
        for col, shift in ((1 + 2 * j, np.pi / 2), (2 + 2 * j, -np.pi / 2)):
            gate = single_qubit_embed(n, target, ry_matrix(theta + shift))
            out[:, col] = gate @ block[:, col]
        block = out
    return np.stack([np.real(np.sum(np.conj(block) * (z_matrix(n, q) @ block), axis=0))
                     for q in range(n)], axis=1)


def gemm_z_expectations(probs: np.ndarray) -> np.ndarray:
    """Per-qubit <Z> of (batch, 2^n) probability rows as one matrix product
    with the (2^n, n) table of Z eigenvalues, +1 or -1 by bit q of the
    basis index. BLAS picks the summation order, which may change with the
    row count and the kernel."""
    n = probs.shape[1].bit_length() - 1
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return probs @ (1.0 - 2.0 * bits)


def run_circuit(n_qubits: int, ops, params) -> np.ndarray:
    """Amplitudes after ``ops`` on |0...0>, one production row kernel call
    per gate, with RY angles bound from ``params``."""
    amps = zero_states(n_qubits)
    for target, control, slot in ops:
        if control is None:
            ry_rows(amps, target, *ry_factors(float(params[slot])))
        else:
            cz_rows(amps, control, target)
    return amps[:, 0]


def apply_ry(amps: np.ndarray, qubit: int, theta: float) -> np.ndarray:
    """RY rotation [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]] on one qubit."""
    out = np.array(amps, dtype=np.float64).reshape(-1, 1)
    ry_rows(out, qubit, *ry_factors(float(theta)))
    return out[:, 0]


def apply_cz(amps: np.ndarray, a: int, b: int) -> np.ndarray:
    """Negate amplitudes of basis states where qubits a and b are both 1."""
    out = np.array(amps, dtype=np.float64).reshape(-1, 1)
    cz_rows(out, a, b)
    return out[:, 0]


def expectation_z(amps: np.ndarray, qubit: int) -> float:
    """Exact <Z_qubit>: sum over basis states of amp^2 * (+1 or -1)."""
    n_qubits = amps.size.bit_length() - 1
    if not 0 <= qubit < n_qubits:
        raise IndexError(f"qubit {qubit} out of range for {n_qubits} qubits")
    return float(z_expectations_rows(np.square(amps).reshape(1, -1))[0, qubit])


def full_width_sweep(ansatz, angles, slots=()):
    """The dressed circuit and its +-pi/2 shifts at ``slots`` on all n
    qubits, in one staircase pass over every gate: each shifted pair is
    copied from the base states at its own RY gate. Returns ``(z, z_plus,
    z_minus)`` shaped like `z_from_angles` with slots."""
    n = ansatz.n_qubits
    angles = np.atleast_2d(np.asarray(angles, dtype=np.float64))
    slots = [int(j) for j in slots]
    ops = dressed_gates(n, ansatz.n_layers)
    gate_of = {slot: g for g, (_, control, slot) in enumerate(ops) if control is None}
    order = sorted(range(len(slots)), key=lambda i: gate_of[slots[i]])
    opens = {gate_of[j] for j in slots}
    blocks = 1 + 2 * len(slots)
    rows = angles.shape[0]
    out = np.empty((blocks, rows, n))
    per_chunk = max(1, 32 // blocks)  # 32 states of 2^n amplitudes per chunk
    for lo in range(0, rows, per_chunk):
        chunk = angles[lo : lo + per_chunk]
        s = chunk.shape[0]
        amps = zero_states(n, batch=blocks * s)
        live = s
        for g, (target, control, slot) in enumerate(ops):
            if control is not None:
                cz_rows(amps[:, :live], control, target)
                continue
            column = chunk[:, slot]
            theta = np.tile(column, live // s)
            if g in opens:
                amps[:, live : live + 2 * s].reshape(-1, 2, s)[:] = amps[:, None, :s]
                theta = np.concatenate([theta, column + np.pi / 2, column - np.pi / 2])
                live += 2 * s
            ry_rows(amps[:, :live], target, *ry_factors(theta))
        probs = np.ascontiguousarray(amps.T)
        out[:, lo : lo + s] = z_expectations_rows(probs * probs).reshape(blocks, s, n)
    rank = np.argsort(order)
    z_plus = out[1 + 2 * rank].transpose(1, 0, 2)
    z_minus = out[2 + 2 * rank].transpose(1, 0, 2)
    return out[0], z_plus, z_minus


def six_op_ry_rows(amps: np.ndarray, qubit: int, theta) -> None:
    """RY(theta) on ``qubit`` of every column of a basis-major (2^n, batch)
    buffer, in place, taking the half angle's cos and sin itself and then
    six row operations: the kernel before `ry_rows` took `ry_factors`."""
    dim, batch = amps.shape
    view = amps.reshape(dim >> (qubit + 1), 2, 1 << qubit, batch)
    c = np.cos(np.multiply(theta, 0.5))
    s = np.sin(np.multiply(theta, 0.5))
    a0 = view[:, 0]
    a1 = view[:, 1]
    s_a0 = s * a0
    a0 *= c
    a0 -= s * a1
    a1 *= c
    a1 += s_a0


def per_gate_sweep(ansatz, angles, slots=None):
    """`z_from_angles` gate by gate: every group of `cone_stacks` alone, all
    rows at once on a basis-major buffer, each RY gate's angles built from
    its column as it runs and rotated by `six_op_ry_rows`. Returns the base
    circuit and, with ``slots``, its +-pi/2 shifts, the same way."""
    angles = np.atleast_2d(np.asarray(angles, dtype=np.float64))
    shifted = [] if slots is None else [int(j) for j in slots]
    rows = angles.shape[0]
    out = np.empty((1 + 2 * len(shifted), rows, ansatz.n_qubits))
    for width, gates, local, table, readout in cone_stacks(ansatz.n_qubits, ansatz.n_layers):
        for group_slots, group_readout in zip(table.tolist(), readout):
            forks = [g for g, slot in enumerate(group_slots) if slot in shifted]
            amps = zero_states(width, batch=(1 + 2 * len(forks)) * rows)
            live = 1  # blocks
            g = 0
            for target, control in gates:
                if control is not None:
                    cz_rows(amps[:, : live * rows], control, target)
                    continue
                column = angles[:, group_slots[g]]
                theta = [column] * live
                if g in forks:
                    amps[:, live * rows : (live + 2) * rows].reshape(-1, 2, rows)[:] = \
                        amps[:, None, :rows]
                    theta += [column + np.pi / 2, column - np.pi / 2]
                    live += 2
                six_op_ry_rows(amps[:, : live * rows], target, np.concatenate(theta))
                g += 1
            amps *= amps
            z = z_expectations_rows(amps.T).reshape(live, rows, width)[:, :, local]
            block = {group_slots[g]: 1 + 2 * i for i, g in enumerate(forks)}
            src = [0] + [b for j in shifted
                         for b in ((block[j], block[j] + 1) if j in block else (0, 0))]
            out[:, :, group_readout] = z[src]
    if slots is None:
        return out[0]
    return out[0], out[1::2].transpose(1, 0, 2), out[2::2].transpose(1, 0, 2)


def _row_ry(amps: np.ndarray, qubit: int, theta) -> None:
    """RY on ``qubit`` of every row of a row-major (states, 2^n) buffer."""
    batch, dim = amps.shape
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


def _row_cz(amps: np.ndarray, a: int, b: int) -> None:
    batch, dim = amps.shape
    lo, hi = (a, b) if a < b else (b, a)
    view = amps.reshape(batch, dim >> (hi + 1), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    view[:, :, 1, :, 1, :] *= -1.0


def _row_cone_staircase(width: int, ops, angles: np.ndarray, slots: list[int]) -> np.ndarray:
    """One light-cone group's base circuit and shifts at ``slots``, (1 + 2K,
    rows, width), on row-major buffers of (1 + 2K) slot-major blocks."""
    gate_of = {slot: g for g, (_, control, slot) in enumerate(ops) if control is None}
    order = sorted(range(len(slots)), key=lambda i: gate_of[slots[i]])
    opens = {gate_of[j] for j in slots}
    blocks = 1 + 2 * len(slots)
    s = angles.shape[0]
    amps = np.zeros((blocks * s, 1 << width))
    amps[:, 0] = 1.0
    live = 1  # blocks
    for g, (target, control, slot) in enumerate(ops):
        if control is not None:
            _row_cz(amps[: live * s], control, target)
            continue
        column = angles[:, slot]
        theta = np.tile(column, live)
        if g in opens:
            amps[live * s : (live + 2) * s].reshape(2, s, 1 << width)[:] = amps[:s]
            theta = np.concatenate([theta, column + np.pi / 2, column - np.pi / 2])
            live += 2
        _row_ry(amps[: live * s], target, theta)
    out = z_expectations_rows(amps * amps).reshape(blocks, s, width)
    rank = np.argsort(order)
    return out[np.concatenate([[0], np.stack([1 + 2 * rank, 2 + 2 * rank], axis=1).ravel()])]


def per_cone_sweep(ansatz, angles, slots=None):
    """`z_from_angles` one light-cone group at a time, each group's states
    the rows of a row-major buffer: the base circuit and, with ``slots``,
    its +-pi/2 shifts, returned the same way."""
    angles = np.atleast_2d(np.asarray(angles, dtype=np.float64))
    shifted = [] if slots is None else [int(j) for j in slots]
    rows, n = angles.shape[0], ansatz.n_qubits
    out = np.empty((1 + 2 * len(shifted), rows, n))
    for qubits, ops, readout, local in walk_light_cones(n, ansatz.n_layers):
        in_cone = {slot for _, control, slot in ops if control is None}
        inside = [i for i, j in enumerate(shifted) if j in in_cone]
        part = _row_cone_staircase(len(qubits), ops, angles,
                                   [shifted[i] for i in inside])[:, :, local]
        out[:, :, readout] = part[0]
        blocks = [0] + [b for i in inside for b in (1 + 2 * i, 2 + 2 * i)]
        out[np.ix_(blocks, range(rows), readout)] = part
    if slots is None:
        return out[0]
    return out[0], out[1::2].transpose(1, 0, 2), out[2::2].transpose(1, 0, 2)


def walk_light_cones(n_qubits: int, n_layers: int):
    """Readout groups of the dressed circuit and the gates each one needs,
    by walking every readout qubit's backward cone over the whole gate list
    with a set of live qubits, O(n^2 L).

    Walking back from q, a gate joins if it touches a live qubit, and a CZ
    makes both of its qubits live. Readout qubits with the same cone form a
    group; if the groups together hold at least 2^n amplitudes, one group
    of every qubit takes their place. Returns a tuple of ``(qubits, ops,
    readout, local)``: the cone's qubits in ascending order, the group's
    gates re-indexed to local qubits 0..w-1, its readout qubits and their
    local indices."""
    ops = dressed_gates(n_qubits, n_layers)

    def cone(readout):
        live, gates = set(readout), []
        for g in reversed(range(len(ops))):
            touched = set(ops[g][:2]) - {None}
            if touched & live:
                live |= touched
                gates.append(g)
        return frozenset(live), gates[::-1]

    groups: dict[frozenset, list[int]] = {}
    for q in range(n_qubits):
        groups.setdefault(cone([q])[0], []).append(q)
    if sum(1 << len(qubits) for qubits in groups) >= 1 << n_qubits:
        groups = {frozenset(range(n_qubits)): list(range(n_qubits))}
    result = []
    for qubits, readout in groups.items():
        index = {q: i for i, q in enumerate(sorted(qubits))}
        local_ops = tuple((index[target], None if control is None else index[control], slot)
                          for target, control, slot in (ops[g] for g in cone(readout)[1]))
        result.append((tuple(index), local_ops, tuple(readout), tuple(index[q] for q in readout)))
    return tuple(result)


def walk_cone_stacks(n_qubits: int, n_layers: int):
    """The groups of `walk_light_cones` stacked as `cone_stacks` stacks
    them, in lists: one ``(width, gates, local, slots, readout)`` per set of
    groups whose ``(target, control)`` gates and local readout indices
    agree, in the order of each stack's first group."""
    stacks: dict[tuple, list] = {}
    for qubits, ops, readout, local in walk_light_cones(n_qubits, n_layers):
        gates = tuple((target, control) for target, control, _ in ops)
        slots = [slot for _, control, slot in ops if control is None]
        stacks.setdefault((len(qubits), gates, local), []).append((slots, list(readout)))
    return [(width, gates, list(local), [s for s, _ in members], [r for _, r in members])
            for (width, gates, local), members in stacks.items()]


def random_circuit(rng: np.random.Generator, n_qubits: int, n_gates: int):
    """(ops, params) with RY and CZ ``(target, control, slot)`` gates drawn
    uniformly."""
    ops = []
    params = []
    for _ in range(n_gates):
        if n_qubits >= 2 and rng.random() < 0.4:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            ops.append((int(b), int(a), None))
        else:
            ops.append((int(rng.integers(n_qubits)), None, len(params)))
            params.append(float(rng.uniform(-2 * np.pi, 2 * np.pi)))
    return ops, params


def pairwise_auc(scores, positive) -> float:
    """AUC = P(score_pos > score_neg) + 1/2 P(tie), exact rational, then one
    conversion to float."""
    scores = list(scores)
    positive = list(positive)
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    if not pos or not neg:
        raise ValueError("need at least one positive and one negative")
    greater = sum(1 for sp in pos for sn in neg if sp > sn)
    equal = sum(1 for sp in pos for sn in neg if sp == sn)
    return float(Fraction(2 * greater + equal, 2 * len(pos) * len(neg)))


def loop_binary_roc(scores, positive):
    """(fpr, tpr, auc) of the threshold sweep, one tie group at a time, with
    the exact numerator 2 * P * N * area in Python integers, after a stable
    sort (the package's sort need not be)."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    p = positive[order]
    boundary = np.flatnonzero(np.diff(s)) + 1
    tp = fp = 0
    numerator = 0
    fprs = [0.0]
    tprs = [0.0]
    for group in np.split(p, boundary):
        g_pos = int(group.sum())
        g_neg = len(group) - g_pos
        numerator += g_neg * (2 * tp + g_pos)
        tp += g_pos
        fp += g_neg
        fprs.append(fp / n_neg)
        tprs.append(tp / n_pos)
    return np.array(fprs), np.array(tprs), numerator / (2 * n_pos * n_neg)


def roc_counts(fpr, tpr, n_neg: int, n_pos: int) -> list[tuple[int, int]]:
    """The (fp, tp) counts of a ROC curve's points, in Python integers.
    Each rate is the correctly rounded k / n, so ``rate * n`` is within
    n * 2**-53 of k in exact arithmetic and rounds back to it."""
    return [(round(Fraction(f) * n_neg), round(Fraction(t) * n_pos))
            for f, t in zip(np.asarray(fpr).tolist(), np.asarray(tpr).tolist())]


def cross(o, a, b) -> int:
    """The cross product of the steps o -> a and o -> b: zero when the
    three points are collinear."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def roc_vertices(fpr, tpr, n_neg: int, n_pos: int):
    """(fpr, tpr) of a ROC curve with every interior point dropped whose
    steps in and out are parallel, tested one point at a time on its
    integer counts (`roc_counts`); the first and last point stay."""
    points = roc_counts(fpr, tpr, n_neg, n_pos)
    kept = [0] + [i for i in range(1, len(points) - 1)
                  if cross(points[i - 1], points[i], points[i + 1]) != 0] + [len(points) - 1]
    return np.asarray(fpr)[kept], np.asarray(tpr)[kept]


def csv_text_by_value(dataset) -> str:
    """The canonical dataset CSV text, one `repr(float(v))` per feature."""
    lines = [CSV_HEADER]
    for label, domain, session, row in zip(dataset.labels.tolist(), dataset.domain.tolist(),
                                           dataset.session.tolist(), dataset.samples):
        feats = ",".join(repr(float(v)) for v in row)
        lines.append(f"{label},{domain},{session},{feats}")
    return "\n".join(lines) + "\n"


def per_row_load_csv(path) -> Dataset:
    """`load_csv` a line at a time: each row's label and session through
    `int()`, its domain through `Domain`, its features through one numpy
    conversion of the strings (which reads them as `float()` does), into a
    feature buffer that grows by a quarter. A bad row raises the same
    CsvFormatError, naming the same line."""
    features, labels, domain, session = np.empty((0, N_FEATURES)), [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\n").rstrip("\r") != CSV_HEADER:
            raise CsvFormatError(f"line 1: bad header, expected `{CSV_HEADER}`")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split(",")
            n = len(labels)
            if n == len(features):
                features.resize((n + max(CSV_BLOCK_ROWS, n // 4), N_FEATURES), refcheck=False)
            try:
                if len(fields) != 3 + N_FEATURES:
                    raise ValueError(f"expected {3 + N_FEATURES} fields, got {len(fields)}")
                label, row_domain, row_session = (int(fields[0]), Domain(fields[1]).value,
                                                  int(fields[2]))
                features[n] = fields[3:]
                if not np.isfinite(features[n]).all():
                    raise ValueError("features must be finite")
                if not 0 <= label < N_CLASSES:
                    raise ValueError(f"label {label} outside 0..{N_CLASSES - 1}")
                if not -(2**63) <= row_session < 2**63:
                    raise ValueError(f"session {row_session} outside the int64 range")
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from exc
            labels.append(label)
            domain.append(row_domain)
            session.append(row_session)
    features.resize((len(labels), N_FEATURES), refcheck=False)
    return Dataset(features, labels, domain, session)


def loop_stratified_subset(labels, count: int, seed: int):
    """(chosen, rest, stratified) of the per-row `stratified_subset`: the
    row indices of each part in pool order. Each class's pool is a list
    built one row at a time and permuted from the same seeded stream."""
    labels = list(labels)
    n = len(labels)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    by_class = [[i for i, label in enumerate(labels) if label == c] for c in range(N_CLASSES)]
    stratified = all(len(ix) > 0 for ix in by_class)
    if stratified:
        chosen: list[int] = []
        quotas = apportion(count, [len(ix) for ix in by_class])
        for ix, q in zip(by_class, quotas):
            chosen.extend(rng.permutation(ix)[:q].tolist())
    else:
        chosen = rng.permutation(n)[:count].tolist()
    chosen_set = set(chosen)
    return sorted(chosen_set), [i for i in range(n) if i not in chosen_set], stratified


def full_sort_knn_scores(features, labels, k: int, queries) -> np.ndarray:
    """Vote fractions of the k nearest ``features`` rows of each query row,
    ties in distance to the earliest row, from every squared distance."""
    d2 = ((queries[:, None, :] - features[None, :, :]) ** 2).sum(axis=2)
    votes = labels[np.argsort(d2, axis=1, kind="stable")[:, :k]]
    return np.stack([(votes == c).sum(axis=1) for c in range(N_CLASSES)], axis=1) / k


def identity_normalizer(n_features: int = N_FEATURES) -> FeatureNormalizer:
    """A normalizer that leaves features as they are: zero mean, unit scale."""
    return FeatureNormalizer(mean=np.zeros(n_features), std=np.ones(n_features))


def mish_grad(x: np.ndarray) -> np.ndarray:
    """Mish'(x) by the package's backprop form, softplus and tanh computed
    here rather than taken from a forward cache."""
    sp = softplus(x)
    return _mish_derivative(x, sp, np.tanh(sp))


def logaddexp_mish(x: np.ndarray) -> np.ndarray:
    """x * tanh(softplus(x)), softplus via logaddexp so large |x| is exact."""
    return x * np.tanh(np.logaddexp(0.0, x))


def logaddexp_mish_grad(x: np.ndarray) -> np.ndarray:
    sp = np.logaddexp(0.0, x)
    t = np.tanh(sp)
    sig = np.exp(x - sp)  # sigmoid(x) without overflow, exp(x)/(1+exp(x))
    return t + x * sig * (1.0 - t * t)


def central_difference(f, x0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Gradient of scalar f at x0 by central differences, one coordinate at
    a time."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    flat = grad.ravel()
    for i in range(x0.size):
        xp = x0.copy()
        xp.ravel()[i] += step
        xm = x0.copy()
        xm.ravel()[i] -= step
        flat[i] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def broadcast_gnb_log_posteriors(model, x) -> np.ndarray:
    """GNB's unnormalized log posteriors of all rows in one broadcast
    expression over a (rows, classes, features) difference: the form that
    the package's blocks of rows must match bit for bit."""
    z = model.normalizer.transform(x)
    diff = z[:, None, :] - model.means[None, :, :]
    log_density = -0.5 * (
        np.log(2.0 * np.pi * model.variances)[None, :, :] + diff**2 / model.variances[None, :, :]
    ).sum(axis=2)
    return np.log(model.priors)[None, :] + log_density


def gnb_posteriors_direct(priors, means, variances, x) -> np.ndarray:
    """Class posteriors via direct Gaussian density products at 50-digit
    precision (no log-space shortcuts)."""
    mp.dps = 50
    x = np.asarray(x, dtype=np.float64)
    joint = []
    for c in range(len(priors)):
        dens = mpf(priors[c])
        for f in range(x.size):
            var = mpf(float(variances[c][f]))
            diff = mpf(float(x[f])) - mpf(float(means[c][f]))
            dens *= mp.exp(-(diff**2) / (2 * var)) / mp.sqrt(2 * mp.pi * var)
        joint.append(dens)
    total = sum(joint)
    return np.array([float(j / total) for j in joint])
