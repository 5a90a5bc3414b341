"""Dressed variational quantum classifier.

Architecture: input linear layer (36 beam SNRs -> n encoding radians), one
RY(angle) per qubit, an L-layer simplified-two-design ansatz of staggered CZ
entanglers and trainable RY rotations, per-qubit Pauli-Z expectation
readout, and an output linear layer (n -> 8 class logits). The ansatz
carries exactly 2(n-1)L trainable angles.

A model is used through two methods, like every model kind:
`predict_proba(x)` and `loss_and_grad(x, labels, needed)`. Gradients of the
quantum block use the parameter-shift rule: for any RY angle phi,
d<Z>/dphi = (<Z>(phi + pi/2) - <Z>(phi - pi/2)) / 2, which is exact (not a
finite-difference approximation). A sample's full gradient takes its base
circuit plus two shifted circuits per angle slot, 1 + 2K circuit
evaluations for K = 2(n-1)L + n slots (57 at n=10, L=1; 37 when only the
ansatz angles train); a module-level counter tracks this so tests can pin
the cost down.

The circuits are not simulated on all n qubits. <Z_q> depends only on the
gates in qubit q's backward light cone (the causal-cone argument for local
observables), which at n=10, L=1 spans 2 or 4 qubits; `light_cones`
groups the readout qubits that share a cone, and each group runs on a
register of its cone's qubits alone, 16 amplitudes instead of 1024. When
the groups would hold 2^n amplitudes or more (n=10 at L >= 3), a single
full-width group takes their place. Inside a group the shifted circuits
are not re-simulated from |0...0> either: a circuit shifted at slot j
matches the base circuit up to j's RY gate, so all of a sample's circuits
run in one staircase sweep over the gates, the shifted pair forking off
the base state at its own gate. A shift outside a group's cone leaves that
group's readout at its base value. Every logical circuit is still counted
once; the sweep only skips work whose result is known.

Implementation note: RY and CZ have real matrices and the start state
|0...0> is real, so every statevector is real. The `statevector` row
kernels run on float64 buffers, batching many circuits (and many samples)
as rows of one array. The acceptance tests check the base circuit and
every +-pi/2 shift against a dense Kronecker-product simulation of the
whole register.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .data import FeatureNormalizer, N_CLASSES, N_FEATURES, check_int_fields, checkpoint_arrays
from .neural import linear_init, n_params, softmax, softmax_cross_entropy
from .statevector import (
    GateKind,
    GateOp,
    cz,
    cz_rows,
    ry,
    ry_rows,
    z_expectations_rows,
    zero_states,
)

_eval_count = 0


def evaluation_count() -> int:
    """Total statevector circuit evaluations since the last reset."""
    return _eval_count


def reset_evaluation_count() -> None:
    global _eval_count
    _eval_count = 0


@dataclass(frozen=True)
class StdAnsatz:
    """Simplified-two-design circuit template.

    Per layer: block A applies CZ to pairs (0,1),(2,3),... with an RY on
    both pair members after each CZ; block B does the same on the staggered
    pairs (1,2),(3,4),.... Works for odd n too; either way each layer holds
    2(n-1) trainable angles.
    """

    n_qubits: int = 10
    n_layers: int = 1

    def __post_init__(self) -> None:
        if self.n_qubits < 2:
            raise ValueError("need at least 2 qubits")
        if self.n_layers < 1:
            raise ValueError("need at least 1 layer")

    @property
    def n_theta(self) -> int:
        return 2 * (self.n_qubits - 1) * self.n_layers

    def layout(self, slot_offset: int = 0) -> list[GateOp]:
        """Ansatz gates with RY slots numbered slot_offset, slot_offset+1, ..."""
        ops: list[GateOp] = []
        slot = slot_offset
        for _ in range(self.n_layers):
            for start in (0, 1):
                for a in range(start, self.n_qubits - 1, 2):
                    ops.append(cz(a, a + 1))
                    ops.append(ry(a, slot))
                    ops.append(ry(a + 1, slot + 1))
                    slot += 2
        return ops

    def dressed_ops(self) -> list[GateOp]:
        """Encoding RY on every qubit (slots 0..n-1) followed by the ansatz
        (slots n..n+2(n-1)L-1)."""
        encoding = [ry(q, q) for q in range(self.n_qubits)]
        return encoding + self.layout(slot_offset=self.n_qubits)

    @property
    def n_slots(self) -> int:
        return self.n_qubits + self.n_theta


# Amplitudes per chunk of the sweep: small enough that a chunk's
# statevectors stay in cache across the gate sequence; large batches run
# noticeably faster in chunks than as one huge buffer.
_CHUNK_AMPLITUDES = 32 * 1024


def z_from_angles(ansatz: StdAnsatz, angles: np.ndarray, slots=None):
    """Per-qubit Z expectations of the dressed circuit.

    angles: (rows, n_qubits + n_theta) with encoding angles first, or a
    single flat vector. Each row is one independent circuit evaluation.

    Without ``slots`` this returns the (rows, n_qubits) expectations. With a
    sequence of K distinct angle slots it also evaluates, for every row and
    every listed slot, the two circuits with that angle shifted by +pi/2 and
    -pi/2, and returns ``(z, z_plus, z_minus)``: z is (rows, n_qubits) and
    z_plus / z_minus are (rows, K, n_qubits) in the order of ``slots``. Each
    evaluated circuit counts once toward `evaluation_count`, so a row costs
    1 + 2K.
    """
    global _eval_count
    angles = np.atleast_2d(np.asarray(angles, dtype=np.float64))
    rows = angles.shape[0]
    if angles.shape[1] != ansatz.n_slots:
        raise ValueError(f"expected {ansatz.n_slots} angles per row, got {angles.shape[1]}")
    shifted = [] if slots is None else [int(j) for j in slots]
    if len(set(shifted)) != len(shifted) or not all(0 <= j < ansatz.n_slots for j in shifted):
        raise ValueError(f"slots must be distinct angle slots in 0..{ansatz.n_slots - 1}")
    out = _staircase_sweep(ansatz, angles, shifted)
    _eval_count += rows * (1 + 2 * len(shifted))
    if slots is None:
        return out[0]
    return out[0], out[1::2].transpose(1, 0, 2), out[2::2].transpose(1, 0, 2)


@lru_cache(maxsize=None)
def light_cones(n_qubits: int, n_layers: int):
    """Readout groups of the dressed circuit and the gates each one needs.

    <Z_q> depends only on the gates in qubit q's backward light cone: walking
    the gates backwards from q, a gate joins if it touches a live qubit, and
    a CZ makes both of its qubits live. Readout qubits with the same cone
    qubits form a group that runs on those qubits alone. Returns a tuple of
    ``(qubits, ops, readout, local)``: ``qubits`` are the cone's qubits in
    ascending order, ``ops`` the group's gates re-indexed to local qubits
    0..w-1, ``readout`` the group's readout qubits and ``local`` their
    local indices. If the groups together hold at least 2^n amplitudes, one
    group of every qubit and gate takes their place.
    """
    ops = StdAnsatz(n_qubits, n_layers).dressed_ops()

    def cone(readout):
        live, gates = set(readout), []
        for g in reversed(range(len(ops))):
            touched = {ops[g].target, ops[g].control} - {None}
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
        local_ops = tuple(
            replace(ops[g], target=index[ops[g].target],
                    control=None if ops[g].control is None else index[ops[g].control])
            for g in cone(readout)[1])
        result.append((tuple(index), local_ops, tuple(readout), tuple(index[q] for q in readout)))
    return tuple(result)


def _staircase_sweep(ansatz: StdAnsatz, angles: np.ndarray, slots: list[int]) -> np.ndarray:
    """Base circuit and its +-pi/2 shifts at ``slots``, light cone by light cone.

    Returns (1 + 2K, rows, n_qubits): block 0 is the base circuit, blocks
    1 + 2i and 2 + 2i its shifts at ``slots[i]``. Each group of
    `light_cones` runs `_cone_staircase` over the requested slots inside its
    cone; a shift outside the cone leaves the group's readout at its base
    value, so those blocks take the base readout.
    """
    rows, n = angles.shape[0], ansatz.n_qubits
    out = np.empty((1 + 2 * len(slots), rows, n))
    for qubits, ops, readout, local in light_cones(n, ansatz.n_layers):
        in_cone = {op.angle_slot for op in ops if op.kind is GateKind.RY}
        inside = [i for i, j in enumerate(slots) if j in in_cone]
        part = _cone_staircase(len(qubits), ops, angles, [slots[i] for i in inside])[:, :, local]
        out[:, :, readout] = part[0]
        blocks = [0] + [b for i in inside for b in (1 + 2 * i, 2 + 2 * i)]
        out[np.ix_(blocks, range(rows), readout)] = part
    return out


def _cone_staircase(width: int, ops, angles: np.ndarray, slots: list[int]) -> np.ndarray:
    """Run ``ops`` on ``width`` qubits for the base circuit and its +-pi/2
    shifts at ``slots`` in one pass over the gates.

    A circuit shifted at slot j equals the base circuit up to j's RY gate,
    so the shifted pair is copied from the base rows right there and only
    the remaining gates run on it. Rows are laid out slot-major in gate
    order, (1 + 2K) blocks of one row per sample, which keeps the rows
    that are live at any gate a leading slice of the buffer. Chunks hold as
    many samples as fit `_CHUNK_AMPLITUDES`, at least one. Returns
    (1 + 2K, rows, width) with the shifts in the order of ``slots``.
    """
    gate_of = {op.angle_slot: g for g, op in enumerate(ops) if op.kind is GateKind.RY}
    order = sorted(range(len(slots)), key=lambda i: gate_of[slots[i]])
    opens = {gate_of[j] for j in slots}
    blocks = 1 + 2 * len(slots)
    rows = angles.shape[0]
    out = np.empty((blocks, rows, width))
    per_chunk = max(1, _CHUNK_AMPLITUDES // (blocks << width))
    for lo in range(0, rows, per_chunk):
        chunk = angles[lo : lo + per_chunk]
        s = chunk.shape[0]
        amps = zero_states(width, batch=blocks * s)
        live = s
        for g, op in enumerate(ops):
            if op.kind is GateKind.CZ:
                cz_rows(amps[:live], op.control, op.target)
                continue
            column = chunk[:, op.angle_slot]
            theta = np.tile(column, live // s)
            if g in opens:
                amps[live : live + 2 * s].reshape(2, s, -1)[:] = amps[:s]
                theta = np.concatenate([theta, column + np.pi / 2, column - np.pi / 2])
                live += 2 * s
            ry_rows(amps[:live], op.target, theta)
        out[:, lo : lo + s] = z_expectations_rows(amps).reshape(blocks, s, width)
    # blocks are in gate order; hand the shifts back in the caller's order
    rank = np.argsort(order)
    return out[np.concatenate([[0], np.stack([1 + 2 * rank, 2 + 2 * rank], axis=1).ravel()])]


@dataclass(eq=False)
class DressedQnnModel:
    """STD-ansatz circuit dressed with classical input/output linear layers.

    params keys: `in.w` (36, n), `in.b` (n,), `theta` (2(n-1)L,),
    `out.w` (n, 8), `out.b` (8,). For n=10, L=1 that is 18 quantum and
    458 classical trainable parameters.
    """

    ansatz: StdAnsatz
    params: dict[str, np.ndarray]
    normalizer: FeatureNormalizer

    kind = "qnn"
    # fine-tuning trains only the circuit angles
    transfer_frozen = frozenset({"in.w", "in.b", "out.w", "out.b"})

    @classmethod
    def create(
        cls,
        normalizer: FeatureNormalizer,
        ansatz: StdAnsatz = StdAnsatz(),
        seed: int = 0,
        n_features: int = N_FEATURES,
        n_classes: int = N_CLASSES,
    ) -> "DressedQnnModel":
        """theta ~ uniform(-pi, pi); linear layers ~ uniform(+-1/sqrt(fan_in))."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        params: dict[str, np.ndarray] = {}
        params["in.w"], params["in.b"] = linear_init(rng, n_features, ansatz.n_qubits)
        params["theta"] = rng.uniform(-np.pi, np.pi, ansatz.n_theta)
        params["out.w"], params["out.b"] = linear_init(rng, ansatz.n_qubits, n_classes)
        return cls(ansatz=ansatz, params=params, normalizer=normalizer)

    @classmethod
    def from_checkpoint(cls, config: dict, params: dict, normalizer) -> "DressedQnnModel":
        check_int_fields(config, ("n_qubits", "n_layers"))
        ansatz = StdAnsatz(n_qubits=config["n_qubits"], n_layers=config["n_layers"])
        n = ansatz.n_qubits
        shapes = {"in.w": (N_FEATURES, n), "in.b": (n,), "theta": (ansatz.n_theta,),
                  "out.w": (n, N_CLASSES), "out.b": (N_CLASSES,)}
        return cls(ansatz=ansatz, params=checkpoint_arrays("params", params, shapes),
                   normalizer=normalizer)

    def checkpoint_sections(self) -> tuple[dict, dict]:
        config = {"n_qubits": self.ansatz.n_qubits, "n_layers": self.ansatz.n_layers}
        return config, {k: v.tolist() for k, v in self.params.items()}

    def param_counts(self) -> dict[str, int]:
        total, quantum = n_params(self.params), self.params["theta"].size
        return {"quantum_params": quantum, "classical_params": total - quantum,
                "total_params": total}

    def encoding_angles(self, x: np.ndarray) -> np.ndarray:
        """(B, n_qubits) RY encoding angles for raw feature rows."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if not np.isfinite(x).all():
            raise ValueError("input features must be finite")
        return self.normalizer.transform(x) @ self.params["in.w"] + self.params["in.b"]

    def _angle_rows(self, encoding: np.ndarray) -> np.ndarray:
        theta = np.broadcast_to(self.params["theta"], (encoding.shape[0], self.ansatz.n_theta))
        return np.concatenate([encoding, theta], axis=1)

    def logits(self, x: np.ndarray) -> np.ndarray:
        z = z_from_angles(self.ansatz, self._angle_rows(self.encoding_angles(x)))
        return z @ self.params["out.w"] + self.params["out.b"]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.logits(x))

    def loss_and_grad(self, x: np.ndarray, labels: np.ndarray, needed=None):
        """Mean softmax cross-entropy over a batch and its gradients.

        needed: iterable of parameter names to differentiate (None = all).
        Restricting to {"theta"} skips the encoding-angle shifts entirely,
        which is what makes fine-tuning cheap.
        """
        names = set(self.params) if needed is None else set(needed)
        n = self.ansatz.n_qubits
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        labels = np.atleast_1d(np.asarray(labels))

        slots: list[int] = []
        want_encoding = "in.w" in names or "in.b" in names
        if want_encoding:
            slots.extend(range(n))
        want_theta = "theta" in names
        if want_theta:
            slots.extend(range(n, self.ansatz.n_slots))
        rows = self._angle_rows(self.encoding_angles(x))
        z, z_plus, z_minus = z_from_angles(self.ansatz, rows, slots=slots)
        logits = z @ self.params["out.w"] + self.params["out.b"]
        loss, grad_logits = softmax_cross_entropy(logits, labels)

        grads: dict[str, np.ndarray] = {}
        if "out.w" in names:
            grads["out.w"] = z.T @ grad_logits
        if "out.b" in names:
            grads["out.b"] = grad_logits.sum(axis=0)

        upstream_z = grad_logits @ self.params["out.w"].T
        if slots:
            dz = (z_plus - z_minus) / 2.0
            slot_grad = np.einsum("bkq,bq->bk", dz, upstream_z)
            k0 = 0
            if want_encoding:
                enc_grad = slot_grad[:, :n]
                grads["in.w"] = self.normalizer.transform(x).T @ enc_grad
                grads["in.b"] = enc_grad.sum(axis=0)
                k0 = n
            if want_theta:
                grads["theta"] = slot_grad[:, k0:].sum(axis=0)
        return loss, grads

    def copy(self) -> "DressedQnnModel":
        return DressedQnnModel(
            ansatz=self.ansatz,
            params={k: v.copy() for k, v in self.params.items()},
            normalizer=self.normalizer,
        )
