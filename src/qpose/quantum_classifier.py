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
observables), which at n=10, L=1 spans 2 or 4 qubits; `_cone_groups`
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

Groups whose cones run the same local gates on different angle slots (the
four middle cones at n=10, L=1) share one staircase, each group a block of
columns with its own angles, when their shifts fork at the same gates: a
full-gradient sample there runs 3 staircases of 14 RY and 5 CZ kernel
calls instead of 6 of 38 and 14. `cone_stacks` caches the stacked groups
and their local gates, as ``(target, control)`` pairs, and `_sweep_parts`
their split by the shifted slots of a call. A staircase is read out in one
call, whose elementwise butterfly gives every circuit the same bits
whatever the batch, chunk or stack it runs in. A circuit whose widest
group would hold more than `MAX_CONE_AMPLITUDES` amplitudes is refused
when its `StdAnsatz` is made.

Implementation note: RY and CZ have real matrices and the start state
|0...0> is real, so every statevector is real. The `statevector` kernels
run on basis-major float64 buffers, batching many circuits (and many
samples) as the columns of one (2^w, columns) array. The acceptance tests
check the base circuit and every +-pi/2 shift against a Kronecker-product
simulation of the whole register, on the tests' own gate list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import (CheckpointError, FeatureNormalizer, N_CLASSES, N_FEATURES,
                   check_int_fields, checkpoint_arrays)
from .neural import linear_init, n_params, softmax, softmax_cross_entropy
from .statevector import cz_rows, ry_rows, z_expectations_rows, zero_states

_eval_count = 0


def evaluation_count() -> int:
    """Total statevector circuit evaluations since the module loaded."""
    return _eval_count


# The widest light-cone group a circuit may run on: 2^16 amplitudes, 512 KiB
# a state. A sweep holds 1 + 2K states of its widest group per sample, so a
# register past this (30 qubits at 8 layers is one group of 2^30, 8 GiB a
# state) is refused before anything is allocated.
MAX_CONE_AMPLITUDES = 1 << 16


@dataclass(frozen=True)
class StdAnsatz:
    """Simplified-two-design circuit template.

    Per layer: block A applies CZ to pairs (0,1),(2,3),... with an RY on
    both pair members after each CZ; block B does the same on the staggered
    pairs (1,2),(3,4),.... Works for odd n too; either way each layer holds
    2(n-1) trainable angles. A circuit whose widest `_cone_groups` group
    holds more than `MAX_CONE_AMPLITUDES` amplitudes is rejected.
    """

    n_qubits: int = 10
    n_layers: int = 1

    def __post_init__(self) -> None:
        if self.n_qubits < 2:
            raise ValueError("need at least 2 qubits")
        if self.n_layers < 1:
            raise ValueError("need at least 1 layer")
        limit = f"the limit of MAX_CONE_AMPLITUDES = 2^{MAX_CONE_AMPLITUDES.bit_length() - 1}"
        if self.n_qubits > MAX_CONE_AMPLITUDES:
            raise ValueError(f"{self.n_qubits} qubits is over {limit}")
        widest = max(hi + 1 - lo for (lo, hi), _ in _cone_groups(self.n_qubits, self.n_layers))
        if 1 << widest > MAX_CONE_AMPLITUDES:
            raise ValueError(
                f"{self.n_qubits} qubits at {self.n_layers} layers need a light-cone group of"
                f" {widest} qubits (2^{widest} amplitudes a state), over {limit}")

    @property
    def n_theta(self) -> int:
        return 2 * (self.n_qubits - 1) * self.n_layers

    @property
    def n_slots(self) -> int:
        return self.n_qubits + self.n_theta


# Amplitudes per chunk of the sweep: small enough that a chunk's
# statevectors stay in cache across the gate sequence; large batches run
# noticeably faster in chunks than as one huge buffer. The value moves no
# output bit, only the speed.
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
    n_slots = ansatz.n_slots
    if len(set(shifted)) != len(shifted) or not all(0 <= j < n_slots for j in shifted):
        raise ValueError(f"slots must be distinct angle slots in 0..{n_slots - 1}")
    out = _staircase_sweep(ansatz, angles, shifted)
    _eval_count += rows * (1 + 2 * len(shifted))
    if slots is None:
        return out[0]
    return out[0], out[1::2].transpose(1, 0, 2), out[2::2].transpose(1, 0, 2)


@lru_cache(maxsize=None)
def _cone_groups(n_qubits: int, n_layers: int):
    """The readout qubits grouped by backward light cone: a tuple of
    ``((lo, hi), readout)``, the cone being qubits lo..hi, in the order of
    each group's first readout qubit. If the groups together hold at least
    2^n amplitudes, one group of every qubit takes their place.

    Walking back through a block of the circuit's disjoint nearest-neighbour
    pairs, a cone lo..hi gains at most lo's and hi's pair partners, so every
    cone is an interval and one step per block finds it, for all readout
    qubits at once."""
    lo = np.arange(n_qubits)
    hi = lo.copy()
    for _ in range(n_layers):
        for start in (1, 0):  # block B, then block A, walking back
            lo -= (lo > start) & ((lo - start) % 2 == 1)
            hi += (hi >= start) & ((hi - start) % 2 == 0) & (hi < n_qubits - 1)
    groups: dict[tuple[int, int], list[int]] = {}
    for q, cone in enumerate(zip(lo.tolist(), hi.tolist())):
        groups.setdefault(cone, []).append(q)
    if sum(1 << (b + 1 - a) for a, b in groups) >= 1 << n_qubits:
        return (((0, n_qubits - 1), tuple(range(n_qubits))),)
    return tuple((cone, tuple(readout)) for cone, readout in groups.items())


def _cone_gates(n_qubits: int, n_layers: int, lo: int, hi: int) -> list[tuple]:
    """The dressed circuit's gates in the backward light cone of readout
    qubits lo..hi, in circuit order, as ``(target, control, slot)``: an RY
    has no control and a CZ no slot. Qubit q's encoding RY has slot q;
    block A of layer l (`StdAnsatz`) starts at slot n + 2l(n-1), and block
    B n//2 pairs later. Walking back through a block, a pair's CZ joins
    when it touches the cone, and each of its RY gates when the gate's
    qubit is already in it; only the pairs that touch the cone are
    visited."""
    blocks = []
    for layer in reversed(range(n_layers)):
        for start in (1, 0):
            first = n_qubits + 2 * (layer * (n_qubits - 1) + start * (n_qubits // 2))
            low = max(start, lo - 1)
            pairs = range(low + (low - start) % 2, min(hi, n_qubits - 2) + 1, 2)
            gates = []
            for a in pairs:
                slot = first + a - start
                gates += ([(a + 1, a, None)] + [(a, None, slot)] * (a >= lo)
                          + [(a + 1, None, slot + 1)] * (a + 1 <= hi))
            blocks.append(gates)
            if pairs:
                lo, hi = min(lo, pairs[0]), max(hi, pairs[-1] + 1)
    encoding = [(q, None, q) for q in range(lo, hi + 1)]
    return encoding + [gate for gates in reversed(blocks) for gate in gates]


@lru_cache(maxsize=None)
def cone_stacks(n_qubits: int, n_layers: int):
    """Readout groups of the dressed circuit with their local gates,
    congruent groups stacked.

    <Z_q> depends only on the gates in qubit q's backward light cone, so the
    readout qubits of one cone (`_cone_groups`) run its gates
    (`_cone_gates`) on the cone's qubits alone, re-indexed to 0..w-1.
    Groups whose local gates agree apart from their angle slots, and whose
    local readout indices agree, run the same staircase on different
    angles, so they share one. Returns a tuple of ``(width, gates, local,
    slots, readout)`` per stack of m groups: ``gates`` the local gates as
    ``(target, control)``, control None for an RY, ``local`` the local
    readout indices, ``slots`` an (m, G) array of each group's angle slot
    for its G RY gates in gate order, and ``readout`` an (m, r) array of
    each group's readout qubits.
    """
    stacks: dict[tuple, list] = {}
    for (lo, hi), readout in _cone_groups(n_qubits, n_layers):
        # a group's readout qubits are consecutive: cones grow with q
        cone = _cone_gates(n_qubits, n_layers, readout[0], readout[-1])
        gates = tuple((target - lo, None if control is None else control - lo)
                      for target, control, _ in cone)
        slots = [slot for _, control, slot in cone if control is None]
        key = (hi + 1 - lo, gates, tuple(q - lo for q in readout))
        stacks.setdefault(key, []).append((slots, readout))
    result = []
    for (width, gates, local), members in stacks.items():
        arrays = [np.array(local)] + [np.array(column) for column in zip(*members)]
        for array in arrays:
            array.flags.writeable = False
        result.append((width, gates, *arrays))
    return tuple(result)


@lru_cache(maxsize=64)
def _sweep_parts(n_qubits: int, n_layers: int, slots: tuple[int, ...]):
    """`cone_stacks` split by which RY gates carry one of ``slots``: a tuple
    of ``(width, gates, local, forks, table, readout, src)`` per part, where
    ``forks`` marks the RY gates that fork, ``table`` and ``readout`` are
    the part's rows of the stack's arrays, and ``src`` (m, 1 + 2K) maps
    every output block to the staircase block each group reads it from:
    the base unless the shift lies in the group's cone."""
    caller = np.full(n_qubits + 2 * (n_qubits - 1) * n_layers, -1)
    caller[list(slots)] = np.arange(len(slots))
    parts = []
    for width, gates, local, table, readout in cone_stacks(n_qubits, n_layers):
        where = caller[table]
        split: dict[bytes, list[int]] = {}
        for c, forks in enumerate(where >= 0):
            split.setdefault(forks.tobytes(), []).append(c)
        for members in split.values():
            forks = where[members[0]] >= 0
            src = np.zeros((len(members), 1 + 2 * len(slots)), dtype=np.intp)
            plus = 1 + 2 * where[members][:, forks]
            group = np.arange(len(members))[:, None]
            src[group, plus] = np.arange(1, plus.shape[1] * 2, 2)
            src[group, plus + 1] = np.arange(2, plus.shape[1] * 2 + 1, 2)
            part = (forks, table[members], readout[members], src)
            for array in part:
                array.flags.writeable = False
            parts.append((width, gates, local, *part))
    return tuple(parts)


def _staircase_sweep(ansatz: StdAnsatz, angles: np.ndarray, slots: list[int]) -> np.ndarray:
    """Base circuit and its +-pi/2 shifts at ``slots``, light cone by light cone.

    Returns (1 + 2K, rows, n_qubits): block 0 is the base circuit, blocks
    1 + 2i and 2 + 2i its shifts at ``slots[i]``. The groups of each part
    of `_sweep_parts` fork at the same gates and run `_cone_staircase`
    side by side, as many as fit `_CHUNK_AMPLITUDES`. Chunks hold as many
    rows as fit it for one group, at least one. A shift outside a group's
    cone leaves its readout at the base value, so those blocks take the
    base readout.
    """
    rows = angles.shape[0]
    out = np.empty((1 + 2 * len(slots), rows, ansatz.n_qubits))
    parts = _sweep_parts(ansatz.n_qubits, ansatz.n_layers, tuple(slots))
    for width, gates, local, forks, table, readout, src in parts:
        blocks = 1 + 2 * int(forks.sum())
        per_chunk = max(1, _CHUNK_AMPLITUDES // (blocks << width))
        chunk_rows = max(1, min(rows, per_chunk))
        per_stack = max(1, _CHUNK_AMPLITUDES // (blocks * chunk_rows << width))
        for first in range(0, len(table), per_stack):
            stack = slice(first, first + per_stack)
            for lo in range(0, rows, per_chunk):
                chunk = angles[lo : lo + per_chunk]
                z = _cone_staircase(width, gates, forks, table[stack], chunk)[..., local]
                for i, z_i in enumerate(z, start=first):
                    out[:, lo : lo + len(chunk), readout[i]] = z_i[src[i]]
    return out


def _cone_staircase(width: int, gates, forks: np.ndarray, table: np.ndarray,
                    chunk: np.ndarray) -> np.ndarray:
    """Run ``gates`` on ``width`` qubits for m congruent groups at once: the
    base circuit of every ``chunk`` row and its +-pi/2 shifts at the RY
    gates marked in ``forks``, in one pass over the gates.

    ``table`` (m, G) holds each group's angle slot of its G RY gates. A
    circuit shifted at slot j equals the base circuit up to j's RY gate, so
    the shifted pair is copied from the base states right there and only
    the remaining gates run on it. The s rows run as a (2^w, B * m * s)
    buffer of B = 1 + 2K blocks in gate order, each holding every group's
    s states, so the states live at any gate are a leading column slice.
    Returns the (m, B, s, width) readout, read in one call.
    """
    m, s = table.shape[0], chunk.shape[0]
    blocks = 1 + 2 * int(forks.sum())
    cols = m * s
    angles = chunk.T
    amps = zero_states(width, batch=blocks * cols)
    live = cols
    g = 0
    for target, control in gates:
        if control is not None:
            cz_rows(amps[:, :live], control, target)
            continue
        base = angles[table[:, g]].ravel()
        theta = [base] * (live // cols)
        if forks[g]:
            amps[:, live : live + 2 * cols].reshape(-1, 2, cols)[:] = amps[:, None, :cols]
            theta += [base + np.pi / 2, base - np.pi / 2]
            live += 2 * cols
        ry_rows(amps[:, :live], target, np.concatenate(theta))
        g += 1
    amps *= amps
    return z_expectations_rows(amps.T).reshape(blocks, m, s, width).swapaxes(0, 1)


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
    ) -> "DressedQnnModel":
        """theta ~ uniform(-pi, pi); linear layers ~ uniform(+-1/sqrt(fan_in))."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        params: dict[str, np.ndarray] = {}
        params["in.w"], params["in.b"] = linear_init(rng, n_features, ansatz.n_qubits)
        params["theta"] = rng.uniform(-np.pi, np.pi, ansatz.n_theta)
        params["out.w"], params["out.b"] = linear_init(rng, ansatz.n_qubits, N_CLASSES)
        return cls(ansatz=ansatz, params=params, normalizer=normalizer)

    @classmethod
    def from_checkpoint(cls, config: dict, params: dict, normalizer) -> "DressedQnnModel":
        check_int_fields(config, ("n_qubits", "n_layers"))
        n, layers = config["n_qubits"], config["n_layers"]
        # shapes first: a register no parameters were saved for builds no gates
        shapes = {"in.w": (N_FEATURES, n), "in.b": (n,), "theta": (2 * (n - 1) * layers,),
                  "out.w": (n, N_CLASSES), "out.b": (N_CLASSES,)}
        arrays = checkpoint_arrays("params", params, shapes)
        try:
            ansatz = StdAnsatz(n_qubits=n, n_layers=layers)
        except ValueError as exc:
            raise CheckpointError(f"checkpoint fields config.n_qubits={n} and"
                                  f" config.n_layers={layers}: {exc}") from exc
        return cls(ansatz=ansatz, params=arrays, normalizer=normalizer)

    def checkpoint_sections(self) -> tuple[dict, dict]:
        config = {"n_qubits": self.ansatz.n_qubits, "n_layers": self.ansatz.n_layers}
        return config, {k: v.tolist() for k, v in self.params.items()}

    def param_counts(self) -> dict[str, int]:
        total, quantum = n_params(self.params), self.params["theta"].size
        return {"quantum_params": quantum, "classical_params": total - quantum,
                "total_params": total}

    def encoding_angles(self, x: np.ndarray) -> np.ndarray:
        """(B, n_qubits) RY encoding angles for raw feature rows."""
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
