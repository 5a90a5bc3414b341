"""Dressed QNN: ansatz gates, forward, parameter-shift gradients and the
shared-prefix sweep that evaluates them light cone by light cone, with
congruent cones stacked."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    apply_ry,
    central_difference,
    dressed_gates,
    expectation_z,
    full_width_sweep,
    identity_normalizer,
    per_cone_sweep,
    per_gate_sweep,
    run_circuit,
    simulate_dense,
    walk_cone_stacks,
    walk_light_cones,
    z_expectation_dense,
)
from qpose import quantum_classifier
from qpose.neural import softmax_cross_entropy
from qpose.quantum_classifier import (
    MAX_CONE_AMPLITUDES,
    DressedQnnModel,
    StdAnsatz,
    cone_stacks,
    evaluation_count,
    z_from_angles,
)
from qpose.statevector import zero_states


def small_model(n_qubits=4, n_layers=1, seed=0):
    return DressedQnnModel.create(
        identity_normalizer(n_qubits),
        StdAnsatz(n_qubits, n_layers),
        seed=seed,
        n_features=n_qubits,
    )


def angle_row(m, x):
    """The dressed circuit's angles for one feature vector: encoding, then theta."""
    return np.concatenate([m.encoding_angles(x)[0], m.params["theta"]])


def loss_of(m, x, label):
    loss, _ = softmax_cross_entropy(m.logits(x), np.array([label]))
    return loss


class TestStdAnsatz:
    def test_parameter_law_exhaustive(self):
        for n in range(2, 13):
            for layers in range(1, 5):
                ansatz = StdAnsatz(n, layers)
                slots = [slot for _, control, slot in dressed_gates(n, layers) if control is None]
                assert ansatz.n_theta == 2 * (n - 1) * layers
                assert slots[:n] == list(range(n))  # encoding, then the ansatz
                assert sorted(slots[n:]) == list(range(n, ansatz.n_slots))

    def test_default_is_18_parameters(self):
        assert StdAnsatz(10, 1).n_theta == 18

    def test_block_structure(self):
        # layer of n=4: CZ(0,1) RY RY CZ(2,3) RY RY, then CZ(1,2) RY RY
        assert dressed_gates(4, 1)[4:] == [
            (1, 0, None), (0, None, 4), (1, None, 5),
            (3, 2, None), (2, None, 6), (3, None, 7),
            (2, 1, None), (1, None, 8), (2, None, 9),
        ]

    def test_odd_qubit_count(self):
        assert StdAnsatz(5, 2).n_theta == 16

    def test_too_few_qubits(self):
        with pytest.raises(ValueError):
            StdAnsatz(1, 1)

    @pytest.mark.parametrize("n, layers, widest", [(30, 1, 4), (17, 4, 16), (10, 3, 10)])
    def test_registers_within_the_amplitude_limit(self, n, layers, widest):
        StdAnsatz(n, layers)
        assert max(width for width, *_ in cone_stacks(n, layers)) == widest
        assert 1 << widest <= MAX_CONE_AMPLITUDES

    @pytest.mark.parametrize("n, layers, widest", [(30, 8, 30), (17, 5, 17)])
    def test_widest_group_over_the_amplitude_limit_rejected(self, n, layers, widest):
        with pytest.raises(ValueError, match=rf"group of {widest} qubits .*MAX_CONE_AMPLITUDES"):
            StdAnsatz(n, layers)

    def test_register_wider_than_the_limit_rejected_before_its_gates(self):
        with pytest.raises(ValueError, match="MAX_CONE_AMPLITUDES"):
            StdAnsatz(MAX_CONE_AMPLITUDES + 1, 1)

    def test_widest_register_builds_without_walking_every_cone(self):
        # the set walk of every readout's cone took 1.9 s at 800 qubits and
        # grows as n^2; the interval steps find these cones in one pass
        ansatz = StdAnsatz(MAX_CONE_AMPLITUDES, 1)
        assert ansatz.n_theta == 2 * (MAX_CONE_AMPLITUDES - 1)
        groups = quantum_classifier._cone_groups(MAX_CONE_AMPLITUDES, 1)
        assert {hi + 1 - lo for (lo, hi), _ in groups} == {2, 4}


class TestForward:
    def test_zero_parameter_case(self):
        m = small_model(n_qubits=10)
        for k in m.params:
            m.params[k] = np.zeros_like(m.params[k])
        logits = m.logits(np.zeros(10))
        # zero angles: pure RY(0)+CZ circuit leaves |0...0>, z = +1 each,
        # zero output layer maps that to the zero logit vector
        np.testing.assert_allclose(logits, np.zeros((1, 8)), atol=1e-15)
        z = z_from_angles(m.ansatz, angle_row(m, np.zeros(10)))
        np.testing.assert_allclose(z, np.ones((1, 10)), atol=1e-15)

    def test_matches_dense_oracle_n2(self):
        m = small_model(n_qubits=2, seed=3)
        x = np.array([0.37, -1.2])
        angles = np.concatenate([m.encoding_angles(x)[0], m.params["theta"]])
        state = simulate_dense(2, dressed_gates(2, 1), angles)
        z_oracle = np.array([z_expectation_dense(state, q) for q in range(2)])
        logits_oracle = z_oracle @ m.params["out.w"] + m.params["out.b"]
        np.testing.assert_allclose(m.logits(x)[0], logits_oracle, atol=1e-10)

    def test_parameter_counts_canonical_model(self):
        m = DressedQnnModel.create(identity_normalizer(), StdAnsatz(10, 1))
        assert m.param_counts() == {"quantum_params": 18, "classical_params": 458,
                                    "total_params": 476}

    def test_z_in_unit_interval_and_logits_affine(self):
        rng = np.random.default_rng(11)
        m = small_model(n_qubits=5, seed=7)
        x = rng.normal(size=(20, 5))
        theta = np.broadcast_to(m.params["theta"], (20, m.ansatz.n_theta))
        z = z_from_angles(m.ansatz, np.concatenate([m.encoding_angles(x), theta], axis=1))
        assert (z >= -1 - 1e-12).all() and (z <= 1 + 1e-12).all()
        np.testing.assert_allclose(
            m.logits(x), z @ m.params["out.w"] + m.params["out.b"], atol=1e-14
        )

    def test_nonfinite_input_rejected(self):
        m = small_model()
        with pytest.raises(ValueError):
            m.predict_proba(np.array([np.nan, 0, 0, 0]))
        with pytest.raises(ValueError):
            m.loss_and_grad(np.array([[0, np.inf, 0, 0]]), np.array([0]))

    def test_fast_path_matches_reference_simulator(self):
        rng = np.random.default_rng(4)
        ansatz = StdAnsatz(3, 2)
        angles = rng.uniform(-np.pi, np.pi, ansatz.n_slots)
        z_fast = z_from_angles(ansatz, angles)[0]
        state = run_circuit(3, dressed_gates(3, 2), angles)
        z_ref = np.array([expectation_z(state, q) for q in range(3)])
        np.testing.assert_allclose(z_fast, z_ref, atol=1e-12)

    @given(seed=st.integers(0, 1000), slot=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_encoding_periodicity(self, seed, slot):
        rng = np.random.default_rng(seed)
        ansatz = StdAnsatz(4, 1)
        angles = rng.uniform(-np.pi, np.pi, ansatz.n_slots)
        shifted = angles.copy()
        shifted[slot] += 2 * np.pi
        np.testing.assert_allclose(
            z_from_angles(ansatz, angles), z_from_angles(ansatz, shifted), atol=1e-10
        )


class TestParamShift:
    def test_single_ry_gradient_is_minus_sin(self):
        # d<Z>/dtheta of RY(theta)|0> via two shifted evaluations
        for theta in (0.0, np.pi / 4, 1.0):
            up = expectation_z(apply_ry(zero_states(1)[:, 0], 0, theta + np.pi / 2), 0)
            dn = expectation_z(apply_ry(zero_states(1)[:, 0], 0, theta - np.pi / 2), 0)
            assert abs((up - dn) / 2 - (-np.sin(theta))) < 1e-12

    def test_matches_finite_differences_per_coordinate(self):
        # the full Jacobian (z_plus - z_minus) / 2 of every readout over
        # every angle slot, encoding and theta
        rng = np.random.default_rng(21)
        m = small_model(n_qubits=4, seed=5)
        angles = angle_row(m, rng.normal(size=4))
        slots = range(m.ansatz.n_slots)
        _, z_plus, z_minus = z_from_angles(m.ansatz, angles, slots=slots)
        jacobian = (z_plus[0] - z_minus[0]) / 2.0
        for q in range(4):
            fd = central_difference(lambda a, q=q: z_from_angles(m.ansatz, a)[0, q], angles,
                                    step=1e-5)
            np.testing.assert_allclose(jacobian[:, q], fd, atol=1e-6)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_matches_finite_differences_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = small_model(n_qubits=n, seed=seed)
        x = rng.normal(size=n)
        label = int(rng.integers(0, 8))
        _, grads = m.loss_and_grad(x, np.array([label]), needed={"theta"})

        def value(theta):
            m2 = m.copy()
            m2.params["theta"] = theta
            return loss_of(m2, x, label)

        np.testing.assert_allclose(
            grads["theta"], central_difference(value, m.params["theta"], step=1e-5), atol=1e-6
        )

    def test_zero_upstream_gives_exact_zero(self):
        # a zero output layer passes no cotangent back to the readout, so
        # every shifted-circuit gradient is exactly zero
        m = small_model(seed=2)
        m.params["out.w"] = np.zeros_like(m.params["out.w"])
        _, grads = m.loss_and_grad(np.ones((1, 4)), np.array([3]))
        for name in ("theta", "in.w", "in.b"):
            assert (grads[name] == 0.0).all(), name

    def test_kernel_calls_of_a_full_gradient_sample(self, monkeypatch):
        # n=10, L=1: the four congruent middle cones run as one staircase,
        # so the six cones take 3 staircases of 8 + 3 + 3 RY and 3 + 1 + 1 CZ
        # (38 RY and 14 CZ one cone at a time), each read out in one call
        calls = {}
        for name in ("ry_rows", "cz_rows", "z_expectations_rows"):
            def counting(*args, kernel=getattr(quantum_classifier, name), name=name):
                calls[name] = calls.get(name, 0) + 1
                return kernel(*args)
            monkeypatch.setattr(quantum_classifier, name, counting)
        m = DressedQnnModel.create(identity_normalizer(), StdAnsatz(10, 1), seed=1)
        m.loss_and_grad(np.ones((1, 36)), np.array([0]))
        assert calls == {"ry_rows": 14, "cz_rows": 5, "z_expectations_rows": 3}

    def test_cost_contract(self):
        # one sample's full gradient: 1 + 2K circuits, K = 2(n-1)L + n slots
        for n, layers in ((10, 1), (4, 2), (3, 3)):
            m = small_model(n_qubits=n, n_layers=layers, seed=1)
            before = evaluation_count()
            m.loss_and_grad(np.ones((1, n)), np.array([0]))
            assert evaluation_count() - before == 1 + 2 * (2 * (n - 1) * layers + n)


def explicit_shift_rows(rows, slots):
    """Oracle layout: for each row and slot j, the row with j shifted by
    +pi/2 and then by -pi/2, as (B, K, 2, n_slots)."""
    out = np.repeat(rows[:, None, None, :], len(slots), axis=1).repeat(2, axis=2)
    for i, j in enumerate(slots):
        out[:, i, 0, j] += np.pi / 2
        out[:, i, 1, j] -= np.pi / 2
    return out


class TestStaircaseSweep:
    @given(
        n=st.integers(2, 7),
        layers=st.integers(1, 3),
        batch=st.sampled_from([1, 3, 33]),
        which=st.sampled_from(["all", "theta", "encoding"]),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_explicit_shifted_rows(self, n, layers, batch, which, data):
        ansatz = StdAnsatz(n, layers)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rows = rng.uniform(-np.pi, np.pi, (batch, ansatz.n_slots))
        slots = {
            "all": range(ansatz.n_slots),
            "theta": range(n, ansatz.n_slots),
            "encoding": range(n),
        }[which]
        slots = data.draw(st.permutations(list(slots)), label="slots")
        z, z_plus, z_minus = z_from_angles(ansatz, rows, slots=slots)

        k = len(slots)
        oracle = z_from_angles(ansatz, explicit_shift_rows(rows, slots).reshape(-1, ansatz.n_slots))
        oracle = oracle.reshape(batch, k, 2, n)
        np.testing.assert_allclose(z, z_from_angles(ansatz, rows), rtol=0, atol=1e-12)
        np.testing.assert_allclose(z_plus, oracle[:, :, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(z_minus, oracle[:, :, 1], rtol=0, atol=1e-12)

    def test_counts_each_circuit_once(self):
        ansatz = StdAnsatz(3, 2)
        rows = np.zeros((4, ansatz.n_slots))
        before = evaluation_count()
        z, z_plus, _ = z_from_angles(ansatz, rows, slots=[5, 0, 2])
        assert evaluation_count() - before == 4 * (1 + 2 * 3)
        assert z.shape == (4, 3) and z_plus.shape == (4, 3, 3)

    def test_slot_validation(self):
        ansatz = StdAnsatz(2, 1)
        rows = np.zeros((1, ansatz.n_slots))
        for bad in ([0, 0], [ansatz.n_slots], [-1]):
            with pytest.raises(ValueError):
                z_from_angles(ansatz, rows, slots=bad)

    @pytest.mark.parametrize("needed, per_sample", [(None, 57), ({"theta"}, 37)])
    def test_closed_form_cost_at_default_size(self, needed, per_sample):
        m = DressedQnnModel.create(identity_normalizer(), StdAnsatz(10, 1), seed=2)
        x = np.random.default_rng(3).normal(size=(3, 36))
        before = evaluation_count()
        m.loss_and_grad(x, np.array([0, 4, 7]), needed=needed)
        assert evaluation_count() - before == 3 * per_sample


def chunk_edge_rows(ansatz, slots):
    """A row count that puts one row past a full chunk of every group."""
    shifted = set(range(ansatz.n_slots) if slots is None else slots)
    chunks = []
    for qubits, ops, _, _ in walk_light_cones(ansatz.n_qubits, ansatz.n_layers):
        blocks = 1 + 2 * sum(slot in shifted for _, control, slot in ops if control is None)
        chunks.append(max(1, quantum_classifier._CHUNK_AMPLITUDES // (blocks << len(qubits))))
    return max(chunks) + 1


class TestStackedSweep:
    """The basis-major sweep with congruent cones stacked against the light
    cones of the set walk run one at a time on row-major buffers, bit for
    bit."""

    @staticmethod
    def assert_bit_identical(ansatz, rows, slots):
        got = z_from_angles(ansatz, rows, slots=slots)
        want = per_cone_sweep(ansatz, rows, slots)
        if slots is None:
            got, want = (got,), (want,)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g, w)

    @given(
        n=st.integers(2, 10),
        layers=st.integers(1, 3),
        count=st.sampled_from(["0", "1", "17", "edge"]),
        which=st.sampled_from(["none", "all", "theta", "subset"]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_per_cone_sweep(self, n, layers, count, which, data):
        ansatz = StdAnsatz(n, layers)
        slots = {
            "none": None,
            "all": list(range(ansatz.n_slots)),
            "theta": list(range(n, ansatz.n_slots)),
            "subset": data.draw(st.lists(st.integers(0, ansatz.n_slots - 1), unique=True),
                                label="subset"),
        }[which]
        rows = chunk_edge_rows(ansatz, slots) if count == "edge" else int(count)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        self.assert_bit_identical(ansatz, rng.uniform(-np.pi, np.pi, (rows, ansatz.n_slots)),
                                  slots)

    @pytest.mark.parametrize("rows, slots", [
        (1, None),        # four cones a staircase, read out in one call
        (700, None),      # two middle cones a staircase
        (1000, "theta"),  # one cone a staircase, chunks of 455 rows
        (2049, None),     # a lone row in the last chunk
        (513, None),
        (6, "all"),
    ])
    def test_bit_identical_at_the_default_size(self, rows, slots):
        ansatz = StdAnsatz(10, 1)
        slots = {None: None, "all": range(ansatz.n_slots),
                 "theta": range(10, ansatz.n_slots)}[slots]
        rng = np.random.default_rng(rows)
        self.assert_bit_identical(ansatz, rng.uniform(-np.pi, np.pi, (rows, ansatz.n_slots)),
                                  slots)

    @pytest.mark.parametrize("n", range(3, 11))
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_rows_are_bit_identical_whatever_their_batch(self, monkeypatch, n, layers):
        # a row's outputs, base and shifted, are the bits it gets alone, at
        # any chunk size, beside any other rows and under any slot list
        ansatz = StdAnsatz(n, layers)
        rng = np.random.default_rng(10 * n + layers)
        rows = rng.uniform(-np.pi, np.pi, (5, ansatz.n_slots))
        subset = rng.permutation(ansatz.n_slots)[: rng.integers(1, ansatz.n_slots)].tolist()
        slot_lists = [None, list(range(ansatz.n_slots)), list(range(n, ansatz.n_slots)), subset]

        def outputs(batches, slots):
            parts = [z_from_angles(ansatz, batch, slots=slots) for batch in batches]
            if slots is None:
                parts = [(z,) for z in parts]
            return [np.concatenate(out) for out in zip(*parts)]

        alone = [outputs(rows[:, None], slots) for slots in slot_lists]
        for chunk in (8 * 1024, 32 * 1024, 64 * 1024, 256 * 1024):
            monkeypatch.setattr(quantum_classifier, "_CHUNK_AMPLITUDES", chunk)
            for slots, want in zip(slot_lists, alone):
                for batches in ([rows], [rows[:2], rows[2:]]):
                    got = outputs(batches, slots)
                    assert np.array_equal(got[0], alone[0][0]), (chunk, slots)
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w), (chunk, slots)

    @pytest.mark.parametrize("n, layers, sizes", [(10, 1, [1, 4, 1]), (10, 3, [1]),
                                                  (8, 1, [1, 3, 1]), (9, 1, [1, 3, 1])])
    def test_congruent_cones_stack(self, n, layers, sizes):
        stacks = cone_stacks(n, layers)
        assert [len(table) for _, _, _, table, _ in stacks] == sizes
        groups = {readout: (qubits, ops)
                  for qubits, ops, readout, _ in walk_light_cones(n, layers)}
        for width, gates, local, table, readout in stacks:
            for slots, qubits_out in zip(table, readout):
                qubits, group_ops = groups[tuple(qubits_out)]
                assert len(qubits) == width
                assert [qubits[i] for i in local] == list(qubits_out)
                ry_slots = [slot for _, control, slot in group_ops if control is None]
                assert ry_slots == list(slots)
                assert [(target, control) for target, control, _ in group_ops] == list(gates)


class TestPerGateSweep:
    """The sweep with each staircase's RY factors taken in one pass against
    the sweep that builds and rotates every gate's angles as it runs,
    compared as int64 bit patterns."""

    @pytest.mark.parametrize("chunk", [8 * 1024, 256 * 1024])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_bit_identical_to_per_gate_sweep(self, monkeypatch, n, chunk):
        monkeypatch.setattr(quantum_classifier, "_CHUNK_AMPLITUDES", chunk)
        rng = np.random.default_rng(n)
        for layers in (1, 2, 3):
            ansatz = StdAnsatz(n, layers)
            k = ansatz.n_slots
            half = sorted(rng.permutation(k)[: k // 2].tolist())
            for slots in (None, list(range(k)), list(range(n, k)), half):
                for count in (1, 4, 37):
                    rows = rng.uniform(-np.pi, np.pi, (count, k))
                    got = z_from_angles(ansatz, rows, slots=slots)
                    want = per_gate_sweep(ansatz, rows, slots)
                    if slots is None:
                        got, want = (got,), (want,)
                    for g, w in zip(got, want):
                        assert g.shape == w.shape
                        assert np.array_equal(np.ascontiguousarray(g).view(np.int64),
                                              np.ascontiguousarray(w).view(np.int64)), \
                            (layers, slots, count)


def forward_reach(ops, g):
    """Qubits gate g can influence: its own, spread by every later CZ that
    touches one of them."""
    reach = set(ops[g][:2]) - {None}
    for target, control, _ in ops[g + 1:]:
        if control is not None and {control, target} & reach:
            reach |= {control, target}
    return reach


def is_subsequence(short, long):
    it = iter(long)
    return all(item in it for item in short)


class TestLightCone:
    @given(
        n=st.integers(2, 8),
        layers=st.integers(1, 3),
        batch=st.sampled_from([1, 3, 33]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_full_width_oracle(self, n, layers, batch, data):
        ansatz = StdAnsatz(n, layers)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rows = rng.uniform(-np.pi, np.pi, (batch, ansatz.n_slots))
        slots = data.draw(st.lists(st.integers(0, ansatz.n_slots - 1), unique=True),
                          label="slots")
        got = z_from_angles(ansatz, rows, slots=slots)
        want = full_width_sweep(ansatz, rows, slots)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    def test_matches_full_width_oracle_at_two_layers_of_ten(self):
        # the wider cones (up to 8 qubits) of the default register at L=2
        ansatz = StdAnsatz(10, 2)
        rows = np.random.default_rng(9).uniform(-np.pi, np.pi, (3, ansatz.n_slots))
        slots = list(np.random.default_rng(10).permutation(ansatz.n_slots))
        for got, want in zip(z_from_angles(ansatz, rows, slots=slots),
                             full_width_sweep(ansatz, rows, slots)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @given(n=st.integers(2, 12), layers=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_cones_are_closed(self, n, layers):
        # the set walk's groups, which test_interval_cones_equal_the_set_walk
        # ties to cone_stacks
        ops = dressed_gates(n, layers)
        groups = walk_light_cones(n, layers)
        assert sorted(q for _, _, readout, _ in groups for q in readout) == list(range(n))
        for qubits, local_ops, readout, local in groups:
            assert [qubits[i] for i in local] == list(readout)
            as_global = [(qubits[target], None if control is None else qubits[control], slot)
                         for target, control, slot in local_ops]
            needed = [g for g in range(len(ops)) if forward_reach(ops, g) & set(readout)]
            reached = set(readout).union(*(set(ops[g][:2]) - {None} for g in needed))
            # every gate that can move a readout is in the group, in circuit
            # order, and touches only the cone's qubits
            assert is_subsequence([ops[g] for g in needed], as_global)
            assert is_subsequence(as_global, ops)
            assert reached <= set(qubits)
            assert len(groups) == 1 or reached == set(qubits)

    def test_interval_cones_equal_the_set_walk(self):
        for n in range(2, 65):
            for layers in range(1, 5):
                got = [(width, gates, *(a.tolist() for a in arrays))
                       for width, gates, *arrays in cone_stacks.__wrapped__(n, layers)]
                assert got == walk_cone_stacks(n, layers), (n, layers)

    @pytest.mark.parametrize("n, layers", [(10, 3), (4, 1)])
    def test_single_full_width_group(self, n, layers):
        (width, gates, local, slots, readout), = cone_stacks(n, layers)
        ops = dressed_gates(n, layers)
        assert width == n and local.tolist() == list(range(n))
        assert readout.tolist() == [list(range(n))]
        assert gates == tuple((target, control) for target, control, _ in ops)
        assert slots.tolist() == [list(range(StdAnsatz(n, layers).n_slots))]

    @pytest.mark.parametrize("layers, amplitudes", [(1, 72), (2, 672)])
    def test_default_register_splits_into_cones(self, layers, amplitudes):
        assert sum(len(table) << width for width, _, _, table, _ in cone_stacks(10, layers)) \
            == amplitudes

    @pytest.mark.parametrize("layers", [1, 3])
    def test_kernel_traffic(self, monkeypatch, layers):
        # amplitudes touched by RY for one full-gradient sample: the cones
        # at L=1 stay under a tenth of full width; L=3 falls back to it
        ansatz = StdAnsatz(10, layers)
        row = np.random.default_rng(5).uniform(-np.pi, np.pi, (1, ansatz.n_slots))
        traffic = {}
        for module in (quantum_classifier, oracles):
            def counting(amps, qubit, cos, sines, kernel=module.ry_rows, name=module.__name__):
                traffic[name] = traffic.get(name, 0) + amps.size
                kernel(amps, qubit, cos, sines)
            monkeypatch.setattr(module, "ry_rows", counting)
        slots = range(ansatz.n_slots)
        z_from_angles(ansatz, row, slots=slots)
        full_width_sweep(ansatz, row, slots)
        cone, full = traffic[quantum_classifier.__name__], traffic[oracles.__name__]
        if layers == 1:
            assert cone < full / 10
        else:
            assert cone == full


class TestBackward:
    def test_end_to_end_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        m = small_model(n_qubits=4, seed=9)
        x = rng.normal(size=4)
        label = 3
        _, grads = m.loss_and_grad(x, np.array([label]))

        for name in sorted(m.params):
            def loss_at(values, name=name):
                m2 = m.copy()
                m2.params[name] = values.reshape(m.params[name].shape)
                return loss_of(m2, x, label)

            fd = central_difference(loss_at, m.params[name].ravel(), step=1e-5)
            scale = np.maximum(np.abs(fd), 1e-6)
            rel = np.abs(grads[name].ravel() - fd) / scale
            assert rel.max() < 1e-4, f"{name}: worst relative error {rel.max()}"

    def test_duplicate_batch_equals_single(self):
        rng = np.random.default_rng(12)
        m = small_model(n_qubits=3, seed=4)
        x = rng.normal(size=3)
        loss1, g1 = m.loss_and_grad(x, np.array([2]))
        xs = np.tile(x, (4, 1))
        loss4, g4 = m.loss_and_grad(xs, np.full(4, 2))
        assert abs(loss1 - loss4) < 1e-12
        for name in g1:
            np.testing.assert_allclose(g4[name], g1[name], atol=1e-12)

    def test_saturated_correct_logit_gives_negligible_gradient(self):
        m = small_model(n_qubits=3, seed=6)
        # push the true class logit 30 above the rest via the output bias
        m.params["out.b"] = np.zeros(8)
        m.params["out.b"][5] = 30.0
        m.params["out.w"] = np.zeros_like(m.params["out.w"])
        _, grads = m.loss_and_grad(np.zeros(3), np.array([5]))
        total = sum(np.abs(g).sum() for g in grads.values())
        assert total < 1e-9

    def test_label_validation(self):
        m = small_model()
        with pytest.raises(ValueError):
            m.loss_and_grad(np.ones((1, 4)), np.array([8]))
        with pytest.raises(ValueError):
            m.loss_and_grad(np.ones((2, 4)), np.array([0, -1]))

    def test_needed_restriction_skips_encoding_shifts(self):
        m = small_model(n_qubits=4, n_layers=1, seed=3)
        x = np.random.default_rng(0).normal(size=(5, 4))
        y = np.array([0, 1, 2, 3, 4])
        before = evaluation_count()
        _, grads = m.loss_and_grad(x, y, needed={"theta", "out.w", "out.b"})
        # 5 forward rows plus 5 * 2 * n_theta shifted rows, no encoding shifts
        assert evaluation_count() - before == 5 * (1 + 2 * m.ansatz.n_theta)
        assert set(grads) == {"theta", "out.w", "out.b"}

    def test_batched_full_gradient_matches_sum_of_singles(self):
        rng = np.random.default_rng(14)
        m = small_model(n_qubits=3, seed=8)
        xs = rng.normal(size=(3, 3))
        ys = np.array([1, 0, 7])
        loss_b, grads_b = m.loss_and_grad(xs, ys)
        singles = [m.loss_and_grad(xs[i], ys[i : i + 1]) for i in range(3)]
        np.testing.assert_allclose(loss_b, np.mean([s[0] for s in singles]), atol=1e-12)
        for name in grads_b:
            stacked = np.mean([s[1][name] for s in singles], axis=0)
            np.testing.assert_allclose(grads_b[name], stacked, atol=1e-10)
