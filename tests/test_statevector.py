"""Gate kernels against the dense Kronecker-product oracle, through the
single-state helpers and the gate loop in `oracles`, and their basis-major
(2^n, batch) layout: one state per column."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply_cz,
    apply_ry,
    expectation_z,
    gemm_z_expectations,
    random_circuit,
    run_circuit,
    simulate_dense,
    z_expectation_dense,
)
from qpose.statevector import cz_rows, ry_rows, z_expectations_rows, zero_states

angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


def random_state(rng, n_qubits):
    v = rng.normal(size=1 << n_qubits)
    return v / np.linalg.norm(v)


def zero(n_qubits):
    return zero_states(n_qubits)[:, 0]


class TestApplyRy:
    def test_identity_rotation(self):
        s = apply_ry(zero(1), 0, 0.0)
        np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-15)

    def test_half_turn_flips(self):
        s = apply_ry(zero(1), 0, np.pi)
        np.testing.assert_allclose(s, [0.0, 1.0], atol=1e-12)

    def test_quarter_turn_equal_superposition(self):
        s = apply_ry(zero(1), 0, np.pi / 2)
        np.testing.assert_allclose(s, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_out_of_range_qubit(self):
        with pytest.raises(IndexError):
            apply_ry(zero(2), 2, 0.3)

    @given(a=angles, b=angles)
    def test_composition_adds_angles(self, a, b):
        rng = np.random.default_rng(5)
        s = random_state(rng, 2)
        two = apply_ry(apply_ry(s, 1, a), 1, b)
        one = apply_ry(s, 1, a + b)
        np.testing.assert_allclose(two, one, atol=1e-10)

    @given(theta=angles, q=st.integers(0, 2))
    def test_norm_preserved(self, theta, q):
        rng = np.random.default_rng(9)
        s = apply_ry(random_state(rng, 3), q, theta)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-10


class TestApplyCz:
    def test_defining_action_on_11(self):
        s = np.array([0, 0, 0, 1.0])
        np.testing.assert_allclose(apply_cz(s, 0, 1), [0, 0, 0, -1.0])

    def test_no_action_on_01(self):
        s = np.array([0, 1.0, 0, 0])
        np.testing.assert_allclose(apply_cz(s, 0, 1), [0, 1.0, 0, 0])

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        s = random_state(rng, 3)
        np.testing.assert_array_equal(
            apply_cz(s, 0, 2), apply_cz(s, 2, 0)
        )

    @given(st.integers(0, 200))
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        s = random_state(rng, 2)
        twice = apply_cz(apply_cz(s, 0, 1), 0, 1)
        np.testing.assert_allclose(twice, s, atol=1e-12)

    def test_equal_indices_rejected(self):
        with pytest.raises(IndexError):
            apply_cz(zero(2), 1, 1)


class TestExpectationZ:
    def test_zero_state(self):
        assert expectation_z(zero(1), 0) == 1.0

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.7])
    def test_cos_theta_after_ry(self, theta):
        s = apply_ry(zero(1), 0, theta)
        assert abs(expectation_z(s, 0) - np.cos(theta)) < 1e-12

    def test_qubit_convention_each_position(self):
        # flipping qubit q and measuring q must give -1 for every q
        for n in (1, 2, 3, 4):
            for q in range(n):
                s = apply_ry(zero(n), q, np.pi)
                assert abs(expectation_z(s, q) - (-1.0)) < 1e-10

    def test_matches_dense_oracle_random_3q(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ops, params = random_circuit(rng, 3, 12)
            state = run_circuit(3, ops, params)
            dense = simulate_dense(3, ops, params)
            for q in range(3):
                assert abs(expectation_z(state, q) - z_expectation_dense(dense, q)) < 1e-10


class TestRunCircuit:
    def test_empty_circuit(self):
        s = run_circuit(1, [], [])
        np.testing.assert_array_equal(s, [1.0, 0.0])

    def test_little_endian_indexing(self):
        # half-turn on qubit 0 of two qubits lands on basis index 1
        s = run_circuit(2, [(0, None, 0)], [np.pi])
        np.testing.assert_allclose(s, [0, 1.0, 0, 0], atol=1e-12)

    # (target, control, slot): two RYs, then CZs with a bad control, target, or both alike
    @pytest.mark.parametrize("op", [(-1, None, 0), (2, None, 0), (0, -1, None), (2, 0, None),
                                    (1, 1, None)])
    def test_bad_qubit_rejected_when_the_gate_runs(self, op):
        with pytest.raises(IndexError):
            run_circuit(2, [op], [0.3])

    def test_hundred_random_circuits_match_dense_oracle(self):
        rng = np.random.default_rng(123)
        for trial in range(100):
            n = int(rng.integers(2, 5))
            ops, params = random_circuit(rng, n, int(rng.integers(1, 21)))
            state = run_circuit(n, ops, params)
            dense = simulate_dense(n, ops, params)
            np.testing.assert_allclose(state, dense, atol=1e-10)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_circuit_equivalence_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        ops, params = random_circuit(rng, n, int(rng.integers(1, 16)))
        state = run_circuit(n, ops, params)
        np.testing.assert_allclose(state, simulate_dense(n, ops, params), atol=1e-10)


class TestBatchedRowKernels:
    def test_zero_states_are_columns(self):
        amps = zero_states(2, batch=3)
        assert amps.shape == (4, 3)
        np.testing.assert_array_equal(amps, [[1, 1, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]])

    def test_ry_rows_matches_single(self):
        rng = np.random.default_rng(31)
        thetas = rng.uniform(-np.pi, np.pi, 5)
        amps = zero_states(3, batch=5)
        ry_rows(amps, 1, thetas)
        for i, theta in enumerate(thetas):
            expected = apply_ry(zero(3), 1, theta)
            np.testing.assert_allclose(amps[:, i], expected, atol=1e-12)

    def test_cz_rows_matches_single(self):
        rng = np.random.default_rng(32)
        amps = rng.normal(size=(8, 4))
        amps /= np.linalg.norm(amps, axis=0, keepdims=True)
        states = amps.copy()
        cz_rows(states, 0, 2)
        for i in range(4):
            expected = apply_cz(amps[:, i], 0, 2)
            np.testing.assert_allclose(states[:, i], expected, atol=1e-12)

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_kernels_on_a_leading_column_slice(self, qubit):
        # the sweep runs a gate on its live states only: a column slice of
        # the buffer, which the kernels change in place, columns past it not
        rng = np.random.default_rng(33 + qubit)
        amps = rng.normal(size=(8, 7))
        thetas = rng.uniform(-np.pi, np.pi, 4)
        before = amps.copy()
        ry_rows(amps[:, :4], qubit, thetas)
        cz_rows(amps[:, :4], qubit, (qubit + 1) % 3)
        np.testing.assert_array_equal(amps[:, 4:], before[:, 4:])
        for i, theta in enumerate(thetas):
            expected = apply_cz(apply_ry(before[:, i], qubit, theta), qubit, (qubit + 1) % 3)
            np.testing.assert_array_equal(amps[:, i], expected)


def probability_rows(rng, rows, width):
    p = rng.random((rows, 1 << width)) ** 4
    return p / p.sum(axis=1, keepdims=True)


class TestZExpectationsRows:
    @pytest.mark.parametrize("width", range(1, 11))
    def test_agrees_with_the_gemm_readout(self, width):
        p = probability_rows(np.random.default_rng(width), 777, width)
        np.testing.assert_allclose(z_expectations_rows(p), gemm_z_expectations(p),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("width", range(1, 11))
    def test_a_row_has_the_same_bits_in_any_layout_and_batch(self, width):
        p = probability_rows(np.random.default_rng(40 + width), 777, width)
        z = z_expectations_rows(p)
        assert z.shape == (777, width)
        assert np.array_equal(z_expectations_rows(np.ascontiguousarray(p.T).T), z)
        for i in (0, 1, 776):
            assert np.array_equal(z_expectations_rows(p[i : i + 1]), z[i : i + 1])
        assert np.array_equal(z_expectations_rows(p[::7]), z[::7])
