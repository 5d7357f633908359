import numpy as np
import pytest

from qeclab.states import (
    I2, U, UDAG, V, VDAG, W, WDAG, X, Y, Z,
    DensityMatrix,
    PureState,
    apply_cnot,
    apply_controlled_phase,
    apply_gate,
    collapse_to_outcome,
    fidelity,
    is_unitary,
    measure_qubits,
    measurement_branches,
    partial_trace,
    phase_aligned_distance,
)

from conftest import random_pure_state

INV_SQRT2 = 1 / np.sqrt(2)


def embed_gate_oracle(gate, qubits, n):
    """Independent dense embedding: explicit loop over basis-index bit patterns."""
    k = len(qubits)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in qubits]
    for row in range(dim):
        for col in range(dim):
            if any((row >> (n - 1 - q)) & 1 != (col >> (n - 1 - q)) & 1 for q in rest):
                continue
            gr = sum(((row >> (n - 1 - q)) & 1) << (k - 1 - pos) for pos, q in enumerate(qubits))
            gc = sum(((col >> (n - 1 - q)) & 1) << (k - 1 - pos) for pos, q in enumerate(qubits))
            full[row, col] = gate[gr, gc]
    return full


class TestGateConstants:
    def test_u_on_zero_gives_even_superposition(self):
        out = apply_gate(PureState.from_bits("0"), U, [0])
        np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_v_on_zero(self):
        out = apply_gate(PureState.from_bits("0"), V, [0])
        np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, -1j * INV_SQRT2], atol=1e-15)

    def test_z_on_zero_is_identity(self):
        out = apply_gate(PureState.from_bits("0"), Z, [0])
        np.testing.assert_allclose(out.amplitudes, [1, 0], atol=1e-15)

    def test_all_gates_unitary(self):
        for gate in (I2, X, Y, Z, U, UDAG, V, VDAG, W, WDAG):
            assert is_unitary(gate)

    def test_unitarity_has_no_relative_tolerance(self):
        assert not is_unitary(np.diag([1 + 4e-6, 1]))
        assert not is_unitary(np.diag([1 + 1e-11, 1]))
        assert is_unitary(np.diag([1 + 1e-13, 1]))
        assert not is_unitary(np.array([[np.nan, 0], [0, 1]]))

    def test_w_is_v_times_udag(self):
        np.testing.assert_allclose(W, V @ UDAG, atol=1e-15)


class TestApplyGate:
    def test_matches_dense_embedding_on_random_states(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, min(n, 2) + 1))
            qubits = tuple(rng.choice(n, size=k, replace=False).tolist())
            raw = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            gate, _ = np.linalg.qr(raw)
            state = random_pure_state(n, rng)
            expected = embed_gate_oracle(gate, qubits, n) @ state.amplitudes
            out = apply_gate(state, gate, qubits)
            assert np.abs(out.amplitudes - expected).max() < 1e-12

    def test_norm_preserved(self, rng):
        state = random_pure_state(4, rng)
        for _ in range(60):
            q = int(rng.integers(4))
            state = apply_gate(state, U, [q])
            state = apply_gate(state, V, [(q + 1) % 4])
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12

    def test_rejects_duplicate_qubits(self):
        state = PureState.from_bits("00")
        with pytest.raises(ValueError, match="duplicate"):
            apply_gate(state, np.eye(4), [0, 0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(PureState.from_bits("0"), U, [1])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_gate(PureState.from_bits("00"), U, [0, 1])

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_gate(PureState.from_bits("0"), np.array([[1, 0], [0, 2.0]]), [0])


class TestControlledPhase:
    def test_flips_11(self):
        out = apply_controlled_phase(PureState.from_bits("11"), [0], [1])
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, -1], atol=1e-15)

    def test_control_unset_is_identity(self):
        out = apply_controlled_phase(PureState.from_bits("00"), [0], [1])
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_two_targets_cancel_on_111(self):
        out = apply_controlled_phase(PureState.from_bits("111"), [0], [1, 2])
        assert abs(out.amplitudes[0b111] - 1) < 1e-15

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            apply_controlled_phase(PureState.from_bits("11"), [0], [0])


class TestCnot:
    def test_flips_target_when_control_set(self):
        out = apply_cnot(PureState.from_bits("10"), 0, 1)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_identity_when_control_unset(self):
        out = apply_cnot(PureState.from_bits("00"), 0, 1)
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_equals_basis_change_decomposition(self):
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        decomposition = np.kron(I2, U) @ cz @ np.kron(I2, UDAG)
        for idx in range(4):
            state = PureState.basis(2, idx)
            direct = apply_cnot(state, 0, 1)
            assert np.abs(direct.amplitudes - decomposition @ state.amplitudes).max() < 1e-12

    def test_rejects_equal_control_target(self):
        with pytest.raises(ValueError):
            apply_cnot(PureState.from_bits("00"), 1, 1)


class TestMeasurement:
    def test_product_state_deterministic(self, rng):
        psi = random_pure_state(1, rng)
        amps = np.kron([1, 0], psi.amplitudes)
        state = PureState(2, amps)
        bits, collapsed, p = measure_qubits(state, [0], rng=rng)
        assert bits == (0,)
        assert abs(p - 1) < 1e-12

    def test_even_superposition_probabilities(self):
        state = PureState(1, np.array([1, 1]) / np.sqrt(2))
        branches = measurement_branches(state, [0])
        probs = {bits: p for bits, p, _ in branches}
        assert abs(probs[(0,)] - 0.5) < 1e-12 and abs(probs[(1,)] - 0.5) < 1e-12

    def test_collapse_renormalizes(self, rng):
        state = random_pure_state(3, rng)
        bits, collapsed, p = measure_qubits(state, [0, 2], rng=rng)
        assert abs(np.linalg.norm(collapsed.amplitudes) - 1) < 1e-12

    def test_zero_probability_branch_rejected(self):
        with pytest.raises(ValueError, match="zero probability"):
            collapse_to_outcome(PureState.from_bits("00"), [0], [1])

    def test_one_uniform_per_measurement(self, rng):
        state = random_pure_state(3, rng)
        used, reference = np.random.default_rng(3), np.random.default_rng(3)
        measure_qubits(state, [1, 2], rng=used)
        reference.random()
        assert used.random() == reference.random()

    def test_sampled_branch_is_one_of_the_branches(self, rng):
        state = random_pure_state(3, rng)
        bits, collapsed, p = measure_qubits(state, [2, 0], rng=rng)
        forced, p_forced = collapse_to_outcome(state, [2, 0], bits)
        assert p == p_forced
        np.testing.assert_array_equal(collapsed.amplitudes, forced.amplitudes)

    def test_outcome_length_must_match(self):
        with pytest.raises(ValueError, match="does not match"):
            collapse_to_outcome(PureState.from_bits("00"), [0], [0, 0])

    def test_forced_outcome(self):
        state = PureState(1, np.array([0.6, 0.8]))
        collapsed, p = collapse_to_outcome(state, [0], [1])
        assert abs(p - 0.64) < 1e-12
        np.testing.assert_allclose(collapsed.amplitudes, [0, 1], atol=1e-15)


class TestPartialTrace:
    def test_product_state(self):
        rho = PureState.from_bits("00").density()
        reduced = partial_trace(rho, [0])
        np.testing.assert_allclose(reduced.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_bell_state_maximally_mixed(self):
        bell = PureState(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        for keep in ([0], [1]):
            reduced = partial_trace(bell.density(), keep)
            np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved_for_random_mixture(self, rng):
        mats = [random_pure_state(3, rng).density().matrix for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        rho = DensityMatrix(3, sum(w * m for w, m in zip(weights, mats)))
        reduced = partial_trace(rho, [1, 2])
        assert abs(np.trace(reduced.matrix) - 1) < 1e-12

    def test_keep_all_is_identity_map(self, rng):
        rho = random_pure_state(2, rng).density()
        np.testing.assert_allclose(partial_trace(rho, [0, 1]).matrix, rho.matrix, atol=1e-15)

    def test_empty_keep_rejected(self, rng):
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(random_pure_state(2, rng).density(), [])


class TestFidelityAndPhase:
    def test_self_fidelity(self, rng):
        psi = random_pure_state(3, rng)
        assert abs(fidelity(psi, psi) - 1) < 1e-12

    def test_orthogonal_states(self):
        assert fidelity(PureState.from_bits("0"), PureState.from_bits("1")) == 0

    def test_global_phase_invariance(self, rng):
        psi = random_pure_state(2, rng)
        rotated = PureState(2, np.exp(0.7j) * psi.amplitudes)
        assert abs(fidelity(psi, rotated) - 1) < 1e-12
        assert phase_aligned_distance(psi.amplitudes, rotated.amplitudes) < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(random_pure_state(1, rng), random_pure_state(2, rng))


class TestInvariantChecks:
    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(1, np.array([1.0, 1.0]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            PureState(2, np.array([1.0, 0.0]))

    def test_non_hermitian_density_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, np.array([[0.5, 0.5], [-0.5, 0.5]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(1, np.array([[1.5, 0], [0, -0.5]]))

    def test_negative_eigenvalue_off_the_diagonal_rejected(self):
        """Hermitian, unit trace, positive diagonal, eigenvalues 1.5 and -0.5:
        only the eigenvalue check catches it."""
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(1, np.array([[0.5, 1.0], [1.0, 0.5]]))

    def test_internal_constructions_pass_the_public_checks(self, rng):
        """Projectors, partial traces and dephased states skip the checks, so
        each must be a valid density matrix by construction."""
        from qeclab.noise import dephase_channel

        for n in (1, 2, 3):
            rho = random_pure_state(n, rng).density()
            made = [rho, partial_trace(rho, [0]), dephase_channel(rho, n - 1, 0.7)]
            for out in made:
                checked = DensityMatrix(out.n_qubits, out.matrix)
                assert np.array_equal(checked.matrix, out.matrix)
                assert not out.matrix.flags.writeable
