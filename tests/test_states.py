import numpy as np
import pytest

from qeclab.circuits import Circuit, CircuitFormatError, GateOp, apply_circuit, circuit_to_unitary
from qeclab.states import (
    I2, U, UDAG, V, VDAG, W, WDAG, X, Y, Z,
    DensityMatrix,
    PureState,
    fidelity,
    is_unitary,
    phase_aligned_distance,
)

from conftest import random_pure_state

INV_SQRT2 = 1 / np.sqrt(2)


def run_op(bits, kind, targets, controls=()):
    """Amplitudes after one op on the basis state ``bits``, through the circuit path."""
    circuit = Circuit(len(bits), (GateOp(kind, targets, controls),))
    return apply_circuit(circuit, PureState.from_bits(bits)).amplitudes


class TestGateConstants:
    def test_u_on_zero_gives_even_superposition(self):
        np.testing.assert_allclose(run_op("0", "U", (0,)), [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_v_on_zero(self):
        np.testing.assert_allclose(run_op("0", "V", (0,)), [INV_SQRT2, -1j * INV_SQRT2], atol=1e-15)

    def test_z_on_zero_is_identity(self):
        np.testing.assert_allclose(run_op("0", "Z", (0,)), [1, 0], atol=1e-15)

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


class TestControlledPhase:
    """The alphabet's CPHASE on basis states, through the one gate path in ``circuits``."""

    def test_flips_11(self):
        np.testing.assert_allclose(run_op("11", "CPHASE", (1,), (0,)), [0, 0, 0, -1], atol=1e-15)

    def test_control_unset_is_identity(self):
        for bits in ("00", "01"):
            np.testing.assert_allclose(run_op(bits, "CPHASE", (1,), (0,)),
                                       PureState.from_bits(bits).amplitudes, atol=1e-15)

    def test_two_targets_cancel_on_111(self):
        assert abs(run_op("111", "CPHASE", (1, 2), (0,))[0b111] - 1) < 1e-15
        assert abs(run_op("110", "CPHASE", (1, 2), (0,))[0b110] + 1) < 1e-15


class TestCnot:
    """The alphabet's CNOT on basis states, through the one gate path in ``circuits``."""

    def test_flips_target_when_control_set(self):
        np.testing.assert_allclose(run_op("10", "CNOT", (1,), (0,)), [0, 0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(run_op("11", "CNOT", (1,), (0,)), [0, 0, 1, 0], atol=1e-15)

    def test_identity_when_control_unset(self):
        for bits in ("00", "01"):
            np.testing.assert_allclose(run_op(bits, "CNOT", (1,), (0,)),
                                       PureState.from_bits(bits).amplitudes, atol=1e-15)

    def test_equals_basis_change_decomposition(self):
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        decomposition = np.kron(I2, U) @ cz @ np.kron(I2, UDAG)
        direct = circuit_to_unitary(Circuit(2, (GateOp("CNOT", (1,), (0,)),)))
        assert np.abs(direct - decomposition).max() < 1e-12

    def test_rejects_equal_control_target(self):
        with pytest.raises(CircuitFormatError, match="overlap"):
            GateOp("CNOT", (1,), (1,))


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

    @pytest.mark.parametrize("amps", [[np.nan, 1.0], [1.0, np.inf], [np.nan, np.nan]])
    def test_non_finite_amplitudes_rejected(self, amps):
        """A NaN norm fails the norm check too (``nan > 1e-9`` is False)."""
        with pytest.raises(ValueError, match="norm"):
            PureState(1, np.array(amps, dtype=complex))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            PureState(2, np.array([1.0, 0.0]))

    def test_non_hermitian_density_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, np.array([[0.5, 0.5], [-0.5, 0.5]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(1, np.array([[1.5, 0], [0, -0.5]]))

    @pytest.mark.parametrize("matrix,message", [
        (np.eye(4) / 4, r"matrix has shape \(4, 4\), expected \(2, 2\)"),
        (np.eye(2), r"density matrix trace \(2\+0j\) is not 1"),
    ], ids=["shape", "trace"])
    def test_wrong_shape_or_trace_rejected(self, matrix, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DensityMatrix(1, matrix)

    def test_negative_eigenvalue_off_the_diagonal_rejected(self):
        """Hermitian, unit trace, positive diagonal, eigenvalues 1.5 and -0.5:
        only the eigenvalue check catches it."""
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(1, np.array([[0.5, 1.0], [1.0, 0.5]]))

    def test_internal_constructions_pass_the_public_checks(self, rng):
        """Projectors, dephased states and the schemes' exact outputs go
        through the public constructor, and each comes out read-only."""
        from qeclab.noise import SCHEME_KINDS, Scheme, dephase_channel, run_scheme

        made = []
        for n in (1, 2, 3):
            rho = random_pure_state(n, rng).density()
            made += [rho, dephase_channel(rho, n - 1, 0.7)]
        for kind in SCHEME_KINDS:
            psi = random_pure_state(1, rng)
            made.append(run_scheme(Scheme(kind, 3), psi, 0.7))
        for out in made:
            checked = DensityMatrix(out.n_qubits, out.matrix)
            assert np.array_equal(checked.matrix, out.matrix)
            assert not out.matrix.flags.writeable
