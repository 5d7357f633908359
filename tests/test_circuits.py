import json

import numpy as np
import pytest

from qeclab.circuits import (
    Circuit,
    CircuitFormatError,
    GateOp,
    apply_circuit,
    circuit_from_dict,
    circuit_to_unitary,
    invert_circuit,
    parse_circuit,
    serialize_circuit,
)
from qeclab.search import random_circuit


class TestGateOpValidation:
    def test_single_qubit_needs_one_target(self):
        with pytest.raises(CircuitFormatError):
            GateOp("U", (0, 1))

    def test_cnot_shape(self):
        with pytest.raises(CircuitFormatError):
            GateOp("CNOT", (0,), ())

    def test_cphase_overlap(self):
        with pytest.raises(CircuitFormatError, match="overlap"):
            GateOp("CPHASE", (0,), (0,))
        with pytest.raises(CircuitFormatError, match="overlap"):
            GateOp("CPHASE", (1, 1), (0,))

    def test_unknown_kind(self):
        with pytest.raises(CircuitFormatError, match="unknown"):
            GateOp("H", (0,))

    def test_circuit_range_check(self):
        with pytest.raises(CircuitFormatError, match="out of range"):
            Circuit(2, (GateOp("U", (2,)),))


class TestCircuitToUnitary:
    def test_empty_circuit_is_identity(self):
        np.testing.assert_allclose(circuit_to_unitary(Circuit(2)), np.eye(4), atol=1e-15)

    def test_inverse_pair_is_identity(self):
        circ = Circuit(1, (GateOp("U", (0,)), GateOp("Udag", (0,))))
        np.testing.assert_allclose(circuit_to_unitary(circ), np.eye(2), atol=1e-15)

    def test_cnot_matrix(self):
        circ = Circuit(2, (GateOp("CNOT", (1,), (0,)),))
        expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        np.testing.assert_allclose(circuit_to_unitary(circ), expected, atol=1e-15)

    def test_unitarity_on_random_circuits(self, rng):
        for _ in range(20):
            circ = random_circuit(3, int(rng.integers(1, 10)), rng)
            mat = circuit_to_unitary(circ)
            np.testing.assert_allclose(mat.conj().T @ mat, np.eye(8), atol=1e-12)

    def test_agrees_with_apply_circuit(self, rng):
        from conftest import random_pure_state

        circ = random_circuit(3, 8, rng)
        psi = random_pure_state(3, rng)
        via_matrix = circuit_to_unitary(circ) @ psi.amplitudes
        via_apply = apply_circuit(circ, psi).amplitudes
        assert np.abs(via_matrix - via_apply).max() < 1e-12


class TestInversion:
    def test_mechanical_reversal(self):
        circ = Circuit(2, (GateOp("U", (0,)), GateOp("CNOT", (1,), (0,))))
        inv = invert_circuit(circ)
        assert inv.ops == (GateOp("CNOT", (1,), (0,)), GateOp("Udag", (0,)))

    def test_involution(self, rng):
        for _ in range(20):
            circ = random_circuit(3, int(rng.integers(0, 8)), rng)
            assert invert_circuit(invert_circuit(circ)) == circ

    def test_inverse_undoes_unitary(self, rng):
        """unitary(invert(c)) = unitary(c)^dagger over many random circuits."""
        for _ in range(100):
            n = int(rng.integers(1, 4))
            circ = random_circuit(n, int(rng.integers(0, 13)), rng)
            mat = circuit_to_unitary(circ)
            inv = circuit_to_unitary(invert_circuit(circ))
            assert np.abs(inv - mat.conj().T).max() < 1e-12

    def test_ten_op_product_is_identity(self, rng):
        circ = random_circuit(3, 10, rng)
        prod = circuit_to_unitary(invert_circuit(circ)) @ circuit_to_unitary(circ)
        np.testing.assert_allclose(prod, np.eye(8), atol=1e-12)


class TestMultiTargetCphase:
    def test_equals_single_target_composition(self, rng):
        for _ in range(10):
            n = 4
            qubits = rng.permutation(n)
            controls = tuple(int(q) for q in qubits[:1])
            targets = tuple(int(q) for q in qubits[1:3])
            fused = Circuit(n, (GateOp("CPHASE", targets, controls),))
            split = Circuit(n, tuple(GateOp("CPHASE", (t,), controls) for t in targets))
            np.testing.assert_allclose(
                circuit_to_unitary(fused), circuit_to_unitary(split), atol=1e-14
            )


class TestSerialization:
    def test_documented_example(self):
        circ = parse_circuit('{"n": 2, "ops": [{"kind": "CNOT", "controls": [0], "targets": [1]}]}')
        assert circ.n_qubits == 2
        assert circ.ops == (GateOp("CNOT", (1,), (0,)),)

    def test_round_trip_on_random_circuits(self, rng):
        for _ in range(25):
            circ = random_circuit(4, int(rng.integers(0, 10)), rng)
            assert parse_circuit(serialize_circuit(circ)) == circ

    def test_round_trip_on_reference_encoder(self):
        from qeclab.codes import five_qubit_encoder

        circ = five_qubit_encoder()
        assert parse_circuit(serialize_circuit(circ)) == circ

    def test_overlap_reported_with_position(self):
        doc = {"n": 2, "ops": [{"kind": "CPHASE", "controls": [0], "targets": [0]}]}
        with pytest.raises(CircuitFormatError, match="at op 0"):
            circuit_from_dict(doc)

    def test_unknown_kind_reported_with_position(self):
        doc = {"n": 1, "ops": [{"kind": "U", "targets": [0]}, {"kind": "RX", "targets": [0]}]}
        with pytest.raises(CircuitFormatError, match="at op 1"):
            circuit_from_dict(doc)

    def test_out_of_range_reported_with_position(self):
        doc = {"n": 1, "ops": [{"kind": "U", "targets": [3]}]}
        with pytest.raises(CircuitFormatError, match="at op 0"):
            circuit_from_dict(doc)

    @pytest.mark.parametrize("doc, match", [
        ({"n": None, "ops": []}, "'n' must be a positive integer"),
        ({"n": 2.0, "ops": []}, "'n' must be a positive integer"),
        ({"n": -3, "ops": []}, "'n' must be a positive integer"),
        ({"n": 2, "ops": 5}, "'ops' must be a list"),
        ({"n": 2, "ops": [{"kind": "X", "targets": [0]}, {"kind": "X", "targets": [1.7]}]}, "at op 1"),
        ({"n": 2, "ops": [{"kind": "X", "targets": [True]}]}, "at op 0"),
        ({"n": 2, "ops": [{"kind": "X", "targets": 1}]}, "at op 0"),
        ({"n": 7, "ops": []}, "limited to 6 qubits"),
    ])
    def test_non_integer_fields_rejected(self, doc, match):
        with pytest.raises(CircuitFormatError, match=match):
            circuit_from_dict(doc)

    def test_invalid_json(self):
        with pytest.raises(CircuitFormatError, match="JSON"):
            parse_circuit("{not json")
