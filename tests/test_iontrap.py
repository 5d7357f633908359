import itertools
import json

import numpy as np
import pytest

from qeclab.circuits import Circuit, GateOp, SINGLE_QUBIT_KINDS, circuit_to_unitary, serialize_circuit
from qeclab.cli import main
from qeclab.codes import five_qubit_code
from qeclab.iontrap import (
    LEVELS,
    PHONON_DIM,
    Pulse,
    PulseSequence,
    _map_rows,
    _pulse_apply,
    _stretch_map,
    compile_cphase,
    compile_circuit,
    compile_op,
    op_pulse_cost,
    pulses_from_json,
    pulses_to_json,
    simulate_pulse_sequence,
    verify_compilation,
)
from qeclab.search import pulse_cost, random_circuit
from qeclab.states import U, is_unitary


def single_ion_state(level: int, phonon: int) -> np.ndarray:
    """The one-ion trap basis state |level, phonon>, as a (3, 2) block."""
    amps = np.zeros((LEVELS, PHONON_DIM), dtype=complex)
    amps[level, phonon] = 1.0
    return amps


def run_pulse(amps: np.ndarray, pulse: Pulse) -> np.ndarray:
    """The simulator's step on a copy of a one-ion (3, 2) block: the
    OneQubit kernel, or the pulse as a stretch's map on the one-ion region."""
    out = amps.copy()
    if pulse.kind == "OneQubit":
        _pulse_apply(out, pulse, out.shape[0])
        return out
    rows = out.reshape(-1, 1)
    mapped = _stretch_map(((pulse.kind, 0),), out.shape, (0,), (0,))
    return _map_rows(rows, np.empty_like(rows), mapped)[0].reshape(out.shape)


class TestPulsePrimitives:
    """Exact action tables of the three pulse types."""

    def test_wphon_g1(self):
        out = run_pulse(single_ion_state(0, 1), Pulse("WPhon", 0))
        assert abs(out[1, 0] + 1j) < 1e-15     # -i |e,0>

    def test_wphon_e0(self):
        out = run_pulse(single_ion_state(1, 0), Pulse("WPhon", 0))
        assert abs(out[0, 1] + 1j) < 1e-15     # -i |g,1>

    def test_wphon_fixed_points(self):
        for level, phonon in ((0, 0), (1, 1), (2, 0), (2, 1)):
            out = run_pulse(single_ion_state(level, phonon), Pulse("WPhon", 0))
            assert abs(out[level, phonon] - 1) < 1e-15

    def test_vpulse_sign(self):
        out = run_pulse(single_ion_state(0, 1), Pulse("VPulse", 0))
        assert abs(out[0, 1] + 1) < 1e-15      # -|g,1>
        for level, phonon in ((0, 0), (1, 0), (1, 1)):
            out = run_pulse(single_ion_state(level, phonon), Pulse("VPulse", 0))
            assert abs(out[level, phonon] - 1) < 1e-15

    def test_vphon_g1(self):
        out = run_pulse(single_ion_state(0, 1), Pulse("VPhon", 0))
        assert abs(out[2, 0] + 1j) < 1e-15     # -i |e',0>

    def test_vphon_unitary_completion(self):
        out = run_pulse(single_ion_state(2, 0), Pulse("VPhon", 0))
        assert abs(out[0, 1] + 1j) < 1e-15     # -i |g,1>

    def test_daggers_invert(self):
        for kind in ("WPhon", "VPhon", "VPulse"):
            for level in range(3):
                for phonon in range(2):
                    state = single_ion_state(level, phonon)
                    pulse = Pulse(kind, 0)
                    back = run_pulse(run_pulse(state, pulse), pulse.dagger())
                    np.testing.assert_allclose(back, state, atol=1e-15)

    def test_one_qubit_acts_on_both_phonon_sectors(self):
        pulse = Pulse("OneQubit", 0, U, label="U")
        for phonon in range(2):
            out = run_pulse(single_ion_state(0, phonon), pulse)
            assert abs(out[0, phonon] - 1 / np.sqrt(2)) < 1e-15
            assert abs(out[1, phonon] - 1 / np.sqrt(2)) < 1e-15

    def test_one_qubit_leaves_eprime_alone(self):
        pulse = Pulse("OneQubit", 0, U, label="U")
        out = run_pulse(single_ion_state(2, 0), pulse)
        assert abs(out[2, 0] - 1) < 1e-15

    def test_one_qubit_matrix_must_be_unitary_to_1e_12(self):
        with pytest.raises(ValueError, match="unitary"):
            Pulse("OneQubit", 0, np.diag([1 + 4e-6, 1]))

    @pytest.mark.parametrize("kind,matrix,message", [
        ("Foo", None, "unknown pulse kind 'Foo'"),
        ("OneQubit", None, "OneQubit pulse needs a 2x2 matrix"),
        ("WPhon", U, "WPhon pulse carries no matrix"),
    ], ids=["unknown-kind", "one-qubit-without-matrix", "phonon-with-matrix"])
    def test_malformed_pulse_rejected(self, kind, matrix, message):
        with pytest.raises(ValueError) as err:
            Pulse(kind, 0, matrix)
        assert str(err.value) == message


class TestCphaseCompilation:
    def test_cost_law(self):
        """Sequence length is 2c + k; the three worked examples give 4, 8, 7."""
        assert len(compile_cphase((0,), (1, 2))) == 4
        assert len(compile_cphase((0, 1, 2), (3, 4))) == 8
        assert len(compile_cphase((0, 1), (2, 3, 4))) == 7
        for c in range(1, 4):
            for k in range(1, 4):
                controls = tuple(range(c))
                targets = tuple(range(c, c + k))
                assert len(compile_cphase(controls, targets)) == 2 * c + k

    def test_four_pulse_sequence_layout(self):
        kinds = [(p.kind, p.ion) for p in compile_cphase((0,), (1, 2)).pulses]
        assert kinds == [("WPhon", 0), ("VPulse", 1), ("VPulse", 2), ("WPhonDag", 0)]

    def test_eight_pulse_sequence_layout(self):
        kinds = [(p.kind, p.ion) for p in compile_cphase((0, 1, 2), (3, 4)).pulses]
        assert kinds == [
            ("WPhon", 0), ("VPhon", 1), ("VPhon", 2),
            ("VPulse", 3), ("VPulse", 4),
            ("VPhonDag", 2), ("VPhonDag", 1), ("WPhonDag", 0),
        ]

    def test_seven_pulse_sequence_layout(self):
        kinds = [(p.kind, p.ion) for p in compile_cphase((0, 1), (2, 3, 4)).pulses]
        assert kinds == [
            ("WPhon", 0), ("VPhon", 1),
            ("VPulse", 2), ("VPulse", 3), ("VPulse", 4),
            ("VPhon", 1), ("WPhon", 0),
        ]

    def test_dagger_parity_law(self):
        """Second-half control pulses are daggered exactly for even target counts."""
        for k in range(1, 5):
            seq = compile_cphase((0,), tuple(range(1, 1 + k)))
            closing = seq.pulses[-1]
            if k % 2 == 0:
                assert closing.kind == "WPhonDag"
            else:
                assert closing.kind == "WPhon"

    def test_both_parities_realize_the_sign_flip(self):
        """Even and odd target counts both land on the target gate exactly."""
        for k in range(1, 5):
            targets = tuple(range(1, 1 + k))
            circ = Circuit(1 + k, (GateOp("CPHASE", targets, (0,)),))
            assert verify_compilation(circ, compile_cphase((0,), targets)).ok

    def test_rejects_overlap_and_empty(self):
        with pytest.raises(ValueError):
            compile_cphase((0,), (0,))
        with pytest.raises(ValueError):
            compile_cphase((), (1,))


class TestPulseSimulation:
    def test_empty_sequence_is_identity(self):
        result = simulate_pulse_sequence(PulseSequence(()), 2)
        np.testing.assert_allclose(result.unitary, np.eye(4), atol=1e-15)
        assert result.leakage == 0 and result.phonon_residual == 0

    def test_three_pulse_conditional_sign_flip(self):
        """[WPhon, VPulse, WPhon] realizes the conditional sign flip exactly."""
        seq = compile_cphase((0,), (1,))
        result = simulate_pulse_sequence(seq, 2)
        np.testing.assert_allclose(result.unitary, np.diag([1, 1, 1, -1]), atol=1e-15)
        assert result.leakage < 1e-15 and result.phonon_residual < 1e-15

    def test_four_pulse_phase_table(self):
        """diag phases (-1)^(eps*eta1) (-1)^(eps*eta2) on all 8 basis states."""
        result = simulate_pulse_sequence(compile_cphase((0,), (1, 2)), 3)
        for j in range(8):
            eps, eta1, eta2 = (j >> 2) & 1, (j >> 1) & 1, j & 1
            expected = (-1.0) ** (eps * eta1) * (-1.0) ** (eps * eta2)
            assert abs(result.unitary[j, j] - expected) < 1e-12
        off = result.unitary - np.diag(np.diag(result.unitary))
        assert np.abs(off).max() < 1e-12

    def test_eight_pulse_phase_table(self):
        result = simulate_pulse_sequence(compile_cphase((0, 1, 2), (3, 4)), 5)
        for j in range(32):
            b = [(j >> (4 - q)) & 1 for q in range(5)]
            expected = (-1.0) ** ((b[3] + b[4]) * b[0] * b[1] * b[2])
            assert abs(result.unitary[j, j] - expected) < 1e-12
        assert result.leakage < 1e-12 and result.phonon_residual < 1e-12

    def test_seven_pulse_phase_table(self):
        result = simulate_pulse_sequence(compile_cphase((0, 1), (2, 3, 4)), 5)
        for j in range(32):
            b = [(j >> (4 - q)) & 1 for q in range(5)]
            expected = (-1.0) ** ((b[2] + b[3] + b[4]) * b[0] * b[1])
            assert abs(result.unitary[j, j] - expected) < 1e-12
        assert result.leakage < 1e-12 and result.phonon_residual < 1e-12

    def test_no_leakage_on_random_compilations(self, rng):
        for _ in range(10):
            circ = random_circuit(3, int(rng.integers(1, 7)), rng)
            result = simulate_pulse_sequence(compile_circuit(circ), 3)
            assert result.leakage < 1e-12
            assert result.phonon_residual < 1e-12


class TestCircuitCompilation:
    def test_one_pulse_per_single_qubit_gate(self):
        circ = Circuit(2, (GateOp("U", (0,)),))
        assert compile_circuit(circ).cost == 1

    def test_two_qubit_sign_flip_costs_three(self):
        circ = Circuit(2, (GateOp("CPHASE", (1,), (0,)),))
        assert compile_circuit(circ).cost == 3

    def test_cnot_costs_five(self):
        circ = Circuit(2, (GateOp("CNOT", (1,), (0,)),))
        assert compile_circuit(circ).cost == 5

    def test_empty_circuit_costs_zero(self):
        assert compile_circuit(Circuit(3)).cost == 0

    def test_total_is_sum_of_per_gate_costs(self, rng, capsys, tmp_path):
        """The per-gate counts of ``compile --report full`` add up to its total."""
        circ = random_circuit(4, 9, rng)
        path = tmp_path / "circuit.qc.json"
        path.write_text(serialize_circuit(circ))
        assert main(["compile", "--circuit", str(path), "--report", "full"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_pulses"] == compile_circuit(circ).cost
        assert doc["total_pulses"] == sum(gate["pulses"] for gate in doc["per_gate"])

    def test_search_cost_is_the_compiled_pulse_count(self, rng):
        circ = random_circuit(5, 30, rng)
        assert pulse_cost(circ) == compile_circuit(circ).cost

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cost_law_matches_compiler_for_every_op(self, n):
        """Every op on n qubits, including multi-control multi-target CPHASE."""
        ops = [GateOp(kind, (q,)) for kind in SINGLE_QUBIT_KINDS for q in range(n)]
        ops += [GateOp("CNOT", (t,), (c,)) for c, t in itertools.permutations(range(n), 2)]
        # each qubit is idle (0), a control (1) or a target (2)
        for roles in itertools.product((0, 1, 2), repeat=n):
            controls = tuple(q for q in range(n) if roles[q] == 1)
            targets = tuple(q for q in range(n) if roles[q] == 2)
            if controls and targets:
                ops.append(GateOp("CPHASE", targets, controls))
        assert len(ops) == 8 * n + n * (n - 1) + 3**n - 2 * 2**n + 1
        for op in ops:
            assert compile_op(op).cost == op_pulse_cost(op), op

    def test_fusion_advantage_four_vs_six(self):
        """One fused two-target gate needs 4 pulses; split in two it needs 6."""
        fused = Circuit(3, (GateOp("CPHASE", (1, 2), (0,)),))
        split = Circuit(3, (GateOp("CPHASE", (1,), (0,)), GateOp("CPHASE", (2,), (0,))))
        assert compile_circuit(fused).cost == 4
        assert compile_circuit(split).cost == 6
        np.testing.assert_allclose(circuit_to_unitary(fused), circuit_to_unitary(split), atol=1e-14)
        assert verify_compilation(fused, compile_circuit(fused)).ok
        assert verify_compilation(split, compile_circuit(split)).ok


class TestVerifyCompilation:
    def test_round_trip_on_random_circuits(self, rng):
        for _ in range(8):
            circ = random_circuit(3, 8, rng)
            report = verify_compilation(circ, compile_circuit(circ))
            assert report.ok, report

    def test_identity_circuit_vs_empty_sequence(self):
        assert verify_compilation(Circuit(2), PulseSequence(())).ok

    def test_mutated_sequence_fails(self):
        circ = Circuit(2, (GateOp("CPHASE", (1,), (0,)),))
        seq = compile_circuit(circ)
        dropped = PulseSequence(tuple(p for p in seq.pulses if p.kind != "VPulse"))
        report = verify_compilation(circ, dropped)
        assert not report.ok

    def test_target_orthogonal_to_the_program(self):
        """Z's pulses against the circuit X: tr(X^dag Z) = 0 fixes no global
        phase, so the deviation is max |Z - X| = 1."""
        z_pulses = compile_circuit(Circuit(1, (GateOp("Z", (0,)),)))
        report = verify_compilation(Circuit(1, (GateOp("X", (0,)),)), z_pulses)
        assert not report.ok
        assert report.max_deviation == 1.0

    def test_encoder_reproduces_codewords_at_pulse_level(self):
        code = five_qubit_code()
        seq = compile_circuit(code.encoder)
        result = simulate_pulse_sequence(seq, 5)
        reference = code.isometry()
        images = result.unitary[:, [0, 0b10000]]
        phase = np.vdot(reference[:, 0], images[:, 0])
        assert abs(abs(phase) - 1) < 1e-10
        assert np.abs(images - phase * reference).max() < 1e-10
        assert result.leakage < 1e-12 and result.phonon_residual < 1e-12

    def test_reference_encoder_cost(self):
        assert compile_circuit(five_qubit_code().encoder).cost == 59


class TestPulseJson:
    def test_round_trip(self, rng):
        circ = random_circuit(3, 6, rng)
        seq = compile_circuit(circ)
        docs = pulses_to_json(seq)
        back = pulses_from_json(docs)
        assert len(back) == len(seq)
        a = simulate_pulse_sequence(seq, 3)
        b = simulate_pulse_sequence(back, 3)
        np.testing.assert_allclose(a.unitary, b.unitary, atol=1e-14)

    def test_dag_flag(self):
        docs = pulses_to_json(compile_cphase((0,), (1, 2)))
        assert docs[0] == {"kind": "WPhon", "ion": 0, "dag": False}
        assert docs[-1] == {"kind": "WPhon", "ion": 0, "dag": True}

    def test_malformed_entry_reports_position(self):
        with pytest.raises(ValueError, match="position 1"):
            pulses_from_json([{"kind": "WPhon", "ion": 0}, {"ion": 1}])


    @pytest.mark.parametrize("docs", [
        [{"kind": "OneQubit", "ion": 0, "matrix": [[["a", 0], [0, 0]], [[0, 0], [1, 0]]]}],
        [{"kind": "OneQubit", "ion": 0, "matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]}],
        [{"kind": "OneQubit", "ion": 0, "matrix": 3}],
        [{"kind": "WPhon", "ion": 1.7}],
        [{"kind": "WPhon", "ion": True}],
        [{"kind": "WPhon", "ion": 0, "dag": "yes"}],
    ])
    def test_mistyped_entry_reports_position(self, docs):
        with pytest.raises(ValueError, match="position 0"):
            pulses_from_json(docs)

    def test_repeated_malformed_entry_fails_at_its_first_position(self):
        bad = {"kind": "OneQubit", "ion": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}
        good = pulses_to_json(PulseSequence((Pulse("OneQubit", 0, U, label="U"),)))[0]
        with pytest.raises(ValueError, match="malformed matrix at position 1"):
            pulses_from_json([good, bad, good, bad])

    @pytest.mark.parametrize("later", [
        [[[2, 0], [0, 0]], [[0, 0], [1, 0]]],                   # not unitary
        [[[1, 0], [0, 0], [0, 0], [1, 0]]],                      # the same bytes, shape (1, 4)
    ], ids=["non-unitary", "reshaped"])
    def test_matrix_after_a_valid_one_is_still_checked(self, later):
        valid = {"kind": "OneQubit", "ion": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
        with pytest.raises(ValueError, match="position 2: OneQubit pulse matrix must be a 2x2 unitary"):
            pulses_from_json([valid, valid, {**valid, "matrix": later}, {**valid, "matrix": later}])

    def test_each_distinct_one_qubit_entry_is_checked_once(self, monkeypatch):
        """One check per distinct pair of dag and matrix numbers, keyed as
        written, before any dagger is taken: entries that differ only in ion
        or label share the checked array."""
        import qeclab.iontrap as iontrap

        calls, passed = [], set()

        def counting(mat):
            calls.append(mat)
            if is_unitary(mat):
                passed.add(np.asarray(mat, dtype=complex).tobytes())
                return True
            return False

        monkeypatch.setattr(iontrap, "is_unitary", counting)
        identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        signed = [[[1.0, 0.0], [-0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        entry = {"kind": "OneQubit", "ion": 0, "dag": False, "matrix": identity}
        distinct = [entry, {**entry, "ion": 1}, {**entry, "dag": True}, {**entry, "label": "I"},
                    {**entry, "matrix": signed}]
        seq = pulses_from_json(distinct + [{"kind": "WPhon", "ion": 0}] + distinct[::-1] + distinct)
        # the identity, its dagger (imaginary parts -0.0) and the signed zero
        assert len(calls) == 3
        assert len(seq) == 3 * len(distinct) + 1
        assert seq.pulses[0] is seq.pulses[-5] and seq.pulses[0] is not seq.pulses[4]
        plain, other_ion, dagger, labelled, signed_zero = seq.pulses[:5]
        assert (other_ion.ion, labelled.label) == (1, "I")
        assert other_ion.matrix is plain.matrix and labelled.matrix is plain.matrix
        assert dagger.matrix is not plain.matrix and signed_zero.matrix is not plain.matrix
        assert np.signbit(dagger.matrix.imag).all() and not np.signbit(plain.matrix.imag).any()
        assert np.signbit(signed_zero.matrix[0, 1].real) and not np.signbit(plain.matrix[0, 1].real)
        one_qubit = [p for p in seq.pulses if p.kind == "OneQubit"]
        assert all(p.matrix.tobytes() in passed and not p.matrix.flags.writeable for p in one_qubit)

    def test_a_daggered_entry_is_keyed_apart_from_its_numbers(self, monkeypatch):
        """A dag entry with the numbers of an earlier plain entry gets a check
        of its own, and so does a plain entry with the numbers of that
        dagger written out, though its array has the same bits; repeats of
        each, on other ions, share its matrix."""
        import qeclab.iontrap as iontrap

        calls = []

        def counting(mat):
            calls.append(mat)
            return is_unitary(mat)

        plain = pulses_to_json(PulseSequence((Pulse("OneQubit", 0, U, label="U"),)))[0]
        written = pulses_to_json(PulseSequence((Pulse("OneQubit", 0, U.conj().T, label="U"),)))[0]
        distinct = [plain, {**plain, "dag": True}, written]
        monkeypatch.setattr(iontrap, "is_unitary", counting)
        seq = pulses_from_json(distinct + [{**doc, "ion": 1} for doc in distinct])
        assert len(calls) == 3
        first, repeats = seq.pulses[:3], seq.pulses[3:]
        assert all(a.matrix is b.matrix and b.ion == 1 for a, b in zip(first, repeats))
        _, daggered, spelled = first
        assert daggered.matrix is not spelled.matrix
        assert daggered.matrix.tobytes() == spelled.matrix.tobytes() == U.conj().T.tobytes()

    def test_each_distinct_entry_is_built_once(self, monkeypatch):
        """A repeat of (kind, ion, dag), with the same label and matrix
        numbers for OneQubit, shares the first entry's Pulse."""
        import qeclab.iontrap as iontrap

        built = []

        def counting(doc, *args):
            built.append(doc)
            return parse_entry(doc, *args)

        parse_entry = iontrap._parse_entry
        monkeypatch.setattr(iontrap, "_parse_entry", counting)
        one_qubit = pulses_to_json(PulseSequence((Pulse("OneQubit", 1, U, label="U"),)))[0]
        distinct = [{"kind": "WPhon", "ion": 0}, {"kind": "WPhon", "ion": 0, "dag": True},
                    {"kind": "WPhon", "ion": 1}, {"kind": "VPulse", "ion": 2}, one_qubit,
                    {**one_qubit, "label": None}, {**one_qubit, "ion": 0}]
        seq = pulses_from_json(distinct + distinct[::-1])
        assert len(built) == len(distinct)
        assert all(a is b for a, b in zip(seq.pulses, seq.pulses[::-1]))
        assert [p.kind for p in seq.pulses[:2]] == ["WPhon", "WPhonDag"]

    @pytest.mark.parametrize("value", [True, "1", None, [1]])
    def test_repeat_with_a_mistyped_number_is_still_rejected(self, value):
        """Sharing by matrix numbers never skips the check of a later entry."""
        valid = {"kind": "OneQubit", "ion": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
        later = {**valid, "matrix": [[[value, 0], [0, 0]], [[0, 0], [1, 0]]]}
        with pytest.raises(ValueError, match="malformed matrix at position 1"):
            pulses_from_json([valid, later])

    def test_integer_past_the_float_range_is_a_malformed_matrix(self):
        entry = {"kind": "OneQubit", "ion": 0, "matrix": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]}
        with pytest.raises(ValueError, match="malformed matrix at position 0"):
            pulses_from_json([entry])

    def test_count_cap_applies_before_any_entry_is_built(self, monkeypatch):
        import qeclab.iontrap as iontrap

        monkeypatch.setattr(iontrap, "MAX_PULSES", 3)
        with pytest.raises(ValueError, match="pulse program has 4 entries; at most 3 are allowed"):
            pulses_from_json([{"kind": "bogus", "ion": 0}] * 4)

    def test_count_cap_bounds_every_compiled_circuit(self):
        """The most pulses one op compiles to, times the op cap."""
        from qeclab.circuits import MAX_CIRCUIT_OPS, MAX_PULSES, MAX_QUBITS

        widest = GateOp("CPHASE", (MAX_QUBITS - 1,), tuple(range(MAX_QUBITS - 1)))
        assert compile_op(widest).cost * MAX_CIRCUIT_OPS == MAX_PULSES == 220_000

    def test_non_string_label_reports_position(self):
        entry = {"kind": "OneQubit", "ion": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
        with pytest.raises(ValueError, match="position 1"):
            pulses_from_json([entry, {**entry, "label": ["U"]}])

    @pytest.mark.parametrize("later,message", [
        ({"label": ["U"]}, "position 1 has a 'label' that is not a string"),
        ({"label": 3, "matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]},
         "position 1 has a 'label' that is not a string"),
        ({"label": 3, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}, "malformed matrix at position 1"),
    ], ids=["label", "label-before-unitary", "matrix-before-label"])
    def test_a_checked_matrix_is_shared_only_under_a_valid_label(self, later, message):
        """An entry whose label is not a string shares no checked matrix,
        even one with its numbers: it runs the full parse, which reports a
        malformed matrix, then the label, then a matrix that is not unitary."""
        entry = {"kind": "OneQubit", "ion": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
        with pytest.raises(ValueError, match=message):
            pulses_from_json([entry, {**entry, **later}])

    @pytest.mark.parametrize("n_ions", [0, -1, 7])
    def test_ion_count_outside_one_to_six_rejected(self, n_ions):
        with pytest.raises(ValueError, match="1..6"):
            simulate_pulse_sequence(PulseSequence(()), n_ions)

