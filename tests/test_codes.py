import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qeclab.circuits import Circuit, GateOp, circuit_to_unitary, invert_circuit
from qeclab import codes
from qeclab.codes import (
    CORRECTION_MATRICES,
    CodeSpec,
    ErrorOp,
    FIVE_QUBIT_ONE_TERMS,
    FIVE_QUBIT_ZERO_TERMS,
    SyndromeTable,
    apply_error,
    build_syndrome_table,
    check_knill_laflamme,
    decode_and_correct,
    encode,
    encoder_alignment_error,
    five_qubit_code,
    five_qubit_codewords,
    five_qubit_encoder,
    recovery_operators,
    single_qubit_error_classes,
    three_qubit_phase_code,
    two_qubit_zeno_code,
)
from qeclab.states import X, Y, Z, PureState, fidelity

from conftest import random_pure_state

INV_SQRT8 = 1 / np.sqrt(8)


class TestCodewords:
    def test_zero_codeword_amplitudes(self):
        zero, _ = five_qubit_codewords()
        assert abs(zero.amplitudes[0] - INV_SQRT8) < 1e-15          # |00000>
        assert abs(zero.amplitudes[0b01111] + INV_SQRT8) < 1e-15    # -|01111>
        assert abs(zero.amplitudes[0b00110] - INV_SQRT8) < 1e-15

    def test_one_codeword_amplitudes(self):
        _, one = five_qubit_codewords()
        assert abs(one.amplitudes[0b10000] + INV_SQRT8) < 1e-15     # -|10000>
        assert abs(one.amplitudes[0b11111] - INV_SQRT8) < 1e-15

    def test_support_and_weight(self):
        zero, one = five_qubit_codewords()
        assert np.count_nonzero(zero.amplitudes) == 8
        assert np.count_nonzero(one.amplitudes) == 8
        assert np.abs(np.abs(zero.amplitudes[zero.amplitudes != 0]) - INV_SQRT8).max() < 1e-15

    def test_orthonormality_by_direct_inner_product(self):
        """Recompute <0_L|1_L> straight from the two term lists."""
        amp = {}
        for bits, sign in FIVE_QUBIT_ZERO_TERMS:
            amp[bits] = amp.get(bits, 0) + sign
        overlap = sum(
            amp.get(bits, 0) * sign for bits, sign in FIVE_QUBIT_ONE_TERMS
        )
        assert overlap == 0
        zero, one = five_qubit_codewords()
        assert abs(np.vdot(zero.amplitudes, one.amplitudes)) < 1e-15


class TestEncoder:
    def test_encoder_reproduces_codewords_up_to_common_phase(self):
        code = five_qubit_code()
        assert encoder_alignment_error(code) < 1e-12

    def test_encode_basis_states(self):
        code = five_qubit_code()
        zero, one = five_qubit_codewords()
        np.testing.assert_allclose(encode(code, PureState.from_bits("0")).amplitudes,
                                   zero.amplitudes, atol=1e-15)
        np.testing.assert_allclose(encode(code, PureState.from_bits("1")).amplitudes,
                                   one.amplitudes, atol=1e-15)

    def test_encode_is_linear(self):
        code = five_qubit_code()
        zero, one = five_qubit_codewords()
        plus = PureState(1, np.array([1, 1]) / np.sqrt(2))
        expected = (zero.amplitudes + one.amplitudes) / np.sqrt(2)
        np.testing.assert_allclose(encode(code, plus).amplitudes, expected, atol=1e-15)

    def test_wrong_size_input_rejected(self, rng):
        with pytest.raises(ValueError, match="single-qubit"):
            encode(five_qubit_code(), random_pure_state(2, rng))

    def test_corrupted_encoder_rejected(self):
        broken = five_qubit_code().encoder
        broken = Circuit(5, broken.ops[:-1])
        with pytest.raises(ValueError, match="encoder"):
            five_qubit_code(encoder=broken)


class TestApplyError:
    def test_bit_flip_on_last_qubit(self):
        out = apply_error(PureState.from_bits("00000"), ErrorOp("X", 4))
        assert abs(out.amplitudes[0b00001] - 1) < 1e-15

    def test_identity(self, rng):
        psi = random_pure_state(3, rng)
        np.testing.assert_allclose(apply_error(psi, ErrorOp("I")).amplitudes,
                                   psi.amplitudes, atol=1e-15)

    def test_z_sign_pattern_matches_term_list(self):
        """Z on qubit 0 must flip the sign of exactly the terms whose first bit is 1."""
        zero, _ = five_qubit_codewords()
        flipped = apply_error(zero, ErrorOp("Z", 0))
        for bits, sign in FIVE_QUBIT_ZERO_TERMS:
            expected = sign * (-1 if bits[0] == "1" else 1) * INV_SQRT8
            assert abs(flipped.amplitudes[int(bits, 2)] - expected) < 1e-15

    def test_y_equals_i_x_z(self, rng):
        psi = random_pure_state(2, rng)
        y_route = apply_error(psi, ErrorOp("Y", 1)).amplitudes
        xz_route = 1j * apply_error(apply_error(psi, ErrorOp("Z", 1)), ErrorOp("X", 1)).amplitudes
        assert np.abs(y_route - xz_route).max() < 1e-14

    def test_bad_kind_and_index(self):
        with pytest.raises(ValueError):
            ErrorOp("Q", 0)
        with pytest.raises(ValueError):
            apply_error(PureState.from_bits("0"), ErrorOp("X", 3))


_PAULIS = {"I": np.eye(2), "X": X, "Y": Y, "Z": Z}


class TestTrustedImages:
    """``apply_error`` wraps its image without the public constructor's copy
    and norm check; the image must still be a proper, frozen state."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.sampled_from("XYZ"), st.data())
    def test_image_is_read_only_normalized_and_the_dense_pauli_product(self, n, kind, data):
        qubit = data.draw(st.integers(0, n - 1))
        psi = random_pure_state(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        out = apply_error(psi, ErrorOp(kind, qubit))
        dense = np.array([[1.0]])
        for q in range(n):
            dense = np.kron(dense, _PAULIS[kind if q == qubit else "I"])
        assert not out.amplitudes.flags.writeable
        assert not np.shares_memory(out.amplitudes, psi.amplitudes)
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12
        assert np.abs(out.amplitudes - dense @ psi.amplitudes).max() < 1e-15
        with pytest.raises(ValueError):
            out.amplitudes[0] = 0

    def test_public_constructor_still_checks(self):
        image = apply_error(PureState.from_bits("01"), ErrorOp("X", 0))
        np.testing.assert_array_equal(PureState(2, image.amplitudes).amplitudes, image.amplitudes)
        with pytest.raises(ValueError, match="length"):
            PureState(2, image.amplitudes[:3])
        with pytest.raises(ValueError, match="norm"):
            PureState(2, 2 * image.amplitudes)

    @pytest.mark.parametrize("name", ["five-qubit", "phase3", "zeno2"])
    def test_verify_code_report_unchanged_by_checked_images(self, capsys, monkeypatch, name):
        """The report is byte-identical to one whose Pauli images all pass
        the public constructor's checks."""
        from qeclab import cli

        argv = ["verify-code", "--code", name, "--seed", "7"]
        assert cli.main(argv) == 0
        trusted = capsys.readouterr().out

        def checked(state, error):
            image = apply_error(state, error)
            return PureState(image.n_qubits, image.amplitudes)

        monkeypatch.setattr(codes, "apply_error", checked)
        monkeypatch.setattr(cli, "apply_error", checked)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == trusted


class TestSyndromeTable:
    def test_identity_maps_to_null_syndrome(self):
        code = five_qubit_code()
        table = build_syndrome_table(code)
        assert table.corrections["0000"] == "I"

    def test_all_sixteen_syndromes_distinct(self):
        """A perfect code uses every ancilla pattern exactly once."""
        table = build_syndrome_table(five_qubit_code())
        assert len(table.corrections) == 16
        assert set(table.corrections) == {format(s, "04b") for s in range(16)}

    def test_every_error_corrected_on_fresh_random_states(self, rng):
        """Oracle check: corrections restore states the table never saw."""
        code = five_qubit_code()
        table = build_syndrome_table(code)
        for error in single_qubit_error_classes(5):
            for _ in range(3):
                psi = random_pure_state(1, rng)
                corrupted = apply_error(encode(code, psi), error)
                recovered, _ = decode_and_correct(code, table, corrupted, rng=rng)
                assert fidelity(recovered, psi) >= 1 - 1e-10

    def test_syndrome_is_deterministic(self, rng):
        """After any single-qubit error one ancilla reading carries all the weight."""
        code = five_qubit_code()
        recovery = recovery_operators(code)
        for error in single_qubit_error_classes(5):
            psi = random_pure_state(1, rng)
            branches = recovery @ apply_error(encode(code, psi), error).amplitudes   # (16, 2)
            probs = (np.abs(branches) ** 2).sum(axis=1)
            assert abs(probs.sum() - 1) < 1e-12
            assert probs.max() > 1 - 1e-10

    def test_collision_consistency_exhaustive(self):
        """Two errors sharing a syndrome must share a correction."""
        code = five_qubit_code()
        table = build_syndrome_table(code)
        seen = {}
        for error in single_qubit_error_classes(5):
            rebuilt = build_syndrome_table(
                CodeSpec("one-error", 5, code.logical_zero, code.logical_one,
                         encoder=code.encoder, error_classes=(error,)))
            ((syndrome, correction),) = rebuilt.corrections.items()
            if syndrome in seen:
                assert seen[syndrome] == correction
            seen[syndrome] = correction
            assert table.corrections[syndrome] == correction

    def test_invalid_encoder_raises_collision(self):
        """The detection-only code is not distance 3: table construction fails."""
        zeno = two_qubit_zeno_code()
        probe_errors = [ErrorOp("I"), ErrorOp("Z", 0), ErrorOp("Z", 1)]
        with pytest.raises(ValueError, match="syndrome collision"):
            build_syndrome_table(
                CodeSpec("zeno-as-corrector", 2, zeno.logical_zero, zeno.logical_one,
                         encoder=zeno.encoder, error_classes=tuple(probe_errors)),
            )

    def test_non_clifford_encoder_raises_non_deterministic(self):
        """After X1 this encoder's ancillas read one outcome with p = 0.64 only."""
        encoder = Circuit(3, (GateOp("U", (1,)), GateOp("U", (2,)), GateOp("CPHASE", (2,), (0, 1))))
        zero, one = codes.circuit_codewords(encoder)
        code = CodeSpec("non-clifford", 3, zero, one, encoder=encoder, error_classes=(ErrorOp("X", 1),))
        with pytest.raises(ValueError, match=r"ancilla measurement is not deterministic \(p=0\.640000\)"):
            build_syndrome_table(code)


class TestDecodeAndCorrect:
    def test_decode_encode_identity(self, rng):
        code = five_qubit_code()
        table = build_syndrome_table(code)
        psi = random_pure_state(1, rng)
        recovered, syndrome = decode_and_correct(code, table, encode(code, psi), rng=rng)
        assert syndrome == "0000"
        assert fidelity(recovered, psi) >= 1 - 1e-12

    def test_single_error_recovery(self, rng):
        code = five_qubit_code()
        table = build_syndrome_table(code)
        psi = random_pure_state(1, rng)
        corrupted = apply_error(encode(code, psi), ErrorOp("X", 2))
        recovered, syndrome = decode_and_correct(code, table, corrupted, rng=rng)
        assert syndrome != "0000"
        assert fidelity(recovered, psi) >= 1 - 1e-10

    def test_weight_two_error_not_guaranteed(self, rng):
        """Documented limit: a two-qubit error decodes to the wrong state."""
        code = five_qubit_code()
        table = build_syndrome_table(code)
        psi = random_pure_state(1, rng)
        corrupted = apply_error(
            apply_error(encode(code, psi), ErrorOp("Z", 0)), ErrorOp("X", 3)
        )
        recovered, _ = decode_and_correct(code, table, corrupted, rng=rng)
        assert fidelity(recovered, psi) < 1 - 1e-6

    def test_wrong_register_size_rejected(self, rng):
        code = five_qubit_code()
        with pytest.raises(ValueError, match="qubits"):
            decode_and_correct(code, None, random_pure_state(2, rng))

    @pytest.mark.parametrize("factory", [five_qubit_code, three_qubit_phase_code, two_qubit_zeno_code])
    def test_one_uniform_per_call(self, factory, rng):
        """Seeded streams depend on exactly one draw per decode."""
        code = factory()
        table = None if code.detection_only else build_syndrome_table(code)
        state = random_pure_state(code.n_physical, rng)      # every syndrome has weight
        used, reference = np.random.default_rng(11), np.random.default_rng(11)
        decode_and_correct(code, table, state, rng=used)
        reference.random()
        assert used.random() == reference.random()

    def test_incomplete_table_raises_only_on_its_missing_syndrome(self, rng):
        code = three_qubit_phase_code()
        full = build_syndrome_table(code)
        partial = SyndromeTable({s: c for s, c in full.corrections.items() if s != "11"})
        psi = random_pure_state(1, rng)
        raised = 0
        for error in code.error_classes:
            corrupted = apply_error(encode(code, psi), error)
            _, syndrome = decode_and_correct(code, full, corrupted, rng=0)
            if syndrome == "11":
                raised += 1
                with pytest.raises(KeyError, match="11"):
                    decode_and_correct(code, partial, corrupted, rng=0)
            else:
                recovered, _ = decode_and_correct(code, partial, corrupted, rng=0)
                assert fidelity(recovered, psi) >= 1 - 1e-10
        assert raised == 1

    def test_decoder_is_built_once_per_encoder(self, rng, monkeypatch):
        """Repeated decodes reuse one dense decoder; an X X tail gives an
        encoder no other test has decoded, so its first use builds it."""
        x0 = GateOp("X", (0,))
        code = five_qubit_code(Circuit(5, five_qubit_encoder().ops + (x0, x0)))
        built = []

        def counting(circuit):
            built.append(circuit)
            return circuit_to_unitary(circuit)

        monkeypatch.setattr(codes, "circuit_to_unitary", counting)
        table = build_syndrome_table(code)
        for _ in range(20):
            psi = random_pure_state(1, rng)
            state = apply_error(encode(code, psi), ErrorOp("Y", 3))
            recovered, syndrome = decode_and_correct(code, table, state, rng=rng)
            assert syndrome != "0000" and fidelity(recovered, psi) >= 1 - 1e-10
        assert len(built) == 1
        assert not recovery_operators(code).flags.writeable


def _collapse_reference(amps, draws):
    """One column at a time, as ``Generator.choice(K, p=probs / probs.sum())``
    samples: the cdf of the normalised probabilities, divided by its last
    entry, then ``searchsorted(side="right")`` of the uniform. Also returns
    each column's cdf."""
    outcomes, states, probs, cdfs = [], [], [], []
    for b in range(amps.shape[1]):
        branches = amps[:, b].reshape(-1, 2)
        p = (np.abs(branches) ** 2).sum(axis=1)
        cdf = np.cumsum(p / p.sum())
        cdf /= cdf[-1]
        s = int(cdf.searchsorted(draws[b], side="right"))
        outcomes.append(s)
        states.append(branches[s] / np.sqrt(p[s]))
        probs.append(p)
        cdfs.append(cdf)
    return np.array(outcomes), np.array(states).T, np.array(probs).T, cdfs


class TestCollapse:
    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([1, 2, 4, 16]), size=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           draws=st.lists(st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True), min_size=8, max_size=8))
    def test_matches_the_per_column_reference(self, k, size, seed, draws):
        """Same outcome and states to 1e-15 on columns of any total weight,
        zero-probability outcomes and draws of exactly 0 included; draws
        within 1e-12 of a nonzero cdf step may round either way and are left
        out."""
        gen = np.random.default_rng(seed)
        amps = gen.normal(size=(2 * k, size)) + 1j * gen.normal(size=(2 * k, size))
        zero = gen.random((k, size)) < 0.4
        zero[gen.integers(k, size=size), np.arange(size)] = False      # one live outcome per column
        amps *= np.repeat(~zero, 2, axis=0)                             # row 2s + a: outcome s
        amps *= np.ldexp(1.0, gen.integers(-3, 4, size=size)) / np.linalg.norm(amps, axis=0)
        draws = np.array(draws[:size])

        outcomes, states, probs = codes._collapse(amps, draws)
        ref_outcomes, ref_states, ref_probs, cdfs = _collapse_reference(amps, draws)
        assert outcomes.shape == (size,) and states.shape == (2, size) and probs.shape == (k, size)
        assert np.all(np.abs(probs - ref_probs) <= 1e-15 * ref_probs.sum(axis=0))
        clear = [not np.any((cdf > 0) & (np.abs(cdf - u) < 1e-12)) for cdf, u in zip(cdfs, draws)]
        assert np.array_equal(outcomes[clear], ref_outcomes[clear])
        assert np.abs(states[:, clear] - ref_states[:, clear]).max(initial=0.0) < 1e-15
        assert not zero[outcomes[clear], np.arange(size)[clear]].any()

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([1, 2, 4, 16]), size=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_one_column_matches_its_column_of_a_block(self, k, size, seed):
        """A single decode's one-column branch gives, bit for bit, what the
        block step gives that column: outcome, state and probabilities."""
        gen = np.random.default_rng(seed)
        amps = gen.normal(size=(2 * k, size)) + 1j * gen.normal(size=(2 * k, size))
        amps[gen.random((2 * k, size)) < 0.2] = 0.0                     # signed zeros too
        amps[gen.integers(2 * k, size=size), np.arange(size)] = -0.0 + 1j   # one live row per column
        draws = gen.random(size)
        draws[1] = 0.0
        outcomes, states, probs = codes._collapse(amps, draws)
        for b in range(size):
            (one,), state, prob = codes._collapse(np.ascontiguousarray(amps[:, b:b + 1]), draws[b:b + 1])
            assert one == outcomes[b]
            assert state.tobytes() == np.ascontiguousarray(states[:, b:b + 1]).tobytes()
            assert prob.tobytes() == np.ascontiguousarray(probs[:, b:b + 1]).tobytes()


def _recovery_reference(code, table):
    """Block s = correction(s) @ selector(s) @ decode, one outcome at a time."""
    n = code.n_physical
    decode = circuit_to_unitary(invert_circuit(code.encoder))
    blocks = []
    for s in range(2 ** (n - 1)):
        selector = np.zeros((2, 2**n), dtype=complex)
        selector[0, s] = selector[1, (1 << (n - 1)) + s] = 1.0
        corr = np.eye(2) if table is None else CORRECTION_MATRICES[table.lookup(format(s, f"0{n - 1}b"))]
        blocks.append(corr @ selector @ decode)
    return np.stack(blocks)


class TestRecoveryOperators:
    @pytest.mark.parametrize("factory", [five_qubit_code, three_qubit_phase_code, two_qubit_zeno_code])
    def test_matches_correction_selector_decode_product(self, factory):
        code = factory()
        tables = [None] if code.detection_only else [None, build_syndrome_table(code)]
        for table in tables:
            recovery = recovery_operators(code, table)
            assert recovery.shape == (2 ** (code.n_physical - 1), 2, 2**code.n_physical)
            assert np.abs(recovery - _recovery_reference(code, table)).max() < 1e-12

    def test_code_without_encoder_rejected(self):
        code = five_qubit_code()
        bare = CodeSpec("bare", 5, code.logical_zero, code.logical_one)
        with pytest.raises(ValueError, match="no encoder"):
            recovery_operators(bare)


class TestKnillLaflamme:
    def test_five_qubit_code_passes_all_single_errors(self):
        result = check_knill_laflamme(five_qubit_code(), single_qubit_error_classes(5))
        assert result.ok
        assert result.worst_violation < 1e-10

    def test_witness_hermitian(self):
        result = check_knill_laflamme(five_qubit_code(), single_qubit_error_classes(5))
        assert np.abs(result.witness - result.witness.conj().T).max() < 1e-10

    def test_repetition_code_corrects_x_not_z(self):
        rep = CodeSpec(
            "bitflip3", 3,
            PureState.from_bits("000"), PureState.from_bits("111"),
        )
        x_errors = (ErrorOp("I"), ErrorOp("X", 0), ErrorOp("X", 1), ErrorOp("X", 2))
        z_errors = (ErrorOp("I"), ErrorOp("Z", 0), ErrorOp("Z", 1), ErrorOp("Z", 2))
        assert check_knill_laflamme(rep, x_errors).ok
        result = check_knill_laflamme(rep, z_errors)
        assert not result.ok
        assert result.worst_violation > 0.5

    def test_identity_only_always_passes(self, rng):
        a = random_pure_state(2, rng)
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        raw -= np.vdot(a.amplitudes, raw) * a.amplitudes
        b = PureState(2, raw / np.linalg.norm(raw))
        code = CodeSpec("adhoc", 2, a, b)
        assert check_knill_laflamme(code, (ErrorOp("I"),)).ok


class TestPhaseCode:
    def test_decode_encode_identity(self, rng):
        code = three_qubit_phase_code()
        table = build_syndrome_table(code)
        psi = random_pure_state(1, rng)
        recovered, syndrome = decode_and_correct(code, table, encode(code, psi), rng=rng)
        assert syndrome == "00"
        assert fidelity(recovered, psi) >= 1 - 1e-12

    def test_corrects_z_on_every_qubit(self, rng):
        code = three_qubit_phase_code()
        table = build_syndrome_table(code)
        for q in range(3):
            psi = random_pure_state(1, rng)
            corrupted = apply_error(encode(code, psi), ErrorOp("Z", q))
            recovered, _ = decode_and_correct(code, table, corrupted, rng=rng)
            assert fidelity(recovered, psi) >= 1 - 1e-10

    def test_majority_vote_table(self):
        table = build_syndrome_table(three_qubit_phase_code())
        assert table.corrections == {"00": "I", "01": "I", "10": "I", "11": "X"}

    def test_codewords_are_conjugate_basis_products(self):
        code = three_qubit_phase_code()
        plus = np.array([1, 1]) / np.sqrt(2)
        np.testing.assert_allclose(code.logical_zero.amplitudes,
                                   np.kron(np.kron(plus, plus), plus), atol=1e-15)

    def test_kl_passes_for_z_errors_only(self):
        code = three_qubit_phase_code()
        assert check_knill_laflamme(code, code.error_classes).ok
        assert not check_knill_laflamme(code, single_qubit_error_classes(3)).ok


class TestZenoCode:
    def test_codewords(self):
        code = two_qubit_zeno_code()
        np.testing.assert_allclose(code.logical_zero.amplitudes,
                                   np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(code.logical_one.amplitudes,
                                   np.array([0, 1, 1, 0]) / np.sqrt(2), atol=1e-15)

    def test_decode_encode_identity_without_correction(self, rng):
        code = two_qubit_zeno_code()
        psi = random_pure_state(1, rng)
        recovered, syndrome = decode_and_correct(code, None, encode(code, psi), rng=rng)
        assert syndrome == "0"
        assert fidelity(recovered, psi) >= 1 - 1e-12

    def test_phase_flip_is_detected_not_corrected(self, rng):
        code = two_qubit_zeno_code()
        psi = random_pure_state(1, rng)
        corrupted = apply_error(encode(code, psi), ErrorOp("Z", 0))
        recovered, syndrome = decode_and_correct(code, None, corrupted, rng=rng)
        assert syndrome == "1"

    def test_exact_alignment(self):
        assert encoder_alignment_error(two_qubit_zeno_code()) < 1e-15


class TestCodeSpecValidation:
    def test_non_orthogonal_codewords_rejected(self, rng):
        psi = random_pure_state(2, rng)
        with pytest.raises(ValueError, match="orthogonal"):
            CodeSpec("bad", 2, psi, psi)

    @pytest.mark.parametrize("word", ["zero", "one"])
    def test_codeword_norm_off_by_5e_10_rejected(self, word):
        """PureState accepts a norm within 1e-9; each codeword must be within 1e-12."""
        code = three_qubit_phase_code()
        words = {"zero": code.logical_zero, "one": code.logical_one}
        words[word] = PureState(3, words[word].amplitudes * (1 + 5e-10))
        with pytest.raises(ValueError, match=f"logical {word} is not normalized"):
            CodeSpec("bad", 3, words["zero"], words["one"])

    def test_default_encoder_is_the_shipped_one(self):
        assert five_qubit_code().encoder == five_qubit_encoder()
        assert five_qubit_code(encoder=None).encoder == five_qubit_encoder()
