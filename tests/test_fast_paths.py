"""The cached op kernels and the one-Gram Knill-Laflamme check, cross-checked
against slow references built from dense Kronecker products and a loop of
inner products."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qeclab.circuits import Circuit, GateOp, SINGLE_QUBIT_KINDS, GATE_MATRICES, _apply_op_array
from qeclab.codes import (
    CodeSpec,
    check_knill_laflamme,
    circuit_codewords,
    five_qubit_encoder,
    single_qubit_error_classes,
)
from qeclab.search import random_circuit, random_op
from qeclab.states import I2, X, Y, Z, PureState

P0 = np.diag([1, 0]).astype(complex)
P1 = np.diag([0, 1]).astype(complex)
PAULIS = {"X": X, "Y": Y, "Z": Z}


def embed(factors: dict, n: int) -> np.ndarray:
    """Kronecker product over qubits 0..n-1 (qubit 0 leftmost), I2 where absent."""
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, factors.get(q, I2))
    return out


def dense_op(op: GateOp, n: int) -> np.ndarray:
    if op.kind in SINGLE_QUBIT_KINDS:
        return embed({op.targets[0]: GATE_MATRICES[op.kind]}, n)
    controls = {c: P1 for c in op.controls}
    if op.kind == "CNOT":
        return embed({op.controls[0]: P0}, n) + embed({**controls, op.targets[0]: X}, n)
    flipped = {**controls, **{t: Z for t in op.targets}}
    return np.eye(2**n) - embed(controls, n) + embed(flipped, n)


def loop_knill_laflamme(zero: np.ndarray, one: np.ndarray, errors, n: int):
    """The per-pair inner-product loop, with errors as dense matrices."""
    mats = [np.eye(2**n) if e.kind == "I" else embed({e.qubit: PAULIS[e.kind]}, n)
            for e in errors]
    images = {0: [m @ zero for m in mats], 1: [m @ one for m in mats]}
    worst = 0.0
    witness = np.zeros((len(mats), len(mats)), dtype=complex)
    for a in range(len(mats)):
        for b in range(len(mats)):
            g00 = np.vdot(images[0][a], images[0][b])
            g11 = np.vdot(images[1][a], images[1][b])
            g01 = np.vdot(images[0][a], images[1][b])
            g10 = np.vdot(images[1][a], images[0][b])
            worst = max(worst, abs(g01), abs(g10), abs(g00 - g11))
            witness[a, b] = (g00 + g11) / 2.0
    return worst < 1e-10, witness, float(worst)


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=seeds, columns=st.integers(0, 3))
def test_op_kernel_matches_dense_operator(n, seed, columns):
    """Vectors (columns == 0) and column blocks, for every kind of op."""
    rng = np.random.default_rng(seed)
    shape = (2**n,) if columns == 0 else (2**n, columns)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for _ in range(4):
        op = random_op(n, SINGLE_QUBIT_KINDS + ("CNOT", "CPHASE"), rng)
        np.testing.assert_allclose(_apply_op_array(amps, op, n), dense_op(op, n) @ amps,
                                   rtol=0, atol=1e-13)


@st.composite
def codes_and_errors(draw):
    """A code plus a random error list. The code comes from a random circuit,
    from the shipped encoder followed by one-qubit gates (so it corrects every
    single-qubit error), or is a random orthonormal pair, whose overlaps are
    generic rather than the 0 and +-1 of the all-Clifford gate set."""
    rng = np.random.default_rng(draw(seeds))
    source = draw(st.sampled_from(("circuit", "encoder", "random")))
    n = 5 if source == "encoder" else draw(st.integers(2, 5))
    if source == "random":
        raw = rng.normal(size=(2**n, 2)) + 1j * rng.normal(size=(2**n, 2))
        q, _ = np.linalg.qr(raw)
        zero, one = PureState(n, q[:, 0]), PureState(n, q[:, 1])
    else:
        circuit = random_circuit(n, draw(st.integers(0, 25)), rng)
        if source == "encoder":
            tail = random_circuit(5, draw(st.integers(0, 8)), rng, alphabet=SINGLE_QUBIT_KINDS)
            circuit = Circuit(5, five_qubit_encoder().ops + tail.ops)
        zero, one = circuit_codewords(circuit)
    classes = single_qubit_error_classes(n)
    errors = draw(st.lists(st.sampled_from(classes), max_size=len(classes) + 2))
    return CodeSpec(source, n, zero, one), errors


@settings(max_examples=80, deadline=None)
@given(codes_and_errors())
def test_gram_check_matches_inner_product_loop(case):
    code, errors = case
    fast = check_knill_laflamme(code, errors)
    ok, witness, worst = loop_knill_laflamme(code.logical_zero.amplitudes,
                                             code.logical_one.amplitudes, errors,
                                             code.n_physical)
    assert fast.ok == ok
    assert abs(fast.worst_violation - worst) <= 1e-12
    assert fast.witness.shape == witness.shape
    assert np.abs(fast.witness - witness).max(initial=0.0) <= 1e-12


def test_reference_loop_tells_a_correcting_code_from_a_broken_one():
    errors = single_qubit_error_classes(5)
    good = CodeSpec("good", 5, *circuit_codewords(five_qubit_encoder()))
    bad = CodeSpec("bad", 5, *circuit_codewords(Circuit(5, (GateOp("CNOT", (1,), (0,)),))))
    assert check_knill_laflamme(good, errors).ok
    assert not check_knill_laflamme(bad, errors).ok
    assert loop_knill_laflamme(good.logical_zero.amplitudes, good.logical_one.amplitudes,
                               errors, 5)[0]
