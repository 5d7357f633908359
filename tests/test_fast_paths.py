"""The cached op kernels, the one-Gram Knill-Laflamme check, and the pulse
simulator's one-qubit kernel and row maps on the rows a program reaches,
cross-checked against slow references: dense Kronecker products, a loop of
inner products, and the mask/gather pulse kernel on the whole trap space."""

from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qeclab.circuits import Circuit, GateOp, SINGLE_QUBIT_KINDS, GATE_MATRICES, _apply_op_array
from qeclab.codes import (
    CodeSpec,
    check_knill_laflamme,
    circuit_codewords,
    five_qubit_encoder,
    single_qubit_error_classes,
)
from qeclab import iontrap
from qeclab.iontrap import (
    LEVELS,
    PHONON_DIM,
    PULSE_KINDS,
    Pulse,
    PulseSequence,
    _pulse_apply,
    compile_circuit,
    compile_cphase,
    simulate_pulse_sequence,
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


# --- the pulse kernel ------------------------------------------------------------

G, E = 0, 1


def trap_dim(n: int) -> int:
    return PHONON_DIM * LEVELS**n


def trap_index_tables(n: int):
    """Per trap basis index: the level of each ion (big-endian) and the phonon bit."""
    idx = np.arange(trap_dim(n))
    levels = np.stack([(idx // 2 // 3 ** (n - 1 - q)) % 3 for q in range(n)], axis=1)
    return levels, idx % 2


def reference_pulse(amps: np.ndarray, pulse: Pulse, n: int) -> np.ndarray:
    """The mask/gather kernel: boolean masks over the basis, fancy-index
    gathers and scatters, and a fresh copy of the block per pulse."""
    levels, phonon = trap_index_tables(n)
    lv = levels[:, pulse.ion]
    step = 3 ** (n - 1 - pulse.ion) * 2
    out = amps.copy()
    src_g1 = np.nonzero((lv == G) & (phonon == 1))[0]
    if pulse.kind == "VPulse":
        mask = (lv == G) & (phonon == 1)
        out[mask] = -amps[mask]
    elif pulse.kind == "OneQubit":
        rot = pulse.matrix
        idx_g = np.nonzero(lv == G)[0]
        idx_e = idx_g + step
        a_g, a_e = amps[idx_g], amps[idx_e]
        out[idx_g] = rot[0, 0] * a_g + rot[0, 1] * a_e
        out[idx_e] = rot[1, 0] * a_g + rot[1, 1] * a_e
    else:
        factor = -1j if pulse.kind in ("WPhon", "VPhon") else 1j
        dst = src_g1 + (step if pulse.kind.startswith("W") else 2 * step) - 1
        out[dst] = factor * amps[src_g1]
        out[src_g1] = factor * amps[dst]
    return out


def reference_simulation(seq: PulseSequence, n: int):
    """(unitary, leakage, phonon residual) from the mask/gather kernel."""
    dim, nq = trap_dim(n), 2**n
    levels, phonon = trap_index_tables(n)
    # qubit rows: no ion in e', phonon 0; in trap order, basis state j is the j-th
    sub_idx = np.nonzero((levels < 2).all(axis=1) & (phonon == 0))[0]
    cols = np.zeros((dim, nq), dtype=complex)
    cols[sub_idx, np.arange(nq)] = 1.0
    for pulse in seq.pulses:
        cols = reference_pulse(cols, pulse, n)
    outside = np.ones(dim, dtype=bool)
    outside[sub_idx] = False

    def worst(rows):
        return float(np.sqrt(np.max(np.sum(np.abs(cols[rows, :]) ** 2, axis=0), initial=0.0)))

    return cols[sub_idx, :], worst(outside), worst(phonon == 1)


def random_pulse(n: int, rng: np.random.Generator) -> Pulse:
    kind = PULSE_KINDS[rng.integers(len(PULSE_KINDS))]
    ion = int(rng.integers(n))
    if kind != "OneQubit":
        return Pulse(kind, ion)
    if rng.random() < 0.5:
        return Pulse(kind, ion, GATE_MATRICES[SINGLE_QUBIT_KINDS[rng.integers(8)]])
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return Pulse(kind, ion, q)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit, signs of zero included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=seeds, columns=st.integers(0, 3), length=st.integers(1, 12))
def test_in_place_pulse_kernel_matches_mask_gather_kernel(n, seed, columns, length):
    """Random OneQubit pulses on any ion of a random block (a vector when
    columns == 0), each run with the pulsed ion's axis moved to the front, as
    the simulator runs it; the other kinds run only in row maps."""
    rng = np.random.default_rng(seed)
    shape = (trap_dim(n),) if columns == 0 else (trap_dim(n), columns)
    axes = (LEVELS,) * n + (PHONON_DIM,) + shape[1:]
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expected = amps.copy()
    for pulse in random_pulses(n, rng, ("OneQubit",), length):
        front = np.moveaxis(amps.reshape(axes), pulse.ion, 0).copy()
        _pulse_apply(front, pulse, LEVELS)
        amps = np.moveaxis(front, 0, pulse.ion).reshape(shape)
        expected = reference_pulse(expected, pulse, n)
        assert same_bits(amps, expected), pulse


@st.composite
def pulse_programs(draw):
    """Compiled random circuits (no leakage) and random pulse lists (mostly leaking)."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(seeds))
    if n > 1 and draw(st.booleans()):
        return compile_circuit(random_circuit(n, draw(st.integers(0, 10)), rng)), n
    return PulseSequence(tuple(random_pulse(n, rng) for _ in range(draw(st.integers(0, 10))))), n


@settings(max_examples=40, deadline=None)
@given(pulse_programs())
def test_simulation_matches_mask_gather_reference(program):
    seq, n = program
    sim = simulate_pulse_sequence(seq, n)
    unitary, leakage, phonon_residual = reference_simulation(seq, n)
    assert same_bits(sim.unitary, unitary)
    assert sim.leakage == leakage
    assert sim.phonon_residual == phonon_residual


# --- the reachable region ----------------------------------------------------------
# The simulator runs each program on the region it reaches: phonon 1 only when
# it has a WPhon/VPhon pulse or a dagger of one, e' only of the ions it VPhons.
# Each family below stresses one edge of that rule; the tails draw their kinds
# from a random subset, so lone daggers (a WPhonDag as the only phonon pulse,
# a VPhonDag as an ion's only VPhon) come up often.


def random_pulses(n: int, rng: np.random.Generator, kinds, count: int) -> list:
    pulses = []
    while len(pulses) < count:
        pulse = random_pulse(n, rng)
        if pulse.kind in kinds:
            pulses.append(pulse)
    return pulses


def random_tail(draw, n: int, rng: np.random.Generator, max_size: int = 8) -> list:
    kinds = draw(st.sets(st.sampled_from(PULSE_KINDS), min_size=1))
    return random_pulses(n, rng, kinds, draw(st.integers(0, max_size)))


@st.composite
def region_programs(draw, family: str):
    n = 1 if family == "one ion" else draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(seeds))
    if family == "late VPhon":         # many one-qubit pulses, then the first VPhon(Dag)
        pulses = random_pulses(n, rng, ("OneQubit",), draw(st.integers(5, 20)))
        pulses.append(Pulse(draw(st.sampled_from(("VPhon", "VPhonDag"))), int(rng.integers(n))))
    elif family == "early VPulse":     # a VPulse before any phonon pulse
        pulses = random_pulses(n, rng, ("OneQubit",), draw(st.integers(0, 4)))
        pulses.insert(draw(st.integers(0, len(pulses))), Pulse("VPulse", int(rng.integers(n))))
    elif family == "every ion":        # a VPhon or VPhonDag on each ion, in random places
        pulses = random_tail(draw, n, rng)
        for ion in range(n):
            pulses.insert(draw(st.integers(0, len(pulses))),
                          Pulse(draw(st.sampled_from(("VPhon", "VPhonDag"))), ion))
        return PulseSequence(tuple(pulses)), n
    else:
        pulses = []
    return PulseSequence(tuple(pulses + random_tail(draw, n, rng, max_size=15))), n


@pytest.mark.parametrize("family", ["late VPhon", "early VPulse", "one ion", "every ion"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_region_simulation_matches_mask_gather_reference(family, data):
    seq, n = data.draw(region_programs(family))
    sim = simulate_pulse_sequence(seq, n)
    unitary, leakage, phonon_residual = reference_simulation(seq, n)
    assert same_bits(sim.unitary, unitary)
    assert (sim.leakage, sim.phonon_residual) == (leakage, phonon_residual)


def test_region_is_fixed_for_the_whole_program():
    """After the VPulse the whole-space kernel holds -0 on |g,1>, and the WPhon
    moves it into the qubit row |e,0> as +0 (from +0 it would be -0 there).
    A region that grew only at the WPhon, with zeros, would print the other
    sign; the walk of the stretch, a lone WPhon that moves the |e,0> row off
    the qubit rows, sends this program to the fixed region."""
    seq = PulseSequence((Pulse("VPulse", 0), Pulse("WPhon", 0)))
    unitary = reference_simulation(seq, 1)[0]
    assert not np.signbit(unitary[1].imag).any()
    assert same_bits(simulate_pulse_sequence(seq, 1).unitary, unitary)


@pytest.mark.parametrize("kind", ["WPhon", "VPhon", "WPhonDag", "VPhonDag"])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_lone_phonon_pulse_leaks_as_the_reference_says(kind, n):
    """Alone, a WPhon moves every column with its ion in e onto the phonon and
    a VPhon finds both its rows empty; behind a WPhon, each moves amplitude."""
    for seq in (PulseSequence((Pulse(kind, n - 1),)),
                PulseSequence((Pulse("WPhon", 0), Pulse(kind, n - 1)))):
        sim = simulate_pulse_sequence(seq, n)
        unitary, leakage, phonon_residual = reference_simulation(seq, n)
        assert same_bits(sim.unitary, unitary)
        assert (sim.leakage, sim.phonon_residual) == (leakage, phonon_residual)
    assert simulate_pulse_sequence(PulseSequence((Pulse("WPhon", 0),)), n).leakage == 1.0


# --- the ion-first layout ------------------------------------------------------------
# The simulator runs a OneQubit pulse with its ion's axis leading and moves the
# axes only when the next OneQubit pulse is on another ion; the other pulses run
# in whatever order is current, and trap order comes back before the column sums.


@st.composite
def late_ion_programs(draw):
    """Runs of OneQubit pulses on late ions, switching between them, with pulses
    of every kind on any ion in between; the last run stays on a late ion, so
    the program ends in a moved layout."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(seeds))
    pulses = []
    for _ in range(draw(st.integers(1, 5))):
        ion = draw(st.integers(1, n - 1))
        for p in random_pulses(n, rng, ("OneQubit",), draw(st.integers(1, 3))):
            pulses.append(Pulse("OneQubit", ion, p.matrix))
        pulses += random_tail(draw, n, rng, max_size=4)
    pulses.append(Pulse("OneQubit", n - 1, random_pulses(n, rng, ("OneQubit",), 1)[0].matrix))
    return PulseSequence(tuple(pulses)), n


@settings(max_examples=60, deadline=None)
@given(late_ion_programs())
def test_late_ion_layout_matches_mask_gather_reference(program):
    seq, n = program
    sim = simulate_pulse_sequence(seq, n)
    unitary, leakage, phonon_residual = reference_simulation(seq, n)
    assert same_bits(sim.unitary, unitary)
    assert (sim.leakage, sim.phonon_residual) == (leakage, phonon_residual)


@pytest.mark.parametrize("kind", ["OneQubit", "WPhon"])
def test_ion_out_of_range_is_reported_in_a_moved_layout(kind):
    bad = Pulse(kind, 3, GATE_MATRICES["U"] if kind == "OneQubit" else None)
    seq = PulseSequence((Pulse("OneQubit", 2, GATE_MATRICES["U"]), bad))
    with pytest.raises(ValueError, match="ion index 3 out of range for 3 ions"):
        simulate_pulse_sequence(seq, 3)


# --- the rows the amplitudes occupy ---------------------------------------------------
# The simulator runs each stretch of phonon pulses between two OneQubit pulses
# as one row map, once, on rows chosen before any pulse runs: the qubit corner
# when every stretch keeps it, else the fixed region. A run on the corner
# reports no leakage and no phonon residual.


def corner(n: int) -> tuple:
    return (2,) * n + (1,)


def fixed_runs(seq: PulseSequence, n: int):
    """The simulation, and how many times it ran on the fixed region; the
    simulation runs the pulse loop exactly once."""
    shapes = []

    def spy(pulses, n_ions):
        block, shape = run(pulses, n_ions)
        shapes.append(shape)
        return block, shape

    run = iontrap._run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iontrap, "_run", spy)
        sim = simulate_pulse_sequence(seq, n)
    assert len(shapes) == 1
    return sim, int(shapes[0] != corner(n))


def assert_matches_reference(sim, seq: PulseSequence, n: int) -> None:
    unitary, leakage, phonon_residual = reference_simulation(seq, n)
    assert same_bits(sim.unitary, unitary)
    assert (sim.leakage, sim.phonon_residual) == (leakage, phonon_residual)
    assert not np.isnan(sim.unitary).any()
    assert not np.isnan(sim.leakage) and not np.isnan(sim.phonon_residual)


@st.composite
def compiled_programs(draw):
    """Compiled random circuits on 1-6 qubits, with CPHASEs of two or more
    controls inserted at random places from 3 qubits on."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(seeds))
    ops = list(random_circuit(n, draw(st.integers(0, 30)), rng).ops)
    for _ in range(draw(st.integers(0, 3)) if n >= 3 else 0):
        qubits = [int(q) for q in rng.permutation(n)]
        c = draw(st.integers(2, n - 1))
        ops.insert(draw(st.integers(0, len(ops))),
                   GateOp("CPHASE", tuple(sorted(qubits[c:])), tuple(sorted(qubits[:c]))))
    return compile_circuit(Circuit(n, tuple(ops))), n


@settings(max_examples=60, deadline=None)
@given(compiled_programs())
def test_compiled_programs_never_need_the_fixed_region(program):
    seq, n = program
    sim, fixed = fixed_runs(seq, n)
    assert fixed == 0
    assert_matches_reference(sim, seq, n)


@st.composite
def spliced_programs(draw):
    """A compiled program with 1-3 random pulses spliced in at random places;
    many leak mid-program, and the whole program then runs on the fixed region."""
    seq, n = draw(compiled_programs())
    rng = np.random.default_rng(draw(seeds))
    pulses = list(seq.pulses)
    for _ in range(draw(st.integers(1, 3))):
        pulses.insert(draw(st.integers(0, len(pulses))), random_pulse(n, rng))
    return PulseSequence(tuple(pulses)), n


# the README's example: a VPulse before the first WPhon flips the sign of a zero
# that the WPhon then moves into a qubit row
@example(program=(PulseSequence((Pulse("VPulse", 0), Pulse("WPhon", 0))), 1))
# a row ends the first stretch on |g,1> with the VPulse's flip still pending,
# and the OneQubit pulse mixes it into |e,1>
@example(program=(PulseSequence((Pulse("WPhon", 0), Pulse("VPulse", 0),
                                 Pulse("OneQubit", 0, GATE_MATRICES["U"]))), 1))
@example(program=(PulseSequence((Pulse("VPulse", 1),) + compile_circuit(
    Circuit(2, (GateOp("CNOT", (1,), (0,)),))).pulses), 2))
@settings(max_examples=60, deadline=None)
@given(spliced_programs())
def test_spliced_programs_match_mask_gather_reference(program):
    seq, n = program
    assert_matches_reference(fixed_runs(seq, n)[0], seq, n)


@settings(max_examples=60, deadline=None)
@given(st.one_of(pulse_programs(), compiled_programs(), spliced_programs()))
def test_no_result_holds_a_nan(program):
    """On either set of rows, the unitary, the leakage and the phonon
    residual hold no NaN."""
    seq, n = program
    sim = fixed_runs(seq, n)[0]
    assert not np.isnan(sim.unitary).any()
    assert not np.isnan(sim.leakage) and not np.isnan(sim.phonon_residual)


def test_vpulse_before_the_first_wphon_takes_the_fixed_region():
    """The README's example on one ion: the whole space holds the VPulse's -0
    on |g,1>, and the WPhon swaps it with the qubit row |e,0>; the stretch
    leaves the qubit corner, and the run on the fixed region prints +0 there."""
    seq = PulseSequence((Pulse("VPulse", 0), Pulse("WPhon", 0)))
    sim, fixed = fixed_runs(seq, 1)
    assert fixed == 1
    assert not np.signbit(sim.unitary[1].imag).any()


def test_ions_are_checked_before_any_pulse_runs():
    """The first out-of-range pulse in program order is named, before the
    pulse loop starts."""
    seq = PulseSequence((Pulse("WPhon", 0), Pulse("VPhon", 5), Pulse("VPulse", 4)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iontrap, "_run", lambda *args: pytest.fail("a run started"))
        with pytest.raises(ValueError, match="ion index 5 out of range for 3 ions"):
            simulate_pulse_sequence(seq, 3)


# --- the per-stretch walk -------------------------------------------------------------


def rows_in(n: int, shape: tuple) -> np.ndarray:
    """Per trap basis index, whether the row is in ``shape``: fewer levels
    than shape[k] on each ion k, and a phonon below shape[-1]."""
    levels, phonon = trap_index_tables(n)
    return (levels < np.array(shape[:-1])).all(axis=1) & (phonon < shape[-1])


def keeps_rows_reference(stretch: tuple, n: int, shape: tuple) -> bool:
    """Whether the mask/gather kernel, on the whole space, leaves every
    column that starts on a row of ``shape`` with its weight on those rows."""
    inside = np.nonzero(rows_in(n, shape))[0]
    cols = np.zeros((trap_dim(n), inside.size), dtype=complex)
    cols[inside, np.arange(inside.size)] = 1.0
    for kind, ion in stretch:
        cols = reference_pulse(cols, Pulse(kind, ion), n)
    return not np.sum(np.abs(cols[~rows_in(n, shape)]) ** 2, axis=0).any()


@st.composite
def stretches(draw):
    """(kind, ion) pairs of non-OneQubit pulses on 1-6 ions: random ones, or a
    compiled CPHASE (which keeps the qubit rows) with random pulses spliced in."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(seeds))
    kinds = tuple(k for k in PULSE_KINDS if k != "OneQubit")
    if n == 1 or draw(st.booleans()):
        pulses = random_pulses(n, rng, kinds, draw(st.integers(1, 10)))
    else:
        qubits = [int(q) for q in rng.permutation(n)]
        c = draw(st.integers(1, n - 1))
        pulses = list(compile_cphase(qubits[:c], qubits[c:]).pulses)
        for p in random_pulses(n, rng, kinds, draw(st.integers(0, 2))):
            pulses.insert(draw(st.integers(0, len(pulses))), p)
    return tuple((p.kind, p.ion) for p in pulses), n


@example(case=((("WPhon", 0),), 1))
@example(case=((("WPhon", 0), ("VPulse", 1), ("WPhon", 0)), 2))
@settings(max_examples=100, deadline=None)
@given(stretches())
def test_stretch_check_matches_mask_gather_reference(case):
    stretch, n = case
    kept = iontrap._stretch_walk(stretch, corner(n)) is not None
    assert kept == keeps_rows_reference(stretch, n, corner(n))


def test_a_stray_wphon_runs_each_pulse_once_on_the_fixed_region():
    """A WPhon(0) before the shipped encoder moves ion 0's |e,0> rows onto the
    phonon, so the first stretch leaves the qubit corner: the program runs
    on the fixed region, each pulse once and in order, in its stretch's map
    or through the OneQubit kernel."""
    seq = PulseSequence((Pulse("WPhon", 0),) + compile_circuit(five_qubit_encoder()).pulses)
    simulate_pulse_sequence(seq, 5)     # from here on, the stretches' maps are cached
    ran = []

    def map_spy(stretch, *args):
        ran.extend(stretch)
        return stretch_map(stretch, *args)

    def apply_spy(block, pulse, *args):
        ran.append((pulse.kind, pulse.ion))
        return apply(block, pulse, *args)

    stretch_map, apply = iontrap._stretch_map, iontrap._pulse_apply
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iontrap, "_stretch_map", map_spy)
        patch.setattr(iontrap, "_pulse_apply", apply_spy)
        sim, fixed = fixed_runs(seq, 5)
    assert fixed == 1
    assert ran == [(p.kind, p.ion) for p in seq.pulses]
    assert_matches_reference(sim, seq, 5)


# --- the stretch maps -------------------------------------------------------------------
# A stretch runs as one cached map on the block's rows: one gather, the factors
# each group of rows meets, one gather into the next axis order.


def grow_run_cut(block: np.ndarray, stretch: tuple, n: int, shape: tuple, order_in: tuple,
                 order_out: tuple) -> np.ndarray:
    """The rows of ``shape`` (ion axes in ``order_in``, by columns) grown with
    zeros to the whole trap space, the stretch run through
    ``reference_pulse``, the rows of ``shape`` cut out again and the axes
    moved to ``order_out``."""
    cols = block.shape[-1]
    trap = block.reshape([shape[k] for k in order_in] + [shape[-1], cols]).transpose(
        [order_in.index(k) for k in range(n)] + [n, n + 1])
    inside = np.nonzero(rows_in(n, shape))[0]
    whole = np.zeros((trap_dim(n), cols), dtype=complex)
    whole[inside] = trap.reshape(-1, cols)
    for kind, ion in stretch:
        whole = reference_pulse(whole, Pulse(kind, ion), n)
    cut = whole[inside].reshape(shape + (cols,)).transpose(list(order_out) + [n, n + 1])
    return np.ascontiguousarray(cut).reshape(-1, cols)


def assert_map_matches_grow_run_cut(stretch, n, shape, order_in, order_out, seed, cols):
    """On a random block of the rows of ``shape``, with zeros of both signs
    planted in every row, the map gives the bits of the grown run, and the
    walk is None exactly when the stretch moves a row out of ``shape``."""
    rng = np.random.default_rng(seed)
    rows = prod(shape)
    block = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    parts = block.view(np.float64)
    zeros = rng.random(parts.shape) < 0.3
    zeros[np.arange(rows), rng.integers(2 * cols, size=rows)] = True
    parts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    walk = iontrap._stretch_walk(stretch, shape)
    assert (walk is None) == (not keeps_rows_reference(stretch, n, shape))
    if walk is not None:
        expected = grow_run_cut(block, stretch, n, shape, order_in, order_out)
        mapped = iontrap._stretch_map(stretch, shape, order_in, order_out)
        assert same_bits(iontrap._map_rows(block.copy(), np.empty_like(block), mapped)[0],
                         expected)


@st.composite
def stretch_cases(draw):
    """A stretch, its ion count, two axis orders, a seed and a column count."""
    stretch, n = draw(stretches())
    orders = st.permutations(range(n)).map(tuple)
    return stretch, n, draw(orders), draw(orders), draw(seeds), draw(st.integers(1, 4))


@example(case=((("WPhon", 0), ("VPulse", 1), ("WPhon", 0)), 2, (1, 0), (0, 1), 0, 1))
@example(case=((("VPulse", 0), ("WPhonDag", 1), ("VPulse", 0), ("VPulse", 2), ("WPhon", 1)),
               3, (2, 0, 1), (0, 1, 2), 1, 2))
@settings(max_examples=100, deadline=None)
@given(stretch_cases())
def test_stretch_map_matches_grow_run_cut(case):
    """On the qubit corner, in any axis orders."""
    stretch, n, order_in, order_out, seed, cols = case
    assert_map_matches_grow_run_cut(stretch, n, corner(n), order_in, order_out, seed, cols)


@st.composite
def region_cases(draw):
    """A stretch case on a random region: 2 or 3 levels per ion and 1 or 2
    phonon states, in half of the cases widened by the fixed region of the
    stretch, which it keeps."""
    stretch, n, order_in, order_out, seed, cols = draw(stretch_cases())
    shape = tuple(draw(st.sampled_from((2, 3))) for _ in range(n)) + (draw(st.sampled_from((1, 2))),)
    if draw(st.booleans()):
        eprime = {ion for kind, ion in stretch if kind.startswith("VPhon")}
        shape = tuple(LEVELS if k in eprime else shape[k] for k in range(n)) + (PHONON_DIM,)
    return stretch, n, shape, order_in, order_out, seed, cols


# a row ends the stretch on |g,1> with the VPulse's flip still pending
@example(case=((("WPhon", 0), ("VPulse", 0)), 1, (2, 2), (0,), (0,), 0, 2))
# the README's example: the VPulse flips the sign of a zero that the WPhon moves
@example(case=((("VPulse", 0), ("WPhon", 0)), 1, (2, 2), (0,), (0,), 1, 1))
@settings(max_examples=100, deadline=None)
@given(region_cases())
def test_region_map_matches_grow_run_cut(case):
    """On the fixed region and other sets of rows, in any axis orders."""
    assert_map_matches_grow_run_cut(*case)
