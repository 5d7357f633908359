"""The cached op kernels, the one-Gram Knill-Laflamme check and the in-place
pulse kernel with its reachable region, cross-checked against slow
references: dense Kronecker products, a loop of inner products, and the
mask/gather pulse kernel, on the whole block, that the in-place one replaced."""

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
    """Random pulses of every kind on a random block (a vector when columns == 0)."""
    rng = np.random.default_rng(seed)
    shape = (trap_dim(n),) if columns == 0 else (trap_dim(n), columns)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expected = amps.copy()
    for _ in range(length):
        pulse = random_pulse(n, rng)
        _pulse_apply(amps, pulse, (LEVELS,) * n + (PHONON_DIM,), pulse.ion)
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
    sign; the check of the stretch, a lone WPhon that moves the |e,0> row off
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
# The simulator first runs on the qubit corner, each stretch of phonon pulses
# between two OneQubit pulses as one row map; a stretch that moves amplitude off
# the qubit rows sends the program to the fixed region before any of its pulses
# runs.


def fixed_runs(seq: PulseSequence, n: int):
    """The simulation, and how many times it ran on the fixed region."""
    calls = []

    def spy(pulses, n_ions, region, fixed):
        calls.append(fixed)
        return run(pulses, n_ions, region, fixed)

    run = iontrap._run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iontrap, "_run", spy)
        sim = simulate_pulse_sequence(seq, n)
    return sim, sum(calls)


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
    many leak mid-program, and the fixed run then takes the whole program."""
    seq, n = draw(compiled_programs())
    rng = np.random.default_rng(draw(seeds))
    pulses = list(seq.pulses)
    for _ in range(draw(st.integers(1, 3))):
        pulses.insert(draw(st.integers(0, len(pulses))), random_pulse(n, rng))
    return PulseSequence(tuple(pulses)), n


# the README's example: a VPulse before the first WPhon flips the sign of a zero
# that the WPhon then moves into a qubit row
@example(program=(PulseSequence((Pulse("VPulse", 0), Pulse("WPhon", 0))), 1))
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
    """Whichever run gave the result, the unitary, the leakage and the
    phonon residual hold no NaN, and the fixed region ran at most once."""
    seq, n = program
    sim, fixed = fixed_runs(seq, n)
    assert not np.isnan(sim.unitary).any()
    assert not np.isnan(sim.leakage) and not np.isnan(sim.phonon_residual)
    assert fixed in (0, 1)


def test_vpulse_before_the_first_wphon_takes_the_fixed_region():
    """The README's example on one ion: the whole space holds the VPulse's -0
    on |g,1>, and the WPhon swaps it with the qubit row |e,0>; the stretch
    fails the check, and the fixed run prints +0 there."""
    seq = PulseSequence((Pulse("VPulse", 0), Pulse("WPhon", 0)))
    sim, fixed = fixed_runs(seq, 1)
    assert fixed == 1
    assert not np.signbit(sim.unitary[1].imag).any()


def test_ions_are_checked_before_any_pulse_runs():
    """The first out-of-range pulse in program order is named, before the
    qubit-corner run starts."""
    seq = PulseSequence((Pulse("WPhon", 0), Pulse("VPhon", 5), Pulse("VPulse", 4)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iontrap, "_run", lambda *args: pytest.fail("a run started"))
        with pytest.raises(ValueError, match="ion index 5 out of range for 3 ions"):
            simulate_pulse_sequence(seq, 3)


# --- the per-stretch check ------------------------------------------------------------


def keeps_qubit_rows_reference(stretch: tuple, n: int) -> bool:
    """Whether the mask/gather kernel, on the whole space, leaves every qubit
    column's weight on the qubit rows."""
    levels, phonon = trap_index_tables(n)
    qubit = (levels < 2).all(axis=1) & (phonon == 0)
    cols = np.zeros((trap_dim(n), 2**n), dtype=complex)
    cols[np.nonzero(qubit)[0], np.arange(2**n)] = 1.0
    for kind, ion in stretch:
        cols = reference_pulse(cols, Pulse(kind, ion), n)
    return not np.sum(np.abs(cols[~qubit]) ** 2, axis=0).any()


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
    assert iontrap._keeps_qubit_rows(stretch, n) == keeps_qubit_rows_reference(stretch, n)


def test_a_stray_wphon_stops_the_fast_run_before_its_stretch():
    """A WPhon(0) before the shipped encoder moves ion 0's |e,0> rows onto the
    phonon, so the first stretch fails the check: the fast run applies no
    pulse, and the fixed run applies each pulse once."""
    seq = PulseSequence((Pulse("WPhon", 0),) + compile_circuit(five_qubit_encoder()).pulses)
    simulate_pulse_sequence(seq, 5)     # from here on, the stretches' checks are cached
    runs = []

    def run_spy(pulses, n_ions, region, fixed):
        runs.append([fixed, 0])
        return run(pulses, n_ions, region, fixed)

    def apply_spy(*args):
        runs[-1][1] += 1
        return apply(*args)

    run, apply = iontrap._run, iontrap._pulse_apply
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iontrap, "_run", run_spy)
        patch.setattr(iontrap, "_pulse_apply", apply_spy)
        sim = simulate_pulse_sequence(seq, 5)
    assert runs == [[False, 0], [True, len(seq)]]
    assert_matches_reference(sim, seq, 5)


# --- the stretch maps -------------------------------------------------------------------
# The fast run does a stretch in one cached map on the qubit corner: one gather,
# the factors each group of rows meets, one gather into the next axis order.


def grow_run_cut(corner: np.ndarray, stretch: tuple, n: int, order_in: tuple,
                 order_out: tuple) -> np.ndarray:
    """The corner (rows in ``order_in``, by columns) grown with zeros to phonon
    1 and e' of each ion the stretch VPhons, the stretch run through
    ``_pulse_apply``, the rest cut off again and the axes moved to ``order_out``."""
    cols = corner.shape[-1]
    eprime = {ion for kind, ion in stretch if kind.startswith("VPhon")}
    grown = np.zeros(tuple(LEVELS if k in eprime else 2 for k in order_in) + (PHONON_DIM, cols),
                     dtype=complex)
    qubit = (slice(0, 2),) * n + (slice(0, 1),)
    grown[qubit] = corner.reshape((2,) * n + (1, cols))
    for kind, ion in stretch:
        _pulse_apply(grown, Pulse(kind, ion), grown.shape[:-1], order_in.index(ion))
    moved = grown[qubit].transpose([order_in.index(k) for k in order_out] + [n, n + 1])
    return np.ascontiguousarray(moved).reshape(2**n, cols)


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
    """On a random corner with zeros of both signs planted in it, in any axis
    orders, the map gives the bits of the grown run, and is None exactly when
    the stretch moves a qubit row off the qubit rows."""
    stretch, n, order_in, order_out, seed, cols = case
    rng = np.random.default_rng(seed)
    corner = rng.normal(size=(2**n, cols)) + 1j * rng.normal(size=(2**n, cols))
    parts = corner.view(np.float64).reshape(-1)
    zeros = rng.random(parts.size) < 0.3
    parts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    mapped = iontrap._stretch_map(stretch, n, order_in, order_out)
    assert (mapped is None) == (not keeps_qubit_rows_reference(stretch, n))
    if mapped is not None:
        expected = grow_run_cut(corner, stretch, n, order_in, order_out)
        block = iontrap._map_rows(corner.copy(), np.empty_like(corner), mapped)[0]
        assert same_bits(block, expected)
