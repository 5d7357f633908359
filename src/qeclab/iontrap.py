"""Pulse-level model of a linear ion trap and a circuit-to-pulse compiler.

Each ion has three internal levels: ground g, excited e (these two hold the
qubit, |0> = g and |1> = e) and an auxiliary excited level e' used only as
parking space during multi-control gates. All ions share one center-of-mass
phonon mode, truncated to occupations {0, 1}; valid pulse programs start and
end with the phonon in |0> and never populate e' at the end.

Pulse primitives (everything not listed is left fixed):

    WPhon(i)     |g,1> -> -i|e,0>     |e,0> -> -i|g,1>
    VPulse(j)    |g,1> -> -|g,1>
    VPhon(j)     |g,1> -> -i|e',0>    |e',0> -> -i|g,1>
    OneQubit(R)  R acts on {g,e} of one ion, independent of the phonon

WPhonDag / VPhonDag are the inverses (+i in place of -i); VPulse is its own
inverse. The conditional sign flip with c controls and k targets compiles to
2c + k pulses: WPhon on the first control, VPhon on the remaining controls,
VPulse on every target, then the control pulses again in reverse order --
daggered exactly when k is even, which cancels the phases the control pulses
leave behind.

``simulate_pulse_sequence`` runs a program on all 2**n qubit columns at once.
Only OneQubit pulses mix amplitudes; the other pulses between two of them
only move rows, each times a phase, and such a stretch runs as one cached row
map that meets each element with the same exact factors as the whole-space
kernel (``_stretch_map``, the one cache per stretch). The rows are chosen
from those maps before any pulse runs: the qubit corner (levels g/e, phonon
0) when every stretch maps it onto itself, else the fixed region of the trap
space the program reaches, which every pulse maps into itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Optional, Sequence

import numpy as np

from .circuits import (
    Circuit,
    GateOp,
    GATE_MATRICES,
    MAX_PULSES,
    MAX_QUBITS,
    SINGLE_QUBIT_KINDS,
    circuit_to_unitary,
)
from .states import U, UDAG, is_unitary

LEVELS = 3          # g, e, e'
G, E, EPRIME = 0, 1, 2
PHONON_DIM = 2
MAX_IONS = MAX_QUBITS   # the simulated block has 2 * 6**n entries

PULSE_KINDS = ("WPhon", "WPhonDag", "VPulse", "VPhon", "VPhonDag", "OneQubit")
_DAGGER = {"WPhon": "WPhonDag", "WPhonDag": "WPhon",
           "VPhon": "VPhonDag", "VPhonDag": "VPhon",
           "VPulse": "VPulse"}


@dataclass(frozen=True)
class Pulse:
    kind: str
    ion: int
    matrix: Optional[np.ndarray] = None   # 2x2 rotation, OneQubit only
    label: Optional[str] = None

    def __post_init__(self):
        if self.kind not in PULSE_KINDS:
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if self.kind == "OneQubit":
            if self.matrix is None:
                raise ValueError("OneQubit pulse needs a 2x2 matrix")
            mat = np.asarray(self.matrix, dtype=complex)
            if mat.shape != (2, 2) or not is_unitary(mat):
                raise ValueError("OneQubit pulse matrix must be a 2x2 unitary")
            mat = mat.copy()
            mat.flags.writeable = False
            object.__setattr__(self, "matrix", mat)
        elif self.matrix is not None:
            raise ValueError(f"{self.kind} pulse carries no matrix")

    @classmethod
    def _trusted(cls, ion: int, matrix: np.ndarray, label: Optional[str]) -> "Pulse":
        """A ``OneQubit`` pulse on the read-only matrix of a pulse already
        built, without checking it again."""
        pulse = object.__new__(cls)
        object.__setattr__(pulse, "kind", "OneQubit")
        object.__setattr__(pulse, "ion", ion)
        object.__setattr__(pulse, "matrix", matrix)
        object.__setattr__(pulse, "label", label)
        return pulse

    def dagger(self) -> "Pulse":
        """The inverse of a phonon pulse (``compile_cphase``'s closing pass)."""
        return Pulse(_DAGGER[self.kind], self.ion)


@dataclass(frozen=True)
class PulseSequence:
    pulses: tuple

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))

    @property
    def cost(self) -> int:
        return len(self.pulses)

    def __len__(self) -> int:
        return len(self.pulses)


def _pulse_apply(block: np.ndarray, pulse: Pulse, levels: int) -> None:
    """Apply a OneQubit pulse in place to a C-contiguous block whose leading
    axis is the pulsed ion's, with ``levels`` levels: 2 (g, e) or 3 (and e').
    The other axes (other ions, the phonon, columns) are carried; e' is left
    alone."""
    v = block.reshape(levels, -1)
    # r00 a_g + r01 a_e and r10 a_g + r11 a_e; the matrix entry stays the
    # first factor of every product, so the rounding never depends on order
    rot, a_g, a_e = pulse.matrix, v[G], v[E]
    from_e, from_g = rot[0, 1] * a_e, rot[1, 0] * a_g
    np.multiply(rot[0, 0], a_g, out=a_g)
    a_g += from_e
    np.multiply(rot[1, 1], a_e, out=a_e)
    a_e += from_g


def compile_cphase(controls: Sequence[int], targets: Sequence[int]) -> PulseSequence:
    """Conditional sign flip on the targets, conditioned on all controls.

    Cost is 2*len(controls) + len(targets); the second pass over the control
    ions is daggered exactly when the number of targets is even.
    """
    controls = tuple(sorted(int(c) for c in controls))
    targets = tuple(sorted(int(t) for t in targets))
    if not controls or not targets:
        raise ValueError("need at least one control and one target")
    if set(controls) & set(targets):
        raise ValueError(f"controls {controls} and targets {targets} overlap")
    opening = [Pulse("WPhon", controls[0])]
    opening += [Pulse("VPhon", c) for c in controls[1:]]
    body = [Pulse("VPulse", t) for t in targets]
    closing = list(reversed(opening))
    if len(targets) % 2 == 0:
        closing = [p.dagger() for p in closing]
    return PulseSequence(tuple(opening + body + closing))


def _one_qubit_pulse(kind: str, ion: int) -> Pulse:
    return Pulse("OneQubit", ion, GATE_MATRICES[kind], label=kind)


@lru_cache(maxsize=4096)
def compile_op(op: GateOp) -> PulseSequence:
    """The op's pulses. Cached per op: the pulses are immutable, and an
    identical op would otherwise rebuild and re-check the same matrices."""
    if op.kind in SINGLE_QUBIT_KINDS:
        return PulseSequence((_one_qubit_pulse(op.kind, op.targets[0]),))
    if op.kind == "CNOT":
        target = op.targets[0]
        inner = compile_cphase(op.controls, op.targets)
        return PulseSequence(
            (Pulse("OneQubit", target, UDAG, label="Udag"),)
            + inner.pulses
            + (Pulse("OneQubit", target, U, label="U"),)
        )
    return compile_cphase(op.controls, op.targets)


def op_pulse_cost(op: GateOp) -> int:
    """The cost law: 1 pulse per one-qubit gate, 2c+k per CPHASE with c
    controls and k targets, 5 per CNOT (basis change + 3-pulse sign flip +
    basis change back). ``compile_op`` emits exactly this many pulses."""
    if op.kind in SINGLE_QUBIT_KINDS:
        return 1
    if op.kind == "CNOT":
        return 5
    return 2 * len(op.controls) + len(op.targets)


def compile_circuit(circuit: Circuit) -> PulseSequence:
    """Lower a circuit to pulses, op by op (see ``op_pulse_cost`` for the counts)."""
    return PulseSequence(tuple(p for op in circuit.ops for p in compile_op(op).pulses))


@dataclass(frozen=True)
class PulseSimResult:
    unitary: np.ndarray       # induced operator on the qubit subspace
    leakage: float            # worst-case amplitude outside {g,e}^n (x) |0>_cm
    phonon_residual: float    # worst-case amplitude left in phonon |1>


def _worst_norm(power: np.ndarray) -> float:
    """Largest column norm, from |amplitude|**2 with the columns on the last axis."""
    return float(np.sqrt(np.max(np.sum(power.reshape(-1, power.shape[-1]), axis=0), initial=0.0)))


# The step a phonon pulse makes on one row, by kind: a table over the row's
# level of the pulsed ion (g, e, e') + 3 * (its phonon * 2 + a pending sign
# flip, an odd number of VPulse flips since the row last moved), giving the
# row's next level, its next 3 * (phonon * 2 + pending flip), and the code of
# the factors it meets there, which _FACTORS spells out. A flip waits for the
# row's next swap, or for the end of the stretch (code 5), so two in a row
# cancel; they are exact sign changes. A flip only waits on phonon 1.
# The factors are the literals the whole-space kernel multiplies by: -1j has
# a real part of -0.0, which decides the signs of zeros in the products.
_FLIP = None                # a VPulse sign flip: a negation of both float parts
_FACTORS = ((), (-1j,), (1j,), (_FLIP, -1j), (_FLIP, 1j), (_FLIP,))


def _step_table(kind: str) -> np.ndarray:
    table = np.zeros((3, LEVELS * 4), dtype=np.intp)
    other = E if kind.startswith("W") else EPRIME
    for level in range(LEVELS):
        for phonon in (0, 1):
            for flip in (0, 1):
                after = (level, phonon, flip, 0)
                if kind == "VPulse" and (level, phonon) == (G, 1):
                    after = (level, phonon, 1 - flip, 0)
                elif kind != "VPulse" and (level, phonon) in ((G, 1), (other, 0)):
                    code = (2 if kind.endswith("Dag") else 1) + 2 * flip
                    after = (other if level == G else G, 1 - phonon, 0, code)
                level_to, phonon_to, flip_to, code = after
                table[:, level + LEVELS * (phonon * 2 + flip)] = (
                    level_to, LEVELS * (phonon_to * 2 + flip_to), code)
    return table


_STEPS = {kind: _step_table(kind) for kind in PULSE_KINDS if kind != "OneQubit"}


@lru_cache(maxsize=None)
def _trap_rows(shape: tuple) -> tuple:
    """The rows of ``shape`` in trap order, read-only: each ion's level
    (n, rows), and the walk's start state, 3 * (phonon * 2) (no flip)."""
    start = np.indices(shape).reshape(len(shape), -1)
    levels, state = start[:-1], 2 * LEVELS * start[-1]
    levels.flags.writeable = state.flags.writeable = False
    return levels, state


@lru_cache(maxsize=4096)
def _row_positions(shape: tuple, order: tuple) -> np.ndarray:
    """Where each row of ``shape`` (levels per ion, then phonon states), in
    trap order, sits in a block whose ion axes are in ``order``."""
    n_ions = len(order)
    memory = np.arange(prod(shape)).reshape([shape[k] for k in order] + [shape[-1]])
    return memory.transpose([order.index(k) for k in range(n_ions)] + [n_ions]).ravel()


def _frozen(index: np.ndarray) -> Optional[np.ndarray]:
    """A map's gather index, read-only, as the cache shares it; None for the
    identity, which needs no gather."""
    if index.tobytes() == np.arange(index.size).tobytes():
        return None
    index.flags.writeable = False
    return index


def _stretch_walk(stretch: tuple, shape: tuple):
    """Where a stretch of WPhon/VPhon-family and VPulse pulses, given as
    (kind, ion) pairs, takes each row of a block of the trap basis states in
    ``shape`` (levels per ion, then phonon states), and the factors the row
    meets on the way. Each row starts on its own level and phonon. Those
    pulses only move rows, each times a phase, so the walk follows the row
    indices, all rows at once. Not cached: it runs when ``_stretch_map``
    misses. None if a row ends outside ``shape``. Otherwise (starts, ends,
    calls): the rows in trap order, sorted by the codes they meet, where
    each of them ends, and the (start, stop, factors) calls that give every
    row's run its factors in order. The runs are bounds, not slice objects:
    a slice takes 56 bytes, and a cached region map can hold hundreds of
    calls.
    An empty stretch, a pure change of axis order between two OneQubit
    pulses, leaves every row in place with no factors and skips the walk."""
    if not stretch:
        rows = np.arange(prod(shape))
        return rows, rows, ()
    levels, state = _trap_rows(shape)
    levels = levels.copy()
    codes = []
    for kind, ion in stretch:
        step = _STEPS[kind].take(levels[ion] + state, axis=1)
        levels[ion], state = step[0], step[1]
        if kind != "VPulse":
            codes.append(step[2])
    phonon, flip = np.divmod(state // LEVELS, 2)
    try:
        ends = np.ravel_multi_index((*levels, phonon), shape)
    except ValueError:                          # a row left the shape
        return None
    codes.append(5 * flip)                      # a flip still pending runs at the end
    codes = np.array(codes)
    starts = np.lexsort(codes[::-1])            # by the first code met, then the next, ...
    codes = codes.take(starts, axis=1)
    # Swap by swap, each run of sorted rows that meet the same code there
    # takes that code's factors in one call. A run ends where the next one
    # starts, or at the last row when the next starts the next swap, at 0.
    change = np.empty(codes.shape, dtype=bool)
    change[:, 0] = True
    np.not_equal(codes[:, 1:], codes[:, :-1], out=change[:, 1:])
    swap, lo = change.nonzero()
    met, lo = codes[swap, lo].tolist(), lo.tolist()
    calls = tuple((a, b or len(starts), _FACTORS[c])
                  for a, b, c in zip(lo, lo[1:] + [0], met) if c)
    return starts, ends.take(starts), calls


@lru_cache(maxsize=4096)
def _stretch_map(stretch: tuple, shape: tuple, order_in: tuple, order_out: tuple):
    """A stretch's action on a block of the rows of ``shape``, rows in
    memory order: from a block whose ion axes are in ``order_in`` to one in
    ``order_out``. The simulator's one cache per stretch; None, cached too,
    when the stretch moves a row out of ``shape`` (``_stretch_walk``).
    Otherwise (gather, calls, place) for ``_map_rows``: gather the rows in
    the walk's sorted order, run the calls on their runs of rows, and
    gather the rows into place. An index is None where it is the identity;
    with no factors to run, the first gather does it all."""
    walk = _stretch_walk(stretch, shape)
    if walk is None:
        return None
    starts, ends, calls = walk
    gather = _row_positions(shape, order_in)[starts]
    place = _row_positions(shape, order_out)[ends].argsort()   # the inverse: row i comes from place[i]
    if calls:
        return _frozen(gather), calls, _frozen(place)
    return _frozen(gather[place]), (), None


def _map_rows(block: np.ndarray, spare: np.ndarray, mapped: tuple) -> tuple:
    """Run a stretch's map (``_stretch_map``) on ``block``, rows by columns,
    with ``spare`` a buffer of its shape; returns (block, spare). The factors
    are the calls the whole-space kernel makes on those elements: a sign
    flip on the float view, or a multiply by -i or +i with the factor first."""
    gather, calls, place = mapped
    if gather is not None:
        block, spare = block.take(gather, 0, spare, "clip"), block
    for start, stop, factors in calls:
        part = block[start:stop]
        for factor in factors:
            if factor is _FLIP:
                parts = part.view(np.float64)
                np.negative(parts, out=parts)
            else:
                np.multiply(factor, part, out=part)
    if place is not None:
        block, spare = block.take(place, 0, spare, "clip"), block
    return block, spare


def _maps(steps: list, shape: tuple) -> Optional[list]:
    """Each step's map on the rows of ``shape`` (``_stretch_map``), or ()
    where the step moves no row; None as soon as one stretch leaves ``shape``."""
    maps = []
    for key, order_in, order_out, _ in steps:
        mapped = _stretch_map(key, shape, order_in, order_out) if key or order_in != order_out else ()
        if mapped is None:
            return None
        maps.append(mapped)
    return maps


def _run(pulses: tuple, n_ions: int) -> tuple:
    """The pulse loop; returns the final block in trap order, its axes the
    row shape's (the ions' levels, the phonon) and the 2**n columns, and that
    row shape.

    The pulses other than OneQubit before, between and after the OneQubit
    pulses form stretches, and each runs as one cached map (``_stretch_map``).
    The rows are chosen from those maps before any pulse runs. They are the
    qubit corner, levels {g, e} and phonon 0, when every stretch keeps it:
    each stretch then permutes the qubit rows, each element through the same
    exact factors as on the whole space, and the other rows, zeros there,
    never reach them. Otherwise they are the fixed region the program
    reaches: phonon 1 if it has a phonon pulse, e' of the ions it VPhons.
    Each pulse maps that region into itself, and the rest of the space stays
    zero."""
    nq, trap = 2**n_ions, tuple(range(n_ions))
    # The plan, one step per stretch: its (kind, ion) pairs, the ion axes'
    # memory order before and after it, and the OneQubit pulse after it. A
    # OneQubit pulse runs with its ion's axis leading, where the ion's two
    # level slices are contiguous; on a late ion in trap order they are short
    # strided runs, at two to ten times the cost. The stretch's map moves the
    # axes when a OneQubit pulse needs another ion first, and the last one
    # brings back trap order.
    steps, start, order = [], 0, trap
    for i, pulse in enumerate((*pulses, None)):
        if pulse is None or pulse.kind == "OneQubit":
            new = trap if pulse is None else order if order[0] == pulse.ion else (
                (pulse.ion,) + tuple(k for k in trap if k != pulse.ion))
            steps.append((tuple([(p.kind, p.ion) for p in pulses[start:i]]), order, new, pulse))
            start, order = i + 1, new
    shape = (2,) * n_ions + (1,)
    maps = _maps(steps, shape)
    if maps is None:
        eprime = {p.ion for p in pulses if p.kind.startswith("VPhon")}
        phonon = bool(eprime) or any(p.kind.startswith("WPhon") for p in pulses)
        shape = tuple(LEVELS if k in eprime else 2 for k in trap) + (1 + phonon,)
        maps = _maps(steps, shape)
    block = np.zeros(shape + (nq,), dtype=complex)
    block[(slice(0, 2),) * n_ions + (0,)] = np.eye(nq).reshape((2,) * n_ions + (nq,))
    block = block.reshape(-1, nq)
    spare = np.empty_like(block)
    for (_, _, _, pulse), mapped in zip(steps, maps):
        if mapped:
            block, spare = _map_rows(block, spare, mapped)
        if pulse is not None:
            _pulse_apply(block, pulse, shape[pulse.ion])
    return block.reshape(shape + (nq,)), shape


def simulate_pulse_sequence(seq: PulseSequence, n_ions: int) -> PulseSimResult:
    """Run the sequence on every qubit-subspace basis state (phonon in |0>).

    Returns the induced 2**n x 2**n operator together with the worst residual
    amplitude outside the qubit subspace and the worst phonon excitation. The
    ions are checked before any pulse runs. The pulses run once, on the rows
    ``_run`` chooses; on the qubit corner, nothing leaves the qubit rows, and
    both residuals are 0.0.
    """
    if not 1 <= n_ions <= MAX_IONS:
        raise ValueError(f"n_ions must be in 1..{MAX_IONS}, got {n_ions}")
    pulses = seq.pulses
    bad = next((p.ion for p in pulses if not 0 <= p.ion < n_ions), None)
    if bad is not None:
        raise ValueError(f"ion index {bad} out of range for {n_ions} ions")
    block, shape = _run(pulses, n_ions)
    nq = 2**n_ions
    qubit = (slice(0, 2),) * n_ions + (0,)
    unitary = block[qubit].reshape(nq, nq)
    if shape == (2,) * n_ions + (1,):
        return PulseSimResult(unitary, 0.0, 0.0)
    # The block's rows are in trap-basis order, and a row it lacks holds a zero
    # in the whole space. The axis-0 sums add row by row, where adding +0 changes
    # no bit, so they give the whole space's sums.
    power = np.abs(block) ** 2
    phonon_residual = _worst_norm(power[..., 1:, :])
    power[qubit] = 0.0
    return PulseSimResult(unitary, _worst_norm(power), phonon_residual)


@dataclass(frozen=True)
class CompilationReport:
    ok: bool
    max_deviation: float
    leakage: float
    phonon_residual: float

    def __bool__(self) -> bool:
        return self.ok


def verify_compilation(circuit: Circuit, seq: PulseSequence) -> CompilationReport:
    """Check that the pulse program implements the circuit on the qubit
    subspace up to a global phase (deviation below 1e-10), with no leakage or
    phonon residue (each below 1e-12)."""
    target = circuit_to_unitary(circuit)
    sim = simulate_pulse_sequence(seq, circuit.n_qubits)
    tr = np.trace(target.conj().T @ sim.unitary)
    if abs(tr) < 1e-12:
        deviation = float(np.abs(sim.unitary - target).max())
    else:
        phase = tr / abs(tr)
        deviation = float(np.abs(sim.unitary - phase * target).max())
    ok = deviation < 1e-10 and sim.leakage < 1e-12 and sim.phonon_residual < 1e-12
    return CompilationReport(ok, deviation, sim.leakage, sim.phonon_residual)


def pulses_to_json(seq: PulseSequence) -> list:
    """JSON form of a pulse program, one entry per pulse: base kind plus a
    ``dag`` flag, e.g. ``{"kind": "WPhon", "ion": 0, "dag": false}``; a
    ``OneQubit`` pulse adds its matrix as ``[re, im]`` pairs and its label,
    if it has one."""
    docs = []
    for pulse in seq.pulses:
        dag = pulse.kind.endswith("Dag")
        doc = {"kind": pulse.kind[:-3] if dag else pulse.kind, "ion": pulse.ion, "dag": dag}
        if pulse.kind == "OneQubit":
            doc["matrix"] = [[[float(v.real), float(v.imag)] for v in row] for row in pulse.matrix]
            if pulse.label is not None:
                doc["label"] = pulse.label
        docs.append(doc)
    return docs


def _json_number(value) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    return value


_PACK_2X2 = struct.Struct("<8d").pack
_JSON_NUMBERS = frozenset((int, float))     # the types _json_number takes


def _matrix_bits(matrix) -> Optional[bytes]:
    """The eight numbers of a 2x2 matrix of ``[re, im]`` pairs, packed as
    doubles so that 0.0 and -0.0 differ: the key a ``OneQubit`` matrix is
    checked once by. None for anything else, which the parse reports."""
    try:
        ((a, b), (c, d)), ((e, f), (g, h)) = matrix
        numbers = (a, b, c, d, e, f, g, h)
        return _PACK_2X2(*numbers) if _JSON_NUMBERS.issuperset(map(type, numbers)) else None
    except (TypeError, ValueError, struct.error):    # struct.error: an int past the float range
        return None


@lru_cache(maxsize=4096)
def _checked_matrix(dag: bool, bits: bytes) -> np.ndarray:
    """The read-only pulse matrix of packed numbers (``_matrix_bits``),
    daggered when ``dag`` is set, checked once per process: entries with
    the same ``dag`` and numbers, on any ion and with any label, share it.
    A matrix that is not unitary raises, and is not cached."""
    mat = np.frombuffer(bits, dtype="<c16").reshape(2, 2)
    return Pulse("OneQubit", 0, mat.conj().T if dag else mat).matrix


@lru_cache(maxsize=256)
def _phonon_pulse(kind: str, ion: int) -> Pulse:
    """The pulse of a full kind other than ``OneQubit``, built once per process."""
    return Pulse(kind, ion)


def _parse_entry(doc: dict, kind: str, ion: int, dag: bool, i: int) -> Pulse:
    """The ``Pulse`` of entry ``i``, whose kind, ion and dag are checked. A
    valid ``OneQubit`` entry has one path: a new ``Pulse`` with its label on
    the shared matrix of its ``dag`` and packed numbers. No cache holds a
    label, since a label is text of any length. An entry with no packed
    numbers, or whose label is not a string, always fails: the full parse
    reports the first of a malformed matrix, a label that is not a string
    and a matrix that is not a 2x2 unitary."""
    if kind != "OneQubit":
        full = kind + "Dag" if dag and kind != "VPulse" else kind
        if full not in PULSE_KINDS:
            raise ValueError(f"unknown pulse kind {kind!r} at position {i}")
        return _phonon_pulse(full, ion)
    label = doc.get("label")
    bits = _matrix_bits(doc.get("matrix")) if label is None or type(label) is str else None
    if bits is not None:
        try:
            return Pulse._trusted(ion, _checked_matrix(dag, bits), label)
        except ValueError as exc:
            raise ValueError(f"pulse entry at position {i}: {exc}") from None
    try:
        np.array([[complex(_json_number(re), _json_number(im)) for re, im in row]
                  for row in doc["matrix"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix at position {i}: {exc}") from None
    if label is not None and type(label) is not str:
        raise ValueError(f"pulse entry at position {i} has a 'label' that is not a string")
    # numbers that parse but do not pack are not two rows of two pairs
    raise ValueError(f"pulse entry at position {i}: OneQubit pulse matrix must be a 2x2 unitary")


def pulses_from_json(docs: Sequence[dict]) -> PulseSequence:
    """Parse a pulse program of at most ``MAX_PULSES`` entries, reporting the
    first malformed entry by position. The parse keeps no state of its own:
    each distinct pair of ``dag`` and ``OneQubit`` matrix numbers is built
    and checked once per process (``_checked_matrix``), and each phonon
    pulse is built once (``_phonon_pulse``); both caches are bounded. On
    compiled 3-6-qubit programs a warm parse takes about 87 us per program,
    against 235 us when each distinct entry was built and checked once per
    call, and a cold one, with both caches cleared, 198 us."""
    if not isinstance(docs, list):
        raise ValueError("a pulse program is a list of pulse entries")
    if len(docs) > MAX_PULSES:
        raise ValueError(f"pulse program has {len(docs)} entries; at most {MAX_PULSES} are allowed")
    pulses = []
    for i, doc in enumerate(docs):
        try:
            kind = doc["kind"]
            ion = doc["ion"]
            dag = doc.get("dag", False)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed pulse entry at position {i}: {exc}") from None
        if type(kind) is not str or type(ion) is not int or type(dag) is not bool:
            raise ValueError(f"pulse entry at position {i} needs a string 'kind', "
                             f"an integer 'ion' and a boolean 'dag'")
        pulses.append(_parse_entry(doc, kind, ion, dag, i))
    return PulseSequence(tuple(pulses))
