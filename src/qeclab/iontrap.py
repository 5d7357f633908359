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


def _check_ion(ion: int, n_ions: int) -> None:
    if not 0 <= ion < n_ions:
        raise ValueError(f"ion index {ion} out of range for {n_ions} ions")


def _pulse_apply(block: np.ndarray, pulse: Pulse, shape: tuple, axis: int) -> None:
    """Apply a pulse in place to a C-contiguous block whose leading axes are
    ``shape``: the ions of a corner of the trap basis, 2 (g, e) or 3 (and e')
    levels each, in any order, then 1 or 2 phonon states. ``axis`` is the
    pulsed ion's. Trailing axes (columns) are carried."""
    # axis 1 is the ion's level, axis 3 the phonon
    v = block.reshape(prod(shape[:axis]), shape[axis], prod(shape[axis + 1:-1]), shape[-1], -1)
    if pulse.kind == "VPulse":
        if shape[-1] == PHONON_DIM:         # with phonon 0 only, nothing to flip
            parts = v[:, G, :, 1].view(np.float64)  # the same sign flips, in NumPy's faster real loop
            np.negative(parts, out=parts)
    elif pulse.kind == "OneQubit":
        # r00 a_g + r01 a_e and r10 a_g + r11 a_e; the matrix entry stays the
        # first factor of every product, so the rounding never depends on order
        rot, a_g, a_e = pulse.matrix, v[:, G], v[:, E]
        from_e, from_g = rot[0, 1] * a_e, rot[1, 0] * a_g
        np.multiply(rot[0, 0], a_g, out=a_g)
        a_g += from_e
        np.multiply(rot[1, 1], a_e, out=a_e)
        a_e += from_g
    else:  # |g,1> <-> |e,0> (WPhon) or |e',0> (VPhon), times -i (+i daggered)
        factor = 1j if pulse.kind.endswith("Dag") else -1j
        g1, x0 = v[:, G, :, 1], v[:, E if pulse.kind.startswith("W") else EPRIME, :, 0]
        swapped = factor * g1
        np.multiply(factor, x0, out=g1)
        x0[...] = swapped


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


def _reorder(block: np.ndarray, out: np.ndarray, order: tuple, new: tuple) -> np.ndarray:
    """Copy ``block``, its ion axes in memory order ``order``, into the memory
    of ``out`` with them in order ``new``; the phonon and columns stay last."""
    n = len(order)
    moved = block.transpose([order.index(k) for k in new] + [n, n + 1])
    out = out.reshape(moved.shape)
    np.copyto(out, moved)
    return out


def simulate_pulse_sequence(seq: PulseSequence, n_ions: int) -> PulseSimResult:
    """Run the sequence on every qubit-subspace basis state (phonon in |0>).

    Returns the induced 2**n x 2**n operator together with the worst residual
    amplitude outside the qubit subspace and the worst phonon excitation.
    """
    if not 1 <= n_ions <= MAX_IONS:
        raise ValueError(f"n_ions must be in 1..{MAX_IONS}, got {n_ions}")
    # The pulses run on the corner of the trap basis the program reaches:
    # phonon 1 if it has a phonon pulse, e' of the ions it VPhons. Each pulse
    # maps that corner into itself, and the rest of the space stays empty.
    eprime = {p.ion for p in seq.pulses if p.kind.startswith("VPhon")}
    phonon = bool(eprime) or any(p.kind.startswith("WPhon") for p in seq.pulses)
    region = tuple(LEVELS if k in eprime else 2 for k in range(n_ions)) + (1 + phonon,)
    nq = 2**n_ions
    block = np.zeros(region + (nq,), dtype=complex)
    qubit = (slice(0, 2),) * n_ions + (0,)
    block[qubit] = np.eye(nq).reshape((2,) * n_ions + (nq,))
    # A OneQubit pulse runs with its ion's axis leading, where the ion's two
    # level slices are contiguous; on a late ion in trap order they are short
    # strided runs, at two to ten times the cost. The axes move, by one copy into
    # the spare block, only when a OneQubit pulse needs another ion first.
    # Every element still goes through the same arithmetic.
    order = tuple(range(n_ions))        # the ion axes in memory order
    spare = np.empty_like(block)
    for pulse in seq.pulses:
        _check_ion(pulse.ion, n_ions)
        if pulse.kind == "OneQubit" and order[0] != pulse.ion:
            new = (pulse.ion,) + tuple(k for k in range(n_ions) if k != pulse.ion)
            block, spare, order = _reorder(block, spare, order, new), block, new
        _pulse_apply(block, pulse, block.shape[:-1], order.index(pulse.ion))
    if order[0] != 0:
        block = _reorder(block, spare, order, tuple(range(n_ions)))
    # The block's rows are in trap-basis order, so its column sums add the
    # same nonzero terms, in the same order, as sums over the whole space.
    power = np.abs(block) ** 2
    phonon_residual = _worst_norm(power[..., 1:, :])
    power[qubit] = 0.0
    return PulseSimResult(block[qubit].reshape(nq, nq), _worst_norm(power), phonon_residual)


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


def _matrix_bits(matrix) -> Optional[bytes]:
    """The eight numbers of a 2x2 matrix of ``[re, im]`` pairs, packed as
    doubles so that 0.0 and -0.0 differ: the key a repeated ``OneQubit``
    matrix is shared by. None for anything else, which the parse reports."""
    try:
        ((a, b), (c, d)), ((e, f), (g, h)) = matrix
        return _PACK_2X2(*map(_json_number, (a, b, c, d, e, f, g, h)))
    except (TypeError, ValueError, struct.error):    # struct.error: an int past the float range
        return None


def _parse_entry(doc: dict, kind: str, ion: int, dag: bool, i: int) -> Pulse:
    """The ``Pulse`` of entry ``i``, whose kind, ion and dag are checked."""
    if kind != "OneQubit":
        full = kind + "Dag" if dag and kind != "VPulse" else kind
        if full not in PULSE_KINDS:
            raise ValueError(f"unknown pulse kind {kind!r} at position {i}")
        return Pulse(full, ion)
    try:
        mat = np.array([[complex(_json_number(re), _json_number(im)) for re, im in row]
                        for row in doc["matrix"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix at position {i}: {exc}") from None
    label = doc.get("label")
    if label is not None and type(label) is not str:
        raise ValueError(f"pulse entry at position {i} has a 'label' that is not a string")
    try:
        return Pulse("OneQubit", ion, mat.conj().T if dag else mat, label=label)
    except ValueError as exc:
        raise ValueError(f"pulse entry at position {i}: {exc}") from None


def pulses_from_json(docs: Sequence[dict]) -> PulseSequence:
    """Parse a pulse program of at most ``MAX_PULSES`` entries, reporting the
    first malformed entry by position. Each distinct entry is built, and a
    ``OneQubit`` matrix checked, once per call: a repeat of (kind, ion, dag),
    with the same label and matrix numbers for ``OneQubit``, shares that
    ``Pulse`` without building its matrix again."""
    if not isinstance(docs, list):
        raise ValueError("a pulse program is a list of pulse entries")
    if len(docs) > MAX_PULSES:
        raise ValueError(f"pulse program has {len(docs)} entries; at most {MAX_PULSES} are allowed")
    pulses = []
    built = {}
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
        key = (kind, ion, dag)
        if kind == "OneQubit":
            label = doc.get("label")
            bits = _matrix_bits(doc.get("matrix"))
            # an entry the full parse would reject gets no key, and so no share
            key = (kind, ion, dag, label, bits) if bits is not None and (
                label is None or type(label) is str) else None
        pulse = built.get(key)
        if pulse is None:
            pulse = _parse_entry(doc, kind, ion, dag, i)
            if key is not None:
                built[key] = pulse
        pulses.append(pulse)
    return PulseSequence(tuple(pulses))
