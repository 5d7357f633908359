"""Gate-level circuit IR shared by the codes, the pulse compiler and the search.

The gate alphabet is deliberately small: the one-qubit rotations U, V, W (and
daggers), the Paulis X and Z, CNOT, and a first-class multi-control
multi-target conditional sign flip (CPHASE). CPHASE is kept as a single node
rather than sugar for a product of two-qubit gates because the pulse backend
lowers it more cheaply as one unit.

Circuits serialize to JSON documents of the form
``{"n": 2, "ops": [{"kind": "CNOT", "controls": [0], "targets": [1]}]}``
(file extension ``.qc.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .states import U, UDAG, V, VDAG, W, WDAG, X, Z, PureState, basis_bits

# Largest register with a dense path (unitaries, pulse simulation); the
# circuit parser rejects larger ones, so every command agrees on what is valid.
MAX_QUBITS = 6
MAX_CIRCUIT_OPS = 20_000    # longest circuit document the parser builds
# longest pulse program the parser builds: every program compile writes for
# a circuit within MAX_CIRCUIT_OPS, at most 2c + k = 11 pulses per op (c + k <= 6)
MAX_PULSES = (2 * MAX_QUBITS - 1) * MAX_CIRCUIT_OPS

SINGLE_QUBIT_KINDS = ("U", "Udag", "V", "Vdag", "W", "Wdag", "X", "Z")
KINDS = SINGLE_QUBIT_KINDS + ("CNOT", "CPHASE")

GATE_MATRICES = {
    "U": U, "Udag": UDAG, "V": V, "Vdag": VDAG,
    "W": W, "Wdag": WDAG, "X": X, "Z": Z,
}

INVERSE_KIND = {
    "U": "Udag", "Udag": "U",
    "V": "Vdag", "Vdag": "V",
    "W": "Wdag", "Wdag": "W",
    "X": "X", "Z": "Z", "CNOT": "CNOT", "CPHASE": "CPHASE",
}


class CircuitFormatError(ValueError):
    """Raised for malformed circuit documents or ill-formed ops."""


@dataclass(frozen=True)
class GateOp:
    kind: str
    targets: tuple
    controls: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        object.__setattr__(self, "controls", tuple(int(q) for q in self.controls))
        if self.kind not in KINDS:
            raise CircuitFormatError(f"unknown gate kind {self.kind!r}")
        if self.kind in SINGLE_QUBIT_KINDS:
            if len(self.targets) != 1 or self.controls:
                raise CircuitFormatError(f"{self.kind} takes exactly one target and no controls")
        elif self.kind == "CNOT":
            if len(self.controls) != 1 or len(self.targets) != 1:
                raise CircuitFormatError("CNOT takes exactly one control and one target")
        else:  # CPHASE
            if not self.controls or not self.targets:
                raise CircuitFormatError("CPHASE needs at least one control and one target")
        touched = self.controls + self.targets
        if len(set(touched)) != len(touched):
            raise CircuitFormatError(f"overlapping control/target in {self.kind} op")

    def qubits(self) -> tuple:
        return self.controls + self.targets

    def inverse(self) -> "GateOp":
        return GateOp(INVERSE_KIND[self.kind], self.targets, self.controls)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for i, op in enumerate(self.ops):
            for q in op.qubits():
                if not 0 <= q < self.n_qubits:
                    raise CircuitFormatError(
                        f"qubit index {q} out of range at op {i} ({op.kind})"
                    )

    @classmethod
    def _trusted(cls, n_qubits: int, ops: tuple) -> "Circuit":
        """Wrap a tuple of ops already range-checked for ``n_qubits``."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "n_qubits", n_qubits)
        object.__setattr__(circuit, "ops", ops)
        return circuit

    def __len__(self) -> int:
        return len(self.ops)


@lru_cache(maxsize=4096)
def _op_kernel(n: int, kind: str, targets: tuple, controls: tuple):
    """Read-only kernel of one op on n qubits: the 2x2 matrix of a one-qubit
    gate, the index permutation of a CNOT (flip the target bit where the
    control is set), or the sign vector of a CPHASE ((-1)**(targets set)
    where every control is set). The op passed ``GateOp`` and ``Circuit``
    validation. On registers of up to 6 qubits there are fewer distinct ops
    than the cache holds."""
    if kind in SINGLE_QUBIT_KINDS:
        kernel = GATE_MATRICES[kind].copy()
    elif kind == "CNOT":
        idx = np.arange(2**n)
        cmask = 1 << (n - 1 - controls[0])
        tmask = 1 << (n - 1 - targets[0])
        kernel = np.where(idx & cmask, idx ^ tmask, idx)
    else:
        bits = basis_bits(n)
        all_controls = bits[:, list(controls)].all(axis=1)
        target_count = bits[:, list(targets)].sum(axis=1)
        kernel = np.where(all_controls, (-1.0) ** target_count, 1.0).astype(complex)
    kernel.flags.writeable = False
    return kernel


def _apply_op_array(amps: np.ndarray, op: GateOp, n: int) -> np.ndarray:
    """Apply one op to an array whose leading axis indexes the basis; trailing
    axes (a block of columns) are carried along."""
    kernel = _op_kernel(n, op.kind, op.targets, op.controls)
    if op.kind in SINGLE_QUBIT_KINDS:
        # axis 1 of the (2**q, 2, rest) view is the target qubit's bit
        return (kernel @ amps.reshape(2 ** op.targets[0], 2, -1)).reshape(amps.shape)
    if op.kind == "CNOT":
        return amps[kernel]
    return amps * kernel.reshape((-1,) + (1,) * (amps.ndim - 1))


def apply_circuit_array(circuit: Circuit, amps: np.ndarray) -> np.ndarray:
    """Run the circuit on a basis-indexed array: one state or a block of columns."""
    for op in circuit.ops:
        amps = _apply_op_array(amps, op, circuit.n_qubits)
    return amps


def apply_circuit(circuit: Circuit, state: PureState) -> PureState:
    """Run the circuit on a state, op by op in list order."""
    if state.n_qubits != circuit.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits but circuit expects {circuit.n_qubits}"
        )
    return PureState(circuit.n_qubits, apply_circuit_array(circuit, state.amplitudes))


def circuit_to_unitary(circuit: Circuit) -> np.ndarray:
    """Full ``2**n x 2**n`` matrix: the product of op matrices in application order."""
    if circuit.n_qubits > MAX_QUBITS:
        raise ValueError(f"dense unitary construction is limited to {MAX_QUBITS} qubits")
    return apply_circuit_array(circuit, np.eye(2**circuit.n_qubits, dtype=complex))


def invert_circuit(circuit: Circuit) -> Circuit:
    """Reverse the op order and replace each op by its inverse kind."""
    return Circuit(circuit.n_qubits, tuple(op.inverse() for op in reversed(circuit.ops)))


def op_to_dict(op: GateOp) -> dict:
    doc = {"kind": op.kind, "targets": list(op.targets)}
    if op.controls:
        doc["controls"] = list(op.controls)
    return doc


def circuit_to_dict(circuit: Circuit) -> dict:
    return {"n": circuit.n_qubits, "ops": [op_to_dict(op) for op in circuit.ops]}


def serialize_circuit(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=2)


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``1.7`` are not qubit indices."""
    return type(value) is int


def _op_from_dict(doc: dict, position: int) -> GateOp:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise CircuitFormatError(f"op {position} is not an object with a 'kind'")
    qubits = {}
    for key in ("targets", "controls"):
        value = doc.get(key, [])
        if not isinstance(value, list) or not all(_is_int(q) for q in value):
            raise CircuitFormatError(f"{key} must be a list of integers, got {value!r} at op {position}")
        qubits[key] = tuple(value)
    try:
        return GateOp(doc["kind"], qubits["targets"], qubits["controls"])
    except CircuitFormatError as exc:
        raise CircuitFormatError(f"{exc} at op {position}") from None


def circuit_from_dict(doc: dict) -> Circuit:
    if not isinstance(doc, dict) or "n" not in doc or "ops" not in doc:
        raise CircuitFormatError("circuit document needs top-level 'n' and 'ops'")
    if not _is_int(doc["n"]) or doc["n"] < 1:
        raise CircuitFormatError(f"'n' must be a positive integer, got {doc['n']!r}")
    if doc["n"] > MAX_QUBITS:
        raise CircuitFormatError(f"'n' is {doc['n']}; registers are limited to {MAX_QUBITS} qubits")
    if not isinstance(doc["ops"], list):
        raise CircuitFormatError(f"'ops' must be a list, got {doc['ops']!r}")
    if len(doc["ops"]) > MAX_CIRCUIT_OPS:
        raise CircuitFormatError(f"circuit has {len(doc['ops'])} ops; at most {MAX_CIRCUIT_OPS} are allowed")
    return Circuit(doc["n"], tuple(_op_from_dict(op_doc, i) for i, op_doc in enumerate(doc["ops"])))


def load_json(text: str):
    """The JSON value of an input file's ``text``; a syntax error is an
    ``invalid JSON:`` format error, for circuit and pulse files alike."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"invalid JSON: {exc}") from None


def parse_circuit(text: str) -> Circuit:
    return circuit_from_dict(load_json(text))
