"""Any JSON value fed to the circuit and pulse parsers yields either a parsed
object or the documented error type, never another exception."""

import json

from hypothesis import given, settings, strategies as st

from qeclab.circuits import MAX_QUBITS, Circuit, CircuitFormatError, parse_circuit
from qeclab.iontrap import PULSE_KINDS, PulseSequence, pulses_from_json

SCALARS = (st.none() | st.booleans() | st.integers(-3, 8)
           | st.floats(-2, 2, allow_nan=False) | st.sampled_from(["X", "CNOT", "OneQubit", "a"]))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=12)
QUBITS = st.lists(SCALARS, max_size=3) | JSON

OP = st.fixed_dictionaries({"kind": st.sampled_from(["X", "U", "CNOT", "CPHASE"]) | JSON},
                           optional={"targets": QUBITS, "controls": QUBITS})
CIRCUIT = st.fixed_dictionaries({"n": st.integers(0, 4) | SCALARS, "ops": st.lists(OP, max_size=4) | JSON})

PAIR = st.lists(SCALARS, min_size=2, max_size=2) | JSON
PULSE = st.fixed_dictionaries(
    {"kind": st.sampled_from(PULSE_KINDS + ("WPhon",)) | JSON, "ion": st.integers(-1, 3) | SCALARS},
    optional={"dag": st.booleans() | SCALARS,
              "matrix": st.lists(st.lists(PAIR, max_size=3), max_size=3) | JSON})


@settings(max_examples=150, deadline=None)
@given(CIRCUIT | JSON)
def test_circuit_parser_returns_a_circuit_or_a_format_error(doc):
    try:
        circuit = parse_circuit(json.dumps(doc))
    except CircuitFormatError:
        return
    assert isinstance(circuit, Circuit)
    assert type(circuit.n_qubits) is int and 1 <= circuit.n_qubits <= MAX_QUBITS
    assert all(type(q) is int for op in circuit.ops for q in op.qubits())


@settings(max_examples=150, deadline=None)
@given(st.lists(PULSE, max_size=4) | JSON)
def test_pulse_parser_returns_a_sequence_or_a_value_error(docs):
    try:
        seq = pulses_from_json(docs)
    except ValueError:
        return
    assert isinstance(seq, PulseSequence)
    assert all(type(p.ion) is int for p in seq.pulses)
