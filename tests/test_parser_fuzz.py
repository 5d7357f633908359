"""Any JSON value fed to the circuit and pulse parsers yields either a parsed
object or the documented error type, never another exception; any input file
given to the CLI yields a report or one ``error:`` line."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from qeclab.circuits import MAX_QUBITS, Circuit, CircuitFormatError, parse_circuit
from qeclab.cli import main
from qeclab.iontrap import PULSE_KINDS, PulseSequence, pulses_from_json

from conftest import FILE_COMMANDS

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


# nested lists in each place a document holds a value, up to past the recursion limit
NESTED = st.builds(
    lambda slot, depth: slot.replace("%", "[" * depth + "]" * depth),
    st.sampled_from(["%", '{"n": %, "ops": []}', '{"n": 2, "ops": %}',
                     '{"n": 2, "ops": [{"kind": "X", "targets": %}]}',
                     '[{"kind": %, "ion": 0}]', '[{"kind": "OneQubit", "ion": 0, "matrix": [[%]]}]',
                     '[{"kind": "OneQubit", "ion": 0, "label": %, '
                     '"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]']),
    st.integers(0, 1500))
FILE_TEXTS = (st.one_of(CIRCUIT, st.lists(PULSE, max_size=4), JSON).map(json.dumps)
              | NESTED | st.text(max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FILE_COMMANDS), FILE_TEXTS)
@example(FILE_COMMANDS[0], "[" * 2000)
@example(FILE_COMMANDS[1], "[" * 2000)
@example(FILE_COMMANDS[2], "[" * 2000)
@example(FILE_COMMANDS[3], "[" * 2000)
def test_cli_input_file_gives_a_report_or_one_error_line(argv, text):
    """Exit 0 or 2, never a traceback; an error is one ``error:`` line on
    stderr and nothing on stdout, and otherwise stdout holds the JSON report.
    2,000 nested lists used to end in a RecursionError traceback, exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
    assert code in (0, 2)
    if err.getvalue():
        lines = err.getvalue().splitlines()
        assert code == 2 and out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        assert isinstance(json.loads(out.getvalue()), dict)
