"""Any JSON value fed to the circuit and pulse parsers yields either a parsed
object or the documented error type, never another exception; any input file
or argv given to the CLI yields a result or one ``error:`` line."""

import argparse
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from qeclab.circuits import MAX_QUBITS, Circuit, CircuitFormatError, GateOp, parse_circuit, serialize_circuit
from qeclab.cli import MAX_TRIALS, build_parser, main
from qeclab.iontrap import MAX_IONS, PULSE_KINDS, PulseSequence, compile_circuit, pulses_from_json, pulses_to_json
from qeclab.noise import MAX_REPETITIONS, MAX_SHOTS, MAX_STEPS
from qeclab.search import MAX_OPS

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


# argv for every subcommand, built from the parser's own flags: valid,
# boundary and junk values, with flags dropped and unknown ones added. Counts
# that set the work come from small ranges; each cap is drawn one past its
# upper value, which is refused before anything runs. A word "@name" is the
# file or directory "name" in the example's temporary directory, which is
# also the working directory: junk holds no "/", so whatever a command writes
# stays in there.
CAPPED = {"trials": MAX_TRIALS, "n": MAX_REPETITIONS, "shots": MAX_SHOTS, "steps": MAX_STEPS,
          "max_ops": MAX_OPS, "ions": MAX_IONS}
SMALL = {"budget": (1, 4), "restarts": (1, 3), "trials": (1, 2), "n": (1, 3), "shots": (2, 40),
         "steps": (2, 4), "max_ops": (1, 12), "ions": (1, MAX_IONS), "seed": (0, 2**64)}
TEXTS = {"circuit": ["@circuit"], "encoder": ["@circuit"], "start": ["@circuit", "reference"],
         "pulses": ["@pulses"], "alpha": ["0.6", "1", "0", "1e308", "nan"], "beta": ["0.8j", "1j", "0", "-1e308"],
         "alphabet": ["U,V,CPHASE", "X", "CNOT", "bogus", ""]}
JUNK = (st.text(st.characters(blacklist_characters="/"), max_size=6) | st.sampled_from(["", "-1", "0", "1e400", "nan", "inf", "0x10", "--", "x\ny",
                                               "@missing", "@dir", "@dir/missing/x", "@circuit", "@pulses"]))


def _values(action):
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    low, high = SMALL.get(action.dest, (-2, 3))
    if action.type is int:
        return (st.integers(low, high) | st.sampled_from([low - 1, CAPPED.get(action.dest, high) + 1])).map(str)
    if action.type is float:
        return st.floats(0, 3).map(repr) | st.sampled_from(["-1", "1e308", "nan", "inf"])
    return st.sampled_from(TEXTS.get(action.dest, ["@out"]))


def _flag(action):
    """The flag and its values, or nothing: a required flag is dropped one time in four."""
    value = st.one_of(_values(action), _values(action), JUNK)       # junk one time in three
    values = st.just([]) if action.nargs == 0 else st.lists(
        value, min_size=1, max_size=3 if action.nargs == "+" else 1)
    flag = values.map(lambda v: [action.option_strings[-1], *v])
    return st.sampled_from([True, True, True, False] if action.required else [True, False]).flatmap(
        lambda keep: flag if keep else st.just([]))


def _argv(name, parser):
    parts = [_flag(a) for a in parser._actions if a.option_strings and a.dest != "help"]
    extra = st.lists(st.sampled_from(["--bogus", "-x", "x"]) | JUNK, max_size=1)
    return st.tuples(*parts, extra).map(lambda ps: [name, *(word for part in ps for word in part)])


(SUBCOMMANDS,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
ARGV = st.one_of(*(_argv(name, parser) for name, parser in SUBCOMMANDS.items())) | st.lists(JUNK, max_size=2)
ARGV_CIRCUIT = Circuit(3, (GateOp("U", (0,)), GateOp("CNOT", (2,), (0,)), GateOp("CPHASE", (1, 2), (0,))))


@settings(max_examples=300, deadline=None)
@given(ARGV)
def test_any_argv_gives_a_result_or_one_error_line(argv):
    """Exit 0, 2 or 3 and no traceback; a nonzero exit prints exactly one
    ``error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "circuit").write_text(serialize_circuit(ARGV_CIRCUIT))
        (Path(tmp) / "pulses").write_text(json.dumps(pulses_to_json(compile_circuit(ARGV_CIRCUIT))))
        (Path(tmp) / "dir").mkdir()
        argv = [tmp + "/" + word[1:] if word.startswith("@") else word for word in argv]
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:       # --help, or a prefix of it, prints the usage
            code = exc.code
            assert code == 0 and out.getvalue().startswith("usage:")
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
