"""Command-line surface for the lab.

Subcommands:

    verify-code      codeword, correction-condition and syndrome-table report
    compile          lower a circuit file to laser pulses and count them
    simulate-pulses  run a pulse file on the trap model and report residuals
    noise            coherence of a protection scheme at given times (CSV)
    figure5          full coherence-curve CSV for all schemes
    search           randomized hunt for cheap valid encoders

Exit codes: 0 success, 2 validation failure, 3 I/O error. The environment
variable QECC_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from .circuits import MAX_CIRCUIT_OPS, CircuitFormatError, GateOp, load_json, parse_circuit, serialize_circuit
from .codes import (
    build_syndrome_table,
    check_knill_laflamme,
    decode_and_correct,
    encode,
    apply_error,
    encoder_alignment_error,
    five_qubit_code,
    three_qubit_phase_code,
    two_qubit_zeno_code,
)
from .iontrap import (
    compile_circuit,
    compile_op,
    op_pulse_cost,
    pulses_to_json,
    pulses_from_json,
    simulate_pulse_sequence,
    verify_compilation,
)
from .noise import (
    IPLUS,
    PLUS,
    CoherenceCurve,
    CurveSample,
    Scheme,
    curves_to_csv,
    figure5_data,
    mc_estimates,
    scheme_coherences,
)
from .search import VALIDITY_MODES, SearchConfig, is_valid_perfect_code, pulse_cost, search
from .states import PureState, fidelity

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3

MAX_TRIALS = 1000

# Input files larger than these are refused before they are read. Per op,
# serialize_circuit spells at most 157 bytes (a six-qubit CPHASE; 243
# at indent=4) and compile --out at most 455 (a CNOT: two OneQubit entries
# and three phonon pulses), so every file they write within MAX_CIRCUIT_OPS,
# and a circuit file re-indented by hand, loads.
MAX_CIRCUIT_BYTES = 300 * MAX_CIRCUIT_OPS
MAX_PULSE_BYTES = 800 * MAX_CIRCUIT_OPS

_CODES = {
    "five-qubit": five_qubit_code,
    "phase3": three_qubit_phase_code,
    "zeno2": two_qubit_zeno_code,
}


def _default_seed() -> int:
    raw = os.environ.get("QECC_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise ValueError(f"QECC_SEED must be a nonnegative integer, got {raw!r}")
    return seed


def _load(path: str, max_bytes: int, parse):
    """``parse`` of the text of input file ``path``. A file of more than
    ``max_bytes`` is refused before it is read, and a document nested past
    the recursion limit is an input error, not a traceback."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            data = fh.read(size + 1) if size <= max_bytes else None
            # a pipe reads size 0, and a file may have grown since: read on,
            # to at most one byte past the cap
            if data is not None and (size == 0 or len(data) > size):
                data += fh.read(max_bytes - size)
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc}") from None
    if data is None or len(data) > max_bytes:
        raise ValueError(f"{path} has more than {max_bytes} bytes, the limit for this input")
    try:
        # newlines as text mode reads them, so a JSON error names the same line and column
        return parse(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except RecursionError:
        raise ValueError(f"{path} nests too deeply to parse") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from None


class _IOFailure(Exception):
    pass


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Raw(str):
    """JSON text already spelled for its place in a report, printed as is."""


def _json_pieces(value, out: list, indent: str) -> None:
    """Append the text ``json.dumps(value, indent=2, sort_keys=True)`` gives
    ``value`` at nesting ``indent`` (a newline and its spaces) to ``out``.
    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder; this
    one pass spells every scalar the way it does, in under half the time:
    ``repr`` of exact floats and ints, NaN and Infinity, ASCII escapes,
    sorted keys. It stays because ``json.dumps(..., indent=2)`` is slower
    (it takes twice as long to spell a 6-ion ``simulate-pulses --unitary``
    report) and each of its calls also leaves 33 cyclic objects for the
    garbage collector."""
    kind = type(value)
    if kind is float:
        text = repr(value)
        out.append(_NON_FINITE.get(text, text))
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json_pieces(item, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_pieces(item, out, inner)
            sep = "," + inner
        out.append(indent + "}")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif kind is int:
        out.append(repr(value))
    elif kind is _Raw:
        out.append(value)
    else:   # tuples, subclasses, NumPy scalars, non-string keys: json's own spelling (or TypeError)
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", indent))


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, the same bytes."""
    out = []
    _json_pieces(doc, out, "\n")
    return "".join(out)


def _emit(doc: dict) -> None:
    print(_dumps(doc))


# A report's list entries under a top-level key start on a new line, four
# spaces in.
_ENTRY = "\n    "


def _raw_list(entries: list) -> _Raw:
    """A top-level key's list value, from entries (or runs of them joined
    at ``_ENTRY``) spelled at ``_ENTRY``."""
    if not entries:
        return _Raw("[]")
    return _Raw("[" + _ENTRY + ("," + _ENTRY).join(entries) + "\n  ]")


@lru_cache(maxsize=4096)
def _op_texts(op: GateOp) -> tuple:
    """What ``compile`` prints and writes for one op: its entry in the
    report's ``per_gate`` list, its pulses' entries in the report's
    ``pulses`` list joined at ``_ENTRY``, and their compact ``--out`` text
    joined with ``,``. They depend on the op alone, so they are cached per
    op for the process, like ``compile_op``."""
    gate = []
    _json_pieces({"kind": op.kind, "controls": list(op.controls), "targets": list(op.targets),
                  "pulses": op_pulse_cost(op)}, gate, _ENTRY)
    docs = pulses_to_json(compile_op(op))
    pulses = []
    _json_pieces(docs, pulses, "\n  ")         # "[" + _ENTRY, the entries joined at _ENTRY, "\n  ]"
    return "".join(gate), "".join(pulses[1:-1]), json.dumps(docs, separators=(",", ":"))[1:-1]


def cmd_verify_code(args) -> int:
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ValueError(f"--trials must be in 1..{MAX_TRIALS} (got {args.trials})")
    factory = _CODES[args.code]
    if args.encoder is not None:
        if args.code != "five-qubit":
            raise ValueError("--encoder is only supported for the five-qubit code")
        encoder = _load(args.encoder, MAX_CIRCUIT_BYTES, parse_circuit)
        try:
            code = five_qubit_code(encoder=encoder)
        except ValueError as exc:
            # still report what went wrong at the codeword level
            validity = is_valid_perfect_code(encoder)
            _emit({
                "code": args.code,
                "valid": False,
                "reason": str(exc),
                "kl_ok": bool(validity.valid),
                "worst_violation": validity.violation,
            })
            return EXIT_VALIDATION
    else:
        code = factory()

    report = {"code": args.code, "n_physical": code.n_physical}
    if code.encoder is not None:
        report["encoder_alignment_error"] = encoder_alignment_error(code)
        report["encoder_ops"] = len(code.encoder.ops)
        report["encoder_pulse_cost"] = pulse_cost(code.encoder)

    kl = check_knill_laflamme(code, code.error_classes)
    report["knill_laflamme"] = {
        "ok": bool(kl.ok),
        "worst_violation": kl.worst_violation,
        "error_classes": [e.label() for e in code.error_classes],
    }

    if code.detection_only:
        report["detection_only"] = True
        report["note"] = ("this code only detects errors; decoding applies no "
                          "correction, so no syndrome table is produced")
        report["valid"] = bool(kl.ok)
        _emit(report)
        return EXIT_OK

    table = build_syndrome_table(code)
    report["syndrome_table"] = table.corrections

    rng = np.random.default_rng(args.seed)
    fidelities = {}
    worst = 1.0
    for error in code.error_classes:
        f_min = 1.0
        for _ in range(args.trials):
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = PureState(1, raw / np.linalg.norm(raw))
            corrupted = apply_error(encode(code, psi), error)
            recovered, _ = decode_and_correct(code, table, corrupted, rng=rng)
            f_min = min(f_min, fidelity(recovered, psi))
        fidelities[error.label()] = f_min
        worst = min(worst, f_min)
    report["error_fidelities"] = fidelities
    report["worst_fidelity"] = worst
    report["valid"] = bool(kl.ok) and worst >= 1.0 - 1e-10
    _emit(report)
    return EXIT_OK if report["valid"] else EXIT_VALIDATION


def cmd_compile(args) -> int:
    circuit = _load(args.circuit, MAX_CIRCUIT_BYTES, parse_circuit)
    seq = compile_circuit(circuit)
    doc = {"n_qubits": circuit.n_qubits, "total_pulses": seq.cost}
    if args.report == "full" or args.out is not None:
        texts = [_op_texts(op) for op in circuit.ops]
    if args.report == "full":
        doc["per_gate"] = _raw_list([gate for gate, _, _ in texts])
        check = verify_compilation(circuit, seq)
        doc["verified"] = bool(check.ok)
        doc["max_deviation"] = check.max_deviation
        doc["leakage"] = check.leakage
        doc["phonon_residual"] = check.phonon_residual
        doc["pulses"] = _raw_list([pulses for _, pulses, _ in texts])
    if args.out is not None:
        _write_text(args.out, "[" + ",".join(compact for _, _, compact in texts) + "]")
        doc["pulse_file"] = args.out
    _emit(doc)
    return EXIT_OK


def cmd_simulate_pulses(args) -> int:
    seq = _load(args.pulses, MAX_PULSE_BYTES, lambda text: pulses_from_json(load_json(text)))
    result = simulate_pulse_sequence(seq, args.ions)
    doc = {
        "n_ions": args.ions,
        "n_pulses": seq.cost,
        "leakage": result.leakage,
        "phonon_residual": result.phonon_residual,
    }
    if args.unitary:
        u = result.unitary
        doc["unitary"] = np.stack((u.real, u.imag), axis=-1).tolist()
    _emit(doc)
    return EXIT_OK


def _complex_flag(flag: str, text: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise ValueError(f"{flag} must be a complex number, got {text!r}") from None


def _psi_from_args(args) -> PureState:
    if args.psi == "plus":
        return PLUS
    if args.psi == "iplus":
        return IPLUS
    if args.alpha is None or args.beta is None:
        raise ValueError("--psi custom needs --alpha and --beta")
    parts = np.array([_complex_flag("--alpha", args.alpha),
                      _complex_flag("--beta", args.beta)]).view(float)    # re, im, re, im
    if not np.isfinite(parts).all():
        raise ValueError("custom amplitudes must be finite")
    # Scale by the power of two just above the largest part: exact, so the
    # normalised state is bit for bit the unscaled one, and the norm of
    # amplitudes near 1e308 no longer overflows.
    exponent = np.frexp(np.abs(parts).max())[1]
    amps = np.ldexp(parts, -exponent).view(complex)
    norm = np.linalg.norm(amps)
    if np.ldexp(norm, min(exponent, 0)) < 1e-12:      # the true norm wherever it is below 1/2
        raise ValueError("custom state has zero norm")
    psi = PureState(1, amps / norm)
    if abs(psi.amplitudes[0]) < 1e-9 or abs(psi.amplitudes[1]) < 1e-9:
        raise ValueError(
            "basis states have no off-diagonal coherence to track; "
            "pick a superposition input"
        )
    return psi


def cmd_noise(args) -> int:
    psi = _psi_from_args(args)
    scheme = Scheme(args.scheme, args.n)
    estimates = None
    if args.shots is not None:
        estimates = mc_estimates([(scheme, psi, t, args.seed) for t in args.t], args.shots)
    samples = []
    for t, c_exact in zip(args.t, scheme_coherences(scheme, psi, args.t).tolist()):
        c_mc, stderr = (None, None) if estimates is None else next(estimates)
        samples.append(CurveSample(t, c_exact, c_mc, stderr))
    print(curves_to_csv([CoherenceCurve(scheme.kind, scheme.repetitions, tuple(samples))]), end="")
    return EXIT_OK


def cmd_figure5(args) -> int:
    curves = figure5_data(args.tmax, args.steps, shots=args.shots, seed=args.seed)
    csv_text = curves_to_csv(curves)
    _write_text(args.out, csv_text)
    print(f"wrote {args.out}: {sum(len(c.samples) for c in curves)} rows")
    return EXIT_OK


def cmd_search(args) -> int:
    start = None
    if args.start == "reference":
        start = five_qubit_code().encoder
    elif args.start is not None:
        start = _load(args.start, MAX_CIRCUIT_BYTES, parse_circuit)
    alphabet = tuple(args.alphabet.split(",")) if args.alphabet is not None else SearchConfig().alphabet
    cfg = SearchConfig(
        alphabet=alphabet,
        max_ops=args.max_ops,
        budget=args.budget,
        restarts=args.restarts,
        seed=args.seed,
        start=start,
        validity_mode=args.mode,
    )
    result = search(cfg)
    doc = result.to_dict()
    if result.best is not None and args.out is not None:
        _write_text(args.out, serialize_circuit(result.best.circuit))
        doc["circuit_file"] = args.out
    _emit(doc)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors, in any subcommand, end as one ``error:`` line, exit 2."""
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qeclab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-code", help="validate a code and print its report")
    p.add_argument("--code", choices=sorted(_CODES), required=True)
    p.add_argument("--encoder", help="alternative encoder circuit (.qc.json)")
    p.add_argument("--trials", type=int, default=5, help="random inputs per error class")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify_code)

    p = sub.add_parser("compile", help="lower a circuit to laser pulses")
    p.add_argument("--circuit", required=True, help="circuit file (.qc.json)")
    p.add_argument("--report", choices=("count", "full"), default="count")
    p.add_argument("--out", help="write the pulse program to this JSON file")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate-pulses", help="run a pulse program on the trap model")
    p.add_argument("--pulses", required=True, help="pulse program JSON file")
    p.add_argument("--ions", type=int, required=True)
    p.add_argument("--unitary", action="store_true", help="include the induced operator")
    p.set_defaults(func=cmd_simulate_pulses)

    p = sub.add_parser("noise", help="coherence of a scheme under phase diffusion")
    p.add_argument("--scheme", choices=("uncoded", "zeno2", "phase3"), required=True)
    p.add_argument("--t", type=float, nargs="+", required=True)
    p.add_argument("--n", type=int, default=1, help="evenly spaced repetitions")
    p.add_argument("--psi", choices=("plus", "iplus", "custom"), default="iplus")
    p.add_argument("--alpha", help="custom amplitude for |0>, e.g. 0.6")
    p.add_argument("--beta", help="custom amplitude for |1>, e.g. 0.8j")
    p.add_argument("--shots", type=int, help="add a Monte-Carlo column with this many trajectories")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("figure5", help="write the coherence-curve CSV")
    p.add_argument("--tmax", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=60)
    p.add_argument("--out", required=True)
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_figure5)

    p = sub.add_parser("search", help="randomized search for cheap encoders")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--max-ops", type=int, default=40)
    p.add_argument("--seed", type=int)
    p.add_argument("--start", help="'reference' or a circuit file to seed the climb")
    p.add_argument("--alphabet", help="comma-separated gate kinds")
    p.add_argument("--mode", choices=VALIDITY_MODES, default="auto")
    p.add_argument("--out", help="write the best valid circuit here (.qc.json)")
    p.set_defaults(func=cmd_search)
    return parser


# the characters str.splitlines breaks at, as escapes
_ONE_LINE = str.maketrans({c: ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def main(argv=None) -> int:
    try:
        seed = _default_seed()          # read on every call, and checked for every command
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:
            args.seed = seed
        elif getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone (``| head``); the final flush at exit goes to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except (_IOFailure, CircuitFormatError, ValueError, KeyError) as exc:
        # one line, though the message quotes a path or an argument with a line break in it
        print(f"error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, _IOFailure) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
