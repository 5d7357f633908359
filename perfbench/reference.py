"""Independent references for checking what the qeclab CLI prints.

Nothing here imports qeclab: the checks must stay valid while the program's
own kernels (KL check, pulse cost, MC route, pulse simulation) are replaced.
Circuits are handled in their JSON document form,
``{"n": 5, "ops": [{"kind": "CNOT", "controls": [0], "targets": [1]}]}``,
with qubit 0 the most significant bit of a basis index.

Each ``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import math

import numpy as np

ONE_QUBIT_KINDS = ("U", "Udag", "V", "Vdag", "W", "Wdag", "X", "Z")

_S = 1 / math.sqrt(2)
_U = np.array([[1, -1], [1, 1]], dtype=complex) * _S
_V = np.array([[1, -1j], [-1j, 1]], dtype=complex) * _S
_W = _V @ _U.conj().T
GATES = {
    "U": _U, "Udag": _U.conj().T,
    "V": _V, "Vdag": _V.conj().T,
    "W": _W, "Wdag": _W.conj().T,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULIS = {
    "X": GATES["X"],
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": GATES["Z"],
}

# The five-qubit encoder qeclab ships (data qubit 0, ancillas 1-4), kept here
# as data so that the pulse-law and KL references need nothing from qeclab.
SHIPPED_ENCODER = {"n": 5, "ops": [
    {"kind": k, "targets": list(t), **({"controls": list(c)} if c else {})}
    for k, t, c in (
        ("X", (0,), ()), ("Vdag", (4,), ()), ("CPHASE", (4,), (0,)), ("U", (4,), ()),
        ("X", (1,), ()), ("Udag", (3,), ()), ("CPHASE", (4,), (3,)), ("Udag", (4,), ()),
        ("Z", (0,), ()), ("Udag", (2,), ()), ("CPHASE", (3,), (2,)), ("U", (2,), ()),
        ("X", (2,), ()), ("Udag", (3,), ()), ("CPHASE", (3,), (0,)), ("CPHASE", (3,), (2,)),
        ("U", (3,), ()), ("X", (3,), ()), ("X", (4,), ()), ("Udag", (1,), ()),
        ("Udag", (3,), ()), ("CPHASE", (3, 4), (1,)), ("Udag", (0,), ()), ("CPHASE", (2,), (0,)),
        ("U", (0,), ()), ("Udag", (2,), ()), ("CPHASE", (2,), (0,)), ("U", (2,), ()),
        ("Vdag", (4,), ()), ("Udag", (0,), ()), ("CPHASE", (2,), (0,)), ("U", (0,), ()),
        ("Udag", (2,), ()), ("CPHASE", (3, 4), (2,)), ("U", (2,), ()), ("Vdag", (2,), ()),
        ("Vdag", (3,), ()),
    )
]}
SHIPPED_ENCODER_PULSES = 59

# Reference codewords of the perfect code: the sign of each basis term / sqrt(8).
FIVE_QUBIT_ZERO = {"00000": 1, "00110": 1, "01001": 1, "01111": -1,
                   "10011": 1, "10101": 1, "11010": 1, "11100": -1}
FIVE_QUBIT_ONE = {"00011": 1, "00101": -1, "01010": -1, "01100": -1,
                  "10000": -1, "10110": 1, "11001": 1, "11111": 1}

EXACT_ATOL = 1e-12      # closed forms and pulse residuals
MC_SIGMAS = 5.0         # allowed distance of an MC estimate from the exact value
KL_ATOL = 1e-9


# --- pulse law -------------------------------------------------------------------

def op_pulses(op: dict) -> int:
    """1 per one-qubit gate, 5 per CNOT, 2c + k per CPHASE (c controls, k targets)."""
    if op["kind"] in ONE_QUBIT_KINDS:
        return 1
    if op["kind"] == "CNOT":
        return 5
    return 2 * len(op["controls"]) + len(op["targets"])


def circuit_pulses(circuit: dict) -> int:
    return sum(op_pulses(op) for op in circuit["ops"])


# --- state-vector reference ------------------------------------------------------

def _apply_op(amps: np.ndarray, op: dict, n: int) -> np.ndarray:
    tensor = amps.reshape((2,) * n)
    kind = op["kind"]
    if kind in ONE_QUBIT_KINDS:
        q = op["targets"][0]
        return np.moveaxis(np.tensordot(GATES[kind], tensor, axes=([1], [q])), 0, q).reshape(-1)
    index = np.arange(2**n)
    bit = {q: (index >> (n - 1 - q)) & 1 for q in range(n)}
    on = np.ones(2**n, dtype=bool)
    for c in op["controls"]:
        on &= bit[c] == 1
    if kind == "CNOT":
        t = op["targets"][0]
        return amps[np.where(on, index ^ (1 << (n - 1 - t)), index)]
    flips = sum(bit[t] for t in op["targets"])
    return amps * np.where(on & (flips % 2 == 1), -1.0, 1.0)


def run_circuit(circuit: dict, amps: np.ndarray) -> np.ndarray:
    n = circuit["n"]
    for op in circuit["ops"]:
        amps = _apply_op(amps, op, n)
    return amps


def encoder_codewords(circuit: dict) -> tuple:
    """Images of |0>|0..0> and |1>|0..0>."""
    n = circuit["n"]
    basis = np.eye(2**n, dtype=complex)
    return run_circuit(circuit, basis[0]), run_circuit(circuit, basis[1 << (n - 1)])


def reference_codewords() -> tuple:
    def build(terms):
        amps = np.zeros(32, dtype=complex)
        for bits, sign in terms.items():
            amps[int(bits, 2)] = sign / math.sqrt(8)
        return amps
    return build(FIVE_QUBIT_ZERO), build(FIVE_QUBIT_ONE)


def kl_violation(w0: np.ndarray, w1: np.ndarray) -> float:
    """Worst Knill-Laflamme violation for {I, X_q, Y_q, Z_q} on the codewords.

    Stacks the 16 error images of each codeword as columns, forms the Gram
    matrix G = A^H A once, and demands <i|Ea+ Eb|j> = c_ab delta_ij: the
    cross block must vanish and the two diagonal blocks must agree.
    """
    n = int(round(math.log2(w0.size)))
    errors = [None] + [(p, q) for q in range(n) for p in ("X", "Y", "Z")]
    cols = []
    for w in (w0, w1):
        for err in errors:
            if err is None:
                cols.append(w)
            else:
                p, q = err
                t = np.tensordot(PAULIS[p], w.reshape((2,) * n), axes=([1], [q]))
                cols.append(np.moveaxis(t, 0, q).reshape(-1))
    a = np.stack(cols, axis=1)
    gram = a.conj().T @ a
    m = len(errors)
    g00, g11, g01 = gram[:m, :m], gram[m:, m:], gram[:m, m:]
    return float(max(np.abs(g01).max(), np.abs(g00 - g11).max()))


# --- closed forms ----------------------------------------------------------------

def closed_form_coherence(scheme: str, repetitions: int, t: float) -> float:
    """[C(t/n)]^n with C = e^-t (uncoded, zeno2) or (3e^-t - e^-3t)/2 (phase3 at iplus)."""
    s = t / repetitions
    if scheme == "phase3":
        one = (3 * math.exp(-s) - math.exp(-3 * s)) / 2
    else:
        one = math.exp(-s)
    return one**repetitions


# --- output checks ---------------------------------------------------------------

CSV_HEADER = "t,scheme,n,C_exact,C_mc,mc_stderr"


def check_coherence_csv(text: str, curves, grid, shots) -> list:
    """Check noise/figure5 CSV: one row per (curve, t), curve-major.

    ``shots`` is None for exact-only output, whose MC columns must be empty.
    """
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"bad CSV header {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    expected = [(scheme, reps, t) for scheme, reps in curves for t in grid]
    if len(rows) != len(expected):
        return [f"{len(rows)} CSV rows, expected {len(expected)}"]
    problems = []
    for row, (scheme, reps, t) in zip(rows, expected):
        where = f"{scheme} n={reps} t={t:g}"
        try:
            t_row, c_exact = float(row[0]), float(row[3])
            if row[1] != scheme or int(row[2]) != reps or abs(t_row - t) > EXACT_ATOL:
                problems.append(f"row {row} is not {where}")
                continue
            ref = closed_form_coherence(scheme, reps, t)
            if not abs(c_exact - ref) <= EXACT_ATOL:
                problems.append(f"{where}: C_exact {c_exact!r} vs closed form {ref!r}")
            if shots is None:
                if row[4] or row[5]:
                    problems.append(f"{where}: MC columns filled in exact-only output")
                continue
            c_mc, stderr = float(row[4]), float(row[5])
        except (IndexError, ValueError) as exc:
            problems.append(f"{where}: unparsable row {row}: {exc}")
            continue
        if stderr == 0.0:
            if c_mc != c_exact:
                problems.append(f"{where}: stderr 0 but C_mc {c_mc!r} != C_exact {c_exact!r}")
        elif not (stderr > 0 and abs(c_mc - c_exact) <= MC_SIGMAS * stderr):
            problems.append(f"{where}: C_mc {c_mc!r} is more than {MC_SIGMAS:g} sigma "
                            f"({stderr!r}) from C_exact {c_exact!r}")
    return problems


def _residual_problems(doc: dict) -> list:
    problems = []
    for key in ("leakage", "phonon_residual"):
        value = doc.get(key)
        if not isinstance(value, (int, float)) or not value <= EXACT_ATOL:
            problems.append(f"{key} {value!r} above {EXACT_ATOL:g}")
    return problems


def check_compile(doc: dict, circuit: dict) -> list:
    """``compile --report full``: pulse law, verification and residuals."""
    problems = []
    law = circuit_pulses(circuit)
    if doc.get("total_pulses") != law:
        problems.append(f"total_pulses {doc.get('total_pulses')!r}, per-op law gives {law}")
    per_gate = [g.get("pulses") for g in doc.get("per_gate", [])]
    if per_gate != [op_pulses(op) for op in circuit["ops"]]:
        problems.append("per_gate pulse counts differ from the per-op law")
    if doc.get("verified") is not True:
        problems.append(f"verified is {doc.get('verified')!r}")
    return problems + _residual_problems(doc)


def check_simulate(doc: dict, circuit: dict) -> list:
    """``simulate-pulses`` on the compiled program of ``circuit``."""
    problems = []
    if doc.get("n_ions") != circuit["n"]:
        problems.append(f"n_ions {doc.get('n_ions')!r}, expected {circuit['n']}")
    law = circuit_pulses(circuit)
    if doc.get("n_pulses") != law:
        problems.append(f"n_pulses {doc.get('n_pulses')!r}, per-op law gives {law}")
    return problems + _residual_problems(doc)


def check_search(doc: dict, best: dict, start_cost: int) -> list:
    """``search`` from a valid start: the reported best circuit must be a
    distance-3 code by the Gram check, cost what the pulse law says, and be
    no dearer than the start."""
    if doc.get("found_valid") is not True:
        return ["search found no valid circuit"]
    problems = []
    law = circuit_pulses(best)
    if doc.get("best_cost") != law:
        problems.append(f"best_cost {doc.get('best_cost')!r}, per-op law gives {law}")
    if law > start_cost:
        problems.append(f"best cost {law} is above the start's {start_cost}")
    if best.get("n") != 5:
        return problems + [f"best circuit has {best.get('n')!r} qubits, expected 5"]
    w0, w1 = encoder_codewords(best)
    violation = kl_violation(w0, w1)
    if not violation <= KL_ATOL:
        problems.append(f"best circuit fails the KL Gram check (violation {violation:.3e})")
    return problems
