"""Error-correcting codes used by the lab.

Three codes are provided:

* ``five_qubit_code`` -- the perfect 5-qubit code correcting an arbitrary error
  on any single physical qubit. Its codewords are fixed amplitude lists
  (all entries are 0 or +-1/sqrt(8)):

      |0_L> = (|00000> + |00110> + |01001> - |01111>
               + |10011> + |10101> + |11010> - |11100>) / sqrt(8)
      |1_L> = (|00011> - |00101> - |01010> - |01100>
               - |10000> + |10110> + |11001> + |11111>) / sqrt(8)

  The attached gate-level encoder reproduces these codewords from
  |psi>|0000> up to one common global phase.

* ``three_qubit_phase_code`` -- triple redundancy in the conjugate basis;
  corrects a phase flip on any one qubit by majority vote.

* ``two_qubit_zeno_code`` -- a two-qubit parity code that can only *detect*
  a phase flip; its decoder applies no correction.

Decoding always runs the encoder backwards and reads the ancilla qubits;
the syndrome table mapping ancilla bits to the data-qubit correction is
built by brute force over the code's error classes. ``recovery_operators``
is that decoder as one operator stack; the syndrome table, decode-and-correct
and the noise schemes all read it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .circuits import Circuit, GateOp, apply_circuit_array, circuit_to_unitary, invert_circuit
from .states import I2, X, Y, Z, PureState, phase_aligned_distance

FIVE_QUBIT_ZERO_TERMS = (
    ("00000", 1), ("00110", 1), ("01001", 1), ("01111", -1),
    ("10011", 1), ("10101", 1), ("11010", 1), ("11100", -1),
)
FIVE_QUBIT_ONE_TERMS = (
    ("00011", 1), ("00101", -1), ("01010", -1), ("01100", -1),
    ("10000", -1), ("10110", 1), ("11001", 1), ("11111", 1),
)

# Encoder for the 5-qubit code, qubit 0 = data, qubits 1-4 = |0> ancillas.
# Obtained by reducing the codeword stabilizers to the trivial tableau,
# inverting, and then shrinking the pulse cost by randomized rewriting
# (59 laser pulses under the ion-trap cost model). Verified against the
# amplitude lists above.
_FIVE_QUBIT_ENCODER_OPS = (
    ("X", (0,), ()),
    ("Vdag", (4,), ()),
    ("CPHASE", (4,), (0,)),
    ("U", (4,), ()),
    ("X", (1,), ()),
    ("Udag", (3,), ()),
    ("CPHASE", (4,), (3,)),
    ("Udag", (4,), ()),
    ("Z", (0,), ()),
    ("Udag", (2,), ()),
    ("CPHASE", (3,), (2,)),
    ("U", (2,), ()),
    ("X", (2,), ()),
    ("Udag", (3,), ()),
    ("CPHASE", (3,), (0,)),
    ("CPHASE", (3,), (2,)),
    ("U", (3,), ()),
    ("X", (3,), ()),
    ("X", (4,), ()),
    ("Udag", (1,), ()),
    ("Udag", (3,), ()),
    ("CPHASE", (3, 4), (1,)),
    ("Udag", (0,), ()),
    ("CPHASE", (2,), (0,)),
    ("U", (0,), ()),
    ("Udag", (2,), ()),
    ("CPHASE", (2,), (0,)),
    ("U", (2,), ()),
    ("Vdag", (4,), ()),
    ("Udag", (0,), ()),
    ("CPHASE", (2,), (0,)),
    ("U", (0,), ()),
    ("Udag", (2,), ()),
    ("CPHASE", (3, 4), (2,)),
    ("U", (2,), ()),
    ("Vdag", (2,), ()),
    ("Vdag", (3,), ()),
)

CORRECTION_MATRICES = {"I": I2, "X": X, "Z": Z, "XZ": X @ Z}
_ERROR_MATRICES = {"X": X, "Y": Y, "Z": Z}


@dataclass(frozen=True)
class ErrorOp:
    """Single-qubit Pauli error; kind ``I`` carries no qubit (Y = iXZ)."""

    kind: str
    qubit: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("I", "X", "Y", "Z"):
            raise ValueError(f"unknown error kind {self.kind!r}")
        if self.kind == "I" and self.qubit is not None:
            raise ValueError("identity error carries no qubit index")
        if self.kind != "I" and self.qubit is None:
            raise ValueError(f"{self.kind} error needs a qubit index")

    def label(self) -> str:
        return "I" if self.kind == "I" else f"{self.kind}{self.qubit}"


def single_qubit_error_classes(n_qubits: int) -> tuple:
    """The identity plus X, Y, Z on each qubit: 3n + 1 classes."""
    classes = [ErrorOp("I")]
    for q in range(n_qubits):
        for kind in ("X", "Y", "Z"):
            classes.append(ErrorOp(kind, q))
    return tuple(classes)


@lru_cache(maxsize=4096)
def _error_gather(n: int, kind: str, qubit: Optional[int]):
    """Read-only (index, phase) with ``(E psi)[k] = phase[k] * psi[index[k]]``.

    Each Pauli has one nonzero per row, so X is an index xor, Z a sign and
    Y = iXZ both, with phase i(-1)^(1 - bit).
    """
    index = np.arange(2**n)
    phase = np.ones(2**n, dtype=complex)
    if kind != "I":
        if not 0 <= qubit < n:
            raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
        shift = n - 1 - qubit
        bit = (index >> shift) & 1
        mat = _ERROR_MATRICES[kind]
        source = np.argmax(mat != 0, axis=1)[bit]
        phase = mat[bit, source]
        index = index ^ ((bit ^ source) << shift)
    index.flags.writeable = False
    phase.flags.writeable = False
    return index, phase


def apply_error(state: PureState, error: ErrorOp) -> PureState:
    if error.kind == "I":
        return state
    index, phase = _error_gather(state.n_qubits, error.kind, error.qubit)
    return PureState._trusted(state.n_qubits, phase * state.amplitudes[index])


@dataclass(frozen=True)
class CodeSpec:
    """Logical codewords plus (optionally) a gate-level encoder.

    Ancillas always start in |0>; the data qubit is qubit 0. When an encoder
    is present it must reproduce the codewords from the basis inputs up to a
    single common global phase.
    """

    name: str
    n_physical: int
    logical_zero: PureState
    logical_one: PureState
    encoder: Optional[Circuit] = None
    error_classes: tuple = ()
    detection_only: bool = False

    def __post_init__(self):
        if self.logical_zero.n_qubits != self.n_physical or self.logical_one.n_qubits != self.n_physical:
            raise ValueError("codeword size does not match n_physical")
        for name, word in (("zero", self.logical_zero), ("one", self.logical_one)):
            if abs(np.linalg.norm(word.amplitudes) - 1) > 1e-12:
                raise ValueError(f"logical {name} is not normalized")
        if abs(np.vdot(self.logical_zero.amplitudes, self.logical_one.amplitudes)) > 1e-12:
            raise ValueError("codewords are not orthogonal")
        if self.encoder is not None:
            err = encoder_alignment_error(self)
            if err > 1e-12:
                raise ValueError(f"encoder does not reproduce the codewords (error {err:.3e})")

    @classmethod
    def _trusted(cls, name: str, logical_zero: PureState, logical_one: PureState) -> "CodeSpec":
        """A code without encoder or error classes whose codewords are
        orthonormal by construction (a circuit's images of two basis states),
        skipping the 1e-12 checks: rounding drifts the norm by about 8e-17 per
        op, past 1e-12 after some 12,500 ops."""
        code = object.__new__(cls)
        for key, value in (("name", name), ("n_physical", logical_zero.n_qubits),
                           ("logical_zero", logical_zero), ("logical_one", logical_one),
                           ("encoder", None), ("error_classes", ()), ("detection_only", False)):
            object.__setattr__(code, key, value)
        return code

    def isometry(self) -> np.ndarray:
        """(2**n, 2) matrix whose columns are the codewords."""
        return np.stack([self.logical_zero.amplitudes, self.logical_one.amplitudes], axis=1)


def encoder_alignment_error(code: CodeSpec) -> float:
    """Distance between encoder-generated and stored codewords after removing
    one common global phase."""
    if code.encoder is None:
        raise ValueError(f"code {code.name} has no encoder circuit")
    # transposed, both ravel to codeword 0 followed by codeword 1
    return phase_aligned_distance(code.isometry().T, codeword_block(code.encoder).T)


def codeword_block(circuit: Circuit) -> np.ndarray:
    """(2**n, 2) array whose columns are the images of |0>|0..0> and |1>|0..0>."""
    n = circuit.n_qubits
    block = np.zeros((2**n, 2), dtype=complex)
    block[0, 0] = block[1 << (n - 1), 1] = 1.0
    return apply_circuit_array(circuit, block)


def circuit_codewords(circuit: Circuit) -> tuple:
    """Images of |0>|0...0> and |1>|0...0> under the circuit, as states."""
    block = codeword_block(circuit)
    return PureState(circuit.n_qubits, block[:, 0]), PureState(circuit.n_qubits, block[:, 1])


def encode(code: CodeSpec, psi: PureState) -> PureState:
    """Linear isometric extension of the codeword map: alpha|0_L> + beta|1_L>."""
    if psi.n_qubits != 1:
        raise ValueError("encode expects a single-qubit state")
    amps = code.isometry() @ psi.amplitudes
    return PureState(code.n_physical, amps)


def five_qubit_codewords() -> tuple:
    def build(terms):
        amps = np.zeros(32, dtype=complex)
        for bits, sign in terms:
            amps[int(bits, 2)] = sign
        return PureState(5, amps / np.sqrt(8.0))

    return build(FIVE_QUBIT_ZERO_TERMS), build(FIVE_QUBIT_ONE_TERMS)


def five_qubit_encoder() -> Circuit:
    ops = tuple(GateOp(kind, targets, controls) for kind, targets, controls in _FIVE_QUBIT_ENCODER_OPS)
    return Circuit(5, ops)


def five_qubit_code(encoder: Optional[Circuit] = None) -> CodeSpec:
    """The perfect code with the shipped encoder, or with a custom circuit,
    which is validated against the reference codewords."""
    zero, one = five_qubit_codewords()
    if encoder is None:
        encoder = five_qubit_encoder()
    return CodeSpec(
        name="five-qubit",
        n_physical=5,
        logical_zero=zero,
        logical_one=one,
        encoder=encoder,
        error_classes=single_qubit_error_classes(5),
    )


def three_qubit_phase_code() -> CodeSpec:
    """Phase-flip code: |0_L> = |+++>, |1_L> = -|---> (the sign the encoder
    produces), correcting a Z on any one qubit via majority vote."""
    encoder = Circuit(3, (
        GateOp("CNOT", (1,), (0,)),
        GateOp("CNOT", (2,), (0,)),
        GateOp("U", (0,)),
        GateOp("U", (1,)),
        GateOp("U", (2,)),
    ))
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    zero = PureState(3, np.kron(np.kron(plus, plus), plus))
    one = PureState(3, -np.kron(np.kron(minus, minus), minus))
    return CodeSpec(
        name="phase3",
        n_physical=3,
        logical_zero=zero,
        logical_one=one,
        encoder=encoder,
        error_classes=(ErrorOp("I"), ErrorOp("Z", 0), ErrorOp("Z", 1), ErrorOp("Z", 2)),
    )


def two_qubit_zeno_code() -> CodeSpec:
    """Parity code: |0_L> = (|00>+|11>)/sqrt(2), |1_L> = (|01>+|10>)/sqrt(2).

    Detection only: decoding reads the ancilla but applies no correction.
    """
    encoder = Circuit(2, (
        GateOp("U", (1,)),
        GateOp("CNOT", (0,), (1,)),
    ))
    zero = PureState(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    one = PureState(2, np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2))
    return CodeSpec(
        name="zeno2",
        n_physical=2,
        logical_zero=zero,
        logical_one=one,
        encoder=encoder,
        error_classes=(ErrorOp("I"),),
        detection_only=True,
    )


@dataclass
class SyndromeTable:
    """Map from ancilla measurement bits to the data-qubit correction name."""

    corrections: dict = field(default_factory=dict)

    def lookup(self, syndrome: str) -> str:
        if syndrome not in self.corrections:
            raise KeyError(
                f"syndrome {syndrome} not in table; the error weight exceeds "
                f"what this code corrects"
            )
        return self.corrections[syndrome]


# generic probe whose images under I, X, Z, XZ are mutually distinguishable
_PROBE = PureState(1, np.array([0.6, 0.8j], dtype=complex))


def _syndrome(outcome: int, n: int) -> str:
    return format(outcome, f"0{n - 1}b")


@lru_cache(maxsize=64)
def _decoder_blocks(encoder: Circuit) -> np.ndarray:
    """Read-only uncorrected decoder stack of one encoder, built once."""
    n = encoder.n_qubits
    decode = circuit_to_unitary(invert_circuit(encoder))
    # row d * K + s of the decoded space holds data bit d and ancilla outcome s
    blocks = decode.reshape(2, 2 ** (n - 1), 2**n).transpose(1, 0, 2)
    blocks.flags.writeable = False
    return blocks


def recovery_operators(code: CodeSpec, table: Optional[SyndromeTable] = None) -> np.ndarray:
    """(K, 2, 2**n) stack, K = 2**(n-1): block s runs the encoder backwards,
    keeps the two data-qubit rows where the ancillas read s, and applies the
    table's correction for s (none, and read-only, when ``table`` is None)."""
    if code.encoder is None:
        raise ValueError(f"code {code.name} has no encoder circuit")
    n = code.n_physical
    blocks = _decoder_blocks(code.encoder)
    if table is None:
        return blocks
    corrections = np.stack([CORRECTION_MATRICES[table.lookup(_syndrome(s, n))]
                            for s in range(2 ** (n - 1))])
    return corrections @ blocks


def _collapse(amps: np.ndarray, draws: np.ndarray) -> tuple:
    """Born-rule ancilla measurement of B columns at once.

    ``amps`` is the C-contiguous (2K, B) outcome-branch block, row 2s + a
    holding data amplitude a of outcome s; column b reads the first outcome
    whose running probability exceeds ``draws[b]`` times the column's total.
    Returns the (B,) outcomes, their (2, B) normalised data states and the
    (K, B) outcome probabilities."""
    size = amps.shape[1]
    if size == 1:
        # one column, as in every single decode: the same products and sums in
        # the same order, on a 1-D array and Python floats, at a third of the
        # block step's cost; NumPy divides by the float as by a complex with a
        # zero imaginary part, as the block step divides by its float array
        parts = amps.view(np.float64)                       # (2K, 2): re, im of each row
        parts = parts * parts
        sq = parts[:, 0] + parts[:, 1]
        probs = sq[0::2] + sq[1::2]
        cum = list(itertools.accumulate(probs.tolist()))    # row after row, as below
        draw = draws.item() if isinstance(draws, np.ndarray) else draws
        chosen = bisect.bisect_right(cum, draw * cum[-1], 0, len(cum) - 1)
        return (np.array([chosen]), amps[2 * chosen:2 * chosen + 2] / math.sqrt(probs[chosen]),
                probs.reshape(-1, 1))
    sq = amps.real * amps.real                              # x**2 is slower on these strided views
    sq += amps.imag * amps.imag
    probs = sq[0::2] + sq[1::2]                             # (K, B)
    del sq                                                  # freed early: a lower peak per MC block
    # running row sums in row order; np.cumsum(axis=0) is ~10x slower on wide blocks
    cum = np.array(list(itertools.accumulate(probs)))
    chosen = (cum[:-1] <= draws * cum[-1]).sum(axis=0)      # first s with cum[s] > draws * total
    offset = chosen * size
    pick = offset + _columns(size)                          # (chosen, col) in probs
    offset += pick                                          # (chosen, 0, col) in amps
    branch = amps.reshape(-1).take(offset + np.array([[0], [size]]))   # both data rows
    return chosen, branch / np.sqrt(probs.reshape(-1).take(pick)), probs


@lru_cache(maxsize=16)
def _columns(size: int) -> np.ndarray:
    """``np.arange(size)``, read-only: the column index of a block of width ``size``."""
    cols = np.arange(size)
    cols.flags.writeable = False
    return cols


def build_syndrome_table(code: CodeSpec) -> SyndromeTable:
    """Brute-force table construction over the code's error classes.

    Each error is applied to an encoded probe state, the encoder is run
    backwards, and the (deterministic) ancilla bits are recorded together
    with the unique correction that restores the probe. A syndrome shared by
    two errors demanding different corrections raises, since that means the
    circuit is not a valid encoder for the code's error classes.
    """
    recovery = recovery_operators(code)
    encoded_probe = encode(code, _PROBE)
    table = SyndromeTable()
    for error in code.error_classes:
        branches = recovery @ apply_error(encoded_probe, error).amplitudes      # (K, 2)
        # a deterministic reading leaves under 1e-10 off one outcome: any middle
        # draw picks it, so the chosen outcome's probability is the largest
        (outcome,), data, probs = _collapse(branches.reshape(-1, 1), 0.5)
        if probs[outcome, 0] < 1.0 - 1e-10:
            raise ValueError(
                f"ancilla measurement is not deterministic (p={probs.max():.6f}); "
                f"the circuit is not a valid encoder for this error"
            )
        syndrome = _syndrome(outcome, code.n_physical)
        correction = next((name for name, mat in CORRECTION_MATRICES.items()
                           if abs(np.vdot(_PROBE.amplitudes, mat @ data[:, 0])) ** 2 >= 1.0 - 1e-10), None)
        if correction is None:
            raise ValueError(f"no single-qubit correction restores the probe after {error.label()}")
        existing = table.corrections.get(syndrome)
        if existing is not None and existing != correction:
            raise ValueError(
                f"syndrome collision: {syndrome} wants {existing} and {correction}; "
                f"the encoder is not a valid distance-3 code for these errors"
            )
        table.corrections[syndrome] = correction
    return table


def decode_and_correct(code: CodeSpec, table: Optional[SyndromeTable], state: PureState, rng=None):
    """Run the encoder backwards, measure the ancillas, apply the table's
    correction to the data qubit.

    Returns (data state, syndrome string). For detection-only codes the table
    may be None and no correction is applied. ``rng`` may be a seed or a numpy
    Generator; one uniform is drawn per call.
    """
    if state.n_qubits != code.n_physical:
        raise ValueError(f"state has {state.n_qubits} qubits, code needs {code.n_physical}")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    branches = recovery_operators(code) @ state.amplitudes                      # (K, 2)
    (outcome,), data, _ = _collapse(branches.reshape(-1, 1), rng.random(1))
    syndrome = _syndrome(outcome, code.n_physical)
    if code.detection_only:
        return PureState(1, data[:, 0]), syndrome
    if table is None:
        raise ValueError("a syndrome table is required for correcting codes")
    return PureState(1, CORRECTION_MATRICES[table.lookup(syndrome)] @ data[:, 0]), syndrome


@dataclass(frozen=True)
class KnillLaflammeResult:
    ok: bool
    witness: np.ndarray
    worst_violation: float

    def __bool__(self) -> bool:
        return self.ok


def check_knill_laflamme(code: CodeSpec, errors: Sequence[ErrorOp]) -> KnillLaflammeResult:
    """Test whether the codewords can correct the given error set.

    The criterion: <i_L| Ea+ Eb |j_L> must vanish for i != j and be
    independent of i on the diagonal, to within 1e-10. Returns the
    error-overlap witness matrix c_ab (the shared diagonal value) and the
    worst violation found.

    All overlaps come from one Gram matrix of the stacked images Ea|j_L>.
    """
    errors = tuple(errors)
    m = len(errors)
    images = np.empty((code.logical_zero.dim, 2 * m), dtype=complex)
    for a, error in enumerate(errors):                       # column 2a + i = Ea|i_L>
        images[:, 2 * a] = apply_error(code.logical_zero, error).amplitudes
        images[:, 2 * a + 1] = apply_error(code.logical_one, error).amplitudes
    gram = (images.conj().T @ images).reshape(m, 2, m, 2)
    g00, g11 = gram[:, 0, :, 0], gram[:, 1, :, 1]
    worst = float(max(np.abs(gram[:, 0, :, 1]).max(initial=0.0),
                      np.abs(gram[:, 1, :, 0]).max(initial=0.0),
                      np.abs(g00 - g11).max(initial=0.0)))
    return KnillLaflammeResult(worst < 1e-10, (g00 + g11) / 2.0, worst)
