"""Dense pure-state and density-matrix simulation for small qubit registers.

Conventions shared by the whole package:

* Big-endian basis ordering: qubit 0 is the leftmost label and the most
  significant bit of a basis index, so for two qubits
  |00> = (1,0,0,0)^T, |01> = (0,1,0,0)^T, |10> = (0,0,1,0)^T, |11> = (0,0,0,1)^T.
* States are immutable values; every operation returns a new object.
* Everything is dense complex128; registers never exceed 6 qubits here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

NORM_ATOL = 1e-12
UNITARY_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-10

_SQRT2 = float(np.sqrt(2.0))

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# 90-degree rotation about the y axis: takes |0> to (|0>+|1>)/sqrt(2).
U = np.array([[1, -1], [1, 1]], dtype=complex) / _SQRT2
UDAG = U.conj().T
# 90-degree rotation about the x axis: takes |0> to (|0>-i|1>)/sqrt(2).
V = np.array([[1, -1j], [-1j, 1]], dtype=complex) / _SQRT2
VDAG = V.conj().T
W = V @ UDAG
WDAG = W.conj().T


def is_unitary(matrix: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])).max(initial=0.0) <= atol)


def require_unitary(matrix: np.ndarray, what: str = "gate") -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if not is_unitary(matrix):
        raise ValueError(f"{what} is not unitary within {UNITARY_ATOL}")
    return matrix


@lru_cache(maxsize=None)
def basis_bits(n_qubits: int) -> np.ndarray:
    """(2**n, n) array where column q holds the bit of qubit q per basis index."""
    idx = np.arange(2**n_qubits)
    cols = [(idx >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
    bits = np.stack(cols, axis=1).astype(np.uint8)
    bits.flags.writeable = False
    return bits


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=complex)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``2**n_qubits`` basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _freeze(self.amplitudes)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector has length {amps.shape}, expected {2**self.n_qubits}"
            )
        norm = abs(np.vdot(amps, amps)) ** 0.5
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm} is not 1")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _trusted(cls, n_qubits: int, amplitudes: np.ndarray) -> "PureState":
        """Wrap a complex vector normalized by construction (a unitary image of
        a state) without the copy and the norm check; it is made read-only."""
        amplitudes.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "n_qubits", n_qubits)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "PureState":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def from_bits(cls, bits: str) -> "PureState":
        """Computational basis state from a bit string, e.g. ``"00110"``."""
        return cls.basis(len(bits), int(bits, 2))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def density(self) -> "DensityMatrix":
        return DensityMatrix._trusted(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over the register."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = _freeze(self.matrix)
        dim = 2**self.n_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected {(dim, dim)}")
        if not np.allclose(mat, mat.conj().T, atol=HERMITIAN_ATOL):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > 1e-9 or abs(np.trace(mat).imag) > 1e-9:
            raise ValueError(f"density matrix trace {np.trace(mat)} is not 1")
        eigs = np.linalg.eigvalsh(mat)
        if eigs.min() < PSD_EIG_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _trusted(cls, n_qubits: int, matrix: np.ndarray) -> "DensityMatrix":
        """Wrap a matrix that is a density matrix by construction (a pure
        state's projector, a channel's output, a partial trace), skipping the
        checks, the eigendecomposition above all, that outside input gets."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "n_qubits", n_qubits)
        object.__setattr__(rho, "matrix", _freeze(matrix))
        return rho

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def _check_qubits(qubits: Sequence[int], n_qubits: int) -> tuple:
    qubits = tuple(int(q) for q in qubits)
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit indices in {qubits}")
    return qubits


def apply_gate(state: PureState, gate: np.ndarray, qubits: Sequence[int]) -> PureState:
    """Apply a ``2**k x 2**k`` unitary on the given k qubits (identity elsewhere)."""
    n = state.n_qubits
    qubits = _check_qubits(qubits, n)
    k = len(qubits)
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2**k, 2**k):
        raise ValueError(f"gate shape {gate.shape} does not match {k} qubit(s)")
    require_unitary(gate)
    tensor = np.moveaxis(state.amplitudes.reshape((2,) * n), qubits, range(k))
    moved_shape = tensor.shape
    tensor = (gate @ tensor.reshape(2**k, -1)).reshape(moved_shape)
    return PureState(n, np.moveaxis(tensor, range(k), qubits).reshape(2**n))


def controlled_phase_signs(n_qubits: int, controls: Sequence[int], targets: Sequence[int]) -> np.ndarray:
    """Diagonal of the multi-control multi-target conditional sign flip.

    A basis state picks up (-1)^(number of targets set) when every control is set.
    """
    controls = tuple(controls)
    targets = tuple(targets)
    if not controls or not targets:
        raise ValueError("controls and targets must be nonempty")
    if set(controls) & set(targets):
        raise ValueError(f"controls {controls} and targets {targets} overlap")
    _check_qubits(controls + targets, n_qubits)
    bits = basis_bits(n_qubits)
    all_controls = bits[:, list(controls)].all(axis=1)
    target_count = bits[:, list(targets)].sum(axis=1)
    signs = np.where(all_controls, (-1.0) ** target_count, 1.0)
    return signs.astype(complex)


def apply_controlled_phase(state: PureState, controls: Sequence[int], targets: Sequence[int]) -> PureState:
    signs = controlled_phase_signs(state.n_qubits, controls, targets)
    return PureState(state.n_qubits, state.amplitudes * signs)


def cnot_permutation(n_qubits: int, control: int, target: int) -> np.ndarray:
    if control == target:
        raise ValueError("control and target must differ")
    _check_qubits((control, target), n_qubits)
    idx = np.arange(2**n_qubits)
    cmask = 1 << (n_qubits - 1 - control)
    tmask = 1 << (n_qubits - 1 - target)
    return np.where(idx & cmask, idx ^ tmask, idx)


def apply_cnot(state: PureState, control: int, target: int) -> PureState:
    perm = cnot_permutation(state.n_qubits, control, target)
    return PureState(state.n_qubits, state.amplitudes[perm])


def measurement_branches(state: PureState, qubits: Sequence[int]):
    """All measurement branches as (outcome bits, probability, collapsed state).

    Branches with probability below 1e-15 are omitted; the remaining
    probabilities sum to 1 up to rounding.
    """
    qubits = _check_qubits(qubits, state.n_qubits)
    k = len(qubits)
    # basis index -> integer outcome label for the listed qubits, in order
    powers = 1 << np.arange(k - 1, -1, -1)
    keys = basis_bits(state.n_qubits)[:, list(qubits)].astype(np.int64) @ powers
    probs = np.bincount(keys, weights=state.probabilities(), minlength=2**k)
    branches = []
    for outcome in range(2**k):
        p = float(probs[outcome])
        if p < 1e-15:
            continue
        amps = np.where(keys == outcome, state.amplitudes, 0.0) / np.sqrt(p)
        bits = tuple((outcome >> (k - 1 - pos)) & 1 for pos in range(k))
        branches.append((bits, p, PureState(state.n_qubits, amps)))
    return branches


def measure_qubits(state: PureState, qubits: Sequence[int], rng=None):
    """Born-rule measurement of the listed qubits, one uniform draw per call.

    Returns (outcome bits, collapsed state, probability). ``rng`` may be a
    seed or a numpy Generator; omit it for a fresh nondeterministic draw.
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    branches = measurement_branches(state, qubits)
    probs = np.array([p for _, p, _ in branches])
    bits, p, collapsed = branches[int(rng.choice(len(branches), p=probs / probs.sum()))]
    return bits, collapsed, p


def collapse_to_outcome(state: PureState, qubits: Sequence[int], outcome: Sequence[int]):
    """Project onto a chosen measurement outcome; error if its probability is 0."""
    branches = measurement_branches(state, qubits)
    outcome = tuple(int(b) for b in outcome)
    if len(outcome) != len(qubits):
        raise ValueError(f"outcome {outcome} does not match {len(qubits)} measured qubits")
    for bits, p, collapsed in branches:
        if bits == outcome:
            return collapsed, p
    raise ValueError(f"measurement branch {outcome} has zero probability")


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on ``keep`` (sorted), tracing out the rest."""
    keep = sorted(set(int(q) for q in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    n = rho.n_qubits
    _check_qubits(keep, n)
    tensor = rho.matrix.reshape((2,) * (2 * n))
    subs = []
    for q in range(n):
        subs.append(q if q in keep else 2 * n + q)
    for q in range(n):
        subs.append(n + q if q in keep else 2 * n + q)
    out = [q for q in keep] + [n + q for q in keep]
    k = len(keep)
    reduced = np.einsum(tensor, subs, out).reshape(2**k, 2**k)
    return DensityMatrix._trusted(k, reduced)


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2; insensitive to global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"dimension mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over theta of ||a - e^{i theta} b||, the global-phase-free distance."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    overlap = np.vdot(a, b)
    if abs(overlap) < 1e-300:
        return float(np.sqrt(np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2))
    return float(np.linalg.norm(a - b * (overlap / abs(overlap)).conj()))
