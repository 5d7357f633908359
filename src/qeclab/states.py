"""Pure states, density matrices and gate constants for small qubit registers.

This module holds values only: gates act on amplitudes in ``circuits``, and
the one measurement is the decoder in ``codes``.

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

import numpy as np

UNITARY_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
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


def is_unitary(matrix: np.ndarray) -> bool:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    deviation = np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])).max(initial=0.0)
    return bool(deviation <= UNITARY_ATOL)


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
        if not abs(norm - 1.0) <= 1e-9:                  # NaN fails too
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
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


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

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


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
