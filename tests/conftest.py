import numpy as np
import pytest

from qeclab.states import PureState


def random_pure_state(n_qubits: int, rng: np.random.Generator) -> PureState:
    raw = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return PureState(n_qubits, raw / np.linalg.norm(raw))


# The commands that read an input file, each with the file's flag last.
FILE_COMMANDS = [
    ("compile", "--report", "full", "--circuit"),
    ("simulate-pulses", "--ions", "2", "--pulses"),
    ("verify-code", "--code", "five-qubit", "--trials", "1", "--encoder"),
    ("search", "--budget", "2", "--restarts", "1", "--start"),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
