"""Randomized search for cheap encoder circuits.

Hill climbing with random restarts over op-level moves (insert, delete,
replace, swap two ops) on the five-qubit register. A candidate is scored
lexicographically: validity first, then pulse cost (the ion-trap cost law)
for valid circuits or the worst correction-condition violation for invalid
ones, then op count. The best *valid* candidate can only improve over the
run, and it is re-checked from scratch at the end.

Restarts are keyed by (seed, restart index), so a run is reproducible and
restarts could execute in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .circuits import Circuit, GateOp, SINGLE_QUBIT_KINDS, _apply_op_array
from .codes import (
    CodeSpec,
    check_knill_laflamme,
    circuit_codewords,  # also public here, as search.circuit_codewords
    codeword_block,
    five_qubit_codewords,
    single_qubit_error_classes,
)
from .iontrap import op_pulse_cost
from .states import PureState

DEFAULT_ALPHABET = SINGLE_QUBIT_KINDS + ("CNOT", "CPHASE")
N_QUBITS = 5        # the register of every circuit the search proposes or checks
VALIDITY_MODES = ("auto", "exact")
MAX_OPS = 1000      # bounds max_ops and the start circuit: the climber keeps one
                    # codeword block, about 1.1 KB, per op prefix


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    mode: Optional[str]        # "exact" | "kl" | None
    violation: float           # 0 when valid; worst violation otherwise

    def __bool__(self) -> bool:
        return self.valid


_FIVE_QUBIT_ERRORS = single_qubit_error_classes(N_QUBITS)


def is_valid_perfect_code(circuit: Circuit, mode: str = "auto", *,
                          block: Optional[np.ndarray] = None) -> ValidityResult:
    """Does the circuit encode a code correcting every single-qubit error?

    ``mode="exact"`` also demands the generated codewords match the reference
    five-qubit codewords up to one common global phase; ``"auto"`` accepts any
    distance-3 code and reports the strongest property that holds: ``"exact"``,
    else ``"kl"``.
    ``block``, when given, must be the circuit's ``codeword_block``.
    """
    if mode not in VALIDITY_MODES:
        raise ValueError(f"unknown validity mode {mode!r}; expected one of {', '.join(VALIDITY_MODES)}")
    if circuit.n_qubits != N_QUBITS:
        raise ValueError(f"the perfect-code check applies to {N_QUBITS}-qubit circuits")
    block = codeword_block(circuit) if block is None else block
    overlap = abs(np.vdot(block[:, 0], block[:, 1]))
    if overlap > 1e-10:
        return ValidityResult(False, None, float(overlap))

    mismatch = _reference_mismatch(block)
    exact = mismatch < 1e-10
    if mode == "exact":
        if exact:
            return ValidityResult(True, "exact", 0.0)
        return ValidityResult(False, None, mismatch)

    candidate = CodeSpec._trusted("candidate", *(PureState._trusted(5, w) for w in block.T))
    kl = check_knill_laflamme(candidate, _FIVE_QUBIT_ERRORS)
    if not kl.ok:
        return ValidityResult(False, None, kl.worst_violation)
    return ValidityResult(True, "exact" if exact else "kl", 0.0)


@lru_cache(maxsize=None)
def _reference_block() -> np.ndarray:
    ref0, ref1 = five_qubit_codewords()
    block = np.stack([ref0.amplitudes, ref1.amplitudes], axis=1)
    block.flags.writeable = False
    return block


def _reference_mismatch(block: np.ndarray) -> float:
    """How far the codeword columns are from the reference codewords up to
    one common global phase; they match when this is below 1e-10."""
    ref = _reference_block()
    z0 = np.vdot(ref[:, 0], block[:, 0])
    z1 = np.vdot(ref[:, 1], block[:, 1])
    return float(max(abs(abs(z0) - 1), abs(z0 - z1)))


def pulse_cost(circuit: Circuit) -> int:
    return sum(op_pulse_cost(op) for op in circuit.ops)


@dataclass(frozen=True)
class SearchConfig:
    alphabet: tuple = DEFAULT_ALPHABET
    max_ops: int = 40
    budget: int = 2000
    restarts: int = 4
    seed: int = 0
    start: Optional[Circuit] = None
    validity_mode: str = "auto"

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not 1 <= self.max_ops <= MAX_OPS:
            raise ValueError(f"max_ops must be in 1..{MAX_OPS}, got {self.max_ops}")
        if self.start is not None and self.start.n_qubits != N_QUBITS:
            raise ValueError(f"start circuit has {self.start.n_qubits} qubits; "
                             f"the search runs on {N_QUBITS}-qubit circuits")
        if self.start is not None and len(self.start.ops) > MAX_OPS:
            raise ValueError(f"start circuit has {len(self.start.ops)} ops; at most {MAX_OPS} are allowed")
        if not 1 <= self.restarts <= self.budget:
            raise ValueError(f"restarts must be between 1 and the budget ({self.budget}), "
                             f"got {self.restarts}")
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        bad = [k for k in self.alphabet if k not in DEFAULT_ALPHABET]
        if bad:
            raise ValueError(f"unknown gate kinds in alphabet: {bad}")
        if self.validity_mode not in VALIDITY_MODES:
            raise ValueError(f"unknown validity mode {self.validity_mode!r}; "
                             f"expected one of {', '.join(VALIDITY_MODES)}")


@dataclass(frozen=True)
class Candidate:
    circuit: Circuit
    cost: int
    valid: bool
    mode: Optional[str]
    violation: float = 0.0


@dataclass(frozen=True)
class HistoryEntry:
    restart: int
    iteration: int
    cost: int
    valid: bool
    best_valid_cost: Optional[int]


@dataclass(frozen=True)
class SearchResult:
    best: Optional[Candidate]          # best valid candidate, if any found
    best_invalid: Optional[Candidate]  # diagnostic when nothing valid was found
    history: tuple
    seed: int
    iterations: int
    accepted: int = 0                  # proposals that became the current circuit
    valid_proposals: int = 0

    def to_dict(self) -> dict:
        doc = {
            "seed": self.seed,
            "iterations": self.iterations,
            "found_valid": self.best is not None,
            "accept_rate": self.accepted / self.iterations,
            "valid_fraction": self.valid_proposals / self.iterations,
        }
        if self.best is not None:
            doc["best_cost"] = self.best.cost
            doc["best_ops"] = len(self.best.circuit.ops)
            doc["validity_mode"] = self.best.mode
        if self.best_invalid is not None:
            doc["best_invalid_violation"] = self.best_invalid.violation
        doc["cost_trace"] = [
            {"restart": h.restart, "iteration": h.iteration,
             "cost": h.cost, "valid": h.valid, "best_valid_cost": h.best_valid_cost}
            for h in self.history
        ]
        return doc


def random_op(n_qubits: int, alphabet: Sequence[str], rng: np.random.Generator) -> GateOp:
    if n_qubits < 2:
        alphabet = [k for k in alphabet if k in SINGLE_QUBIT_KINDS]
        if not alphabet:
            raise ValueError("alphabet has no single-qubit kinds for a 1-qubit register")
    kind = alphabet[rng.integers(len(alphabet))]
    if kind in SINGLE_QUBIT_KINDS:
        return GateOp(kind, (int(rng.integers(n_qubits)),))
    if kind == "CNOT":
        c, t = rng.choice(n_qubits, size=2, replace=False)
        return GateOp("CNOT", (int(t),), (int(c),))
    # CPHASE: random split of 2..n qubits into controls and targets
    size = int(rng.integers(2, n_qubits + 1))
    chosen = rng.choice(n_qubits, size=size, replace=False)
    cut = int(rng.integers(1, size))
    return GateOp("CPHASE", tuple(int(q) for q in sorted(chosen[cut:])),
                  tuple(int(q) for q in sorted(chosen[:cut])))


def random_circuit(n_qubits: int, n_ops: int, rng: np.random.Generator,
                   alphabet: Sequence[str] = DEFAULT_ALPHABET) -> Circuit:
    return Circuit(n_qubits, tuple(random_op(n_qubits, alphabet, rng) for _ in range(n_ops)))


def mutate(circuit: Circuit, cfg: SearchConfig, rng: np.random.Generator) -> Circuit:
    ops = list(circuit.ops)
    moves = ["insert", "replace", "swap", "delete"]
    move = moves[rng.integers(len(moves))]
    if move == "insert" and len(ops) < cfg.max_ops:
        ops.insert(int(rng.integers(len(ops) + 1)), random_op(N_QUBITS, cfg.alphabet, rng))
    elif move == "delete" and ops:
        ops.pop(int(rng.integers(len(ops))))
    elif move == "replace" and ops:
        ops[int(rng.integers(len(ops)))] = random_op(N_QUBITS, cfg.alphabet, rng)
    elif move == "swap" and len(ops) >= 2:
        i, j = rng.choice(len(ops), size=2, replace=False)
        ops[i], ops[j] = ops[j], ops[i]
    elif len(ops) < cfg.max_ops:
        ops.append(random_op(N_QUBITS, cfg.alphabet, rng))
    else:                          # at or over the cap: shrink rather than grow
        ops.pop(int(rng.integers(len(ops))))
    return Circuit._trusted(N_QUBITS, tuple(ops))      # SearchConfig checks the start's register


def _candidate(circuit: Circuit, res: ValidityResult) -> Candidate:
    return Candidate(circuit, pulse_cost(circuit), res.valid, res.mode, res.violation)


def _accept_key(cand: Candidate):
    """A proposal is taken when its key is no worse than the current one's,
    so equal-quality proposals are taken too; walking plateaus is what gets
    the climb off flat regions."""
    penalty = float(cand.cost) if cand.valid else 1e6 + cand.violation
    return (0 if cand.valid else 1, penalty, len(cand.circuit.ops))


def search(cfg: SearchConfig) -> SearchResult:
    """Hill-climb from the start circuit (or a random one per restart).

    Returns the cheapest valid candidate found, plus the full cost trace.
    When the budget runs out without a valid candidate the result carries the
    least-violating circuit as a diagnostic instead.
    """
    def evaluate(circuit: Circuit, parent_ops: tuple = (), parent_blocks: Optional[list] = None):
        """The candidate and its codeword blocks after each op prefix: the
        parent's up to the first op that is not the parent's very object."""
        ops, k = circuit.ops, 0
        while k < len(ops) and k < len(parent_ops) and ops[k] is parent_ops[k]:
            k += 1
        blocks = (parent_blocks or [codeword_block(Circuit(N_QUBITS))])[:k + 1]
        for op in ops[k:]:
            blocks.append(_apply_op_array(blocks[-1], op, N_QUBITS))
        res = is_valid_perfect_code(circuit, cfg.validity_mode, block=blocks[-1])   # by name: tracers patch it
        return _candidate(circuit, res), blocks

    best_valid: Optional[Candidate] = None
    best_invalid: Optional[Candidate] = None
    history = []
    iterations = accepted = valid_proposals = 0
    per_restart = cfg.budget // cfg.restarts

    for restart in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(restart,)))
        start = cfg.start if cfg.start is not None else random_circuit(
            N_QUBITS, int(rng.integers(1, cfg.max_ops + 1)), rng, cfg.alphabet)
        current, blocks = evaluate(start)

        for it in range(per_restart):
            iterations += 1
            proposal, proposal_blocks = evaluate(mutate(current.circuit, cfg, rng),
                                                 current.circuit.ops, blocks)
            valid_proposals += proposal.valid
            if _accept_key(proposal) <= _accept_key(current):
                current, blocks = proposal, proposal_blocks
                accepted += 1
            if current.valid and (best_valid is None or current.cost < best_valid.cost):
                best_valid = current
                history.append(HistoryEntry(restart, it, current.cost, True, best_valid.cost))
            elif not current.valid and best_valid is None and (
                    best_invalid is None or current.violation < best_invalid.violation):
                best_invalid = current
                history.append(HistoryEntry(restart, it, current.cost, False, None))

    if best_valid is not None:
        if not is_valid_perfect_code(best_valid.circuit, cfg.validity_mode).valid:   # no block: from scratch
            raise AssertionError("search bookkeeping reported an invalid circuit as valid")
        best_invalid = None
    return SearchResult(best_valid, best_invalid, tuple(history), cfg.seed, iterations,
                        accepted, valid_proposals)

