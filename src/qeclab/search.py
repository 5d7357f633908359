"""Randomized search for cheap encoder circuits.

Hill climbing with random restarts over op-level moves (insert, delete,
replace, swap two ops). A candidate is scored lexicographically: validity
first, then pulse cost (the ion-trap cost law) for valid circuits or the
worst correction-condition violation for invalid ones, then op count, then a
stable textual encoding. The best *valid* candidate can only improve over the
run, and every reported-valid candidate is re-checked independently.

Restarts are keyed by (seed, restart index), so a run is reproducible and
restarts could execute in any order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

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


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    mode: Optional[str]        # "exact" | "kl" | None
    violation: float           # 0 when valid; worst violation otherwise

    def __bool__(self) -> bool:
        return self.valid


_FIVE_QUBIT_ERRORS = single_qubit_error_classes(5)


def is_valid_perfect_code(circuit: Circuit, mode: str = "auto", *,
                          block: Optional[np.ndarray] = None) -> ValidityResult:
    """Does the circuit encode a code correcting every single-qubit error?

    ``mode="exact"`` also demands the generated codewords match the reference
    five-qubit codewords up to one common global phase; ``"kl"`` accepts any
    distance-3 code; ``"auto"`` reports the strongest property that holds.
    ``block``, when given, must be the circuit's ``codeword_block``.
    """
    if circuit.n_qubits != 5:
        raise ValueError("the perfect-code check applies to 5-qubit circuits")
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

    candidate = CodeSpec("candidate", 5, *(PureState._trusted(5, w) for w in block.T))
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
    n_qubits: int = 5
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
        if self.max_ops < 1:
            raise ValueError(f"max_ops must be >= 1, got {self.max_ops}")
        if not 1 <= self.restarts <= self.budget:
            raise ValueError(f"restarts must be between 1 and the budget ({self.budget}), "
                             f"got {self.restarts}")
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
        bad = [k for k in self.alphabet if k not in DEFAULT_ALPHABET]
        if bad:
            raise ValueError(f"unknown gate kinds in alphabet: {bad}")


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
        ops.insert(int(rng.integers(len(ops) + 1)), random_op(cfg.n_qubits, cfg.alphabet, rng))
    elif move == "delete" and ops:
        ops.pop(int(rng.integers(len(ops))))
    elif move == "replace" and ops:
        ops[int(rng.integers(len(ops)))] = random_op(cfg.n_qubits, cfg.alphabet, rng)
    elif move == "swap" and len(ops) >= 2:
        i, j = rng.choice(len(ops), size=2, replace=False)
        ops[i], ops[j] = ops[j], ops[i]
    elif len(ops) < cfg.max_ops:
        ops.append(random_op(cfg.n_qubits, cfg.alphabet, rng))
    else:                          # at or over the cap: shrink rather than grow
        ops.pop(int(rng.integers(len(ops))))
    build = Circuit._trusted if circuit.n_qubits == cfg.n_qubits else Circuit  # ops in range
    return build(cfg.n_qubits, tuple(ops))


def _candidate(circuit: Circuit, res: ValidityResult) -> Candidate:
    return Candidate(circuit, pulse_cost(circuit), res.valid, res.mode, res.violation)


def _score(cand: Candidate):
    lex = json.dumps([[op.kind, list(op.controls), list(op.targets)] for op in cand.circuit.ops])
    return _accept_key(cand) + (lex,)


def _accept_key(cand: Candidate):
    """Acceptance ignores the textual tie-breaker so equal-quality proposals
    are taken; walking plateaus is what gets the climb off flat regions."""
    penalty = float(cand.cost) if cand.valid else 1e6 + cand.violation
    return (0 if cand.valid else 1, penalty, len(cand.circuit.ops))


def search(cfg: SearchConfig,
           validator: Optional[Callable[[Circuit], ValidityResult]] = None) -> SearchResult:
    """Hill-climb from the start circuit (or a random one per restart).

    Returns the cheapest valid candidate found, plus the full cost trace.
    When the budget runs out without a valid candidate the result carries the
    least-violating circuit as a diagnostic instead.
    """
    def check(circuit: Circuit, block: Optional[np.ndarray] = None) -> ValidityResult:
        """The custom validator, or the built-in check (from ``block`` when given)."""
        if validator is not None:
            return validator(circuit)
        return is_valid_perfect_code(circuit, cfg.validity_mode, block=block)

    def evaluate(circuit: Circuit, parent_ops: tuple = (), parent_blocks: Optional[list] = None):
        """The candidate and its codeword blocks after each op prefix: the
        parent's up to the first op that is not the parent's very object."""
        ops, k = circuit.ops, 0
        while k < len(ops) and k < len(parent_ops) and ops[k] is parent_ops[k]:
            k += 1
        blocks = (parent_blocks or [codeword_block(Circuit(circuit.n_qubits))])[:k + 1]
        for op in ops[k:]:
            blocks.append(_apply_op_array(blocks[-1], op, circuit.n_qubits))
        return _candidate(circuit, check(circuit, blocks[-1])), blocks

    best_valid: Optional[Candidate] = None
    best_invalid: Optional[Candidate] = None
    history = []
    iterations = accepted = valid_proposals = 0
    per_restart = cfg.budget // cfg.restarts

    for restart in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(restart,)))
        start = cfg.start if cfg.start is not None else random_circuit(
            cfg.n_qubits, int(rng.integers(1, cfg.max_ops + 1)), rng, cfg.alphabet)
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
        if not check(best_valid.circuit).valid:   # with no block: recomputed from scratch
            raise AssertionError("search bookkeeping reported an invalid circuit as valid")
        best_invalid = None
    return SearchResult(best_valid, best_invalid, tuple(history), cfg.seed, iterations,
                        accepted, valid_proposals)


def exhaustive_search(cfg: SearchConfig,
                      validator: Optional[Callable[[Circuit], ValidityResult]] = None) -> SearchResult:
    """Enumerate every circuit up to ``max_ops`` ops over the alphabet.

    Only feasible for tiny alphabets and very short circuits; used as an
    oracle to sanity-check the randomized search on toy problems.
    """
    if validator is None:
        validator = lambda c: is_valid_perfect_code(c, cfg.validity_mode)
    if cfg.max_ops > 4:
        raise ValueError("exhaustive search is limited to max_ops <= 4")

    all_ops = []
    n = cfg.n_qubits
    for kind in cfg.alphabet:
        if kind in SINGLE_QUBIT_KINDS:
            all_ops += [GateOp(kind, (q,)) for q in range(n)]
        else:  # CNOT or CPHASE with one control and one target
            all_ops += [GateOp(kind, (t,), (c,)) for c in range(n) for t in range(n) if c != t]

    best_valid = None
    count = n_valid = 0
    for length in range(cfg.max_ops + 1):
        for combo in itertools.product(all_ops, repeat=length):
            count += 1
            circuit = Circuit(n, combo)
            cand = _candidate(circuit, validator(circuit))
            n_valid += cand.valid
            if cand.valid and (best_valid is None or _score(cand) < _score(best_valid)):
                best_valid = cand
    history = ()
    if best_valid is not None:
        history = (HistoryEntry(0, count, best_valid.cost, True, best_valid.cost),)
    return SearchResult(best_valid, None, history, cfg.seed, count, valid_proposals=n_valid)
