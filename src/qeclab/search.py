"""Randomized search for cheap encoder circuits.

Hill climbing with random restarts over op-level moves (insert, delete,
replace, swap two ops) on the five-qubit register. A candidate is scored
lexicographically: validity first, then pulse cost (the ion-trap cost law)
for valid circuits or the worst correction-condition violation for invalid
ones, then op count. The best *valid* candidate can only improve over the
run, and it is re-checked from scratch at the end.

One verdict rule, ``_verdict``, serves both checks, each with its own
Knill-Laflamme image builder: the climb gathers all 32 error images of a
proposal's codeword block at once (``codes._error_images``), and the final
re-check, like ``is_valid_perfect_code``, builds them with one
``apply_error`` each inside the public ``check_knill_laflamme``. Both give
the same bits, and a fault in the climb's builder cannot pass the re-check.

Restarts are keyed by (seed, restart index), so a run is reproducible and
restarts can execute in any order. They are cut into contiguous ranges, one
per worker process of a small pool (a process per usable CPU, at most four,
made on first use), and a lone range climbs in the caller. Each climb
returns the iterations where it beat its own bests; the caller replays
them in restart order, so the result has the same bytes at any worker count.
The workers ignore Ctrl-C, which stops the caller and so the pool; they are
made with SIGINT blocked, so that holds while they start, too.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .circuits import Circuit, GateOp, SINGLE_QUBIT_KINDS, _apply_op_array
from .codes import (
    CodeSpec,
    KnillLaflammeResult,
    _error_images,
    _kl_reduction,
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


def is_valid_perfect_code(circuit: Circuit, mode: str = "auto") -> ValidityResult:
    """Does the circuit encode a code correcting every single-qubit error?

    ``mode="exact"`` also demands the generated codewords match the reference
    five-qubit codewords up to one common global phase; ``"auto"`` accepts any
    distance-3 code and reports the strongest property that holds: ``"exact"``,
    else ``"kl"``.
    """
    if mode not in VALIDITY_MODES:
        raise ValueError(f"unknown validity mode {mode!r}; expected one of {', '.join(VALIDITY_MODES)}")
    if circuit.n_qubits != N_QUBITS:
        raise ValueError(f"the perfect-code check applies to {N_QUBITS}-qubit circuits")
    return _verdict(codeword_block(circuit), mode, _per_error_kl)


def _per_error_kl(block: np.ndarray) -> KnillLaflammeResult:
    """The public Knill-Laflamme check, one ``apply_error`` per image."""
    candidate = CodeSpec._trusted("candidate", *(PureState._trusted(N_QUBITS, w) for w in block.T))
    return check_knill_laflamme(candidate, _FIVE_QUBIT_ERRORS)


def _stacked_kl(block: np.ndarray) -> KnillLaflammeResult:
    """The same check with the same bits, its images built in one gather:
    the climb's check."""
    return _kl_reduction(_error_images(block, _FIVE_QUBIT_ERRORS))


def _verdict(block: np.ndarray, mode: str, kl_check) -> ValidityResult:
    """``is_valid_perfect_code`` of a checked mode and a five-qubit circuit's
    ``codeword_block``, with ``kl_check`` as the Knill-Laflamme check. A
    circuit is unitary, so its codewords are orthonormal to rounding;
    ``"auto"`` matches them to the reference only once the Knill-Laflamme
    check passes, to name the code."""
    if mode == "exact":
        mismatch = _reference_mismatch(block)
        if mismatch < 1e-10:
            return ValidityResult(True, "exact", 0.0)
        return ValidityResult(False, None, mismatch)
    kl = kl_check(block)
    if not kl.ok:
        return ValidityResult(False, None, kl.worst_violation)
    return ValidityResult(True, "exact" if _reference_mismatch(block) < 1e-10 else "kl", 0.0)


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


def _accept_key(cand: Candidate):
    """A proposal is taken when its key is no worse than the current one's,
    so equal-quality proposals are taken too; walking plateaus is what gets
    the climb off flat regions."""
    penalty = float(cand.cost) if cand.valid else 1e6 + cand.violation
    return (0 if cand.valid else 1, penalty, len(cand.circuit.ops))


def _improves(cand: Candidate, best_valid: Optional[Candidate],
              best_invalid: Optional[Candidate]) -> bool:
    """Does ``cand`` beat the bests so far: a lower cost when valid, a lower
    violation when invalid while nothing valid has been found?"""
    if cand.valid:
        return best_valid is None or cand.cost < best_valid.cost
    return best_valid is None and (best_invalid is None or cand.violation < best_invalid.violation)


def _climb(cfg: SearchConfig, restart: int) -> tuple:
    """One restart's hill climb: its generator, its start, then
    ``cfg.budget // cfg.restarts`` proposals.

    Returns ``(accepted, valid_proposals, records)``, where ``records`` holds
    ``(iteration, current)`` at each iteration where the current candidate
    beat this restart's own bests (``_improves``). The search's bests are
    never worse than one restart's, so these are the only iterations at
    which they can change.
    """
    def evaluate(circuit: Circuit, parent_ops: tuple = (), parent_prefixes: Optional[list] = None):
        """The candidate and its (codeword block, pulse cost) after each op
        prefix: the parent's up to the first op that is not the parent's very
        object, then one more per op after it."""
        ops, k = circuit.ops, 0
        while k < len(ops) and k < len(parent_ops) and ops[k] is parent_ops[k]:
            k += 1
        prefixes = (parent_prefixes or [(codeword_block(Circuit(N_QUBITS)), 0)])[:k + 1]
        for op in ops[k:]:
            block, cost = prefixes[-1]
            prefixes.append((_apply_op_array(block, op, N_QUBITS), cost + op_pulse_cost(op)))
        block, cost = prefixes[-1]
        res = _verdict(block, cfg.validity_mode, _stacked_kl)
        return Candidate(circuit, cost, res.valid, res.mode, res.violation), prefixes

    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(restart,)))
    start = cfg.start if cfg.start is not None else random_circuit(
        N_QUBITS, int(rng.integers(1, cfg.max_ops + 1)), rng, cfg.alphabet)
    current, prefixes = evaluate(start)
    best_valid: Optional[Candidate] = None
    best_invalid: Optional[Candidate] = None
    records = []
    accepted = valid_proposals = 0

    for it in range(cfg.budget // cfg.restarts):
        proposal, proposal_prefixes = evaluate(mutate(current.circuit, cfg, rng),
                                               current.circuit.ops, prefixes)
        valid_proposals += proposal.valid
        if _accept_key(proposal) <= _accept_key(current):
            current, prefixes = proposal, proposal_prefixes
            accepted += 1
        if _improves(current, best_valid, best_invalid):
            if current.valid:
                best_valid = current
            else:
                best_invalid = current
            records.append((it, current))
    return accepted, valid_proposals, records


def _climbs(cfg: SearchConfig, first: int, stop: int) -> list:
    """The climbs of restarts ``first .. stop - 1``, in order."""
    return [_climb(cfg, restart) for restart in range(first, stop)]


# --- climbing restarts on a small process pool ------------------------------------

# Processes that climb restarts, at most; fewer when the process may use fewer CPUs.
_MAX_WORKERS = 4
_MASKS = hasattr(signal, "pthread_sigmask")      # POSIX only: a thread's signal mask


def _workers() -> int:
    """Processes that climb a search's restarts: the CPUs this process may
    use, at most ``_MAX_WORKERS``."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _orphan_watch() -> None:
    """End this worker once its parent sentinel reports the caller gone, under any start method."""
    from multiprocessing import connection, parent_process
    connection.wait([parent_process().sentinel])
    os._exit(1)


def _worker_start() -> None:
    """In each worker: leave Ctrl-C to the caller, which stops the pool, and
    exit as soon as the caller is gone, however it ended (a worker blocked on
    an empty queue would otherwise wait forever). The worker started with
    SIGINT blocked (``_sigint_held``), so a Ctrl-C while it started, even while
    a spawned one imported its modules, is dropped here unseen."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if _MASKS:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    threading.Thread(target=_orphan_watch, daemon=True).start()


@contextlib.contextmanager
def _sigint_held():
    """Hold a Ctrl-C while the pool makes its processes, then deliver it.

    This thread blocks SIGINT, so each process it makes starts with the
    signal blocked, under every start method (a spawned one keeps the mask
    across its exec) until ``_worker_start`` ignores it. In the main thread
    the handler is swapped for one that only notes the signal, since a
    thread that does not block it, such as an OpenBLAS worker, may take it;
    a Ctrl-C noted meanwhile is raised again once both are restored."""
    held = []
    handler = signal.getsignal(signal.SIGINT) if threading.current_thread() is threading.main_thread() else None
    if handler is not None:
        signal.signal(signal.SIGINT, lambda *args: held.append(args))
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT}) if _MASKS else None
    try:
        yield
    finally:
        if _MASKS:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if handler is not None:
            signal.signal(signal.SIGINT, handler)
            if held:
                signal.raise_signal(signal.SIGINT)


@lru_cache(maxsize=None)
def _pool(workers: int):
    """The pool of ``workers`` processes, made on first use and shut down at
    exit: ``concurrent.futures`` loads only then, so a command with no search
    of several restarts starts no process."""
    import atexit
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers, initializer=_worker_start)
    atexit.register(pool.shutdown)
    return pool


def _stop(pool) -> None:
    """End the pool's workers now, not after their climbs, and forget it; the
    next search makes a new one."""
    processes = list((pool._processes or {}).values())   # as Python 3.14's terminate_workers()
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()
    for process in processes:
        process.join()
    _pool.cache_clear()


def _all_climbs(cfg: SearchConfig) -> list:
    """Every restart's climb, in restart order.

    The restarts are cut into ``min(restarts, _workers())`` contiguous,
    near-equal ranges. One range runs in the caller, since a worker could
    run nothing beside it; several run on the pool, one job each. An
    exception or an interrupt while the jobs run stops the pool, so that no
    climb outlives the call; a lost worker ends it in ``ChildProcessError``.
    """
    workers = _workers()
    parts = min(cfg.restarts, workers)
    if parts == 1:
        return _climbs(cfg, 0, cfg.restarts)
    cuts = [cfg.restarts * i // parts for i in range(parts + 1)]
    from concurrent.futures import BrokenExecutor      # loaded by _pool in any case
    pool = _pool(workers)
    try:
        with _sigint_held():                       # the pool makes its processes in submit
            jobs = [pool.submit(_climbs, cfg, first, stop) for first, stop in zip(cuts, cuts[1:])]
        return [climb for job in jobs for climb in job.result()]
    except BaseException as exc:
        _stop(pool)
        if isinstance(exc, BrokenExecutor):       # a worker was killed, say
            raise ChildProcessError("a search worker ended before its climbs were done") from exc
        raise


def search(cfg: SearchConfig) -> SearchResult:
    """Hill-climb from the start circuit (or a random one per restart).

    Returns the cheapest valid candidate found, plus the full cost trace.
    When the budget runs out without a valid candidate the result carries the
    least-violating circuit as a diagnostic instead. The restarts' climbs
    are merged in restart order, so the result is the same at any worker count.
    """
    best_valid: Optional[Candidate] = None
    best_invalid: Optional[Candidate] = None
    history = []
    accepted = valid_proposals = 0

    for restart, (climb_accepted, climb_valid, records) in enumerate(_all_climbs(cfg)):
        accepted += climb_accepted
        valid_proposals += climb_valid
        for it, current in records:
            if _improves(current, best_valid, best_invalid):
                if current.valid:
                    best_valid = current
                else:
                    best_invalid = current
                history.append(HistoryEntry(restart, it, current.cost, current.valid,
                                            current.cost if current.valid else None))

    if best_valid is not None:
        if not is_valid_perfect_code(best_valid.circuit, cfg.validity_mode).valid:   # from scratch
            raise AssertionError("search bookkeeping reported an invalid circuit as valid")
        best_invalid = None
    return SearchResult(best_valid, best_invalid, tuple(history), cfg.seed,
                        cfg.restarts * (cfg.budget // cfg.restarts), accepted, valid_proposals)
