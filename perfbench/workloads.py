"""The three benchmark workloads, as lists of qeclab CLI commands.

Every command is built from the benchmark seed, takes that seed as
``--seed`` where the subcommand has one, and carries a check that compares
its output with ``reference`` (never with qeclab itself).

* ``figure5_mc`` -- the Monte-Carlo coherence curves: nearly all time in the
  noise layer's trajectory route; never enters search or iontrap.
* ``encoder_search`` -- hill climbing from the shipped encoder: many small
  KL checks, circuit runs and pulse counts; never touches noise, dense
  unitaries or pulse simulation.
* ``verify_suite`` -- about a hundred short commands per batch: compile and
  pulse-simulate random 3-6 qubit circuits (dense kernels, file round trips),
  verify the three codes, and exact-only noise curves.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import reference as ref

FIGURE5_CURVES = (("uncoded", 1), ("zeno2", 1), ("phase3", 1), ("phase3", 10))
# Commands of about 2-3 s each, so that a run holds ten or more repetitions.
FIGURE5_TMAX, FIGURE5_STEPS, FIGURE5_SHOTS = 3.0, 2, 5000
SEARCH_BUDGET, SEARCH_RESTARTS = 500, 2
NOISE_GRID = [3.0 * i / 60 for i in range(61)]
VERIFY_QUBITS = (3, 4, 5, 6)          # equal counts, so a quarter are 6-qubit circuits
VERIFY_CIRCUITS_PER_SIZE = 12
VERIFY_OPS = (20, 40)


@dataclass
class Op:
    """One CLI command; ``check(stdout)`` returns (work units, problems)."""

    argv: list
    check: Callable[[str], tuple]


@dataclass
class Workload:
    name: str
    work_unit: str       # what one unit of ``work`` is, for the report
    warmup: list         # run first, checked, not timed
    unit: list           # one repetition of the measured work
    facts: dict = field(default_factory=dict)   # values the checks observed
    mix: dict = field(default_factory=dict)     # description of generated inputs


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _figure5_op(seed: int, out: Path, shots: int) -> Op:
    grid = [FIGURE5_TMAX * i / FIGURE5_STEPS for i in range(FIGURE5_STEPS + 1)]
    argv = ["figure5", "--tmax", repr(FIGURE5_TMAX), "--steps", str(FIGURE5_STEPS),
            "--shots", str(shots), "--seed", str(seed), "--out", str(out)]

    def check(stdout):
        problems = ref.check_coherence_csv(_read(out), FIGURE5_CURVES, grid, shots)
        return len(FIGURE5_CURVES) * len(grid) * shots, problems

    return Op(argv, check)


def figure5_mc(seed: int, workdir: Path) -> Workload:
    return Workload(
        "figure5_mc", "MC trajectories",
        warmup=[_figure5_op(seed, workdir / "warm.csv", 200)],
        unit=[_figure5_op(seed, workdir / "figure5.csv", FIGURE5_SHOTS)],
    )


def _search_op(seed: int, out: Path, budget: int, facts: dict) -> Op:
    argv = ["search", "--start", "reference", "--budget", str(budget),
            "--restarts", str(SEARCH_RESTARTS), "--mode", "auto",
            "--seed", str(seed), "--out", str(out)]

    def check(stdout):
        doc = json.loads(stdout)
        problems = ref.check_search(doc, json.loads(_read(out)), ref.SHIPPED_ENCODER_PULSES)
        facts["best_cost"] = doc.get("best_cost")
        facts["iterations"] = doc.get("iterations")
        return int(doc["iterations"]), problems

    return Op(argv, check)


def encoder_search(seed: int, workdir: Path) -> Workload:
    wl = Workload("encoder_search", "search iterations", [], [])
    wl.warmup = [_search_op(seed, workdir / "warm.qc.json", 20, {})]
    wl.unit = [_search_op(seed, workdir / "best.qc.json", SEARCH_BUDGET, wl.facts)]
    return wl


def random_circuit(n: int, n_ops: int, rng: np.random.Generator) -> dict:
    """60 % one-qubit gates, 20 % CNOT, 20 % CPHASE on 2..n qubits."""
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.6:
            kind = ref.ONE_QUBIT_KINDS[int(rng.integers(len(ref.ONE_QUBIT_KINDS)))]
            ops.append({"kind": kind, "targets": [int(rng.integers(n))]})
        elif r < 0.8:
            c, t = (int(q) for q in rng.choice(n, size=2, replace=False))
            ops.append({"kind": "CNOT", "controls": [c], "targets": [t]})
        else:
            size = int(rng.integers(2, n + 1))
            chosen = [int(q) for q in rng.choice(n, size=size, replace=False)]
            cut = int(rng.integers(1, size))
            ops.append({"kind": "CPHASE", "controls": sorted(chosen[:cut]),
                        "targets": sorted(chosen[cut:])})
    return {"n": n, "ops": ops}


def _circuit_ops(circuit: dict, stem: Path) -> list:
    """compile --report full --out, then simulate-pulses on the written file."""
    source, pulses = stem.with_suffix(".qc.json"), stem.with_suffix(".pulses.json")
    source.write_text(json.dumps(circuit), encoding="utf-8")

    def check_compile(stdout):
        return 1, ref.check_compile(json.loads(stdout), circuit)

    def check_simulate(stdout):
        return 1, ref.check_simulate(json.loads(stdout), circuit)

    return [
        Op(["compile", "--circuit", str(source), "--report", "full", "--out", str(pulses)],
           check_compile),
        Op(["simulate-pulses", "--pulses", str(pulses), "--ions", str(circuit["n"])],
           check_simulate),
    ]


def _verify_code_op(code: str, seed: int) -> Op:
    def check(stdout):
        doc = json.loads(stdout)
        return 1, [] if doc.get("valid") is True else [f"verify-code {code}: valid is {doc.get('valid')!r}"]

    return Op(["verify-code", "--code", code, "--seed", str(seed)], check)


def _noise_op(scheme: str, reps: int, seed: int) -> Op:
    argv = ["noise", "--scheme", scheme, "--n", str(reps), "--psi", "iplus",
            "--seed", str(seed), "--t", *[repr(t) for t in NOISE_GRID]]

    def check(stdout):
        return 1, ref.check_coherence_csv(stdout, [(scheme, reps)], NOISE_GRID, None)

    return Op(argv, check)


def _mix(circuits) -> dict:
    kinds = Counter(op["kind"] for c in circuits for op in c["ops"])
    cphase = Counter(f"c{len(op['controls'])}t{len(op['targets'])}"
                     for c in circuits for op in c["ops"] if op["kind"] == "CPHASE")
    op_counts = [len(c["ops"]) for c in circuits]
    return {
        "qubits": dict(sorted(Counter(str(c["n"]) for c in circuits).items())),
        "ops_total": sum(op_counts),
        "ops_per_circuit": [min(op_counts), max(op_counts)],
        "ops_by_kind": dict(sorted(kinds.items())),
        "cphase_sizes": dict(sorted(cphase.items())),
    }


def verify_suite(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    # Op counts are spread evenly over the range for each size, so batches
    # from different seeds differ in gate choice, not in how much work they hold.
    lengths = np.round(np.linspace(*VERIFY_OPS, VERIFY_CIRCUITS_PER_SIZE)).astype(int)
    circuits = [random_circuit(n, int(m), rng) for n in VERIFY_QUBITS for m in lengths]
    circuits.append(ref.SHIPPED_ENCODER)
    jobs = [_circuit_ops(c, workdir / f"c{i:03d}") for i, c in enumerate(circuits)]
    jobs += [[_verify_code_op(code, seed)] for code in ("five-qubit", "phase3", "zeno2")]
    jobs += [[_noise_op(scheme, reps, seed)] for scheme, reps in FIGURE5_CURVES]
    order = rng.permutation(len(jobs))
    batch = [op for i in order for op in jobs[i]]
    mix = _mix(circuits)
    mix["commands_per_batch"] = len(batch)
    return Workload("verify_suite", "CLI commands", warmup=batch, unit=batch, mix=mix)


WORKLOADS = {"figure5_mc": figure5_mc, "encoder_search": encoder_search,
             "verify_suite": verify_suite}
