"""Check that two checkouts of qeclab give the same outputs, bit for bit.

Usage, from anywhere:

    python3 tools/same_outputs.py --base ../parent --change . --seeds 3 7 11 --programs 3000

In each checkout, a child process imports ``qeclab`` from the checkout's
``src`` and runs ``qeclab.cli.main`` in-process over five parts:

* every command of the ``verify_suite`` benchmark workload at each seed (its
  warm-up batch, then its timed batch), then ``simulate-pulses --unitary``
  on every pulse file those commands wrote, then ``verify-code --code
  five-qubit --encoder`` this repository's ``tests/data/encoder_24.qc.json``,
  a custom encoder that is checked on every command;
* four pulse files that fail to parse, each run through ``simulate-pulses``
  twice, so that its error is compared before and after its valid matrices
  are checked in the process: a malformed matrix, a matrix that is not
  unitary, a label that is not a string, and a valid entry repeated around a
  bad one with its numbers; then
  ``--programs`` pulse programs, in turn compiled (``compile --out`` of a
  random circuit on 2-6 qubits), spliced (that program with 1-3 random
  pulses inserted) and leaky (0-40 random pulses of a random subset of kinds,
  on 1-6 ions), each run through ``simulate-pulses --unitary``;
* at each seed, the ``encoder_search`` benchmark workload's commands (its
  warm-up, then its timed command), then ``search --start`` this
  repository's ``tests/data/encoder_24.qc.json`` at budget 1000 and 2
  restarts in each of the modes ``exact`` and ``auto``, then five searches
  that cover how the restarts' climbs are merged: a random start that finds
  nothing valid in each mode (``search --budget 60 --restarts 3 --max-ops 6
  --mode exact``, and ``--mode auto``, whose best invalid circuit reports
  its worst Knill-Laflamme violation), and ``search --start reference`` at
  ``--restarts 5``, at ``--restarts 1``, whose one restart climbs in the
  caller, and at ``--restarts 4``; then ``search --budget 3000 --restarts 3
  --max-ops 10 --mode auto``, a random start whose walk is steered by
  thousands of comparisons of Knill-Laflamme violations;
* at each seed, the ``figure5_mc`` benchmark workload's commands (its
  warm-up, then its timed command), then three MC commands at the job
  boundaries: ``noise --scheme phase3 --n 3 --t 0 0.5 1.5 --shots 9000``,
  whose points span two full MC blocks and a partial one; ``figure5
  --steps 3 --shots 4097``, where one trajectory rides with a full block;
  and ``noise --scheme phase3 --n 10 --t 1 --shots 20000``, one point of
  several jobs; and two lone points, ``noise --scheme phase3 --n 3 --t 0.7``
  at ``--shots 8191``, whose partial block is a job of its own when a
  worker would idle, and at ``--shots 4097``, whose one extra trajectory
  never is;
* two exact-only commands: ``noise --scheme phase3 --n 10`` at 1,500 evenly
  spaced times in [0, 3], which cross a chunk of the exact route, and
  ``figure5 --steps 60`` without shots.

The child runs with one BLAS thread and no ``*SEED*`` variable in the
environment, as ``perfbench/run.py`` runs commands. A second child then runs
the MC part again, as ``mc_default_blas``, with OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS and OMP_NUM_THREADS unset, so that BLAS picks its own thread
count and qeclab runs its MC jobs on one worker. Every child runs in the
same fresh work directory, since paths appear in the output. For each
command the sha-256 of
stdout, of stderr and of the file it writes (``--out``), and the exit code,
must be equal. JSON floats keep every bit and the sign of zero, so equal text
means equal bits. The summary and up to 20 differences are printed; the exit
code is 1 on any difference. The ``verify_suite``, ``encoder_search`` and
``figure5_mc`` commands come from this repository's ``perfbench/workloads.py``,
which is imported and not changed. Standard library and NumPy only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ENCODER_24 = ROOT / "tests" / "data" / "encoder_24.qc.json"
SEARCH_MODES = ("exact", "auto")
SEARCH_MERGES = [["search", "--budget", "60", "--restarts", "3", "--max-ops", "6", "--mode", "exact"],
                 ["search", "--budget", "60", "--restarts", "3", "--max-ops", "6", "--mode", "auto"],
                 ["search", "--start", "reference", "--budget", "500", "--restarts", "5"],
                 ["search", "--start", "reference", "--budget", "500", "--restarts", "1"],
                 ["search", "--start", "reference", "--budget", "400", "--restarts", "4"],
                 ["search", "--budget", "3000", "--restarts", "3", "--max-ops", "10", "--mode", "auto"]]
MC_NOISE = ["noise", "--scheme", "phase3", "--n", "3", "--psi", "iplus", "--t", "0", "0.5", "1.5",
            "--shots", "9000"]
MC_FIGURE5_RIDER = ["figure5", "--steps", "3", "--shots", "4097"]
MC_ONE_POINT = ["noise", "--scheme", "phase3", "--n", "10", "--t", "1", "--shots", "20000"]
MC_LONE_POINTS = [["noise", "--scheme", "phase3", "--n", "3", "--t", "0.7", "--shots", shots]
                  for shots in ("8191", "4097")]
EXACT_NOISE = ["noise", "--scheme", "phase3", "--n", "10", "--t",
               *map(repr, np.linspace(0.0, 3.0, 1500).tolist())]
EXACT_FIGURE5 = ["figure5", "--steps", "60"]
PROGRAM_SEED = 2026
# A rotation no compiled program holds, so that its first check is in these files.
ROTATION = {"kind": "OneQubit", "ion": 0, "matrix": [[[0.6, 0.0], [-0.8, 0.0]], [[0.8, 0.0], [0.6, 0.0]]]}
MALFORMED_PROGRAMS = {
    "matrix": [{"kind": "WPhon", "ion": 0}, {**ROTATION, "matrix": [[[0.6, 0.0], ["-0.8", 0.0]],
                                                                    [[0.8, 0.0], [0.6, 0.0]]]}],
    "unitary": [ROTATION, {**ROTATION, "ion": 1, "matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]}],
    "label": [{**ROTATION, "label": 3}],
    "repeated": [ROTATION, {**ROTATION, "dag": True}, {**ROTATION, "ion": 1, "label": ["R"]}, ROTATION],
}
FAMILIES = ("compiled", "spliced", "leaky")
PULSE_KINDS = ("WPhon", "VPulse", "VPhon", "OneQubit")     # each with a ``dag`` flag
SHOWN = 20
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import same_outputs; "
         "same_outputs.child(*sys.argv[2:])")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(main, argv: list) -> dict:
    """One CLI command in this process: the digests of what it printed and
    wrote, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:           # argparse rejected the command line
        code = exc.code
    except Exception as exc:            # a crash is an output too
        code = f"crashed: {type(exc).__name__}: {exc}"
    written = argv[argv.index("--out") + 1] if "--out" in argv else None
    return {"argv": argv, "stdout": _digest(out.getvalue().encode()),
            "stderr": _digest(err.getvalue().encode()), "code": code,
            "out": _digest(Path(written).read_bytes()) if written and Path(written).is_file() else None}


def _random_entry(n: int, rng, kinds) -> dict:
    """A pulse entry in the ``pulses_from_json`` format; a OneQubit matrix is
    a random 2x2 unitary."""
    kind = kinds[int(rng.integers(len(kinds)))]
    doc = {"kind": kind, "ion": int(rng.integers(n)), "dag": bool(rng.integers(2))}
    if kind == "OneQubit":
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        doc["matrix"] = [[[float(v.real), float(v.imag)] for v in row] for row in q]
    return doc


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def program_commands(i: int, folder: Path, run) -> None:
    """Write program ``i`` of the stress set into ``folder`` and run its
    commands through ``run(argv)``."""
    from perfbench.workloads import random_circuit
    rng = np.random.default_rng([PROGRAM_SEED, i])
    family = FAMILIES[i % len(FAMILIES)]
    pulses = folder / f"p{i:05d}.pulses.json"
    if family == "leaky":
        n = int(rng.integers(1, 7))
        kinds = [k for k in PULSE_KINDS if rng.random() < 0.5] or [PULSE_KINDS[int(rng.integers(4))]]
        _write_json(pulses, [_random_entry(n, rng, kinds) for _ in range(int(rng.integers(0, 41)))])
    else:
        n = int(rng.integers(2, 7))
        circuit = folder / f"p{i:05d}.qc.json"
        _write_json(circuit, random_circuit(n, int(rng.integers(0, 31)), rng))
        run(["compile", "--circuit", str(circuit), "--out", str(pulses)])
        if family == "spliced" and pulses.is_file():
            docs = json.loads(pulses.read_text(encoding="utf-8"))
            for _ in range(int(rng.integers(1, 4))):
                docs.insert(int(rng.integers(len(docs) + 1)), _random_entry(n, rng, PULSE_KINDS))
            _write_json(pulses, docs)
    run(["simulate-pulses", "--pulses", str(pulses), "--ions", str(n), "--unitary"])


def verify_suite_commands(main, workdir: Path, seeds: list, programs: int) -> list:
    from perfbench.workloads import verify_suite
    records = []
    for seed in seeds:
        folder = workdir / f"verify_suite_seed{seed}"
        folder.mkdir(parents=True)
        wl = verify_suite(seed, folder)
        for op in wl.warmup + wl.unit:
            records.append(run_command(main, op.argv))
        for pulses in sorted(folder.glob("*.pulses.json")):
            circuit = json.loads(pulses.with_name(pulses.name.replace(".pulses", ".qc")).read_text())
            argv = ["simulate-pulses", "--pulses", str(pulses), "--ions", str(circuit["n"]), "--unitary"]
            records.append(run_command(main, argv))
        argv = ["verify-code", "--code", "five-qubit", "--encoder", str(ENCODER_24), "--seed", str(seed)]
        records.append(run_command(main, argv))
    return records


def malformed_commands(folder: Path, run) -> None:
    """Write the pulse files that fail to parse into ``folder`` and run
    ``simulate-pulses`` on each twice through ``run(argv)``."""
    for name, docs in MALFORMED_PROGRAMS.items():
        pulses = folder / f"malformed_{name}.pulses.json"
        _write_json(pulses, docs)
        for _ in range(2):
            run(["simulate-pulses", "--pulses", str(pulses), "--ions", "2"])


def program_set_commands(main, workdir: Path, seeds: list, programs: int) -> list:
    records = []
    folder = workdir / "programs"
    folder.mkdir(parents=True)
    malformed_commands(folder, lambda argv: records.append(run_command(main, argv)))
    for i in range(programs):
        program_commands(i, folder, lambda argv: records.append(run_command(main, argv)))
    return records


def search_commands(main, workdir: Path, seeds: list, programs: int) -> list:
    from perfbench.workloads import encoder_search
    records = []
    for seed in seeds:
        folder = workdir / f"search_seed{seed}"
        folder.mkdir(parents=True)
        wl = encoder_search(seed, folder)
        argvs = [op.argv for op in wl.warmup + wl.unit] + [
            ["search", "--start", str(ENCODER_24), "--budget", "1000", "--restarts", "2",
             "--seed", str(seed), "--mode", mode, "--out", str(folder / f"{mode}.qc.json")]
            for mode in SEARCH_MODES] + [
            argv + ["--seed", str(seed), "--out", str(folder / f"merge{i}.qc.json")]
            for i, argv in enumerate(SEARCH_MERGES)]
        records += [run_command(main, argv) for argv in argvs]
    return records


def mc_commands(main, workdir: Path, seeds: list, programs: int) -> list:
    from perfbench.workloads import figure5_mc
    records = []
    for seed in seeds:
        folder = workdir / f"mc_seed{seed}"
        folder.mkdir(parents=True)
        wl = figure5_mc(seed, folder)
        argvs = [op.argv for op in wl.warmup + wl.unit] + [
            MC_NOISE + ["--seed", str(seed)],
            MC_FIGURE5_RIDER + ["--seed", str(seed), "--out", str(folder / "rider.csv")],
            MC_ONE_POINT + ["--seed", str(seed)],
            *(argv + ["--seed", str(seed)] for argv in MC_LONE_POINTS)]
        records += [run_command(main, argv) for argv in argvs]
    return records


def exact_commands(main, workdir: Path, seeds: list, programs: int) -> list:
    folder = workdir / "exact"
    folder.mkdir(parents=True)
    argvs = (EXACT_NOISE, EXACT_FIGURE5 + ["--out", str(folder / "figure5.csv")])
    return [run_command(main, argv) for argv in argvs]


# The parts of a run, in the order the child runs them.
PARTS = {"verify_suite": verify_suite_commands, "programs": program_set_commands,
         "search": search_commands, "mc": mc_commands, "exact": exact_commands}


def child(src: str, workdir: str, seeds: str, programs: str, parts: str, records: str) -> None:
    """The child process: run the commands of each of ``parts`` on the
    ``qeclab`` in ``src`` and write the records, as a JSON object of lists,
    to ``records``."""
    sys.path[:0] = [src, str(ROOT)]
    import qeclab.cli
    if not Path(qeclab.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"same_outputs: imported {qeclab.cli.__file__}, not from {src}")
    done = {part: PARTS[part](qeclab.cli.main, Path(workdir), json.loads(seeds), int(programs))
            for part in json.loads(parts)}
    Path(records).write_text(json.dumps(done), encoding="utf-8")


def run_child(checkout: Path, workdir: Path, seeds: list, programs: int, parts: list, records: Path,
              env: dict) -> dict:
    """Run the child for one checkout in a fresh ``workdir``; its records."""
    shutil.rmtree(workdir, ignore_errors=True)
    argv = [sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent),
            str(checkout.resolve() / "src"), str(workdir), json.dumps(seeds), str(programs),
            json.dumps(parts), str(records)]
    proc = subprocess.run(argv, cwd=workdir.parent, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"same_outputs: the run in {checkout} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-600:]}")
    return json.loads(records.read_text(encoding="utf-8"))


def run_side(checkout: Path, workdir: Path, seeds: list, programs: int, records: Path) -> dict:
    """Every part's records for one checkout, with one BLAS thread, and the
    ``mc`` part's again as ``mc_default_blas``, with BLAS's own thread count."""
    env = {k: v for k, v in os.environ.items() if "SEED" not in k.upper() and k != "PYTHONPATH"}
    default_blas = {k: v for k, v in env.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = run_child(checkout, workdir, seeds, programs, list(PARTS), records, env)
    again = run_child(checkout, workdir, seeds, programs, ["mc"], records, default_blas)
    done["mc_default_blas"] = again["mc"]
    return done


def compare(base: list, change: list) -> list:
    """The differences between two lists of command records, one line each."""
    diffs = []
    if len(base) != len(change):
        diffs.append(f"{len(base)} commands on the base, {len(change)} on the change")
    for i, (b, c) in enumerate(zip(base, change)):
        if b["argv"] != c["argv"]:
            diffs.append(f"command {i}: {' '.join(b['argv'])} on the base, {' '.join(c['argv'])} on the change")
            continue
        fields = [f for f in ("stdout", "stderr", "code", "out") if b[f] != c[f]]
        if fields:
            diffs.append(f"command {i}: {' '.join(b['argv'])}: {', '.join(fields)} differ")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the base commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 7, 11],
                        help="verify_suite seeds (default 3 7 11)")
    parser.add_argument("--programs", type=int, default=3000,
                        help="pulse programs in the stress set (default 3000)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        workdir, sides, seconds = Path(tmp) / "work", {}, {}
        for side in ("base", "change"):
            start = time.perf_counter()
            sides[side] = run_side(getattr(args, side), workdir, args.seeds, args.programs,
                                   Path(tmp) / f"{side}.json")
            seconds[side] = time.perf_counter() - start
    diffs, counts = [], []
    for part in (*PARTS, "mc_default_blas"):
        found = compare(sides["base"][part], sides["change"][part])
        diffs += [f"{part} {line}" for line in found]
        counts.append(f"{len(sides['change'][part])} {part} commands, {len(found)} differ")
    print(f"same_outputs: seeds {' '.join(map(str, args.seeds))}, {args.programs} programs: "
          f"{'; '.join(counts)} (base {seconds['base']:.0f} s, change {seconds['change']:.0f} s)")
    for line in diffs[:SHOWN]:
        print(f"  {line}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
