"""Benchmark qeclab through its CLI, end to end or with per-layer spans.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload figure5_mc --seed 1 --seconds 25 --trace 0

Commands run in this process through ``qeclab.cli.main(argv)``, one at a
time (a closed loop with a single client). ``--trace 0`` measures the
end-to-end metrics for ``--seconds`` seconds; ``--trace 1`` alternates fixed
repetitions of the workload untraced and traced, and reports per-layer
metrics from the first traced one. Every command's output is checked against
``perfbench/reference.py``. The last stdout line is the result object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 2 when
the qeclab sources cannot be loaded.
"""

from __future__ import annotations

import os
import sys

# Fixed before NumPy loads, identically on every commit: the BLAS thread count
# changes MC timings by about 10 %. Seed variables are dropped because
# QECC_SEED silently changes the CLI's default seed.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)
for _key in [k for k in os.environ if "SEED" in k.upper()]:
    del os.environ[_key]

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

import numpy as np

from perfbench import spans
from perfbench.workloads import WORKLOADS

MIN_SETUP_SAMPLES = 5
TRACE_ROUNDS = 3
SETUP_SCRIPT = """
import contextlib, io, sys
import qeclab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = qeclab.cli.main(["noise", "--scheme", "phase3", "--t", "0"])
sys.exit(code)
"""


class ProgramError(Exception):
    """The program under test cannot be loaded or started."""


def load_cli(src: Path):
    cli_file = src / "qeclab" / "cli.py"
    if not cli_file.is_file():
        raise ProgramError(f"no qeclab sources at {src}")
    sys.path.insert(0, str(src))
    import qeclab.cli
    if Path(qeclab.cli.__file__).resolve() != cli_file.resolve():
        raise ProgramError(f"imported {qeclab.cli.__file__}, not {cli_file}")
    return qeclab.cli


def setup_sample(src: Path) -> float:
    """Seconds from a fresh interpreter to ``qeclab.cli`` imported and the
    lazy phase3 noise model built."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise ProgramError(f"set-up run exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed


def run_op(cli, op) -> dict:
    """Run one command; a non-zero exit, a crash or a wrong output is a failure."""
    out, err = io.StringIO(), io.StringIO()
    problems = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:       # argparse rejected the command line
        code = exc.code
    except Exception:
        code = None
        problems.append("crashed: " + traceback.format_exc().strip().splitlines()[-1])
    seconds = time.perf_counter() - start
    work = 0
    if code == 0:
        try:
            work, problems = op.check(out.getvalue())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    elif not problems:
        problems = [f"exit code {code}: {err.getvalue().strip()[:300]}"]
    if problems:
        print(f"perfbench: FAILED {' '.join(op.argv[:3])} ...: {problems[:3]}", file=sys.stderr)
        work = 0
    return {"seconds": seconds, "work": work, "failed": bool(problems)}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measured_run(cli, wl, seconds: int, src: Path):
    """Repeat the workload's unit for ``seconds``, taking one set-up sample
    after each repetition so that set-up is sampled across the whole run."""
    setup_sample(src)                 # discarded: the first start writes bytecode
    results = [run_op(cli, op) for op in wl.warmup]
    timed, setup = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        timed += [run_op(cli, op) for op in wl.unit]
        setup.append(setup_sample(src))
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(setup_sample(src))
    results += timed
    busy = sum(r["seconds"] for r in timed)
    cmd_ms = [1000 * r["seconds"] for r in timed]
    attempted, failed = len(results), sum(r["failed"] for r in results)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ops_frac": ((attempted - failed) / attempted, "fraction"),
        "work_per_s": (sum(r["work"] for r in timed) / busy, "1/s"),
        "cmd_p50_ms": (statistics.median(cmd_ms), "ms"),
        "cmd_p90_ms": (percentile(cmd_ms, 0.9), "ms"),
    }
    report = {
        "workload": wl.name,
        "work_unit": wl.work_unit,
        "commands_per_repetition": len(wl.unit),
        "timed_commands": len(timed),
        "busy_s": busy,
        "setup_samples": len(setup),
        "failed_ops_frac": {"value": failed / attempted, "unit": "fraction",
                            "failed": failed, "attempted": attempted},
    }
    named_rate = {"figure5_mc": "mc_traj_per_s", "encoder_search": "search_iters_per_s",
                  "verify_suite": "verify_cmds_per_s"}[wl.name]
    report[named_rate] = {"value": metrics["work_per_s"][0], "unit": "1/s"}
    if wl.name == "encoder_search":
        report["search_best_cost"] = {"value": wl.facts.get("best_cost"), "unit": "pulses"}
    if wl.name == "verify_suite":
        for q in ("p50", "p90"):
            report[f"verify_cmd_{q}_ms"] = {"value": metrics[f"cmd_{q}_ms"][0], "unit": "ms",
                                             "samples": len(timed)}
    return results, metrics, report


def traced_run(cli, wl, trace_path: Path, header: dict):
    """Alternate untraced and traced repetitions; per-layer metrics come from
    the first traced repetition, the overhead from the medians of all."""
    results = [run_op(cli, op) for op in wl.warmup]
    untraced_s, traced_s, first = [], [], None
    for _ in range(TRACE_ROUNDS):
        plain = [run_op(cli, op) for op in wl.unit]
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            traced = []
            for request, op in enumerate(wl.unit, start=1):
                tracer.request = request
                traced.append(run_op(cli, op))
        finally:
            spans.uninstall(undo)
        results += plain + traced
        untraced_s.append(sum(r["seconds"] for r in plain))
        traced_s.append(sum(r["seconds"] for r in traced))
        first = first or tracer
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    first.write(trace_path, header)
    values = spans.per_layer_metrics(first, {
        "search.best_cost": wl.facts.get("best_cost") or 0,
        "trace.overhead_frac": overhead,
    })
    metrics = {name: (value, spans.UNITS[name]) for name, value in values.items()}
    report = {"workload": wl.name, "spans": len(first.spans), "span_file": str(trace_path),
              "untraced_s": untraced_s, "traced_s": traced_s}
    return results, metrics, report


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref_file = ROOT / ".git" / text[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + text[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int, program_seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
        "program_seed": program_seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    program_seed = args.seed % 2**32    # qeclab seeds must be non-negative
    try:
        cli = load_cli(src)
        workdir_root = ROOT / ".perfbench_work"
        workdir_root.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir_root))
        try:
            wl = WORKLOADS[args.workload](program_seed, workdir)
            if args.trace:
                header = {"workload": args.workload, "seed": args.seed,
                          "fields": ["id", "parent", "request", "name", "start_ns", "end_ns"]}
                trace_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
                results, metrics, report = traced_run(cli, wl, trace_path, header)
            else:
                results, metrics, report = measured_run(cli, wl, args.seconds, src)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):   # still in use by a concurrent run
                workdir_root.rmdir()
    except ProgramError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if wl.mix:
        report["input_mix"] = wl.mix
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"perfbench_environment": environment(args.seed, program_seed)}))
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
