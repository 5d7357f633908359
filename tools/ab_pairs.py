"""Run perfbench in two checkouts as alternating pairs and keep every result.

Usage, from anywhere:

    python3 tools/ab_pairs.py --base ../parent --change . --workload verify_suite \
        --seed 11 --pairs 10 --label verify_suite_seed11

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one after the other; even pairs start with
the base, odd pairs with the change, so a drift in host speed falls on both
sides alike. The run length defaults to ``run_seconds`` in the change
checkout's ``BENCHMARK.json``, so both sides run as the benchmark does.

The file ``BENCH_<label>.json`` (in ``--out``, the current directory by
default) holds every run's result line, with the CPUs the process may use
and the 1-minute load average just before the run, and, per metric, the
median and quartiles of each side and the number of pairs the change won. A
metric's direction and bound come from ``BENCHMARK.json`` too, and give it a
verdict:

* ``regressed``: the change's median is worse than the base's by more than
  ``bound`` times the base median;
* ``unresolved``: the base's interquartile range is wider than that margin,
  and not every change run beats every base run;
* ``held``: otherwise.

Metrics it does not declare are reported without win counts or verdicts.
With ``--claim METRIC`` the summary also marks that metric ``improved`` when
the change wins at least 9 in 10 pairs (every pair when there are fewer than
10) and its median beats the base's by more than the base's interquartile
range, and ``not shown`` otherwise; the verdict is printed too.
Each checkout is recorded by its git commit, marked "+dirty" when tracked
files differ from it. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def host_state() -> dict:
    """The CPUs this process may use and the 1-minute load average: a gain
    from threads depends on the cores left free."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpus": cpus, "load_1min": os.getloadavg()[0]}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run, with the host's state just before it; the run's
    last stdout line is the result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    host = host_state()
    start = time.time()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    return {"started": start, **host, "result": json.loads(lines[-1])}


def revision(checkout: Path) -> str:
    """The checkout's commit, marked "+dirty" when tracked files differ from it."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit is None:
        return "unknown (not a git checkout)"
    return commit + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def benchmark(checkout: Path) -> dict:
    path = checkout / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def claim_verdict(entry: dict) -> str:
    """``improved`` or ``not shown``, for a declared metric's summary entry."""
    pairs = entry["pairs"]
    needed = pairs if pairs < 10 else -(-9 * pairs // 10)
    shown = entry["change_wins"] >= needed and entry["median_gain"] > entry["base"]["iqr"]
    return "improved" if shown else "not shown"


def summarise(runs: list, declared: dict, claim: str = None) -> dict:
    """Per metric, each side's spread and, for a metric in ``declared`` (its
    ``BENCHMARK.json`` entry by name), the change's wins and its verdict;
    the ``claim`` metric also gets its claim verdict."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    names = sorted(set.intersection(*(set(m) for p in pairs.values() for m in p.values())))
    summary = {}
    for name in names:
        base = [p["base"][name]["value"] for p in pairs.values()]
        change = [p["change"][name]["value"] for p in pairs.values()]
        entry = {"unit": pairs[0]["base"][name]["unit"], "base": spread(base),
                 "change": spread(change)}
        if name in declared:
            better, bound = declared[name]["better"], declared[name]["bound"]
            sign = 1 if better == "higher" else -1
            entry["better"] = better
            entry["bound"] = bound
            entry["change_wins"] = sum(sign * (c - b) > 0 for b, c in zip(base, change))
            entry["pairs"] = len(base)
            entry["median_gain"] = sign * (entry["change"]["median"] - entry["base"]["median"])
            margin = bound * abs(entry["base"]["median"])
            if -entry["median_gain"] > margin:
                entry["verdict"] = "regressed"
            elif (entry["base"]["iqr"] > margin
                  and min(sign * c for c in change) <= max(sign * b for b in base)):
                entry["verdict"] = "unresolved"     # not every change run beats every base run
            else:
                entry["verdict"] = "held"
            if name == claim:
                entry["claim"] = claim_verdict(entry)
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, help="run length (default: run_seconds)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, default=Path("."))
    parser.add_argument("--claim", metavar="METRIC",
                        help="an end-to-end metric the change claims to improve")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    declared = benchmark(sides["change"])
    end_to_end = {m["name"]: m for m in declared.get("end_to_end", [])}
    if args.claim is not None and args.claim not in end_to_end:
        parser.error(f"--claim {args.claim}: not an end-to-end metric of BENCHMARK.json")
    seconds = args.seconds or declared.get("run_seconds", 25)
    revisions = {side: revision(path) for side, path in sides.items()}
    runs = []
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            run = run_once(sides[side], args.workload, args.seed, seconds)
            runs.append({"pair": pair, "side": side, "first": side == order[0], **run})
            print(f"pair {pair} {side}: {json.dumps(run['result']['metrics'])}", file=sys.stderr)
    doc = {"label": args.label, "workload": args.workload, "seed": args.seed,
           "seconds": seconds, "pairs": args.pairs,
           "revisions": revisions,
           "runs": runs,
           "summary": summarise(runs, end_to_end, args.claim)}
    out = args.out / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(out)
    if args.claim is not None:
        entry = doc["summary"][args.claim]
        print(f"claim {args.claim}: {entry['claim']} (change wins {entry['change_wins']} of "
              f"{entry['pairs']}; median {entry['base']['median']:.6g} -> "
              f"{entry['change']['median']:.6g}; base IQR {entry['base']['iqr']:.6g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
