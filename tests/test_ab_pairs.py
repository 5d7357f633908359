"""``tools/ab_pairs.summarise`` on synthetic runs: spreads, win counts and the
verdict each declared end-to-end metric gets from its bound; and the host
state that ``main`` records with each run."""

import importlib.util
import json
import subprocess
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

DECLARED = {"cmd_ms": {"name": "cmd_ms", "better": "lower", "bound": 0.25},
            "work_per_s": {"name": "work_per_s", "better": "higher", "bound": 0.25}}


def runs_of(name: str, base: list, change: list) -> list:
    """Alternating pairs, as ``main`` records them, of one metric."""
    runs = []
    for pair, (b, c) in enumerate(zip(base, change)):
        for side, value in (("base", b), ("change", c)):
            runs.append({"pair": pair, "side": side,
                         "result": {"metrics": {name: {"value": value, "unit": "u"}}}})
    return runs


def summary_of(name: str, base: list, change: list) -> dict:
    return ab_pairs.summarise(runs_of(name, base, change), DECLARED)[name]


def test_spreads_and_wins():
    entry = summary_of("cmd_ms", [10, 11, 12, 13, 14], [9, 11, 13, 12, 15])
    assert entry["base"] == {"median": 12, "q1": 11, "q3": 13, "iqr": 2}
    assert entry["change"]["median"] == 12
    assert (entry["change_wins"], entry["pairs"], entry["median_gain"]) == (2, 5, 0)
    assert (entry["better"], entry["bound"], entry["unit"]) == ("lower", 0.25, "u")


def test_equal_sides_hold():
    assert summary_of("cmd_ms", [10, 10, 10, 10], [10, 10, 10, 10])["verdict"] == "held"


def test_a_median_worse_by_more_than_the_bound_regresses():
    # a margin of 0.25 * 10 = 2.5; the change's median is 3 worse
    assert summary_of("cmd_ms", [10, 10, 10, 10], [13, 13, 13, 13])["verdict"] == "regressed"
    assert summary_of("cmd_ms", [10, 10, 10, 10], [12, 12, 12, 12])["verdict"] == "held"
    assert summary_of("work_per_s", [100, 100, 100], [70, 70, 70])["verdict"] == "regressed"
    assert summary_of("work_per_s", [100, 100, 100], [130, 130, 130])["verdict"] == "held"


def test_a_wide_base_spread_leaves_an_overlapping_change_unresolved():
    # base median 10 and IQR 4, wider than the 2.5 margin
    base = [6, 8, 10, 12, 14]
    assert summary_of("cmd_ms", base, [5, 7, 9, 11, 13])["verdict"] == "unresolved"
    # every change run beats every base run: resolved however wide the base
    assert summary_of("cmd_ms", base, [1, 2, 3, 4, 5])["verdict"] == "held"
    assert summary_of("work_per_s", [60, 80, 100, 120, 140],
                      [150, 160, 170, 180, 190])["verdict"] == "held"


def test_undeclared_metrics_get_spreads_only():
    entry = summary_of("trace_s", [1, 2, 3], [1, 2, 3])
    assert set(entry) == {"unit", "base", "change"}


def claim_of(name: str, base: list, change: list):
    return ab_pairs.summarise(runs_of(name, base, change), DECLARED, claim=name)[name].get("claim")


def test_a_claim_needs_nine_wins_in_ten_and_a_gain_beyond_the_base_iqr():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]    # IQR 0.2
    assert claim_of("cmd_ms", base, [b - 1 for b in base]) == "improved"
    nine = [b - 1 for b in base[:9]] + [base[9] + 1]
    assert claim_of("cmd_ms", base, nine) == "improved"
    eight = [b - 1 for b in base[:8]] + [b + 1 for b in base[8:]]
    assert claim_of("cmd_ms", base, eight) == "not shown"
    # ten wins, but by less than the base's quartile spread
    assert claim_of("cmd_ms", base, [b - 0.1 for b in base]) == "not shown"
    assert claim_of("work_per_s", [100, 90, 110, 100, 95, 105, 100, 98, 102, 100],
                    [120, 112, 130, 121, 118, 125, 119, 117, 124, 122]) == "improved"


def test_fewer_than_ten_pairs_need_every_win():
    assert claim_of("cmd_ms", [10, 11, 12, 13], [5, 6, 7, 8]) == "improved"
    assert claim_of("cmd_ms", [10, 11, 12, 13], [5, 6, 7, 14]) == "not shown"


def test_only_the_claimed_metric_gets_a_claim():
    runs = runs_of("cmd_ms", [10, 11, 12], [5, 6, 7])
    assert "claim" not in ab_pairs.summarise(runs, DECLARED)["cmd_ms"]
    assert "claim" not in ab_pairs.summarise(runs, DECLARED, claim="work_per_s")["cmd_ms"]


def test_each_run_records_the_cpus_and_the_load_just_before_it(monkeypatch, tmp_path):
    """A thread-pool gain depends on free cores, so the record keeps them."""
    loads = [1.5, 2.5, 3.5, 4.5]
    last = {}

    def getloadavg():
        last["load"] = loads.pop(0)
        return last["load"], 0.0, 0.0

    def fake_run(cmd, cwd=None, capture_output=True, text=True):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 1, "", "")
        metrics = {"work_per_s": {"value": last["load"], "unit": "1/s"}}   # the load read before it
        return subprocess.CompletedProcess(cmd, 0, json.dumps({"metrics": metrics}) + "\n", "")

    monkeypatch.setattr(ab_pairs.os, "getloadavg", getloadavg)
    monkeypatch.setattr(ab_pairs.os, "sched_getaffinity", lambda pid: {0, 1, 2})

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    for side in ("base", "change"):
        (tmp_path / side).mkdir()
    assert ab_pairs.main(["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
                          "--workload", "figure5_mc", "--seed", "11", "--pairs", "2",
                          "--label", "t", "--out", str(tmp_path)]) == 0
    runs = json.loads((tmp_path / "BENCH_t.json").read_text())["runs"]
    assert [(r["cpus"], r["load_1min"]) for r in runs] == [(3, 1.5), (3, 2.5), (3, 3.5), (3, 4.5)]
    assert [r["result"]["metrics"]["work_per_s"]["value"] for r in runs] == [1.5, 2.5, 3.5, 4.5]
