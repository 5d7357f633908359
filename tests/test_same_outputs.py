"""``tools/same_outputs.py``: its comparison step on synthetic records, and
whole runs on this repository, against itself and against a copy whose
``simulate-pulses`` prints one number differently (its ``search``, MC and
exact-noise commands stay equal)."""

import importlib.util
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

SUMMARY = re.compile(r"(\d+) verify_suite commands, (\d+) differ; (\d+) programs commands, (\d+) differ; "
                     r"(\d+) search commands, (\d+) differ; (\d+) mc commands, (\d+) differ; "
                     r"(\d+) exact commands, (\d+) differ; (\d+) mc_default_blas commands, (\d+) differ")


def record(argv: list, **fields) -> dict:
    return {"argv": argv, "stdout": "s", "stderr": "e", "code": 0, "out": None, **fields}


def test_equal_records_show_no_difference():
    runs = [record(["noise"]), record(["compile", "--out", "x"], out="d")]
    assert same_outputs.compare(runs, [dict(r) for r in runs]) == []


def test_each_field_and_the_command_list_are_compared():
    base = [record(["a"]), record(["b"]), record(["c"])]
    change = [record(["a"], stderr="z"), record(["b"], code=2, out="w"), record(["d"])]
    assert same_outputs.compare(base, change) == [
        "command 0: a: stderr differ",
        "command 1: b: code, out differ",
        "command 2: c on the base, d on the change",
    ]
    assert same_outputs.compare(base, base[:2]) == ["3 commands on the base, 2 on the change"]


def test_each_malformed_pulse_file_fails_alike_cold_and_warm(tmp_path):
    """Every such file ends in one error line and exit code 2, the same
    on its second run in the process as on its first."""
    from qeclab.cli import main

    records = []
    same_outputs.malformed_commands(tmp_path, lambda argv: records.append(same_outputs.run_command(main, argv)))
    assert len(records) == 2 * len(same_outputs.MALFORMED_PROGRAMS)
    assert all(r["code"] == 2 and r["stdout"] == same_outputs._digest(b"") for r in records)
    assert all(cold == warm for cold, warm in zip(records[::2], records[1::2]))
    assert len({r["stderr"] for r in records}) == len(same_outputs.MALFORMED_PROGRAMS)


def summary(capsys) -> tuple:
    out = capsys.readouterr().out
    found = SUMMARY.search(out)
    assert found, out
    return tuple(int(v) for v in found.groups())


def test_the_repository_matches_itself(capsys):
    args = ["--base", str(ROOT), "--change", str(ROOT), "--seeds", "3", "--programs", "20"]
    assert same_outputs.main(args) == 0
    (verify, verify_diffs, programs, program_diffs, searches, search_diffs, mc, mc_diffs, exact, exact_diffs,
     mc_blas, mc_blas_diffs) = summary(capsys)
    assert verify > 0 and programs >= 20 and searches == 10 and mc == mc_blas == 7 and exact == 2
    assert verify_diffs == program_diffs == search_diffs == mc_diffs == exact_diffs == mc_blas_diffs == 0


def test_a_changed_output_is_reported(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "qeclab" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"n_pulses": seq.cost,') == 1
    cli.write_text(text.replace('"n_pulses": seq.cost,', '"n_pulses": seq.cost + 1,'), encoding="utf-8")
    args = ["--base", str(ROOT), "--change", str(tmp_path), "--seeds", "3", "--programs", "6"]
    assert same_outputs.main(args) == 1
    (verify, verify_diffs, programs, program_diffs, searches, search_diffs, mc, mc_diffs, exact, exact_diffs,
     mc_blas, mc_blas_diffs) = summary(capsys)
    assert verify_diffs > 0 and program_diffs == 6       # every simulate-pulses command
    assert searches == 10 and search_diffs == 0 and mc == mc_blas == 7 and mc_diffs == mc_blas_diffs == 0
    assert exact == 2 and exact_diffs == 0
