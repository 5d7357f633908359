import contextlib
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qeclab
import qeclab.cli as cli
from qeclab.circuits import GATE_MATRICES, MAX_CIRCUIT_OPS, MAX_QUBITS, Circuit, GateOp, serialize_circuit
from qeclab.cli import _dumps, build_parser, main
from qeclab.iontrap import (
    Pulse,
    PulseSequence,
    compile_circuit,
    compile_op,
    op_pulse_cost,
    pulses_from_json,
    pulses_to_json,
    simulate_pulse_sequence,
)
from qeclab.noise import MAX_STEPS
from qeclab.search import random_circuit

from conftest import FILE_COMMANDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_circuit(tmp_path, circuit, name="circuit.qc.json"):
    path = tmp_path / name
    path.write_text(serialize_circuit(circuit))
    return str(path)


ENCODER_24 = str(Path(__file__).resolve().parent / "data" / "encoder_24.qc.json")


class TestVerifyCode:
    def test_five_qubit_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify-code", "--code", "five-qubit", "--trials", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["knill_laflamme"]["ok"] is True
        assert len(doc["syndrome_table"]) == 16
        assert doc["worst_fidelity"] >= 1 - 1e-10
        assert doc["encoder_pulse_cost"] == 59

    def test_24_pulse_encoder_is_valid(self, capsys):
        code, out, _ = run_cli(capsys, "verify-code", "--code", "five-qubit", "--encoder", ENCODER_24)
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["encoder_pulse_cost"] == 24

    def test_zeno2_detection_notice(self, capsys):
        code, out, _ = run_cli(capsys, "verify-code", "--code", "zeno2")
        assert code == 0
        doc = json.loads(out)
        assert doc["detection_only"] is True
        assert "syndrome_table" not in doc

    def test_phase3_table(self, capsys):
        code, out, _ = run_cli(capsys, "verify-code", "--code", "phase3", "--trials", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["syndrome_table"] == {"00": "I", "01": "I", "10": "I", "11": "X"}

    def test_corrupted_encoder_fails(self, capsys, tmp_path):
        """Deleting an entangling gate must break the correction conditions."""
        from qeclab.codes import five_qubit_encoder

        encoder = five_qubit_encoder()
        drop = next(i for i, op in enumerate(encoder.ops)
                    if op.kind == "CPHASE" and len(op.targets) == 2)
        broken = Circuit(5, encoder.ops[:drop] + encoder.ops[drop + 1:])
        path = write_circuit(tmp_path, broken)
        code, out, _ = run_cli(capsys, "verify-code", "--code", "five-qubit", "--encoder", path)
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["worst_violation"] > 0

    def test_twenty_thousand_op_encoder_gets_its_report(self, capsys, tmp_path):
        """The codeword norms drift past 1e-12 over 20,000 ops; the report
        still comes, instead of the candidate code's normalization error."""
        from qeclab.search import random_circuit

        path = write_circuit(tmp_path, random_circuit(5, 20_000, np.random.default_rng(0)))
        code, out, err = run_cli(capsys, "verify-code", "--code", "five-qubit", "--encoder", path)
        assert (code, err) == (2, "")
        doc = json.loads(out)
        assert doc["valid"] is False and doc["kl_ok"] is False
        assert doc["worst_violation"] > 0.1

    def test_trailing_rotation_dropped_is_still_kl_valid_but_not_exact(self, capsys, tmp_path):
        """Losing a final one-qubit rotation rotates the code locally: the
        correction conditions survive even though the codewords changed."""
        from qeclab.codes import five_qubit_encoder

        encoder = five_qubit_encoder()
        broken = Circuit(5, encoder.ops[:-1])
        path = write_circuit(tmp_path, broken)
        code, out, _ = run_cli(capsys, "verify-code", "--code", "five-qubit", "--encoder", path)
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["kl_ok"] is True

    def test_alternative_valid_encoder_accepted(self, capsys, tmp_path):
        from qeclab.codes import five_qubit_encoder

        path = write_circuit(tmp_path, five_qubit_encoder())
        code, out, _ = run_cli(capsys, "verify-code", "--code", "five-qubit",
                               "--encoder", path, "--trials", "1")
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_unparseable_file(self, capsys, tmp_path):
        path = tmp_path / "bad.qc.json"
        path.write_text("{broken")
        code, _, err = run_cli(capsys, "verify-code", "--code", "five-qubit", "--encoder", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-code", "--code", "five-qubit",
                               "--encoder", "/nonexistent/enc.qc.json")
        assert code == 3


class TestCompile:
    def test_fused_gate_costs_four(self, capsys, tmp_path):
        path = write_circuit(tmp_path, Circuit(3, (GateOp("CPHASE", (1, 2), (0,)),)))
        code, out, _ = run_cli(capsys, "compile", "--circuit", path)
        assert code == 0
        assert json.loads(out)["total_pulses"] == 4

    def test_cnot_costs_five_with_breakdown(self, capsys, tmp_path):
        path = write_circuit(tmp_path, Circuit(2, (GateOp("CNOT", (1,), (0,)),)))
        code, out, _ = run_cli(capsys, "compile", "--circuit", path, "--report", "full")
        doc = json.loads(out)
        assert doc["total_pulses"] == 5
        assert doc["verified"] is True
        assert doc["per_gate"][0]["pulses"] == 5
        assert len(doc["pulses"]) == 5

    def test_24_pulse_encoder_compiles_to_24_verified_pulses(self, capsys):
        code, out, _ = run_cli(capsys, "compile", "--circuit", ENCODER_24, "--report", "full")
        doc = json.loads(out)
        assert code == 0
        assert doc["total_pulses"] == len(doc["pulses"]) == 24
        assert doc["verified"] is True
        assert doc["max_deviation"] == pytest.approx(8.3e-18, rel=0.02)

    def test_empty_circuit_costs_zero(self, capsys, tmp_path):
        path = write_circuit(tmp_path, Circuit(2))
        code, out, _ = run_cli(capsys, "compile", "--circuit", path)
        assert json.loads(out)["total_pulses"] == 0

    def test_pulse_file_is_compact_and_holds_the_reported_pulses(self, capsys, tmp_path):
        path = write_circuit(tmp_path, Circuit(3, (GateOp("U", (0,)), GateOp("CPHASE", (0, 1), (2,)))))
        ppath = tmp_path / "prog.pulses.json"
        code, out, _ = run_cli(capsys, "compile", "--circuit", path, "--report", "full",
                               "--out", str(ppath))
        assert code == 0
        text = ppath.read_text()
        assert "\n" not in text and ", " not in text
        assert json.loads(text) == json.loads(out)["pulses"]

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.qc.json"
        path.write_text('{"n": 1, "ops": [{"kind": "RX", "targets": [0]}]}')
        code, _, err = run_cli(capsys, "compile", "--circuit", str(path))
        assert code == 2
        assert "op 0" in err


class TestSimulatePulses:
    def test_round_trip_through_file(self, capsys, tmp_path):
        circ = Circuit(2, (GateOp("CNOT", (1,), (0,)),))
        cpath = write_circuit(tmp_path, circ)
        ppath = str(tmp_path / "prog.pulses.json")
        code, _, _ = run_cli(capsys, "compile", "--circuit", cpath, "--out", ppath)
        assert code == 0
        code, out, _ = run_cli(capsys, "simulate-pulses", "--pulses", ppath, "--ions", "2")
        doc = json.loads(out)
        assert doc["n_pulses"] == 5
        assert doc["leakage"] < 1e-12
        assert doc["phonon_residual"] < 1e-12

    def test_unitary_flag(self, capsys, tmp_path):
        circ = Circuit(1, (GateOp("U", (0,)),))
        cpath = write_circuit(tmp_path, circ)
        ppath = str(tmp_path / "u.pulses.json")
        run_cli(capsys, "compile", "--circuit", cpath, "--out", ppath)
        code, out, _ = run_cli(capsys, "simulate-pulses", "--pulses", ppath,
                               "--ions", "1", "--unitary")
        doc = json.loads(out)
        s = 1 / math.sqrt(2)
        assert abs(doc["unitary"][0][0][0] - s) < 1e-12
        assert abs(doc["unitary"][0][1][0] + s) < 1e-12


class TestNoise:
    def test_zeno2_value(self, capsys):
        code, out, _ = run_cli(capsys, "noise", "--scheme", "zeno2", "--t", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,scheme,n,C_exact,C_mc,mc_stderr"
        fields = lines[1].split(",")
        assert abs(float(fields[3]) - 0.367879441171) < 1e-9

    def test_phase3_worst_case(self, capsys):
        _, out, _ = run_cli(capsys, "noise", "--scheme", "phase3", "--t", "1", "--psi", "iplus")
        value = float(out.strip().split("\n")[1].split(",")[3])
        assert abs(value - 0.526925627573) < 1e-9

    def test_phase3_ten_shot(self, capsys):
        _, out, _ = run_cli(capsys, "noise", "--scheme", "phase3", "--t", "1",
                            "--n", "10", "--psi", "iplus")
        value = float(out.strip().split("\n")[1].split(",")[3])
        assert abs(value - 0.8760) < 1e-4

    def test_multiple_times_multiple_rows(self, capsys):
        _, out, _ = run_cli(capsys, "noise", "--scheme", "uncoded", "--t", "0.5", "1", "2")
        assert len(out.strip().split("\n")) == 4

    def test_mc_columns_with_shots(self, capsys):
        _, out, _ = run_cli(capsys, "noise", "--scheme", "zeno2", "--t", "1",
                            "--shots", "500", "--seed", "4")
        fields = out.strip().split("\n")[1].split(",")
        assert fields[4] != "" and fields[5] != ""

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "noise", "--scheme", "phase3", "--t", "0.5", "1",
                             "--shots", "300", "--seed", "6")
        _, out2, _ = run_cli(capsys, "noise", "--scheme", "phase3", "--t", "0.5", "1",
                             "--shots", "300", "--seed", "6")
        assert out1 == out2

    def test_mc_stream_golden_bytes(self, capsys):
        """The seeded MC stream is pinned across versions, not only between reruns."""
        code, out, err = run_cli(capsys, "noise", "--scheme", "phase3", "--n", "3",
                                 "--t", "0", "0.5", "1", "--shots", "1000", "--seed", "7")
        assert (code, err) == (0, "")
        assert out == (
            "t,scheme,n,C_exact,C_mc,mc_stderr\n"
            "0,phase3,3,1,1,0\n"
            "0.5,phase3,3,0.902709379704,0.891964271908,0.0106865162477\n"
            "1,phase3,3,0.707008034678,0.71216101209,0.0174526591222\n"
        )

    def test_mc_rows_are_the_same_at_any_worker_count(self, capsys, monkeypatch):
        """Several times in one command share one MC path and its pool."""
        import qeclab.noise as noise

        outs = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(noise, "_workers", lambda: workers)
            outs.add(run_cli(capsys, "noise", "--scheme", "phase3", "--n", "3", "--t", "0", "0.5", "1.5",
                             "--shots", str(2 * noise.MC_BLOCK + 17), "--seed", "7"))
        assert len(outs) == 1 and next(iter(outs))[0] == 0

    @pytest.mark.parametrize("times,message", [(("-1", "1"), "exposure time"), (("1", "-1"), "shots")])
    def test_the_first_time_is_checked_before_the_shot_count(self, capsys, times, message):
        """Every MC point is checked before any runs, in the order the rows
        were once computed: each time's exact value, then its MC estimate."""
        code, out, err = run_cli(capsys, "noise", "--scheme", "phase3", "--t", *times, "--shots", "1")
        assert_one_error_line(code, out, err)
        assert message in err

    def test_qecc_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QECC_SEED", "123")
        _, out1, _ = run_cli(capsys, "noise", "--scheme", "zeno2", "--t", "1", "--shots", "200")
        _, out2, _ = run_cli(capsys, "noise", "--scheme", "zeno2", "--t", "1",
                             "--shots", "200", "--seed", "123")
        assert out1 == out2

    def test_seed_variable_is_read_on_every_call(self, capsys, monkeypatch):
        argv = ("noise", "--scheme", "zeno2", "--t", "1", "--shots", "200")
        outs = []
        for seed in ("5", "6", "5"):
            monkeypatch.setenv("QECC_SEED", seed)
            outs.append(run_cli(capsys, *argv)[1])
        assert outs[0] == outs[2] != outs[1]
        assert build_parser() is build_parser()

    def test_basis_state_rejected(self, capsys):
        code, _, err = run_cli(capsys, "noise", "--scheme", "phase3", "--t", "1",
                               "--psi", "custom", "--alpha", "1", "--beta", "0")
        assert code == 2
        assert "superposition" in err

    def test_custom_state(self, capsys):
        code, out, _ = run_cli(capsys, "noise", "--scheme", "uncoded", "--t", "1",
                               "--psi", "custom", "--alpha", "0.6", "--beta", "0.8j")
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[3])
        assert abs(value - math.exp(-1)) < 1e-9

    def test_custom_amplitudes_near_the_float_limit(self, capsys):
        """Finite amplitudes whose squares overflow give the state of ``1, 1``
        (their norm used to overflow to a state of norm 0)."""
        argv = ("noise", "--scheme", "phase3", "--t", "1", "--psi", "custom")
        expected = run_cli(capsys, *argv, "--alpha", "1", "--beta", "1")
        assert run_cli(capsys, *argv, "--alpha", "1e308", "--beta", "1e308") == expected
        assert expected[0] == 0 and expected[2] == ""

    def test_negative_zero_time_runs_as_zero(self, capsys):
        """-0.0 passes the time check; its phase width sqrt(-0.0) used to reach
        NumPy as a negative scale (exit 2), and its row printed t as -0."""
        argv = ("noise", "--scheme", "phase3", "--n", "3", "--shots", "100", "--seed", "4", "--t")
        expected = run_cli(capsys, *argv, "0", "1")
        assert expected[0] == 0 and expected[1].splitlines()[1].startswith("0,phase3,3,1,1,")
        assert run_cli(capsys, *argv, "-0.0", "1") == expected


class TestFigure5Command:
    def test_default_run_row_count(self, capsys, tmp_path):
        out_path = str(tmp_path / "fig5.csv")
        code, _, _ = run_cli(capsys, "figure5", "--out", out_path)
        assert code == 0
        lines = open(out_path).read().strip().split("\n")
        assert len(lines) == 1 + 4 * 61

    def test_ordering_property_rowwise(self, capsys, tmp_path):
        out_path = str(tmp_path / "fig5.csv")
        run_cli(capsys, "figure5", "--out", out_path, "--steps", "12")
        rows = {}
        for line in open(out_path).read().strip().split("\n")[1:]:
            t, scheme, n, c_exact, _, _ = line.split(",")
            rows.setdefault(float(t), {})[(scheme, int(n))] = float(c_exact)
        for t, by in rows.items():
            if t == 0:
                assert all(abs(v - 1) < 1e-12 for v in by.values())
                continue
            assert abs(by[("zeno2", 1)] - by[("uncoded", 1)]) < 1e-12
            assert by[("phase3", 10)] > by[("phase3", 1)] > by[("zeno2", 1)]

    def test_negative_zero_tmax_runs_as_zero(self, capsys, tmp_path):
        """The grid ends on -0.0, whose MC points used to stop the run (exit 2)."""
        out_path = tmp_path / "fig5.csv"
        argv = ("figure5", "--steps", "2", "--shots", "10", "--seed", "2", "--out", str(out_path))
        expected = run_cli(capsys, *argv, "--tmax", "0")
        written = out_path.read_text()
        out_path.unlink()
        assert expected == (0, f"wrote {out_path}: 12 rows\n", "")
        assert run_cli(capsys, *argv, "--tmax", "-0.0") == expected
        assert out_path.read_text() == written
        assert "-0" not in written

    def test_byte_identical_reruns_with_mc(self, capsys, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_cli(capsys, "figure5", "--out", p1, "--steps", "3", "--shots", "200", "--seed", "9")
        run_cli(capsys, "figure5", "--out", p2, "--steps", "3", "--shots", "200", "--seed", "9")
        assert open(p1).read() == open(p2).read()

    def test_mc_stream_golden_bytes(self, capsys, tmp_path):
        """The per-point seeds and the MC stream are pinned across versions."""
        out_path = tmp_path / "fig5.csv"
        code, out, err = run_cli(capsys, "figure5", "--tmax", "3", "--steps", "2",
                                 "--shots", "2000", "--seed", "0", "--out", str(out_path))
        assert (code, out, err) == (0, f"wrote {out_path}: 12 rows\n", "")
        assert out_path.read_text() == (
            "t,scheme,n,C_exact,C_mc,mc_stderr\n"
            "0,uncoded,1,1,1,0\n"
            "1.5,uncoded,1,0.223130160148,0.23032219657,0.0151425954291\n"
            "3,uncoded,1,0.0497870683679,0.0715560808941,0.0157726969646\n"
            "0,zeno2,1,1,1,2.48315501962e-18\n"
            "1.5,zeno2,1,0.223130160148,0.206143010776,0.0184731094326\n"
            "3,zeno2,1,0.0497870683679,2.65228315689e-05,0.0192336589567\n"
            "0,phase3,1,1,1,0\n"
            "1.5,phase3,1,0.329140741954,0.3378433677,0.0191284449418\n"
            "3,phase3,1,0.0746188976498,0.0707313813899,0.0204634917172\n"
            "0,phase3,10,1,1,0\n"
            "1.5,phase3,10,0.754692593335,0.734090555806,0.0111379298692\n"
            "3,phase3,10,0.380700511856,0.367033456167,0.015346456111\n"
        )

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(capsys, "figure5", "--out", "/nonexistent/dir/f.csv")
        assert code == 3


class TestSearchCommand:
    def test_smoke_with_reference_seed(self, capsys, tmp_path):
        out_path = str(tmp_path / "best.qc.json")
        code, out, _ = run_cli(capsys, "search", "--budget", "40", "--restarts", "1",
                               "--seed", "5", "--start", "reference", "--out", out_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["found_valid"] is True
        assert doc["best_cost"] <= 59
        assert 0 <= doc["accept_rate"] <= 1 and 0 <= doc["valid_fraction"] <= 1
        from qeclab.circuits import parse_circuit
        from qeclab.search import is_valid_perfect_code

        best = parse_circuit(open(out_path).read())
        assert is_valid_perfect_code(best).valid

    def test_no_valid_found_still_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--budget", "10", "--restarts", "1",
                               "--seed", "1", "--max-ops", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["found_valid"] is False
        assert "best_invalid_violation" in doc

    def test_more_restarts_than_budget_is_rejected(self, capsys):
        """Ten restarts cannot share a budget of three iterations."""
        code, out, err = run_cli(capsys, "search", "--budget", "3", "--restarts", "10")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: restarts must be between 1 and the budget (3), got 10")

    def test_kl_mode_is_an_argument_error(self, capsys):
        """``kl`` was ``auto`` under another name; ``auto`` reports it."""
        code, out, err = run_cli(capsys, "search", "--budget", "3", "--mode", "kl")
        assert_one_error_line(code, out, err)
        assert err == ("error: qeclab search: argument --mode: invalid choice: 'kl' "
                       "(choose from 'auto', 'exact')\n")

    def test_zero_restarts_is_rejected(self, capsys):
        code, _, err = run_cli(capsys, "search", "--budget", "3", "--restarts", "0")
        assert code == 2
        assert err.startswith("error: restarts must be")

    @pytest.mark.parametrize("max_ops", ["0", "-3", "1001"])
    def test_nonpositive_max_ops_is_rejected(self, capsys, max_ops):
        code, out, err = run_cli(capsys, "search", "--budget", "3", "--max-ops", max_ops)
        assert_one_error_line(code, out, err)
        assert "max" in err

    @pytest.mark.parametrize("n", [3, 6])
    def test_start_on_another_register_is_rejected(self, capsys, tmp_path, n):
        start = write_circuit(tmp_path, Circuit(n, (GateOp("CNOT", (n - 1,), (0,)),)))
        code, out, err = run_cli(capsys, "search", "--budget", "5", "--restarts", "1",
                                 "--start", start)
        assert_one_error_line(code, out, err)
        assert "5-qubit" in err

    def test_start_of_max_ops_is_accepted(self, capsys, tmp_path):
        from qeclab.search import MAX_OPS, random_circuit

        start = write_circuit(tmp_path, random_circuit(5, MAX_OPS, np.random.default_rng(0)))
        code, out, err = run_cli(capsys, "search", "--budget", "2", "--restarts", "1",
                                 "--start", start)
        assert (code, err) == (0, "")
        assert json.loads(out)["iterations"] == 2

    def test_start_past_max_ops_is_rejected(self, capsys, tmp_path):
        """The climber keeps a codeword block per op prefix of the start circuit."""
        from qeclab.search import MAX_OPS, random_circuit

        start = write_circuit(tmp_path, random_circuit(5, MAX_OPS + 1, np.random.default_rng(0)))
        code, out, err = run_cli(capsys, "search", "--budget", "2", "--restarts", "1",
                                 "--start", start)
        assert_one_error_line(code, out, err)
        assert f"start circuit has {MAX_OPS + 1} ops; at most {MAX_OPS}" in err


class TestShotValidation:
    @pytest.mark.parametrize("argv", [
        ("noise", "--scheme", "phase3", "--t", "1", "--shots", "1"),
        ("figure5", "--steps", "2", "--shots", "1"),
        ("noise", "--scheme", "phase3", "--t", "1", "--shots", "10000001"),
    ])
    def test_one_shot_is_a_validation_error(self, capsys, tmp_path, argv):
        if argv[0] == "figure5":
            argv = argv + ("--out", str(tmp_path / "fig5.csv"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "shots" in lines[0]
        assert not (tmp_path / "fig5.csv").exists()


FILE_COMMAND_IDS = [argv[0] for argv in FILE_COMMANDS]


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


_ONE_QUBIT_PROGRAM = [{"kind": "OneQubit", "ion": 0, "dag": False,
                       "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]


class TestBadInputs:
    """Each malformed input ends in exit code 2 and one ``error:`` line."""

    @pytest.mark.parametrize("doc", [
        {"n": None, "ops": []},
        {"n": -3, "ops": []},
        {"n": 2, "ops": 5},
        {"n": 2, "ops": [{"kind": "X", "targets": [1.7]}]},
        {"n": 2, "ops": [{"kind": "X", "targets": [True]}]},
        {"n": 2, "ops": [{"kind": "CNOT", "controls": 0, "targets": [1]}]},
    ], ids=["n-null", "n-negative", "ops-not-a-list", "fractional-qubit", "boolean-qubit", "controls-not-a-list"])
    def test_malformed_circuit_document(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.qc.json"
        path.write_text(json.dumps(doc))
        assert_one_error_line(*run_cli(capsys, "compile", "--circuit", str(path), "--report", "full"))

    @pytest.mark.parametrize("report", ["count", "full"])
    def test_register_above_the_dense_cap(self, capsys, tmp_path, report):
        """Both report modes reject an 8-qubit circuit (count-only used to accept it)."""
        path = tmp_path / "big.qc.json"
        path.write_text(json.dumps({"n": 8, "ops": [{"kind": "X", "targets": [7]}]}))
        code, out, err = run_cli(capsys, "compile", "--circuit", str(path), "--report", report)
        assert_one_error_line(code, out, err)
        assert "limited to 6 qubits" in err

    @pytest.mark.parametrize("doc", [
        [{"kind": "OneQubit", "ion": 0, "matrix": [[["a", 0], [0, 0]], [[0, 0], [1, 0]]]}],
        [{"kind": "WPhon", "ion": 0.5}],
        {"kind": "WPhon", "ion": 0},
    ], ids=["non-numeric-matrix-entry", "fractional-ion", "not-a-list"])
    def test_malformed_pulse_file(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.pulses.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate-pulses", "--pulses", str(path), "--ions", "1")
        assert_one_error_line(code, out, err)
        assert "position 0" in err or "list" in err

    @pytest.mark.parametrize("ions", ["7", "0", "-1"])
    def test_ion_count_out_of_range(self, capsys, tmp_path, ions):
        path = tmp_path / "prog.pulses.json"
        path.write_text(json.dumps(_ONE_QUBIT_PROGRAM))
        code, out, err = run_cli(capsys, "simulate-pulses", "--pulses", str(path), "--ions", ions)
        assert_one_error_line(code, out, err)
        assert "1..6" in err

    @pytest.mark.parametrize("n", ["0", "1001"])
    def test_repetitions_out_of_range(self, capsys, n):
        code, out, err = run_cli(capsys, "noise", "--scheme", "phase3", "--t", "1", "--n", n)
        assert_one_error_line(code, out, err)
        assert "1..1000" in err

    def test_non_integer_seed_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("QECC_SEED", "abc")
        code, out, err = run_cli(capsys, "noise", "--scheme", "phase3", "--t", "0")
        assert_one_error_line(code, out, err)
        assert "QECC_SEED" in err

    @pytest.mark.parametrize("argv", [
        ("verify-code", "--code", "zeno2"),
        ("compile", "--circuit", "missing.qc.json"),
        ("simulate-pulses", "--pulses", "missing.pulses.json", "--ions", "1"),
        ("figure5", "--steps", "2", "--out", "fig5.csv"),
        ("search", "--budget", "10", "--restarts", "1"),
    ], ids=lambda argv: argv[0])
    def test_non_integer_seed_variable_fails_every_command(self, capsys, monkeypatch, argv):
        for raw in ("abc", "-1"):
            monkeypatch.setenv("QECC_SEED", raw)
            code, out, err = run_cli(capsys, *argv)
            assert_one_error_line(code, out, err)
            assert "QECC_SEED" in err

    @pytest.mark.parametrize("argv", [
        ("noise", "--scheme", "phase3", "--t", "1", "--shots", "100"),
        ("search", "--budget", "10", "--restarts", "1"),
        ("verify-code", "--code", "zeno2"),
    ], ids=lambda argv: argv[0])
    def test_negative_seed_flag(self, capsys, argv):
        """NumPy's own message named neither the flag nor the variable."""
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert_one_error_line(code, out, err)
        assert "--seed" in err

    def test_empty_alphabet(self, capsys):
        """An empty list of gate kinds used to run the default alphabet."""
        code, out, err = run_cli(capsys, "search", "--budget", "10", "--restarts", "1", "--alphabet", "")
        assert_one_error_line(code, out, err)
        assert "alphabet" in err

    def test_negative_tmax_is_named(self, capsys, tmp_path):
        """The message gives the user's value, not a grid point, and no point runs."""
        out_path = tmp_path / "fig5.csv"
        code, out, err = run_cli(capsys, "figure5", "--tmax", "-1", "--steps", "2", "--out", str(out_path))
        assert_one_error_line(code, out, err)
        assert "(got -1.0)" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("alpha,beta", [("nan", "1"), ("inf", "1"), ("1", "1+infj"), ("nanj", "0.5")])
    def test_non_finite_custom_amplitude(self, capsys, alpha, beta):
        code, out, err = run_cli(capsys, "noise", "--scheme", "phase3", "--t", "1",
                                 "--psi", "custom", "--alpha", alpha, "--beta", beta)
        assert_one_error_line(code, out, err)
        assert "finite" in err

    @pytest.mark.parametrize("alpha,beta,message", [
        ("1", "foo", "--beta must be a complex number, got 'foo'"),
        ("0.6+", "0.8j", "--alpha must be a complex number, got '0.6+'"),
    ])
    def test_unparseable_custom_amplitude_names_its_flag(self, capsys, alpha, beta, message):
        code, out, err = run_cli(capsys, "noise", "--scheme", "phase3", "--t", "1",
                                 "--psi", "custom", "--alpha", alpha, "--beta", beta)
        assert_one_error_line(code, out, err)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("noise", "--scheme", "phase3", "--t", "nan"),
        ("noise", "--scheme", "phase3", "--t", "1", "inf", "--shots", "100"),
        ("noise", "--scheme", "uncoded", "--t", "1e308", "--shots", "10"),
        ("figure5", "--tmax", "nan", "--steps", "2"),
        ("figure5", "--tmax", "1e308", "--steps", "2", "--shots", "10"),
    ], ids=["noise-nan", "noise-inf-mc", "noise-width-overflow", "figure5-nan", "figure5-width-overflow"])
    def test_non_finite_exposure_time(self, capsys, tmp_path, argv):
        if argv[0] == "figure5":
            argv = argv + ("--out", str(tmp_path / "fig5.csv"))
        code, out, err = run_cli(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert "exposure time" in err
        assert not (tmp_path / "fig5.csv").exists()

    def test_matrix_unitary_only_to_a_relative_tolerance(self, capsys, tmp_path):
        """Off by 4e-6 passes a 1e-5 relative test, not the documented 1e-12."""
        doc = [{"kind": "OneQubit", "ion": 0, "dag": False,
                "matrix": [[[1.000004, 0], [0, 0]], [[0, 0], [1, 0]]]}]
        path = tmp_path / "prog.pulses.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate-pulses", "--pulses", str(path), "--ions", "1")
        assert_one_error_line(code, out, err)
        assert "position 0" in err and "unitary" in err

    def test_pulse_file_json_error_has_the_circuit_files_prefix(self, capsys, tmp_path):
        path = tmp_path / "empty.pulses.json"
        path.write_text("")
        code, out, err = run_cli(capsys, "simulate-pulses", "--pulses", str(path), "--ions", "1")
        assert_one_error_line(code, out, err)
        assert err == "error: invalid JSON: Expecting value: line 1 column 1 (char 0)\n"


class TestArgumentErrors:
    def test_bad_value_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "search", "--budget", "x")
        assert_one_error_line(code, out, err)
        assert err == "error: qeclab search: argument --budget: invalid int value: 'x'\n"

    @pytest.mark.parametrize("argv", [(), ("compile",), ("compile", "--circuit", "c", "--bogus"), ("frobnicate",)])
    def test_missing_or_unknown_argument_is_one_error_line(self, capsys, argv):
        assert_one_error_line(*run_cli(capsys, *argv))

    def test_line_break_in_a_quoted_argument_is_escaped(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "compile", "--circuit", str(tmp_path / "a\nb.qc.json"))
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read {tmp_path}/a\\nb.qc.json: ")

    def test_help_exits_0_with_its_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qeclab search ")


def test_closed_stdout_exits_3_quietly():
    """``qeclab verify-code ... | head -1``: the reader is gone before the
    report is written, which ends in exit 3 with nothing on stderr."""
    src = str(Path(qeclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-m", "qeclab.cli", "verify-code", "--code", "five-qubit"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 3
    assert err == b""


def test_python_dash_m_runs_the_cli():
    src = str(Path(qeclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "qeclab", "noise", "--scheme", "phase3", "--t", "0"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "t,scheme,n,C_exact,C_mc,mc_stderr\n0,phase3,1,1,,\n"


THREAD_PROBE = """
import contextlib, io, sys, threading
import qeclab.cli, qeclab.noise
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qeclab.cli.main(list(argv)) == 0
    return threading.active_count(), "concurrent.futures" in sys.modules
print(qeclab.noise._workers(), threading.active_count())
print(*run("noise", "--scheme", "phase3", "--n", "3", "--t", "0", "0.5", "1.5"))
print(*run("figure5", "--steps", "2", "--out", sys.argv[1]))
print(*run("noise", "--scheme", "phase3", "--n", "3", "--t", "0", "0.5", "1.5", "--shots", "9000", "--seed", "1"))
"""


def test_commands_without_shots_start_no_thread(tmp_path):
    """With one BLAS thread MC blocks run on a pool, made on first use: a
    command without ``--shots`` neither loads ``concurrent.futures`` nor
    starts a thread."""
    src = str(Path(qeclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", THREAD_PROBE, str(tmp_path / "f.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (workers, threads), no_mc, figure5, with_mc = [line.split() for line in proc.stdout.splitlines()]
    assert threads == "1" and no_mc == figure5 == ["1", "False"]
    if int(workers) > 1:
        assert int(with_mc[0]) > 1 and with_mc[1] == "True"


def test_readme_commands_parse():
    """Each ``qeclab ...`` line of the README's ``## Command line`` block is
    accepted by the parser (none is run)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("qeclab ")]
    assert commands
    for argv in commands:
        assert build_parser().parse_args(argv[1:]).command == argv[1], argv


class TestUpperBounds:
    """Counts that set how much work or memory a command asks for are bounded."""

    @pytest.mark.parametrize("trials", ["0", "-2", "1001"])
    def test_trials_out_of_range(self, capsys, trials):
        """Zero trials used to print "valid": true without running one."""
        code, out, err = run_cli(capsys, "verify-code", "--code", "five-qubit", "--trials", trials)
        assert_one_error_line(code, out, err)
        assert "1..1000" in err

    @pytest.mark.parametrize("argv", [
        ("compile", "--circuit"),
        ("verify-code", "--code", "five-qubit", "--encoder"),
        ("search", "--budget", "2", "--restarts", "1", "--start"),
    ], ids=["compile", "verify-code", "search"])
    def test_circuit_file_one_op_past_the_cap(self, capsys, tmp_path, argv):
        """The parser refuses the file before it builds any op."""
        from qeclab.circuits import MAX_CIRCUIT_OPS

        path = tmp_path / "long.qc.json"
        path.write_text(json.dumps({"n": 5, "ops": [{"kind": "X", "targets": [0]}] * (MAX_CIRCUIT_OPS + 1)}))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert_one_error_line(code, out, err)
        assert f"circuit has {MAX_CIRCUIT_OPS + 1} ops; at most {MAX_CIRCUIT_OPS}" in err

    def test_steps_one_past_the_bound(self, capsys, tmp_path):
        out_path = tmp_path / "fig5.csv"
        code, out, err = run_cli(capsys, "figure5", "--steps", str(MAX_STEPS + 1), "--out", str(out_path))
        assert_one_error_line(code, out, err)
        assert str(MAX_STEPS) in err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", FILE_COMMANDS, ids=FILE_COMMAND_IDS)
    def test_file_past_the_byte_cap(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(cli, "MAX_CIRCUIT_BYTES", 64)
        monkeypatch.setattr(cli, "MAX_PULSE_BYTES", 64)
        path = tmp_path / "big.json"
        path.write_text("[" + " " * 63 + "]")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert_one_error_line(code, out, err)
        assert "more than 64 bytes" in err

    @pytest.mark.parametrize("argv, text", [
        (("compile", "--circuit"), '{"n": 1, "ops": [{"kind": "X", "targets": [0]}]}'),
        (("simulate-pulses", "--ions", "1", "--pulses"), '[{"kind": "VPulse", "ion": 0}]'),
    ], ids=["compile", "simulate-pulses"])
    def test_file_at_the_byte_cap_loads(self, capsys, tmp_path, monkeypatch, argv, text):
        monkeypatch.setattr(cli, "MAX_CIRCUIT_BYTES", 64)
        monkeypatch.setattr(cli, "MAX_PULSE_BYTES", 64)
        path = tmp_path / "full.json"
        path.write_text(text.ljust(64))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)

    @staticmethod
    def stat_reading(monkeypatch, size):
        """``os.fstat`` as ``_load`` sees it: ``st_size`` reads ``size``, as
        for a file that grew after its size was read (0: a pipe)."""
        real = os.fstat
        monkeypatch.setattr(cli.os, "fstat", lambda fd: os.stat_result(
            real(fd)[:6] + (size,) + tuple(real(fd)[7:10])))

    @pytest.mark.parametrize("size", [0, 1, 40])
    def test_file_that_grew_past_its_size_is_read_whole(self, capsys, tmp_path, monkeypatch, size):
        monkeypatch.setattr(cli, "MAX_PULSE_BYTES", 64)
        path = tmp_path / "grown.json"
        path.write_text('[{"kind": "VPulse", "ion": 0}]'.ljust(64))
        argv = ("simulate-pulses", "--ions", "1", "--pulses", str(path))
        expected = run_cli(capsys, *argv)
        self.stat_reading(monkeypatch, size)
        assert run_cli(capsys, *argv) == expected
        assert expected[0] == 0 and expected[2] == ""

    @pytest.mark.parametrize("size", [0, 1, 64])
    def test_file_that_grew_past_the_cap_is_refused(self, capsys, tmp_path, monkeypatch, size):
        monkeypatch.setattr(cli, "MAX_PULSE_BYTES", 64)
        path = tmp_path / "grown.json"
        path.write_text('[{"kind": "VPulse", "ion": 0}]'.ljust(65))
        self.stat_reading(monkeypatch, size)
        code, out, err = run_cli(capsys, "simulate-pulses", "--ions", "1", "--pulses", str(path))
        assert_one_error_line(code, out, err)
        assert "more than 64 bytes" in err

    def test_a_file_is_read_to_its_size_not_to_the_cap(self, tmp_path, monkeypatch):
        """A file whose size holds is read in one call of size + 1 bytes."""
        sizes = []
        real_open = open

        class Recording(io.BufferedReader):
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        monkeypatch.setattr(cli, "open", lambda path, mode: Recording(real_open(path, mode, buffering=0)),
                            raising=False)
        path = tmp_path / "small.json"
        path.write_text('[{"kind": "VPulse", "ion": 0}]')
        assert cli._load(str(path), cli.MAX_PULSE_BYTES, json.loads) == [{"kind": "VPulse", "ion": 0}]
        assert sizes == [path.stat().st_size + 1]

    def test_byte_caps_hold_every_file_qeclab_writes_within_the_op_cap(self):
        """A circuit of MAX_CIRCUIT_OPS copies of the op with the longest
        spelling, as ``serialize_circuit`` writes it or re-indented by four,
        and its ``compile --out`` pulse file all fit their caps; sizes grow by
        the same bytes per op."""
        n = MAX_QUBITS
        ops = [GateOp(kind, (q,)) for kind in GATE_MATRICES for q in range(n)]
        ops += [GateOp("CNOT", (t,), (c,)) for c, t in itertools.permutations(range(n), 2)]
        for roles in itertools.product((None, "c", "t"), repeat=n):
            controls = tuple(q for q in range(n) if roles[q] == "c")
            targets = tuple(q for q in range(n) if roles[q] == "t")
            if controls and targets:
                ops.append(GateOp("CPHASE", targets, controls))

        def circuit_bytes(count, op):
            return len(serialize_circuit(Circuit(n, (op,) * count)).encode())

        def reindented_bytes(count, op):
            return len(json.dumps(json.loads(serialize_circuit(Circuit(n, (op,) * count))), indent=4))

        def pulse_bytes(count, op):
            return len(json.dumps(pulses_to_json(compile_op(op)) * count, separators=(",", ":")))

        for size, cap in ((circuit_bytes, cli.MAX_CIRCUIT_BYTES), (reindented_bytes, cli.MAX_CIRCUIT_BYTES),
                          (pulse_bytes, cli.MAX_PULSE_BYTES)):
            worst = max(size(1, op) + (MAX_CIRCUIT_OPS - 1) * (size(2, op) - size(1, op)) for op in ops)
            assert worst <= cap

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_json_error_in_a_crlf_file_names_the_text_mode_position(self, capsys, tmp_path, newline):
        """Newlines are read as text mode reads them, so the position in the
        message is the one ``json.loads`` gives for the text-mode text."""
        path = tmp_path / "bad.qc.json"
        path.write_bytes(newline.join(['{', '  "n": 1,', '  "ops": [', '    {"kind": "X" "targets": [0]}',
                                       '  ]', '}']).encode())
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(text)
        code, out, err = run_cli(capsys, "compile", "--circuit", str(path))
        assert_one_error_line(code, out, err)
        assert err == f"error: invalid JSON: {exc.value}\n"
        assert "line 4 column 18 (char 40)" in err

    @pytest.mark.parametrize("entries, code", [(3, 2), (2, 0)])
    def test_pulse_count_cap(self, capsys, tmp_path, monkeypatch, entries, code):
        import qeclab.iontrap as iontrap

        monkeypatch.setattr(iontrap, "MAX_PULSES", 2)
        path = tmp_path / "long.pulses.json"
        path.write_text(json.dumps([{"kind": "VPulse", "ion": 0}] * entries))
        result = run_cli(capsys, "simulate-pulses", "--pulses", str(path), "--ions", "1")
        if code:
            assert_one_error_line(*result)
            assert "3 entries; at most 2" in result[2]
        else:
            assert result[0] == 0 and json.loads(result[1])["n_pulses"] == 2


def test_unitary_bytes_of_a_leaking_six_ion_program(capsys, tmp_path):
    """Late-ion one-qubit pulses among phonon pulses: the report spells the
    unitary, its signed zeros included, as ``json.dumps`` spelled each
    ``[float(v.real), float(v.imag)]`` pair."""
    gate = GATE_MATRICES
    seq = PulseSequence((
        Pulse("OneQubit", 5, gate["U"], "U"), Pulse("VPhonDag", 1), Pulse("WPhonDag", 5),
        Pulse("OneQubit", 3, gate["X"], "X"), Pulse("WPhonDag", 1), Pulse("VPhon", 4),
        Pulse("VPhon", 5), Pulse("WPhon", 2), Pulse("OneQubit", 4, gate["Vdag"], "Vdag"),
    ))
    path = tmp_path / "leak.pulses.json"
    path.write_text(json.dumps(pulses_to_json(seq)))
    code, out, _ = run_cli(capsys, "simulate-pulses", "--pulses", str(path), "--ions", "6", "--unitary")
    sim = simulate_pulse_sequence(pulses_from_json(json.loads(path.read_text())), 6)
    expected = {
        "n_ions": 6, "n_pulses": 9, "leakage": sim.leakage, "phonon_residual": sim.phonon_residual,
        "unitary": [[[float(v.real), float(v.imag)] for v in row] for row in sim.unitary],
    }
    assert code == 0
    assert sim.leakage > 0.5
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert "-0.0" in out


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 2**70, float("-inf")])
                | st.floats().map(np.float64) | st.text()
                | st.text(alphabet=st.characters(max_codepoint=0x2f)))
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS)
def test_report_text_matches_json_dumps(doc):
    """The reports' emitter prints exactly what ``json.dumps`` printed."""
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def _run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, MAX_QUBITS), st.integers(0, 12), st.integers(0, 2**32 - 1))
@example(1, 0, 0)
def test_compile_outputs_spell_what_json_dumps_spells(n, n_ops, seed):
    """``compile`` on a random circuit, with cold and then warm caches: the
    report is ``json.dumps(doc, indent=2, sort_keys=True)`` of its own values
    with the independently built ``per_gate`` and ``pulses`` lists, and the
    ``--out`` file is the compact ``json.dumps`` of ``pulses_to_json``."""
    circuit = random_circuit(n, n_ops, np.random.default_rng(seed))
    docs = pulses_to_json(compile_circuit(circuit))
    per_gate = [{"kind": op.kind, "controls": list(op.controls), "targets": list(op.targets),
                 "pulses": op_pulse_cost(op)} for op in circuit.ops]
    cli._op_texts.cache_clear()
    with tempfile.TemporaryDirectory() as tmp:
        source, pulse_file = Path(tmp) / "c.qc.json", Path(tmp) / "c.pulses.json"
        source.write_text(serialize_circuit(circuit))
        for _ in ("cold", "warm"):
            for report in ("full", "count"):
                code, out, err = _run_main("compile", "--circuit", str(source), "--report", report,
                                           "--out", str(pulse_file))
                assert (code, err) == (0, "")
                expected = json.loads(out)
                if report == "full":
                    expected.update(per_gate=per_gate, pulses=docs)
                assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
                assert pulse_file.read_text() == json.dumps(docs, separators=(",", ":"))
    assert cli._op_texts.cache_info().maxsize == compile_op.cache_info().maxsize
