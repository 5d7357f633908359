import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qeclab
from qeclab.circuits import Circuit, GateOp, serialize_circuit
from qeclab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_circuit(tmp_path, circuit, name="circuit.qc.json"):
    path = tmp_path / name
    path.write_text(serialize_circuit(circuit))
    return str(path)


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

    def test_byte_identical_reruns_with_mc(self, capsys, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_cli(capsys, "figure5", "--out", p1, "--steps", "3", "--shots", "200", "--seed", "9")
        run_cli(capsys, "figure5", "--out", p2, "--steps", "3", "--shots", "200", "--seed", "9")
        assert open(p1).read() == open(p2).read()

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

    def test_zero_restarts_is_rejected(self, capsys):
        code, _, err = run_cli(capsys, "search", "--budget", "3", "--restarts", "0")
        assert code == 2
        assert err.startswith("error: restarts must be")

    @pytest.mark.parametrize("max_ops", ["0", "-3"])
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
        monkeypatch.setenv("QECC_SEED", "abc")
        code, out, err = run_cli(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert "QECC_SEED" in err

    @pytest.mark.parametrize("alpha,beta", [("nan", "1"), ("inf", "1"), ("1", "1+infj"), ("nanj", "0.5")])
    def test_non_finite_custom_amplitude(self, capsys, alpha, beta):
        code, out, err = run_cli(capsys, "noise", "--scheme", "phase3", "--t", "1",
                                 "--psi", "custom", "--alpha", alpha, "--beta", beta)
        assert_one_error_line(code, out, err)
        assert "finite" in err

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
        assert "unitary" in err


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
