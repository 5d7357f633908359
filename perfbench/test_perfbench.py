"""Tests of the benchmark's own arithmetic and reference checks."""

import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import reference as ref
from perfbench import spans


def test_self_time_subtracts_union_of_children_and_total_skips_self_nesting():
    # [id, parent, request, name, start_ns, end_ns]
    recorded = [
        [0, -1, 1, "a", 0, 100],
        [1, 0, 1, "b", 10, 40],
        [2, 1, 1, "d", 15, 20],
        [3, 0, 1, "c", 30, 60],      # overlaps b: the union, not the sum, is covered
        [4, 3, 1, "a", 35, 45],      # "a" nested inside "a"
    ]
    times = spans.layer_times(recorded)
    ns = 1e-9
    assert times["a"]["calls"] == 2
    assert times["a"]["self_s"] == pytest.approx((100 - 50 + 10) * ns)
    assert times["a"]["total_s"] == pytest.approx(100 * ns)
    assert times["b"]["self_s"] == pytest.approx(25 * ns)
    assert times["c"]["self_s"] == pytest.approx(20 * ns)
    assert times["d"] == {"calls": 1, "total_s": pytest.approx(5 * ns), "self_s": pytest.approx(5 * ns)}


def test_shipped_encoder_passes_the_references():
    assert ref.circuit_pulses(ref.SHIPPED_ENCODER) == ref.SHIPPED_ENCODER_PULSES == 59
    w0, w1 = ref.encoder_codewords(ref.SHIPPED_ENCODER)
    r0, r1 = ref.reference_codewords()
    phase = np.vdot(r0, w0)
    assert abs(abs(phase) - 1) < 1e-12
    assert np.allclose(w0, phase * r0, atol=1e-12) and np.allclose(w1, phase * r1, atol=1e-12)
    assert ref.kl_violation(w0, w1) < 1e-12
    doc = {"found_valid": True, "best_cost": 59}
    assert ref.check_search(doc, ref.SHIPPED_ENCODER, 59) == []
    compiled = {"total_pulses": 59, "verified": True, "leakage": 0.0, "phonon_residual": 0.0,
                "per_gate": [{"pulses": ref.op_pulses(op)} for op in ref.SHIPPED_ENCODER["ops"]]}
    assert ref.check_compile(compiled, ref.SHIPPED_ENCODER) == []


@pytest.mark.parametrize("drop", range(len(ref.SHIPPED_ENCODER["ops"])))
def test_encoder_with_one_op_dropped_is_counted_as_a_failure(drop):
    ops = list(ref.SHIPPED_ENCODER["ops"])
    del ops[drop]
    broken = {"n": 5, "ops": ops}
    assert ref.check_search({"found_valid": True, "best_cost": 59}, broken, 59)
    compiled = {"total_pulses": 59, "verified": True, "leakage": 0.0, "phonon_residual": 0.0,
                "per_gate": [{"pulses": ref.op_pulses(op)} for op in ops]}
    assert ref.check_compile(compiled, broken)


def test_dropping_an_entangling_op_breaks_the_kl_check():
    ops = list(ref.SHIPPED_ENCODER["ops"])
    first_cphase = next(i for i, op in enumerate(ops) if op["kind"] == "CPHASE")
    del ops[first_cphase]
    broken = {"n": 5, "ops": ops}
    assert ref.kl_violation(*ref.encoder_codewords(broken)) > 1e-3
    problems = ref.check_search({"found_valid": True, "best_cost": ref.circuit_pulses(broken)},
                                broken, 59)
    assert any("KL" in p for p in problems)


def _figure5_csv(shift_sigmas=0.0, shifted_row=4):
    curves = (("uncoded", 1), ("zeno2", 1), ("phase3", 1), ("phase3", 10))
    grid = [0.0, 1.5, 3.0]
    lines = [ref.CSV_HEADER]
    row = 0
    for scheme, reps in curves:
        for t in grid:
            exact = ref.closed_form_coherence(scheme, reps, t)
            stderr = 0.0 if t == 0 else 0.005
            mc = exact + 0.3 * stderr
            if row == shifted_row:
                mc = exact + shift_sigmas * stderr
            lines.append(f"{t:.12g},{scheme},{reps},{exact:.12g},{mc:.12g},{stderr:.12g}")
            row += 1
    return "\n".join(lines) + "\n", curves, grid


def test_mc_rows_within_five_sigma_pass():
    text, curves, grid = _figure5_csv(shift_sigmas=4.0)
    assert ref.check_coherence_csv(text, curves, grid, shots=20000) == []


def test_mc_row_shifted_by_six_sigma_is_a_failure():
    text, curves, grid = _figure5_csv(shift_sigmas=6.0)
    problems = ref.check_coherence_csv(text, curves, grid, shots=20000)
    assert len(problems) == 1 and "sigma" in problems[0]


def test_closed_forms_are_checked_to_1e_12():
    text, curves, grid = _figure5_csv()
    bad = text.replace("0.329140741954", "0.329140741974")   # phase3 at t=1.5, off by 2e-11
    assert bad != text
    assert len(ref.check_coherence_csv(bad, curves, grid, shots=20000)) == 1
    assert math.isclose(ref.closed_form_coherence("phase3", 10, 3.0),
                        ref.closed_form_coherence("phase3", 1, 0.3) ** 10)


def test_benchmark_json_lists_every_per_layer_metric_with_its_unit():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert listed == spans.UNITS


def test_traced_names_are_wrapped_where_callers_hold_them_and_restored():
    pytest.importorskip("qeclab")
    # The package re-exports the search() function under the module's name.
    codes = importlib.import_module("qeclab.codes")
    search = importlib.import_module("qeclab.search")
    states = importlib.import_module("qeclab.states")

    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert search.is_valid_perfect_code(codes.five_qubit_encoder()).valid
    finally:
        spans.uninstall(undo)
    times = spans.layer_times(tracer.spans)
    assert times["search.is_valid_perfect_code"]["calls"] == 1
    assert times["codes.check_knill_laflamme"]["calls"] == 1    # held by qeclab.search
    assert times["codes.apply_error"]["calls"] == 32
    assert tracer.counters["search.valid_verdicts"] == 1
    assert search.check_knill_laflamme is codes.check_knill_laflamme
    assert not hasattr(search.check_knill_laflamme, "__wrapped__")
    assert not hasattr(states.PureState.__init__, "__wrapped__")


def test_a_name_the_program_no_longer_defines_is_skipped(monkeypatch):
    pytest.importorskip("qeclab")
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + ("codes.no_such_function",))
    tracer = spans.Tracer()
    spans.uninstall(spans.install(tracer))
    assert spans.per_layer_metrics(tracer, {})["codes.no_such_function.calls"] == 0
