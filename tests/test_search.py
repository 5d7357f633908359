import importlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qeclab.circuits import Circuit, GateOp, parse_circuit
from qeclab.codes import check_knill_laflamme, codeword_block, CodeSpec, single_qubit_error_classes
from qeclab.search import (
    Candidate,
    SearchConfig,
    VALIDITY_MODES,
    ValidityResult,
    circuit_codewords,
    is_valid_perfect_code,
    mutate,
    pulse_cost,
    random_circuit,
    search,
)
from qeclab.codes import five_qubit_code

search_module = importlib.import_module("qeclab.search")   # the package exports search() itself
ENCODER_24 = Path(__file__).resolve().parent / "data" / "encoder_24.qc.json"


def kl_recheck(circuit: Circuit) -> bool:
    """Independent revalidation used to audit search results."""
    w0, w1 = circuit_codewords(circuit)
    if abs(np.vdot(w0.amplitudes, w1.amplitudes)) > 1e-10:
        return False
    code = CodeSpec("audit", 5, w0, w1)
    return check_knill_laflamme(code, single_qubit_error_classes(5)).ok


class TestValidity:
    def test_reference_encoder_is_exact(self):
        result = is_valid_perfect_code(five_qubit_code().encoder)
        assert result.valid and result.mode == "exact"

    def test_empty_circuit_invalid(self):
        result = is_valid_perfect_code(Circuit(5))
        assert not result.valid
        assert result.violation > 0.5

    def test_twenty_thousand_op_circuit_gets_a_verdict(self):
        """Rounding drifts the codeword norms by about 8e-17 per op, to 1.6e-12
        here: past the 1e-12 that CodeSpec demands of outside codewords."""
        circ = random_circuit(5, 20_000, np.random.default_rng(0))
        result = is_valid_perfect_code(circ)
        assert isinstance(result, ValidityResult)
        assert not result.valid and result.violation > 0.1

    def test_non_orthogonal_images_invalid(self):
        # a circuit that ignores the data qubit maps both inputs to overlapping states
        circ = Circuit(5, (GateOp("U", (1,)),))
        result = is_valid_perfect_code(circ)
        assert not result.valid

    def test_exact_mode_rejects_relabeled_codes(self):
        """A code that merely passes the correction conditions is not 'exact'."""
        encoder = five_qubit_code().encoder
        relabeled = Circuit(5, encoder.ops + (GateOp("Z", (1,)),))
        res = is_valid_perfect_code(relabeled)
        if res.valid:
            assert res.mode in ("exact", "kl")
        strict = is_valid_perfect_code(relabeled, mode="exact")
        loose = is_valid_perfect_code(relabeled, mode="auto")
        assert (loose.valid, loose.mode) == (True, "kl")
        assert not strict.valid

    def test_wrong_register_size(self):
        with pytest.raises(ValueError):
            is_valid_perfect_code(Circuit(3))

    def test_unknown_mode_is_rejected(self):
        for mode in ("exakt", "kl"):        # kl is what auto reports, not a mode
            with pytest.raises(ValueError, match=f"'{mode}'; expected one of auto, exact$"):
                is_valid_perfect_code(five_qubit_code().encoder, mode)


class TestSearch:
    def test_seeded_with_reference_never_worse(self):
        start = five_qubit_code().encoder
        cfg = SearchConfig(start=start, budget=60, restarts=2, seed=3)
        result = search(cfg)
        assert result.best is not None
        assert result.best.cost <= pulse_cost(start)

    def test_deterministic_given_seed(self):
        cfg = SearchConfig(start=five_qubit_code().encoder, budget=40, restarts=2, seed=12)
        a = search(cfg)
        b = search(cfg)
        assert a.best.cost == b.best.cost
        assert a.best.circuit == b.best.circuit
        assert a.history == b.history

    def test_reported_valid_candidates_pass_independent_recheck(self):
        cfg = SearchConfig(start=five_qubit_code().encoder, budget=120, restarts=2, seed=8)
        result = search(cfg)
        assert result.best is not None
        assert kl_recheck(result.best.circuit)

    def test_best_valid_cost_trace_non_increasing(self):
        cfg = SearchConfig(start=five_qubit_code().encoder, budget=150, restarts=3, seed=21)
        result = search(cfg)
        costs = [h.best_valid_cost for h in result.history if h.best_valid_cost is not None]
        assert costs == sorted(costs, reverse=True)

    def test_adversarial_mutations_never_poison_best(self):
        """Break the circuit on purpose; the valid-best slot must stay sound."""
        start = five_qubit_code().encoder
        rng = np.random.default_rng(4)
        cfg = SearchConfig(start=start, budget=1, restarts=1, seed=4)
        for _ in range(50):
            mutant = mutate(start, cfg, rng)
            res = is_valid_perfect_code(mutant)
            if res.valid:
                assert kl_recheck(mutant)

    def test_budget_exhausted_reports_diagnostic(self):
        cfg = SearchConfig(budget=30, restarts=2, seed=5, max_ops=6)
        result = search(cfg)
        assert result.best is None
        assert result.best_invalid is not None
        assert result.best_invalid.violation > 0

    def test_report_dict_fields(self):
        cfg = SearchConfig(start=five_qubit_code().encoder, budget=30, restarts=1, seed=2)
        doc = search(cfg).to_dict()
        assert doc["found_valid"] is True
        assert {"seed", "iterations", "best_cost", "cost_trace"} <= set(doc)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(budget=0)
        with pytest.raises(ValueError, match="restarts"):
            SearchConfig(budget=3, restarts=10)
        with pytest.raises(ValueError, match="restarts"):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(alphabet=("U", "RX"))

    def test_unknown_validity_mode_is_rejected(self):
        for mode in ("exakt", "kl"):
            with pytest.raises(ValueError, match=f"'{mode}'; expected one of auto, exact$"):
                SearchConfig(validity_mode=mode)

    @pytest.mark.parametrize("n", [3, 6])
    def test_start_register_must_match(self, n):
        start = Circuit(n, (GateOp("CNOT", (n - 1,), (0,)),))
        with pytest.raises(ValueError, match=f"start circuit has {n} qubits; the search runs on 5-qubit circuits"):
            SearchConfig(start=start)

    @pytest.mark.parametrize("max_ops", [0, -3, 1001])
    def test_max_ops_must_be_positive(self, max_ops):
        with pytest.raises(ValueError, match="max_ops"):
            SearchConfig(max_ops=max_ops)

    def test_report_rates(self):
        """accept_rate and valid_fraction are shares of the iterations, the
        same for a seed on every run."""
        cfg = SearchConfig(start=five_qubit_code().encoder, budget=80, restarts=1, seed=6)
        result, _, calls = _audited_search(cfg)
        doc = result.to_dict()
        assert doc == search(cfg).to_dict()
        assert 0 < doc["accept_rate"] < 1
        assert doc["accept_rate"] == result.accepted / result.iterations
        # calls: the start, one per proposal, then the final recheck
        assert len(calls) == result.iterations + 2
        assert doc["valid_fraction"] == sum(c[3].valid for c in calls[1:-1]) / result.iterations


class TestMutate:
    def test_insert_at_the_cap_does_not_grow(self):
        cfg = SearchConfig(max_ops=3, budget=1, restarts=1)
        circ = random_circuit(5, 3, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        assert max(len(mutate(circ, cfg, rng).ops) for _ in range(200)) == 3

    def test_circuit_over_the_cap_never_grows(self):
        cfg = SearchConfig(max_ops=3, budget=1, restarts=1)
        circ = random_circuit(5, 6, np.random.default_rng(1))
        rng = np.random.default_rng(3)
        lengths = [len(mutate(circ, cfg, rng).ops) for _ in range(200)]
        assert max(lengths) == 6 and min(lengths) == 5

    def test_keeps_unchanged_ops_as_the_same_objects(self, rng):
        """The search reuses prefix blocks by op identity."""
        cfg = SearchConfig(budget=1, restarts=1)
        start = five_qubit_code().encoder
        for _ in range(50):
            ops = mutate(start, cfg, rng).ops
            assert sum(any(op is old for old in start.ops) for op in ops) >= len(ops) - 1


class TestFromThe24PulseEncoder:
    """The climb started at the 24-pulse exact encoder (qubit 0 the input)."""

    @pytest.fixture(scope="class")
    def encoder(self):
        return parse_circuit(ENCODER_24.read_text(encoding="utf-8"))

    def test_is_exact_at_24_pulses(self, encoder):
        assert is_valid_perfect_code(encoder, "exact").mode == "exact"
        assert pulse_cost(encoder) == 24

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_climb_never_reports_above_24(self, encoder, seed):
        doc = search(SearchConfig(start=encoder, budget=1000, restarts=2, seed=seed,
                                  validity_mode="exact")).to_dict()
        assert (doc["best_cost"], doc["validity_mode"]) == (24, "exact")
        assert max(h["cost"] for h in doc["cost_trace"]) <= 24

    @pytest.mark.parametrize("seed", [0, 1])
    def test_auto_climb_reaches_21_in_kl_mode(self, encoder, seed):
        """21 is the KL minimum of a 16,384-circuit family, not a proven bound."""
        doc = search(SearchConfig(start=encoder, budget=1000, restarts=2, seed=seed)).to_dict()
        assert (doc["best_cost"], doc["validity_mode"]) == (21, "kl")

    def test_auto_reports_kl_where_only_the_kl_check_holds(self, encoder):
        """``kl`` is no mode of its own: ``auto`` runs that check and names it."""
        result = search(SearchConfig(start=encoder, budget=300, restarts=2, seed=0))
        assert (result.best.mode, result.to_dict()["validity_mode"]) == ("kl", "kl")
        assert kl_recheck(result.best.circuit)
        assert not is_valid_perfect_code(result.best.circuit, "exact")


class TestRandomCircuit:
    def test_respects_alphabet(self, rng):
        circ = random_circuit(3, 20, rng, alphabet=("U", "Z"))
        assert all(op.kind in ("U", "Z") for op in circ.ops)

    def test_ops_are_well_formed(self, rng):
        circ = random_circuit(5, 50, rng)
        assert len(circ.ops) == 50  # construction validates every op


# Best results of `search --start reference --budget 500 --restarts 2
# --mode auto --seed s`, pinned so that work on the evaluation kernels cannot
# change what the climb finds: seed -> (best cost, best circuit), each op
# written kind:targets or kind:controls>targets.
SEEDED_SEARCH_RESULTS = {
    0: (46, "U:2 V:4 CPHASE:0>4 V:3 CPHASE:3>4 Udag:4 CPHASE:2>3 U:2 Vdag:3 "
            "CPHASE:0>3 CPHASE:2>3 V:1 CPHASE:1>3,4 Udag:0 CPHASE:0>2 U:0 U:2 "
            "CPHASE:0>2 U:2 Vdag:4 U:0 CPHASE:0>2 Udag:2 CPHASE:2>3,4"),
    1: (46, "Vdag:4 Vdag:3 CPHASE:0>4 CPHASE:3>4 Udag:4 Udag:3 Udag:2 CPHASE:2>3 "
            "U:2 Z:2 CPHASE:0>3 U:0 Vdag:1 Vdag:3 CPHASE:1>3,4 CPHASE:0>2 U:0 "
            "Udag:2 CPHASE:0>2 Udag:0 V:4 U:2 CPHASE:0>2 Udag:2 Udag:0 CPHASE:2>3,4"),
    2: (51, "Udag:2 U:0 Vdag:4 CPHASE:0>4 Udag:3 CPHASE:3>4 X:1 CPHASE:2>3 Udag:2 "
            "Udag:3 CPHASE:0>3 CPHASE:2>3 U:3 Udag:4 Udag:1 Udag:3 Udag:0 "
            "CPHASE:1>3,4 CPHASE:0>2 U:0 Udag:2 CPHASE:0>2 U:2 Vdag:4 Udag:0 "
            "CPHASE:0>2 Udag:2 CPHASE:2>3,4 X:3"),
    3: (48, "Vdag:4 CPHASE:0>4 Udag:1 Udag:3 CPHASE:3>4 Vdag:4 Udag:2 CPHASE:2>3 "
            "Wdag:2 Udag:3 CPHASE:0>3 CPHASE:2>3 X:4 CPHASE:1>3,4 Udag:0 CPHASE:0>2 "
            "Udag:2 U:0 CPHASE:0>2 Udag:4 U:2 Udag:0 CPHASE:0>2 Wdag:2 CPHASE:2>3,4 "
            "Wdag:3"),
    4: (47, "U:4 CPHASE:0>4 Udag:3 CPHASE:3>4 Udag:4 CPHASE:2>3 U:2 X:3 CPHASE:0>3 "
            "CPHASE:2>3 U:3 Udag:1 CPHASE:1>3,4 Udag:0 CPHASE:0>2 U:0 Udag:2 "
            "CPHASE:0>2 U:2 Vdag:4 Udag:0 CPHASE:0>2 Udag:2 CPHASE:2>3,4 Vdag:2"),
    5: (46, "Vdag:4 CPHASE:0>4 Udag:3 CPHASE:3>4 Udag:4 Udag:2 CPHASE:2>3 Vdag:3 "
            "Udag:2 CPHASE:0>3 CPHASE:2>3 Udag:2 V:1 CPHASE:1>3,4 CPHASE:0>2 Udag:0 "
            "U:2 CPHASE:0>2 Wdag:2 Vdag:4 U:0 CPHASE:0>2 CPHASE:2>3,4 Wdag:1"),
    6: (44, "Vdag:4 Udag:3 CPHASE:0>4 CPHASE:3>4 Udag:4 V:1 X:0 Udag:2 Vdag:4 "
            "CPHASE:0>3 CPHASE:2>3 V:3 CPHASE:1>3,4 U:0 CPHASE:0>2 Udag:0 Udag:2 "
            "CPHASE:0>2 U:2 Vdag:4 Udag:0 CPHASE:0>2 Vdag:2 CPHASE:2>3,4"),
    7: (44, "Vdag:4 Udag:3 CPHASE:0>4 Vdag:1 CPHASE:3>4 Udag:4 U:2 CPHASE:2>3 U:2 "
            "Udag:3 CPHASE:0>3 CPHASE:1>3,4 CPHASE:2>3 CPHASE:0>2 U:0 Udag:2 "
            "CPHASE:0>2 U:2 Vdag:4 Udag:0 CPHASE:0>2 CPHASE:2>3,4"),
}


def _op_token(op: GateOp) -> str:
    qubits = ",".join(map(str, op.targets))
    if op.controls:
        qubits = ",".join(map(str, op.controls)) + ">" + qubits
    return f"{op.kind}:{qubits}"


@pytest.mark.parametrize("seed", sorted(SEEDED_SEARCH_RESULTS))
def test_seeded_search_results_are_unchanged(seed):
    cfg = SearchConfig(start=five_qubit_code().encoder, budget=500, restarts=2,
                       seed=seed, validity_mode="auto")
    result = search(cfg)
    cost, ops = SEEDED_SEARCH_RESULTS[seed]
    assert result.best.cost == cost
    assert " ".join(_op_token(op) for op in result.best.circuit.ops) == ops


def _audited_search(cfg: SearchConfig):
    """Run the search recording every candidate it scores and every validity
    call it makes, as (circuit, mode, block, result)."""
    candidates, calls = [], []
    real_check, real_candidate = search_module.is_valid_perfect_code, search_module.Candidate

    def check(circuit, mode="auto", *, block=None):
        res = real_check(circuit, mode, block=block)
        calls.append((circuit, mode, block, res))
        return res

    def candidate(*args):
        candidates.append(real_candidate(*args))
        return candidates[-1]

    with mock.patch.object(search_module, "is_valid_perfect_code", check), \
            mock.patch.object(search_module, "Candidate", candidate):
        result = search(cfg)
    return result, candidates, calls


def _assert_matches_uncached(cfg: SearchConfig):
    result, candidates, calls = _audited_search(cfg)
    assert len(candidates) == result.iterations + cfg.restarts
    # one check per start and per proposal, then the final recheck
    assert len(calls) == result.iterations + cfg.restarts + (result.best is not None)
    for circuit, mode, block, res in calls:
        if block is not None:
            assert block.tobytes() == codeword_block(circuit).tobytes()
    for cand in candidates:
        fresh = is_valid_perfect_code(cand.circuit, cfg.validity_mode)
        assert cand.valid == fresh.valid
        assert cand.mode == fresh.mode
        assert cand.violation == fresh.violation
        assert cand.cost == pulse_cost(cand.circuit)
    return result


class TestPrefixCache:
    """Proposals are scored from the current circuit's cached prefix blocks;
    every block and verdict must equal a from-scratch evaluation."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), start=st.none() | st.just(-1) | st.integers(1, 12),
           mode=st.sampled_from(VALIDITY_MODES), budget=st.integers(4, 40),
           restarts=st.integers(1, 2), max_ops=st.integers(1, 40))
    def test_cached_evaluation_matches_uncached(self, seed, start, mode, budget, restarts, max_ops):
        if start == -1:
            start = five_qubit_code().encoder
        elif start is not None:
            start = random_circuit(5, start, np.random.default_rng(seed))
        _assert_matches_uncached(SearchConfig(start=start, budget=budget, restarts=restarts,
                                              seed=seed, max_ops=max_ops, validity_mode=mode))

    def test_long_climb_accepts_and_rejects(self):
        result = _assert_matches_uncached(SearchConfig(start=five_qubit_code().encoder, budget=300,
                                                       restarts=1, seed=0))
        assert 0 < result.accepted < result.iterations
        assert result.valid_proposals > 0


# `search --start reference --budget 500 --restarts 2 --mode auto --seed 0`:
# (restart, iteration, cost, valid, best valid cost) per trace entry.
SEED0_COST_TRACE = [
    (0, 0, 58, True, 58), (0, 6, 57, True, 57), (0, 12, 56, True, 56), (0, 33, 55, True, 55),
    (0, 43, 54, True, 54), (0, 62, 53, True, 53), (0, 100, 52, True, 52), (0, 106, 51, True, 51),
    (0, 132, 50, True, 50), (0, 205, 49, True, 49), (1, 190, 48, True, 48), (1, 200, 47, True, 47),
    (1, 214, 46, True, 46),
]


def test_seed0_cost_trace_and_rates_are_unchanged():
    cfg = SearchConfig(start=five_qubit_code().encoder, budget=500, restarts=2,
                       seed=0, validity_mode="auto")
    doc = search(cfg).to_dict()
    keys = ("restart", "iteration", "cost", "valid", "best_valid_cost")
    assert [tuple(h[k] for k in keys) for h in doc["cost_trace"]] == SEED0_COST_TRACE
    assert (doc["accept_rate"], doc["valid_fraction"]) == (0.112, 0.246)
