import contextlib
import importlib
import os
import signal
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qeclab.circuits import Circuit, GateOp, parse_circuit
from qeclab.codes import (CodeSpec, _error_images, _kl_reduction, check_knill_laflamme, codeword_block,
                          single_qubit_error_classes)
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
from qeclab.states import PureState

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
        assert doc["valid_fraction"] == sum(res.valid for *_, res in calls[1:-1]) / result.iterations


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
    """Run the search recording every candidate it scores and every verdict
    it reaches, as (block, mode, Knill-Laflamme check, result). The climbs
    run in this process, on one worker, so that the recording stand-ins
    reach them."""
    candidates, calls = [], []
    real_verdict, real_candidate = search_module._verdict, search_module.Candidate

    def verdict(block, mode, kl_check):
        res = real_verdict(block, mode, kl_check)
        calls.append((block, mode, kl_check, res))
        return res

    def candidate(*args):
        candidates.append(real_candidate(*args))
        return candidates[-1]

    with mock.patch.object(search_module, "_verdict", verdict), \
            mock.patch.object(search_module, "Candidate", candidate), \
            mock.patch.object(search_module, "_workers", lambda: 1):
        result = search(cfg)
    return result, candidates, calls


def _assert_matches_uncached(cfg: SearchConfig):
    """Every scored block equals the candidate's ``codeword_block``, and every
    verdict of the climb, whose Knill-Laflamme images come from the stacked
    gather, equals the reference verdict of ``is_valid_perfect_code``, which
    builds them with one ``apply_error`` each."""
    result, candidates, calls = _audited_search(cfg)
    assert len(candidates) == result.iterations + cfg.restarts
    # one verdict per start and per proposal, then the final recheck
    assert len(calls) == result.iterations + cfg.restarts + (result.best is not None)
    scored = [cand.circuit for cand in candidates] + ([result.best.circuit] if result.best is not None else [])
    for circuit, (block, mode, _, _) in zip(scored, calls):
        assert block.tobytes() == codeword_block(circuit).tobytes()
        assert mode == cfg.validity_mode
    checks = [kl_check for _, _, kl_check, _ in calls]
    assert checks == [search_module._stacked_kl] * len(candidates) + [search_module._per_error_kl] * (len(calls) - len(candidates))
    for cand, (_, _, _, res) in zip(candidates, calls):
        assert (cand.valid, cand.mode, cand.violation) == (res.valid, res.mode, res.violation)
    for cand in candidates:
        fresh = is_valid_perfect_code(cand.circuit, cfg.validity_mode)
        assert cand.valid == fresh.valid
        assert cand.mode == fresh.mode
        assert cand.violation == fresh.violation
        assert cand.cost == pulse_cost(cand.circuit)
    return result


class TestPrefixCache:
    """Proposals are scored from the current circuit's cached prefix blocks;
    every block and verdict must equal a from-scratch evaluation. So every
    proposal's climb verdict, from the stacked Knill-Laflamme images, is
    also compared with the reference verdict, from the per-error images."""

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


BLOCK_KINDS = ("circuit", "mutant", "orthonormal", "nan", "inf")


def _test_block(kind: str, seed: int) -> np.ndarray:
    """A (32, 2) codeword block: of a random circuit, of the shipped encoder
    after 1-3 mutations, the QR of a Gaussian block, or the shipped block
    with one NaN or infinite entry. Only the infinite entry tells a copied
    identity image from one multiplied by 1 (inf * 0 is NaN)."""
    rng = np.random.default_rng(seed)
    if kind == "circuit":
        return codeword_block(random_circuit(5, int(rng.integers(0, 41)), rng))
    if kind == "mutant":
        circuit = five_qubit_code().encoder
        cfg = SearchConfig(start=circuit, max_ops=60)
        for _ in range(int(rng.integers(1, 4))):
            circuit = mutate(circuit, cfg, rng)
        return codeword_block(circuit)
    if kind == "orthonormal":
        q, _ = np.linalg.qr(rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2)))
        return np.ascontiguousarray(q)
    block = codeword_block(five_qubit_code().encoder)
    block[rng.integers(32), rng.integers(2)] = np.nan if kind == "nan" else np.inf
    return block


def _quiet(kind: str):
    """An infinite entry makes NaNs in the images and the Gram matrix."""
    return np.errstate(invalid="ignore") if kind == "inf" else contextlib.nullcontext()


class TestStackedKnillLaflamme:
    """The climb builds its Knill-Laflamme images with one stacked gather;
    the public check builds them with one ``apply_error`` per error. Both
    feed one reduction, so they must agree bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(BLOCK_KINDS), seed=st.integers(0, 2**32 - 1),
           order=st.permutations(range(16)), m=st.integers(1, 16))
    def test_stacked_images_give_the_per_error_bits(self, kind, seed, order, m):
        """Any error subset in any order, so the identity's copied columns sit
        at any position or nowhere."""
        block = _test_block(kind, seed)
        errors = tuple(search_module._FIVE_QUBIT_ERRORS[a] for a in order[:m])
        words = (PureState._trusted(5, w) for w in block.T)
        with _quiet(kind):
            reference = check_knill_laflamme(CodeSpec._trusted("reference", *words), errors)
            stacked = _kl_reduction(_error_images(block, errors))
        assert stacked.ok == reference.ok
        assert np.float64(stacked.worst_violation).tobytes() == np.float64(reference.worst_violation).tobytes()
        assert stacked.witness.tobytes() == reference.witness.tobytes()

    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    def test_the_climb_and_the_boundary_reach_one_verdict(self, kind):
        for seed in range(20):
            block = _test_block(kind, seed)
            for mode in VALIDITY_MODES:
                with _quiet(kind):
                    climb = search_module._verdict(block, mode, search_module._stacked_kl)
                    reference = search_module._verdict(block, mode, search_module._per_error_kl)
                assert np.float64(climb.violation).tobytes() == np.float64(reference.violation).tobytes()
                assert (climb.valid, climb.mode) == (reference.valid, reference.mode)

    def test_the_final_recheck_is_independent_of_the_climbs_images(self, monkeypatch):
        """All-zero images break no condition, so the climb reads every
        proposal as valid; the final re-check builds its own images, one
        ``apply_error`` per error, and refuses the result."""
        monkeypatch.setattr(search_module, "_error_images",
                            lambda block, errors: np.zeros((block.shape[0], 2 * len(errors)), dtype=complex))
        monkeypatch.setattr(search_module, "_workers", lambda: 1)
        with pytest.raises(AssertionError, match="search bookkeeping reported an invalid circuit as valid"):
            search(SearchConfig(budget=20, restarts=1, max_ops=6, seed=0))


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


class TestWorkerCount:
    """The restarts' climbs are merged in restart order, so the result has
    the same bytes whether one process or several climb them."""

    # Later restarts improve on earlier ones in "nothing_valid" (its best
    # invalid circuit) and in "five_restarts", whose 5 restarts divide by
    # neither 2 nor 3 workers.
    CONFIGS = {
        "reference_auto": SearchConfig(start=five_qubit_code().encoder, budget=500, restarts=2,
                                       seed=0, validity_mode="auto"),
        "reference_exact": SearchConfig(start=five_qubit_code().encoder, budget=500, restarts=2,
                                        seed=0, validity_mode="exact"),
        "nothing_valid": SearchConfig(budget=60, restarts=3, max_ops=6, seed=0, validity_mode="exact"),
        "five_restarts": SearchConfig(start=five_qubit_code().encoder, budget=250, restarts=5, seed=4),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_same_result_at_any_worker_count(self, name, monkeypatch):
        cfg = self.CONFIGS[name]
        docs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(search_module, "_workers", lambda: workers)
            docs.append(search(cfg).to_dict())
        assert docs[1] == docs[0] and docs[2] == docs[0]
        assert docs[0]["found_valid"] == (name != "nothing_valid")

    def test_restarts_are_cut_into_contiguous_near_equal_ranges(self, monkeypatch):
        cfg = self.CONFIGS["five_restarts"]
        monkeypatch.setattr(search_module, "_workers", lambda: 1)
        serial = search(cfg).to_dict()
        ranges = []

        class Inline:
            """A pool that runs each job at once, in this process."""
            def submit(self, fn, *args):
                ranges.append(args[1:])
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(search_module, "_workers", lambda: 3)
        monkeypatch.setattr(search_module, "_pool", lambda workers: Inline())
        assert search(cfg).to_dict() == serial
        assert ranges == [(0, 1), (1, 3), (3, 5)]

    def test_a_broken_pool_is_stopped_and_reported_as_a_lost_worker(self, monkeypatch):
        """A pool whose worker died fails its jobs with ``BrokenProcessPool``;
        the search stops that pool, so the next one makes a new pool, and
        raises ``ChildProcessError``, which the CLI reports as exit 3."""
        from concurrent.futures.process import BrokenProcessPool
        stopped = []

        class Broken:
            def submit(self, fn, *args):
                future = Future()
                future.set_exception(BrokenProcessPool("a process was terminated abruptly"))
                return future

        pool = Broken()
        monkeypatch.setattr(search_module, "_workers", lambda: 2)
        monkeypatch.setattr(search_module, "_pool", lambda workers: pool)
        monkeypatch.setattr(search_module, "_stop", stopped.append)
        with pytest.raises(ChildProcessError, match="a search worker ended") as info:
            search(self.CONFIGS["five_restarts"])
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        assert stopped == [pool]


def test_a_ctrl_c_while_the_pool_makes_its_processes_is_raised_after():
    """``_sigint_held`` notes a Ctrl-C and raises it once the pool's
    processes are made; meanwhile the thread blocks SIGINT, so that each of
    them starts with it blocked."""
    reached = []
    handler = signal.getsignal(signal.SIGINT)
    with pytest.raises(KeyboardInterrupt):
        with search_module._sigint_held():
            assert signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, set())
            signal.raise_signal(signal.SIGINT)
            reached.append(True)
    assert reached == [True]
    assert signal.getsignal(signal.SIGINT) is handler
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, set())


POOL_UNDER_PYTEST = """
import importlib
from hypothesis import given, strategies as st
from qeclab.codes import five_qubit_code
from qeclab.states import PureState
search = importlib.import_module("qeclab.search")

@given(st.integers())
def test_with_hypothesis(n):
    pass

def test_search_on_the_pool(monkeypatch):
    monkeypatch.setattr(search, "_workers", lambda: 2)
    search.search(search.SearchConfig(start=five_qubit_code().encoder, budget=40, restarts=2))
"""


def test_the_pool_is_shut_down_quietly_at_exit(tmp_path):
    """Left to the garbage collector at interpreter exit, the executor's
    own clean-up prints "Exception ignored in ... weakref_cb" after a pytest
    run of a module that holds a hypothesis test, as this suite's modules
    do; the pool is shut down at exit instead."""
    (tmp_path / "test_pool.py").write_text(POOL_UNDER_PYTEST, encoding="utf-8")
    src = str(Path(search_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_pool.py"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 passed" in proc.stdout
    assert "Exception ignored" not in proc.stdout + proc.stderr
