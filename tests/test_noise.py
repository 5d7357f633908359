import io
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qeclab import noise
from qeclab.circuits import circuit_to_unitary, invert_circuit
from qeclab.codes import (
    CORRECTION_MATRICES,
    build_syndrome_table,
    three_qubit_phase_code,
    two_qubit_zeno_code,
)
from qeclab.noise import (
    CSV_HEADER,
    DEFAULT_CURVES,
    IPLUS,
    MC_BLOCK,
    PLUS,
    SCHEME_KINDS,
    CurveSample,
    Scheme,
    _trajectory_point,
    block_rng,
    curves_to_csv,
    dephase_channel,
    dephasing_kraus,
    figure5_data,
    mc_coherence,
    n_shot_coherence,
    phase3_mixture_coefficients,
    phase3_worst_coherence_closed_form,
    run_scheme,
    scheme_coherence,
    scheme_coherences,
    uncoded_coherence_closed_form,
    zeno2_coherence_closed_form,
)
from qeclab.states import PureState, X, basis_bits

from conftest import random_pure_state

TIME_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0)


def _run_trajectories(scheme, psi, t, shots, seed) -> np.ndarray:
    """One point's (2, shots) final states, through the MC route's checks and
    the jobs a lone point runs on one worker."""
    point = _trajectory_point(scheme, psi, t, shots, seed)
    return np.concatenate([noise._trajectory_job(*point, start, stop)
                           for start, stop in noise._job_spans(shots)], axis=1)


def gaussian_char_quadrature(t: float) -> float:
    """Independent oracle: E[e^{i phi}] for phi ~ N(0, 2t) by direct quadrature."""
    if t == 0:
        return 1.0
    sigma = math.sqrt(2.0 * t)
    phi = np.linspace(-12 * sigma, 12 * sigma, 200001)
    pdf = np.exp(-(phi**2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    return float(np.trapezoid(np.cos(phi) * pdf, phi))


class TestDephaseChannel:
    def test_zero_time_is_identity(self, rng):
        rho = random_pure_state(2, rng).density()
        out = dephase_channel(rho, 0, 0.0)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_plus_state_off_diagonal_matches_quadrature(self):
        """The channel's decay factor equals the Gaussian average of e^{i phi}."""
        rho = PLUS.density()
        out = dephase_channel(rho, 0, 1.0)
        oracle = 0.5 * gaussian_char_quadrature(1.0)
        assert abs(out.matrix[0, 1] - oracle) < 1e-9
        assert abs(out.matrix[0, 1] - 0.5 * math.exp(-1.0)) < 1e-15
        assert abs(out.matrix[0, 1] - 0.18393972058572117) < 1e-12

    def test_long_time_limit_diagonal(self, rng):
        rho = random_pure_state(1, rng).density()
        out = dephase_channel(rho, 0, 60.0)
        assert abs(out.matrix[0, 1]) < 1e-15
        np.testing.assert_allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-15)

    def test_matches_kraus_pair(self, rng):
        rho = random_pure_state(2, rng).density()
        t = 0.7
        k0, k1 = dephasing_kraus(t)
        full0 = np.kron(k0, np.eye(2))
        full1 = np.kron(k1, np.eye(2))
        expected = full0 @ rho.matrix @ full0.conj().T + full1 @ rho.matrix @ full1.conj().T
        out = dephase_channel(rho, 0, t)
        assert np.abs(out.matrix - expected).max() < 1e-14

    def test_trace_and_hermiticity_preserved(self, rng):
        rho = random_pure_state(3, rng).density()
        out = dephase_channel(rho, 1, 0.4)
        assert abs(np.trace(out.matrix) - 1) < 1e-12
        assert np.abs(out.matrix - out.matrix.conj().T).max() < 1e-14

    def test_negative_time_rejected(self, rng):
        with pytest.raises(ValueError):
            dephase_channel(random_pure_state(1, rng).density(), 0, -0.1)

    @pytest.mark.parametrize("qubit", [-1, 2])
    def test_qubit_out_of_range_rejected(self, rng, qubit):
        with pytest.raises(ValueError, match=f"^qubit index {qubit} out of range$"):
            dephase_channel(random_pure_state(2, rng).density(), qubit, 0.5)

    @pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
    def test_every_entry_point_rejects_a_negative_or_non_finite_time(self, rng, t):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dephase_channel(random_pure_state(1, rng).density(), 0, t)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dephasing_kraus(t)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mc_coherence(Scheme("phase3"), IPLUS, t, 100, seed=1)


class TestTrajectoryPhases:
    def test_block_rng_is_order_independent(self):
        """Block b's draws do not depend on which blocks were drawn before."""
        a = block_rng(3, 17).normal(size=(MC_BLOCK, 4))
        _ = block_rng(3, 5).normal(size=(MC_BLOCK, 10))
        _ = block_rng(3, 16).uniform(size=MC_BLOCK)
        b = block_rng(3, 17).normal(size=(MC_BLOCK, 4))
        np.testing.assert_array_equal(a, b)
        point = np.random.SeedSequence(entropy=3, spawn_key=(1, 2))
        c = block_rng(point, 17).normal(size=4)
        _ = block_rng(point, 0).normal(size=4)
        np.testing.assert_array_equal(c, block_rng(point, 17).normal(size=4))
        assert not np.array_equal(a[0], c)

    @pytest.mark.parametrize("seed", [0, 3, 2026])
    def test_block_rng_reads_an_int_seed_as_its_seed_sequence(self, seed):
        for block in (0, 1, 17):
            np.testing.assert_array_equal(
                block_rng(seed, block).normal(size=8),
                block_rng(np.random.SeedSequence(seed), block).normal(size=8))

    def test_block_rng_appends_the_block_to_the_spawn_key(self):
        point = np.random.SeedSequence(entropy=5, spawn_key=(1, 2))
        expected = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(1, 2, 3)))
        np.testing.assert_array_equal(block_rng(point, 3).normal(size=8), expected.normal(size=8))

    @pytest.mark.parametrize("sigma", [0.0, 0.83])
    @pytest.mark.parametrize("size", [MC_BLOCK, 904])
    def test_drawing_in_place_gives_the_bytes_of_normal_then_uniform(self, sigma, size):
        """A job draws each block into its rows of the job's arrays; sigma 0
        must still give +0.0 everywhere, as ``normal(0.0, 0.0)`` does."""
        seed, block, reps, n = np.random.SeedSequence(entropy=7, spawn_key=(3, 1)), 2, 4, 3
        ref = block_rng(seed, block)
        phases_ref = ref.normal(0.0, sigma, size=(size, reps, n))
        draws_ref = ref.uniform(size=(size, reps))
        phases, draws = np.empty((size + 5, reps, n)), np.empty((size + 5, reps))
        noise._draw(block_rng(seed, block), sigma, phases[5:], draws[5:])
        assert phases[5:].tobytes() == phases_ref.tobytes()
        assert draws[5:].tobytes() == draws_ref.tobytes()
        if sigma == 0.0:
            assert not np.signbit(phases[5:]).any()


class TestRunSchemeExact:
    def test_any_scheme_at_zero_time_is_identity(self, rng):
        psi = random_pure_state(1, rng)
        for kind in ("uncoded", "zeno2", "phase3"):
            rho = run_scheme(Scheme(kind), psi, 0.0)
            np.testing.assert_allclose(rho.matrix, psi.density().matrix, atol=1e-12)

    def test_zeno2_off_diagonal_scaling_exactly_exp_minus_t(self, rng):
        """The detection-only scheme gains nothing over the bare qubit."""
        psi = random_pure_state(1, rng)
        for t in TIME_GRID:
            rho = run_scheme(Scheme("zeno2"), psi, t)
            expected = psi.density().matrix[1, 0] * math.exp(-t)
            assert abs(rho.matrix[1, 0] - expected) < 1e-12

    def test_phase3_mixture_form(self):
        for t in TIME_GRID:
            rho = run_scheme(Scheme("phase3"), IPLUS, t)
            a, b = phase3_mixture_coefficients(t)
            rho0 = IPLUS.density().matrix
            expected = a * rho0 + b * X @ rho0 @ X
            assert np.abs(rho.matrix - expected).max() < 1e-12
            assert abs(a + b - 1) < 1e-15

    def test_uncoded_equals_direct_channel(self, rng):
        psi = random_pure_state(1, rng)
        rho = run_scheme(Scheme("uncoded"), psi, 0.8)
        direct = dephase_channel(psi.density(), 0, 0.8)
        np.testing.assert_allclose(rho.matrix, direct.matrix, atol=1e-14)

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValueError):
            run_scheme(Scheme("zeno2"), random_pure_state(2, rng), 1.0)
        with pytest.raises(ValueError):
            run_scheme(Scheme("zeno2"), IPLUS, -1.0)
        with pytest.raises(ValueError):
            Scheme("zeno5")


class TestCoherence:
    def test_equal_states_give_one(self, rng):
        """At t = 0 every scheme returns its input, on both routes."""
        psi = random_pure_state(1, rng)
        for kind in SCHEME_KINDS:
            assert abs(scheme_coherence(Scheme(kind, 3), psi, 0.0) - 1) < 1e-12
            c_mc, stderr = mc_coherence(Scheme(kind, 3), psi, 0.0, 10, seed=1)
            assert abs(c_mc - 1) < 1e-12 and stderr < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(SCHEME_KINDS), reps=st.integers(1, 12),
           t=st.floats(0.0, 5.0), psi_seed=st.integers(0, 2**32 - 1))
    def test_exact_coherence_reads_the_density_matrices_bit_for_bit(self, kind, reps, t, psi_seed):
        """The array route gives the very float the checked matrices give."""
        psi = random_pure_state(1, np.random.default_rng(psi_seed))
        rho = run_scheme(Scheme(kind, reps), psi, t)
        expected = float(abs(rho.matrix[1, 0] / psi.density().matrix[1, 0]))
        assert scheme_coherence(Scheme(kind, reps), psi, t) == expected

    def test_zeno2_value_at_t1(self):
        c = scheme_coherence(Scheme("zeno2"), PLUS, 1.0)
        assert abs(c - 0.36787944117144233) < 1e-12

    def test_phase3_worst_case_value_at_t1(self):
        c = scheme_coherence(Scheme("phase3"), IPLUS, 1.0)
        assert abs(c - 0.5269256275732315) < 1e-12
        assert abs(c - phase3_worst_coherence_closed_form(1.0)) < 1e-12

    def test_phase3_plus_state_is_fully_protected(self):
        assert abs(scheme_coherence(Scheme("phase3"), PLUS, 1.0) - 1) < 1e-12

    def test_global_phase_of_off_diagonal_ignored(self):
        """C is the modulus of <1|rho|0> / <1|rho_0|0>. On a 45 degree input
        phase3's output a*rho_0 + b*X rho_0 X makes that ratio a - ib."""
        rotated = PureState(1, np.array([1, -1j]) / np.sqrt(2))
        assert scheme_coherence(Scheme("phase3"), rotated, 1.0) == scheme_coherence(
            Scheme("phase3"), IPLUS, 1.0)
        psi = PureState(1, np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2))
        a, b = phase3_mixture_coefficients(1.0)
        assert abs(scheme_coherence(Scheme("phase3"), psi, 1.0) - math.hypot(a, b)) < 1e-12

    def test_basis_state_rejected(self):
        for bits in ("0", "1"):
            with pytest.raises(ValueError, match="off-diagonal"):
                scheme_coherence(Scheme("phase3"), PureState.from_bits(bits), 1.0)
            with pytest.raises(ValueError, match="off-diagonal"):
                mc_coherence(Scheme("phase3"), PureState.from_bits(bits), 1.0, 100, seed=1)

    def test_two_qubit_input_rejected_on_both_routes(self, rng):
        psi = random_pure_state(2, rng)
        with pytest.raises(ValueError, match="schemes protect a single qubit"):
            scheme_coherence(Scheme("zeno2"), psi, 1.0)
        with pytest.raises(ValueError, match="schemes protect a single qubit"):
            mc_coherence(Scheme("zeno2"), psi, 1.0, 100, seed=1)

    def test_short_time_slope_is_minus_one(self):
        """d C_zeno2 / dt at 0+ is -1: the error is first order in t, not second."""
        h = 1e-6
        slope = (scheme_coherence(Scheme("zeno2"), IPLUS, h) - 1.0) / h
        assert abs(slope + 1.0) < 1e-3


def reference_exact(scheme: Scheme, psi: PureState, t: float) -> np.ndarray:
    """The exact route one time at a time, in 2-D products: the reference
    the stacked route must match bit for bit."""
    n, isometry, recovery = noise._model(scheme.kind)
    mask = noise._hamming_mask(n, tuple(range(n)))
    step = t / scheme.repetitions
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    for _ in range(scheme.repetitions):
        full = isometry @ rho @ isometry.conj().T
        full = full * math.exp(-step) ** mask
        rho = sum(A @ full @ A.conj().T for A in recovery)
    return rho


def reference_coherences(scheme: Scheme, psi: PureState, times) -> np.ndarray:
    z0 = psi.density().matrix[1, 0]
    return np.array([abs(reference_exact(scheme, psi, t)[1, 0] / z0) for t in times])


class TestExactStack:
    """The exact route runs all of a call's times at once, in chunks of
    ``noise._EXACT_CHUNK``, with the bits of one time at a time."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(SCHEME_KINDS), reps=st.integers(1, 12), psi_seed=st.integers(0, 2**32 - 1),
           times=st.lists(st.one_of(st.floats(0.0, 20.0), st.sampled_from([0.0, -0.0, 1e3, 1e300, 1.7e308])),
                          min_size=1, max_size=70))
    def test_stacked_route_has_the_bits_of_the_per_time_loop(self, kind, reps, psi_seed, times):
        scheme = Scheme(kind, reps)
        psi = random_pure_state(1, np.random.default_rng(psi_seed))
        expected = np.array([reference_exact(scheme, psi, t) for t in times])
        assert np.concatenate(list(noise._run_exact(scheme, psi, times))).tobytes() == expected.tobytes()
        expected = reference_coherences(scheme, psi, times)
        assert scheme_coherences(scheme, psi, times).tobytes() == expected.tobytes()
        for t in times[:3]:
            assert run_scheme(scheme, psi, t).matrix.tobytes() == reference_exact(scheme, psi, t).tobytes()
            assert scheme_coherence(scheme, psi, t) == reference_coherences(scheme, psi, [t])[0]

    @pytest.mark.parametrize("count,chunks", [(1023, [1023]), (1024, [1024]), (1025, [1024, 1]),
                                              (2049, [1024, 1024, 1])])
    def test_chunk_edges(self, count, chunks):
        assert noise._EXACT_CHUNK == 1024
        times = np.linspace(0.0, 3.0, count).tolist()
        scheme = Scheme("phase3", 2)
        assert [len(rho) for rho in noise._run_exact(scheme, PLUS, times)] == chunks
        got = scheme_coherences(scheme, IPLUS, times)
        assert got.tobytes() == reference_coherences(scheme, IPLUS, times).tobytes()

    def test_memory_is_bounded_by_the_chunk(self):
        """100,000 times, as ``noise --t`` may pass them, hold one chunk's
        stacks and the result array: within twice a 1,024-time call."""
        def peak(count):
            times = np.linspace(0.0, 3.0, count).tolist()
            tracemalloc.start()
            try:
                scheme_coherences(Scheme("phase3"), IPLUS, times)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(100_000) <= 2 * peak(1024)

    def test_the_first_bad_time_is_named_after_the_input_is_checked(self, capsys):
        from qeclab.cli import main

        with pytest.raises(ValueError, match=r"\(got -1\)"):
            scheme_coherences(Scheme("phase3"), IPLUS, [1, -1, math.nan])
        with pytest.raises(ValueError, match=r"\(got nan\)"):
            scheme_coherences(Scheme("phase3"), IPLUS, [1, math.nan, -1])
        with pytest.raises(ValueError, match="off-diagonal"):
            scheme_coherences(Scheme("phase3"), PureState.from_bits("0"), [-1])
        assert main(["noise", "--scheme", "phase3", "--t", "1", "-1", "2"]) == 2
        assert capsys.readouterr().err == "error: exposure time must be finite and nonnegative (got -1.0)\n"

    def test_no_times_give_no_coherences(self):
        assert scheme_coherences(Scheme("zeno2"), IPLUS, []).shape == (0,)


class TestNShot:
    def test_one_shot_matches_plain(self):
        a = n_shot_coherence(Scheme("phase3"), 1.0, 1)
        b = scheme_coherence(Scheme("phase3"), IPLUS, 1.0)
        assert abs(a - b) < 1e-14

    def test_zeno2_repetition_changes_nothing(self):
        for n in (1, 2, 5, 10):
            c = n_shot_coherence(Scheme("zeno2"), 1.0, n)
            assert abs(c - math.exp(-1.0)) < 1e-12

    def test_phase3_ten_shot_composition_law(self):
        """Composed simulation equals [C(t/n)]^n."""
        c_sim = n_shot_coherence(Scheme("phase3"), 1.0, 10)
        c_law = phase3_worst_coherence_closed_form(0.1) ** 10
        assert abs(c_sim - c_law) < 1e-12
        assert abs(c_sim - 0.8760) < 1e-4

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            n_shot_coherence(Scheme("phase3"), 1.0, 0)


class TestMonteCarlo:
    def test_converges_to_exact_for_all_schemes(self):
        shots = 20_000
        for kind in ("uncoded", "zeno2", "phase3"):
            c_mc, stderr = mc_coherence(Scheme(kind), IPLUS, 1.0, shots, seed=31)
            c_exact = scheme_coherence(Scheme(kind), IPLUS, 1.0)
            assert stderr < 0.02
            assert abs(c_mc - c_exact) < 3 * stderr + 1e-12, (kind, c_mc, c_exact, stderr)

    def test_converges_across_the_time_grid(self):
        shots = 15_000
        for kind in ("zeno2", "phase3"):
            for t in (0.25, 1.0, 2.0):
                c_mc, stderr = mc_coherence(Scheme(kind), IPLUS, t, shots, seed=13)
                c_exact = scheme_coherence(Scheme(kind), IPLUS, t)
                assert abs(c_mc - c_exact) < 3 * stderr + 1e-12, (kind, t)

    def test_seeded_reproducibility(self):
        a = mc_coherence(Scheme("phase3"), IPLUS, 0.5, 2000, seed=7)
        b = mc_coherence(Scheme("phase3"), IPLUS, 0.5, 2000, seed=7)
        assert a == b

    def test_negative_zero_time_runs_as_zero(self):
        """Its phase width used to be sqrt(-0.0) = -0.0, a scale NumPy refuses."""
        for kind in SCHEME_KINDS:
            assert (mc_coherence(Scheme(kind, 2), IPLUS, -0.0, 100, seed=3)
                    == mc_coherence(Scheme(kind, 2), IPLUS, 0.0, 100, seed=3))

    def test_trajectory_channel_matches_kraus_channel(self):
        """Averaged single-qubit trajectories reproduce the exact channel."""
        shots = 30_000
        states = _run_trajectories(Scheme("uncoded"), IPLUS, 1.0, shots, 11)
        rho = states @ states.conj().T / shots
        exact = dephase_channel(IPLUS.density(), 0, 1.0)
        assert np.abs(rho - exact.matrix).max() < 5.0 / math.sqrt(shots)

    def test_shot_validation(self):
        with pytest.raises(ValueError):
            mc_coherence(Scheme("zeno2"), IPLUS, 1.0, 0, seed=1)

    def test_one_shot_rejected(self):
        """One trajectory has no error bar: the MC route refuses it."""
        with pytest.raises(ValueError, match="shots"):
            mc_coherence(Scheme("phase3"), IPLUS, 1.0, 1, seed=1)
        with pytest.raises(ValueError, match="shots"):
            _run_trajectories(Scheme("phase3"), IPLUS, 1.0, 1, 1)

    def test_mc_rejects_a_phase_width_that_overflows(self):
        """t = 1e308 is finite, but the variance 2t is not."""
        with pytest.raises(ValueError, match="phase width"):
            mc_coherence(Scheme("uncoded"), IPLUS, 1e308, 10, seed=1)

    def test_first_block_does_not_depend_on_shot_count(self):
        scheme = Scheme("phase3", 3)
        a = _run_trajectories(scheme, IPLUS, 0.7, MC_BLOCK, seed=4)
        b = _run_trajectories(scheme, IPLUS, 0.7, MC_BLOCK + 5, seed=4)
        assert b.shape == (2, MC_BLOCK + 5)
        np.testing.assert_array_equal(a, b[:, :MC_BLOCK])

    @pytest.mark.parametrize("kind,reps", DEFAULT_CURVES)
    def test_recovery_route_matches_decode_and_corrections_loop(self, kind, reps):
        """The MC route through the recovery operators agrees with decoding,
        sampling the ancilla on the decoded amplitudes and then correcting."""
        shots, t, seed = MC_BLOCK + 300, 1.3, 8
        expected = _decode_and_correct_trajectories(Scheme(kind, reps), IPLUS, t, shots, seed)
        got = _run_trajectories(Scheme(kind, reps), IPLUS, t, shots, seed)
        assert np.abs(got.T - expected).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(SCHEME_KINDS), reps=st.integers(1, 12),
           psi_seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 5.0),
           shots=st.sampled_from([2, 3, MC_BLOCK - 1, MC_BLOCK]) | st.integers(MC_BLOCK + 1, MC_BLOCK + 300),
           seed=st.integers(0, 2**32 - 1))
    def test_kernel_matches_the_reference_loop(self, kind, reps, psi_seed, t, shots, seed):
        """Same draws through the reference loop, for random inputs, times and
        shot counts on both sides of a block boundary."""
        psi = random_pure_state(1, np.random.default_rng(psi_seed))
        expected = _decode_and_correct_trajectories(Scheme(kind, reps), psi, t, shots, seed)
        got = _run_trajectories(Scheme(kind, reps), psi, t, shots, seed)
        assert got.shape == (2, shots)
        assert np.abs(got.T - expected).max() < 1e-12

    def test_stderr_matches_the_spread_of_replicates(self):
        """On a 45 degree input the error bar is the spread of |mean| over replicates.

        The Re/Im-separable formula reads about 1.6x too high at this point."""
        psi = PureState(1, np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2))
        runs = [mc_coherence(Scheme("uncoded"), psi, 0.25, 1000, seed=s) for s in range(200)]
        values, stderrs = np.array(runs).T
        ratio = stderrs.mean() / values.std(ddof=1)
        assert abs(ratio - 1.0) < 0.15, ratio

    @pytest.mark.parametrize("kind,reps", [("zeno2", 1), ("phase3", 1), ("phase3", 10)])
    def test_stderr_on_iplus_equals_the_separable_formula(self, kind, reps):
        """Re of the mean vanishes on IPLUS for the coded schemes, so the
        covariance term drops out and the two formulas agree."""
        shots, t, seed = 5000, 1.0, 31
        states = _run_trajectories(Scheme(kind, reps), IPLUS, t, shots, seed)
        z = states[1] * states[0].conj()
        m = z.mean()
        se_re = z.real.std(ddof=1) / math.sqrt(shots)
        se_im = z.imag.std(ddof=1) / math.sqrt(shots)
        z0 = abs(IPLUS.density().matrix[1, 0])
        old = math.hypot(m.real * se_re, m.imag * se_im) / abs(m) / z0
        _, stderr = mc_coherence(Scheme(kind, reps), IPLUS, t, shots, seed=seed)
        assert abs(stderr - old) < 1e-12


def _decode_and_correct_trajectories(scheme, psi, t, shots, seed):
    """Reference MC loop: decode unitary, Born sampling on the decoded ancilla
    columns, collapse, then the syndrome table's correction. Draws the same
    numbers in the same order as the engine."""
    if scheme.kind == "uncoded":
        n, isometry, decode, corr = 1, np.eye(2), np.eye(2), np.eye(2)[None]
    else:
        code = two_qubit_zeno_code() if scheme.kind == "zeno2" else three_qubit_phase_code()
        n = code.n_physical
        isometry = code.isometry()
        decode = circuit_to_unitary(invert_circuit(code.encoder))
        if scheme.kind == "zeno2":
            corr = np.stack([np.eye(2)] * 2 ** (n - 1))
        else:
            table = build_syndrome_table(code)
            corr = np.stack([CORRECTION_MATRICES[table.lookup(format(s, f"0{n - 1}b"))]
                             for s in range(2 ** (n - 1))])
    n_anc = n - 1
    n_reps = scheme.repetitions
    bits = basis_bits(n).astype(float)
    out = []
    for block, start in enumerate(range(0, shots, MC_BLOCK)):
        size = min(MC_BLOCK, shots - start)
        rng = block_rng(seed, block)
        phases = rng.normal(0.0, math.sqrt(2.0 * t / n_reps), size=(size, n_reps, n))
        draws = rng.uniform(size=(size, n_reps))
        states = np.tile(psi.amplitudes, (size, 1))
        for rep in range(n_reps):
            full = states @ isometry.T
            full = full * np.exp(1j * (phases[:, rep, :] @ bits.T))
            full = full @ decode.T
            cols = np.stack([full[:, : 2**n_anc], full[:, 2**n_anc:]], axis=2)
            probs = (np.abs(cols) ** 2).sum(axis=2)
            cum = np.cumsum(probs, axis=1)
            chosen = (cum > draws[:, rep, None] * cum[:, -1:]).argmax(axis=1)
            branch = cols[np.arange(size), chosen, :]
            branch /= np.linalg.norm(branch, axis=1, keepdims=True)
            states = np.einsum("sij,sj->si", corr[chosen], branch)
        out.append(states)
    return np.concatenate(out)


class TestEstimate:
    def test_elements_whose_mean_vanishes(self):
        """With no mean direction the error bar spreads over both parts:
        z = 0.5, -0.5, 0.5i, -0.5i has standard deviation sqrt(1/6) in each."""
        coherence, se = noise._estimate(np.array([0.5, -0.5, 0.5j, -0.5j]), 0.5)
        assert coherence == 0.0
        assert se == pytest.approx(1 / math.sqrt(3), rel=1e-12)


class TestFigure5:
    def test_grid_shape_and_t0(self):
        curves = figure5_data(3.0, 60)
        assert len(curves) == 4
        for curve in curves:
            assert len(curve.samples) == 61
            assert curve.samples[0].t == 0.0
            assert abs(curve.samples[0].c_exact - 1.0) < 1e-12

    def test_curve_ordering_everywhere(self):
        """10-shot > one-shot phase3 > zeno2 = uncoded at every positive time."""
        curves = {(
            c.scheme, c.repetitions): c for c in figure5_data(3.0, 30)}
        uncoded = curves[("uncoded", 1)].samples
        zeno = curves[("zeno2", 1)].samples
        p3 = curves[("phase3", 1)].samples
        p3x10 = curves[("phase3", 10)].samples
        for i in range(1, len(uncoded)):
            assert abs(zeno[i].c_exact - uncoded[i].c_exact) < 1e-12
            assert p3[i].c_exact > zeno[i].c_exact
            assert p3x10[i].c_exact > p3[i].c_exact

    def test_phase3_value_at_t2(self):
        curves = figure5_data(3.0, 60)
        p3 = next(c for c in curves if c.scheme == "phase3" and c.repetitions == 1)
        sample = next(s for s in p3.samples if abs(s.t - 2.0) < 1e-12)
        assert abs(sample.c_exact - 0.20176354876658587) < 1e-12
        assert abs(sample.c_exact - phase3_worst_coherence_closed_form(2.0)) < 1e-12

    def test_csv_layout(self):
        text = curves_to_csv(figure5_data(1.0, 2))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4 * 3
        first = lines[1].split(",")
        assert first[1] == "uncoded" and first[2] == "1"

    def test_csv_determinism_with_mc(self):
        a = curves_to_csv(figure5_data(1.0, 3, shots=200, seed=5))
        b = curves_to_csv(figure5_data(1.0, 3, shots=200, seed=5))
        assert a == b

    def test_mc_columns_populated(self):
        curves = figure5_data(1.0, 2, shots=500, seed=1)
        sample = curves[0].samples[1]
        assert sample.c_mc is not None and sample.mc_stderr is not None

    def test_step_validation(self):
        with pytest.raises(ValueError):
            figure5_data(3.0, 1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_zero_stderr_rows_print_the_exact_value(self, seed):
        """At t = 0 every trajectory is the input; a row whose error bar is 0
        must then print C_mc equal to C_exact."""
        rows = [line.split(",") for line in
                curves_to_csv(figure5_data(3.0, 2, shots=500, seed=seed)).splitlines()[1:]]
        zero_rows = [row for row in rows if float(row[5]) == 0.0]
        assert zero_rows
        for row in zero_rows + [row for row in rows if row[0] == "0"]:
            assert row[4] == row[3], row


class TestCoherenceCurves:
    """``coherence_curves`` builds the curves of the ``noise`` and ``figure5`` commands."""

    SHOTS = MC_BLOCK + 9

    @staticmethod
    def curves():
        return [(Scheme("phase3", 3), PLUS, [0.0, 0.9], [4, 5]),
                (Scheme("zeno2"), IPLUS, [0.4], [np.random.SeedSequence(entropy=6, spawn_key=(1,))])]

    def test_each_sample_has_the_bits_of_its_point_run_alone(self):
        built = noise.coherence_curves(self.curves(), self.SHOTS)
        assert isinstance(built, list) and len(built) == 2
        for (scheme, psi, times, seeds), curve in zip(self.curves(), built):
            assert (curve.scheme, curve.repetitions) == (scheme.kind, scheme.repetitions)
            assert curve.samples == tuple(
                CurveSample(t, scheme_coherence(scheme, psi, t),
                            *mc_coherence(scheme, psi, t, self.SHOTS, seed))
                for t, seed in zip(times, seeds))

    def test_without_shots_no_seed_is_read(self):
        built = noise.coherence_curves([(Scheme("phase3"), IPLUS, [0.5, 1.0], None)])
        assert [(s.c_mc, s.mc_stderr) for s in built[0].samples] == [(None, None)] * 2

    def test_one_mc_call_for_every_point_then_one_exact_call_per_curve(self, monkeypatch):
        calls = []
        mc, exact = noise.mc_estimates, noise.scheme_coherences
        monkeypatch.setattr(noise, "mc_estimates",
                            lambda points, shots: calls.append(("mc", len(points))) or mc(points, shots))
        monkeypatch.setattr(noise, "scheme_coherences",
                            lambda scheme, psi, times: calls.append(("exact", len(times)))
                            or exact(scheme, psi, times))
        noise.coherence_curves(self.curves(), 50)
        assert calls == [("mc", 3), ("exact", 2), ("exact", 1)]

    def test_every_mc_point_is_checked_before_any_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(noise, "_trajectory_job", lambda *job: ran.append(job))
        curves = self.curves() + [(Scheme("uncoded"), IPLUS, [0.2, -1.0], [0, 0])]
        with pytest.raises(ValueError, match="exposure time"):
            noise.coherence_curves(curves, 50)
        assert ran == []


class TestBlocksOnAPool:
    """MC blocks run on a thread pool, of one thread unless BLAS runs one
    thread; ``noise._workers`` is the one hook that forces the worker count."""

    SHOTS = 2 * MC_BLOCK + 17           # two full blocks and a partial one per point

    @staticmethod
    def force(monkeypatch, workers):
        monkeypatch.setattr(noise, "_workers", lambda: workers)

    @pytest.mark.parametrize("shots", [SHOTS, 2 * MC_BLOCK - 1, MC_BLOCK + 1])
    def test_every_worker_count_gives_the_same_bits(self, monkeypatch, shots):
        """A lone point's partial last block is a job of its own when a
        worker would idle (2 * MC_BLOCK - 1 shots), never one of one
        trajectory (MC_BLOCK + 1): the bits do not change."""
        results = []
        for workers in (1, 2, 3):
            self.force(monkeypatch, workers)
            results.append((figure5_data(3.0, 2, shots=shots, seed=5),
                            mc_coherence(Scheme("phase3", 3), IPLUS, 0.7, shots, seed=9)))
        assert results[0] == results[1] == results[2]       # float fields compare bit for bit
        assert any(t.name.startswith("qeclab-mc") for t in threading.enumerate())

    def test_bits_hold_with_more_workers_than_cores_and_fast_switching(self, monkeypatch):
        """A stress run: the blocks share only read-only inputs, so no switch
        of threads can change a result."""
        expected = mc_coherence(Scheme("phase3", 10), IPLUS, 1.5, self.SHOTS, seed=2)
        self.force(monkeypatch, len(os.sched_getaffinity(0)) + 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = [mc_coherence(Scheme("phase3", 10), IPLUS, 1.5, self.SHOTS, seed=2) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected] * 3

    def test_a_failing_block_raises_its_exception_and_the_next_call_works(self, monkeypatch):
        expected = figure5_data(3.0, 2, shots=self.SHOTS, seed=5)
        self.force(monkeypatch, 2)
        failure = RuntimeError("block 1 of curve 0, t index 2")
        calls = []
        real = noise._trajectory_job

        def failing(scheme, psi, sigma, seed, start, stop):
            calls.append(start)
            if seed.spawn_key == (0, 2) and start == MC_BLOCK:
                raise failure
            return real(scheme, psi, sigma, seed, start, stop)

        monkeypatch.setattr(noise, "_trajectory_job", failing)
        with pytest.raises(RuntimeError) as caught:
            figure5_data(3.0, 2, shots=self.SHOTS, seed=5)
        assert caught.value is failure
        ran = len(calls)
        time.sleep(0.05)
        assert len(calls) == ran                # no job of the failed call runs after it
        monkeypatch.setattr(noise, "_trajectory_job", real)
        assert figure5_data(3.0, 2, shots=self.SHOTS, seed=5) == expected

    def test_a_failing_job_cancels_the_jobs_waiting_behind_it(self, monkeypatch):
        """The first job raises while the jobs behind it wait in the window:
        the reader gets its exception, the jobs no worker has started are
        cancelled, the running ones are waited for, and none runs after."""
        import concurrent.futures

        workers = 2
        self.force(monkeypatch, workers)
        window = noise._WINDOW_PER_WORKER * workers
        failure = RuntimeError("job 0")
        release = threading.Event()
        started, finished, at_wait = [], [], []
        real_wait = concurrent.futures.wait

        def job(i):
            started.append(i)
            if i == 0:
                raise failure
            release.wait(10)                    # held until the reader has cancelled
            finished.append(i)

        def wait(futures):
            at_wait.append((sorted(started), [f.cancelled() for f in futures]))
            release.set()
            return real_wait(futures)

        monkeypatch.setattr(concurrent.futures, "wait", wait)
        try:
            with pytest.raises(RuntimeError) as caught:
                list(noise._in_order(job, ((i,) for i in range(3 * window))))
        finally:
            release.set()
        assert caught.value is failure
        [(running, cancelled)] = at_wait
        assert 0 in running and len(running) <= 1 + workers
        assert len(cancelled) == window - 1     # job 0 was read; the rest of the window waited
        assert sum(cancelled) == len(cancelled) - (len(running) - 1)
        assert sorted(started) == running       # no cancelled job started
        assert sorted(finished) == running[1:]  # the running jobs ended before the call did
        time.sleep(0.05)
        assert sorted(started) == running and sorted(finished) == running[1:]

    MIXED = (("uncoded", 1), ("phase3", 10), ("zeno2", 1), ("phase3", 1), ("phase3", 10), ("uncoded", 1))

    def mixed_points(self):
        return [(Scheme(kind, reps), IPLUS, 0.3 * i + 0.2, np.random.SeedSequence(entropy=4, spawn_key=(i,)))
                for i, (kind, reps) in enumerate(self.MIXED)]

    @pytest.mark.parametrize("shots", [MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 5])
    def test_mixed_curves_give_each_point_its_own_floats_in_input_order(self, monkeypatch, shots):
        """Heaviest first and joined jobs, at 1, 2 and 3 workers: every
        estimate has the bits of its point run alone, in input order."""
        points = self.mixed_points()
        self.force(monkeypatch, 1)
        alone = [mc_coherence(scheme, psi, t, shots, seed) for scheme, psi, t, seed in points]
        for workers in (1, 2, 3):
            self.force(monkeypatch, workers)
            assert list(noise.mc_estimates(points, shots)) == alone

    @pytest.mark.parametrize("shots", [2, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 8191, 3 * MC_BLOCK + 5])
    def test_each_estimate_reduces_the_states_of_its_jobs(self, monkeypatch, shots):
        """At 1, 2 and 3 workers, each point's estimate has the bits of
        ``_estimate`` over z = a1 * conj(a0) of its jobs' final states."""
        points = [(Scheme("uncoded"), PLUS, 0.4, 2), (Scheme("phase3", 3), IPLUS, 0.7, 9)]
        expected = []
        for scheme, psi, t, seed in points:
            states = _run_trajectories(scheme, psi, t, shots, seed)
            expected.append(noise._estimate(states[1] * states[0].conj(), noise._off_diagonal(psi)))
        for workers in (1, 2, 3):
            self.force(monkeypatch, workers)
            assert noise.mc_estimates(points, shots) == expected

    def test_a_point_is_reduced_in_at_most_48_bytes_per_shot(self, monkeypatch):
        """One worker on a 200,000-shot point: its z takes 16 bytes per shot
        and ``_estimate``'s temporaries 24, besides the jobs in flight."""
        self.force(monkeypatch, 1)
        points, shots = [(Scheme("phase3"), IPLUS, 1.0, 3)], 200_000
        noise.mc_estimates(points, 2 * MC_BLOCK)        # the pool and the model exist before the count
        tracemalloc.start()
        try:
            noise.mc_estimates(points, shots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * shots

    @pytest.mark.parametrize("shots", [MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 5])
    def test_joined_jobs_keep_the_columns_of_their_blocks(self, shots):
        """A job's columns are its blocks' columns, run one block at a time.
        A lone trajectory (shots one past a block) run by itself takes
        NumPy's matrix-vector product, which rounds differently: within 1e-15."""
        point = _trajectory_point(Scheme("phase3", 3), PLUS, 0.9, shots, 6)
        jobs = _run_trajectories(Scheme("phase3", 3), PLUS, 0.9, shots, 6)
        blocks = np.concatenate([noise._trajectory_job(*point, start, min(start + MC_BLOCK, shots))
                                 for start in range(0, shots, MC_BLOCK)], axis=1)
        lone = 1 if shots % MC_BLOCK == 1 and shots > MC_BLOCK else 0
        np.testing.assert_array_equal(jobs[:, :shots - lone], blocks[:, :shots - lone])
        assert np.abs(jobs[:, shots - lone:] - blocks[:, shots - lone:]).max(initial=0.0) < 1e-15

    @pytest.mark.parametrize("shots", [2, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, MC_BLOCK + 2,
                                       2 * MC_BLOCK - 1, 2 * MC_BLOCK, 3 * MC_BLOCK + 5, 6 * MC_BLOCK - 1])
    @pytest.mark.parametrize("min_jobs", [1, 2, 4, 7])
    def test_each_job_is_one_full_block_or_the_last_full_block_and_the_rest(self, shots, min_jobs):
        """The rest rides with the last full block, unless that makes fewer
        than ``min_jobs`` jobs and the rest is 2 or more trajectories."""
        spans = noise._job_spans(shots, min_jobs)
        assert [start for start, _ in spans] == [b * MC_BLOCK for b in range(len(spans))]
        assert [stop for _, stop in spans] == [start for start, _ in spans[1:]] + [shots]
        full, rest = divmod(shots, MC_BLOCK)
        alone = full >= 1 and rest >= 2 and full < min_jobs
        for start, stop in spans[:-1]:
            assert stop - start == MC_BLOCK
        last = spans[-1][1] - spans[-1][0]
        assert last == (rest if alone else MC_BLOCK + rest if full else shots)
        assert len(spans) == max(full, 1) + alone
        assert noise._job_spans(shots) == noise._job_spans(shots, 1)

    @pytest.mark.parametrize("points,workers,spans", [
        (1, 1, [(0, 2 * MC_BLOCK - 1)]),
        (1, 2, [(0, MC_BLOCK), (MC_BLOCK, 2 * MC_BLOCK - 1)]),
        (2, 2, [(0, 2 * MC_BLOCK - 1)]),
        (2, 3, [(0, MC_BLOCK), (MC_BLOCK, 2 * MC_BLOCK - 1)]),
        (12, 4, [(0, 2 * MC_BLOCK - 1)]),
    ])
    def test_a_call_with_fewer_jobs_than_workers_splits_the_rest(self, monkeypatch, points, workers, spans):
        self.force(monkeypatch, workers)
        ran = []
        real = noise._trajectory_job

        def recording(scheme, psi, sigma, seed, start, stop):
            ran.append((start, stop))
            return real(scheme, psi, sigma, seed, start, stop)

        monkeypatch.setattr(noise, "_trajectory_job", recording)
        shots = 2 * MC_BLOCK - 1
        noise.mc_estimates([(Scheme("uncoded"), IPLUS, 0.5, i) for i in range(points)], shots)
        assert sorted(ran) == sorted(spans * points)

    def test_points_run_heaviest_first_and_equal_weights_keep_their_order(self, monkeypatch):
        self.force(monkeypatch, 1)              # one worker runs the jobs in the order the pool gets them
        started = []
        real = noise._trajectory_job

        def recording(scheme, psi, sigma, seed, start, stop):
            started.append((seed.spawn_key[0], start))
            return real(scheme, psi, sigma, seed, start, stop)

        monkeypatch.setattr(noise, "_trajectory_job", recording)
        shots = 2 * MC_BLOCK + 3
        noise.mc_estimates(self.mixed_points(), shots)
        assert started == [(i, start) for i in (1, 4, 3, 2, 0, 5) for start in (0, MC_BLOCK)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_waiting_never_exceed_the_window(self, monkeypatch, workers):
        self.force(monkeypatch, workers)
        window = noise._WINDOW_PER_WORKER * workers
        lock = threading.Lock()
        count = {"started": 0, "read": 0, "most": 0}

        def job(i):
            with lock:
                count["started"] += 1
                count["most"] = max(count["most"], count["started"] - count["read"])
            return i

        got = []
        for value in noise._in_order(job, ((i,) for i in range(40))):
            time.sleep(0.002)                   # a slow reader: the pool runs ahead as far as it may
            with lock:
                count["read"] += 1
            got.append(value)
        assert got == list(range(40))
        assert count["most"] <= window
        assert count["most"] > 1                # one worker, too, runs ahead of the reader

    @pytest.mark.parametrize("environ,threads", [
        ({}, 0),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 1),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1),      # not positive: read on
        ({"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": " 1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "1x"}, 1),
        ({"OMP_NUM_THREADS": "-1"}, 0),
    ])
    def test_blas_threads_are_read_as_openblas_reads_them(self, environ, threads):
        assert noise._blas_threads(environ) == threads

    @pytest.mark.parametrize("one_blas_thread", [False, True])
    def test_the_pool_has_one_worker_unless_blas_runs_one_thread(self, monkeypatch, one_blas_thread):
        monkeypatch.setattr(noise, "_ONE_BLAS_THREAD", one_blas_thread)
        cpus = len(os.sched_getaffinity(0))
        assert noise._workers() == (min(cpus, noise._MAX_WORKERS) if one_blas_thread else 1)


class TestClosedForms:
    def test_uncoded_and_zeno_coincide(self):
        for t in TIME_GRID:
            assert uncoded_coherence_closed_form(t) == zeno2_coherence_closed_form(t)

    def test_mixture_coefficients_sum_to_one(self):
        for t in TIME_GRID:
            a, b = phase3_mixture_coefficients(t)
            assert abs(a + b - 1) < 1e-15
            assert a >= b >= 0
