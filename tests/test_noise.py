import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    Scheme,
    _run_trajectories,
    block_rng,
    coherence,
    curves_to_csv,
    dephase_channel,
    dephasing_kraus,
    figure5_data,
    mc_coherence,
    n_shot_coherence,
    phase3_mixture_coefficients,
    phase3_worst_coherence_closed_form,
    run_scheme,
    sample_trajectory_phases,
    scheme_coherence,
    uncoded_coherence_closed_form,
    zeno2_coherence_closed_form,
)
from qeclab.states import DensityMatrix, PureState, X, basis_bits

from conftest import random_pure_state

TIME_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0)


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

    @pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
    def test_every_entry_point_rejects_a_negative_or_non_finite_time(self, rng, t):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dephase_channel(random_pure_state(1, rng).density(), 0, t)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dephasing_kraus(t)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample_trajectory_phases(2, t, seed=1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            mc_coherence(Scheme("phase3"), IPLUS, t, 100, seed=1)


class TestTrajectoryPhases:
    def test_zero_time_means_zero_phase(self):
        phases = sample_trajectory_phases(4, 0.0, seed=1)
        np.testing.assert_allclose(phases, 0.0)

    def test_seed_determinism(self):
        a = sample_trajectory_phases(3, 0.5, seed=9)
        b = sample_trajectory_phases(3, 0.5, seed=9)
        np.testing.assert_allclose(a, b)

    def test_mean_of_exp_i_phi(self):
        """Law of large numbers against the Gaussian characteristic function."""
        rng = np.random.default_rng(5)
        draws = np.array([sample_trajectory_phases(1, 1.0, seed=rng)[0] for _ in range(100_000)])
        estimate = np.mean(np.exp(1j * draws))
        assert abs(estimate - math.exp(-1.0)) < 3.0 / math.sqrt(100_000) + 0.003

    def test_variance_is_two_t(self):
        rng = np.random.default_rng(6)
        draws = sample_trajectory_phases(200_000, 0.5, seed=rng)
        assert abs(np.var(draws) - 1.0) < 0.02

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
            run_scheme(Scheme("zeno2"), IPLUS, 1.0, mode="mc")  # missing shots
        with pytest.raises(ValueError):
            Scheme("zeno5")


class TestCoherence:
    def test_equal_states_give_one(self, rng):
        rho = random_pure_state(1, rng).density()
        assert abs(coherence(rho, rho) - 1) < 1e-12

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
        rho0 = IPLUS.density()
        rotated = PureState(1, np.array([1, -1j]) / np.sqrt(2)).density()
        assert abs(coherence(rotated, rho0) - 1) < 1e-12

    def test_basis_state_rejected(self):
        with pytest.raises(ValueError, match="off-diagonal"):
            coherence(PureState.from_bits("0").density(), PureState.from_bits("0").density())

    def test_short_time_slope_is_minus_one(self):
        """d C_zeno2 / dt at 0+ is -1: the error is first order in t, not second."""
        h = 1e-6
        slope = (scheme_coherence(Scheme("zeno2"), IPLUS, h) - 1.0) / h
        assert abs(slope + 1.0) < 1e-3


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

    def test_run_scheme_mc_returns_valid_density(self):
        rho = run_scheme(Scheme("zeno2"), IPLUS, 0.5, mode="mc", shots=4000, seed=3)
        assert isinstance(rho, DensityMatrix)
        assert abs(np.trace(rho.matrix) - 1) < 1e-10

    def test_trajectory_channel_matches_kraus_channel(self):
        """Averaged single-qubit trajectories reproduce the exact channel."""
        shots = 30_000
        rho = run_scheme(Scheme("uncoded"), IPLUS, 1.0, mode="mc", shots=shots, seed=11)
        exact = dephase_channel(IPLUS.density(), 0, 1.0)
        assert np.abs(rho.matrix - exact.matrix).max() < 5.0 / math.sqrt(shots)

    def test_shot_validation(self):
        with pytest.raises(ValueError):
            mc_coherence(Scheme("zeno2"), IPLUS, 1.0, 0, seed=1)

    def test_one_shot_rejected(self):
        """One trajectory has no error bar: both MC entry points refuse it."""
        with pytest.raises(ValueError, match="shots"):
            mc_coherence(Scheme("phase3"), IPLUS, 1.0, 1, seed=1)
        with pytest.raises(ValueError, match="shots"):
            run_scheme(Scheme("phase3"), IPLUS, 1.0, mode="mc", shots=1, seed=1)

    def test_mc_rejects_a_phase_width_that_overflows(self):
        """t = 1e308 is finite, but the variance 2t is not."""
        with pytest.raises(ValueError, match="phase width"):
            mc_coherence(Scheme("uncoded"), IPLUS, 1e308, 10, seed=1)
        with pytest.raises(ValueError, match="phase width"):
            sample_trajectory_phases(1, 1e308, seed=1)

    def test_first_block_does_not_depend_on_shot_count(self):
        scheme = Scheme("phase3", 3)
        a = _run_trajectories(scheme, IPLUS, 0.7, MC_BLOCK, seed=4)
        b = _run_trajectories(scheme, IPLUS, 0.7, MC_BLOCK + 5, seed=4)
        assert b.shape == (MC_BLOCK + 5, 2)
        np.testing.assert_array_equal(a, b[:MC_BLOCK])

    @pytest.mark.parametrize("kind,reps", DEFAULT_CURVES)
    def test_recovery_route_matches_decode_and_corrections_loop(self, kind, reps):
        """The MC route through the recovery operators agrees with decoding,
        sampling the ancilla on the decoded amplitudes and then correcting."""
        shots, t, seed = MC_BLOCK + 300, 1.3, 8
        expected = _decode_and_correct_trajectories(Scheme(kind, reps), IPLUS, t, shots, seed)
        got = _run_trajectories(Scheme(kind, reps), IPLUS, t, shots, seed)
        assert np.abs(got - expected).max() < 1e-12

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
        assert got.shape == (shots, 2)
        assert np.abs(got - expected).max() < 1e-12

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
        z = states[:, 1] * states[:, 0].conj()
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


class TestClosedForms:
    def test_uncoded_and_zeno_coincide(self):
        for t in TIME_GRID:
            assert uncoded_coherence_closed_form(t) == zeno2_coherence_closed_form(t)

    def test_mixture_coefficients_sum_to_one(self):
        for t in TIME_GRID:
            a, b = phase3_mixture_coefficients(t)
            assert abs(a + b - 1) < 1e-15
            assert a >= b >= 0
