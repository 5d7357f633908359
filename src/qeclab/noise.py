"""Phase-diffusion noise and the protection schemes measured against it.

Noise model: each qubit's relative phase performs an independent random walk;
after time t the accumulated phase is Gaussian with mean 0 and variance 2t
(time units absorb the diffusion rate). Averaging e^{i phi} over that Gaussian
gives exp(-t), so the exact single-qubit channel multiplies off-diagonal
density-matrix elements by exp(-t) -- equivalently the Kraus pair
{sqrt(p) I, sqrt(1-p) Z} with p = (1 + exp(-t))/2.

Three schemes are run against this channel:

* ``uncoded``  -- the bare qubit.
* ``zeno2``    -- two-qubit detection-only code; decoding keeps both ancilla
                  branches (no post-selection, no correction).
* ``phase3``   -- three-qubit phase-flip code with majority-vote correction.

A scheme with n repetitions encodes, exposes each physical qubit for t/n,
decodes and corrects, and repeats n times. Coherence is measured as
C = |<1|rho|0> / <1|rho_0|0>|. Both an exact density-matrix route and a
seeded Monte-Carlo trajectory route are provided. Both read the same recovery
operators. Trajectories are drawn in blocks of ``MC_BLOCK``, each keyed by
(seed, block index), so results do not depend on execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .codes import (
    build_syndrome_table,
    recovery_operators,
    three_qubit_phase_code,
    two_qubit_zeno_code,
)
from .states import DensityMatrix, I2, PureState, Z, basis_bits

SCHEME_KINDS = ("uncoded", "zeno2", "phase3")

PLUS = PureState(1, np.array([1, 1], dtype=complex) / np.sqrt(2))
IPLUS = PureState(1, np.array([1, 1j], dtype=complex) / np.sqrt(2))

# Bounds on the memory one call may ask for: a block's phases take
# 8 * repetitions * n bytes per trajectory (about 100 MB at the cap), and the
# MC route holds about 70 bytes per shot (about 700 MB at the cap).
MAX_REPETITIONS = 1000
MAX_SHOTS = 10**7


@dataclass(frozen=True)
class Scheme:
    kind: str
    repetitions: int = 1

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.kind!r}; pick one of {SCHEME_KINDS}")
        if not 1 <= self.repetitions <= MAX_REPETITIONS:
            raise ValueError(f"repetitions must be in 1..{MAX_REPETITIONS} (got {self.repetitions})")


# --- the exact channel --------------------------------------------------------

def _check_time(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise ValueError(f"exposure time must be finite and nonnegative (got {t})")


def dephasing_kraus(t: float):
    """Kraus pair {sqrt(p) I, sqrt(1-p) Z} with p = (1 + exp(-t))/2."""
    _check_time(t)
    p = 0.5 * (1.0 + math.exp(-t))
    return np.sqrt(p) * I2, np.sqrt(1.0 - p) * Z


@lru_cache(maxsize=None)
def _hamming_mask(n_qubits: int, qubits: tuple) -> np.ndarray:
    """Number of the given qubits on which each pair of basis states differs."""
    bits = basis_bits(n_qubits)[:, list(qubits)].astype(np.int64)
    ham = (bits[:, None, :] != bits[None, :, :]).sum(axis=2)
    ham.flags.writeable = False
    return ham


def _dephase(mat: np.ndarray, n_qubits: int, t: float, qubits: tuple) -> np.ndarray:
    """Exact dephasing of ``qubits`` for time t: element (i, j) times exp(-t)**d(i, j)."""
    return mat * math.exp(-t) ** _hamming_mask(n_qubits, qubits)


def dephase_channel(rho: DensityMatrix, qubit: int, t: float) -> DensityMatrix:
    """Exact Gaussian-averaged dephasing of one qubit for time t."""
    _check_time(t)
    if not 0 <= qubit < rho.n_qubits:
        raise ValueError(f"qubit index {qubit} out of range")
    return DensityMatrix._trusted(rho.n_qubits, _dephase(rho.matrix, rho.n_qubits, t, (qubit,)))


# --- stochastic trajectories ---------------------------------------------------

# Trajectories per Generator. Part of the definition of the MC stream: block b
# holds trajectories [b * MC_BLOCK, (b + 1) * MC_BLOCK), whatever the shot count.
MC_BLOCK = 4096


def block_rng(seed, block: int) -> np.random.Generator:
    """Generator for one block of trajectories, independent of all others:
    the seed's ``SeedSequence`` (an int or None becomes ``SeedSequence(seed)``)
    with ``block`` appended to its spawn key."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed.entropy, spawn_key=(*seed.spawn_key, block)))


def _phase_width(t: float, slices: int = 1) -> float:
    """Standard deviation sqrt(2t / slices) of the phase one qubit accumulates
    in each of ``slices`` equal parts of exposure time t."""
    _check_time(t)
    sigma = math.sqrt(2.0 * t / slices)
    if sigma == math.inf:
        raise ValueError(f"exposure time {t} is too long: its phase width overflows")
    return sigma


def sample_trajectory_phases(n_qubits: int, t: float, seed=None) -> np.ndarray:
    """One draw of the accumulated phases: Gaussian, mean 0, variance 2t each."""
    sigma = _phase_width(t)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.normal(0.0, sigma, size=n_qubits)


# --- scheme execution -----------------------------------------------------------

@lru_cache(maxsize=None)
def _model(kind: str) -> tuple:
    """(n physical qubits, (2**n, 2) isometry whose columns are the codewords,
    (K, 2, 2**n) recovery stack: decode, read ancilla outcome s, correct)."""
    if kind == "uncoded":
        eye = np.eye(2, dtype=complex)
        return 1, eye, eye[None].copy()
    code = two_qubit_zeno_code() if kind == "zeno2" else three_qubit_phase_code()
    table = None if code.detection_only else build_syndrome_table(code)
    return code.n_physical, code.isometry(), recovery_operators(code, table)


def _run_exact(scheme: Scheme, psi: PureState, t: float) -> np.ndarray:
    n, isometry, recovery = _model(scheme.kind)
    n_reps = scheme.repetitions
    step = t / n_reps
    qubits = tuple(range(n))
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    for _ in range(n_reps):
        full = isometry @ rho @ isometry.conj().T
        full = _dephase(full, n, step, qubits)
        rho = sum(A @ full @ A.conj().T for A in recovery)
    return rho


def _run_trajectories(scheme: Scheme, psi: PureState, t: float, shots: int, seed) -> np.ndarray:
    """Final one-qubit pure states, one row per trajectory.

    Each block of ``MC_BLOCK`` trajectories draws its phases, shape
    (block, repetitions, n), then its Born-sampling uniforms, shape
    (block, repetitions), from ``block_rng(seed, block)``. Inside a block the
    trajectories run along the last axis, so every array operation walks
    rows of ``block`` values, and qubit q's phase e^{i phi_q} multiplies the
    half of the code block where that qubit reads 1 (qubit 0 is the most
    significant bit).
    """
    if shots is None:
        raise ValueError("monte-carlo mode needs a shot count")
    if shots < 2:
        raise ValueError(f"shots must be >= 2 (got {shots}); one trajectory has no error bar")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= {MAX_SHOTS} (got {shots})")
    n, isometry, recovery = _model(scheme.kind)
    n_reps = scheme.repetitions
    sigma = _phase_width(t, n_reps)
    n_outcomes = recovery.shape[0]
    recovery = recovery.reshape(2 * n_outcomes, 2**n)           # row 2s + a: outcome s, amplitude a

    out = np.empty((shots, 2), dtype=complex)
    for block, start in enumerate(range(0, shots, MC_BLOCK)):
        size = min(MC_BLOCK, shots - start)
        rng = block_rng(seed, block)
        phases = rng.normal(0.0, sigma, size=(size, n_reps, n))
        draws = rng.uniform(size=(size, n_reps))
        cols = np.arange(size)
        kick = np.empty((n, size), dtype=complex)
        states = np.broadcast_to(psi.amplitudes[:, None], (2, size))
        for rep in range(n_reps):
            full = isometry @ states                            # (2**n, size)
            np.cos(phases[:, rep].T, out=kick.real)
            np.sin(phases[:, rep].T, out=kick.imag)
            for q in range(n):
                full.reshape(2**q, 2, -1, size)[:, 1] *= kick[q]
            amps = recovery @ full                              # (2K, size)
            # Born sampling of the ancilla outcome, then collapse
            sq = amps.real * amps.real                          # x**2 is slower on these strided views
            sq += amps.imag * amps.imag
            probs = sq[0::2] + sq[1::2]                         # (K, size)
            cum = probs.copy()
            for s in range(1, n_outcomes):
                cum[s] += cum[s - 1]
            threshold = draws[:, rep] * cum[-1]
            chosen = np.zeros(size, dtype=np.intp)
            for s in range(n_outcomes - 1):
                chosen += cum[s] <= threshold                   # first s with cum[s] > threshold
            pick = chosen * size + cols                         # (chosen, col) in probs
            first = pick + chosen * size                        # (chosen, 0, col) in amps
            branch = amps.reshape(-1).take(np.stack((first, first + size)))
            states = branch / np.sqrt(probs.reshape(-1).take(pick))
        out[start:start + size] = states.T
    return out


def run_scheme(scheme: Scheme, psi: PureState, t: float, mode: str = "exact",
               shots: Optional[int] = None, seed=None) -> DensityMatrix:
    """Final reduced one-qubit density matrix after the full protection cycle.

    ``mode`` is ``"exact"`` (deterministic channel propagation) or ``"mc"``
    (average of ``shots`` seeded trajectories).
    """
    if psi.n_qubits != 1:
        raise ValueError("schemes protect a single qubit")
    _check_time(t)
    if mode == "exact":
        return DensityMatrix._trusted(1, _run_exact(scheme, psi, t))
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    states = _run_trajectories(scheme, psi, t, shots, seed)
    rho = np.einsum("si,sj->ij", states, states.conj()) / states.shape[0]
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix._trusted(1, rho)


def _off_diagonal(rho0: DensityMatrix) -> complex:
    """<1|rho_0|0>, the reference of the coherence; a basis state has none."""
    z0 = rho0.matrix[1, 0]
    if abs(z0) < 1e-12:
        raise ValueError(
            "initial state has no off-diagonal element; pick a superposition input"
        )
    return z0


def coherence(rho: DensityMatrix, rho0: DensityMatrix) -> float:
    """C = |<1|rho|0> / <1|rho_0|0>|; undefined for basis-state inputs."""
    return float(abs(rho.matrix[1, 0] / _off_diagonal(rho0)))


def scheme_coherence(scheme: Scheme, psi: PureState, t: float) -> float:
    """Exact-mode coherence of the scheme at time t."""
    return coherence(run_scheme(scheme, psi, t), psi.density())


def mc_coherence(scheme: Scheme, psi: PureState, t: float, shots: int, seed=None):
    """Monte-Carlo coherence estimate and its standard error (``shots`` >= 2).

    The standard error of |mean z| over the per-trajectory off-diagonal
    elements z is the delta method's: the spread of z projected on the
    direction of the mean, over sqrt(shots).
    """
    z0 = _off_diagonal(psi.density())
    states = _run_trajectories(scheme, psi, t, shots, seed)
    z = states[:, 1] * states[:, 0].conj()
    mean = z.mean()
    if abs(mean) < 1e-300:
        se_abs = math.hypot(z.real.std(ddof=1), z.imag.std(ddof=1)) / math.sqrt(shots)
    else:
        radial = (z * (mean.conjugate() / abs(mean))).real
        se_abs = radial.std(ddof=1) / math.sqrt(shots)
    return float(abs(mean) / abs(z0)), float(se_abs / abs(z0))


def n_shot_coherence(scheme: Scheme, t: float, n: int) -> float:
    """Exact coherence of n evenly spaced repetitions within total time t,
    from the input IPLUS."""
    return scheme_coherence(Scheme(scheme.kind, n), IPLUS, t)


# --- closed forms (used as cross-checks against the simulated routes) -----------

def uncoded_coherence_closed_form(t: float) -> float:
    return math.exp(-t)


def zeno2_coherence_closed_form(t: float) -> float:
    """The detection-only two-qubit scheme gains nothing: C(t) = exp(-t)."""
    return math.exp(-t)


def phase3_mixture_coefficients(t: float):
    """Weights (a, b) of the majority-vote output a*rho + b*X rho X."""
    g = math.exp(-t)
    a = (2.0 + 3.0 * g - g**3) / 4.0
    b = (2.0 + g**3 - 3.0 * g) / 4.0
    return a, b


def phase3_worst_coherence_closed_form(t: float) -> float:
    """Lower bound over inputs, attained at psi = (|0> + i|1>)/sqrt(2)."""
    g = math.exp(-t)
    return (3.0 * g - g**3) / 2.0


# --- curve generation ------------------------------------------------------------

CSV_HEADER = "t,scheme,n,C_exact,C_mc,mc_stderr"

DEFAULT_CURVES = (("uncoded", 1), ("zeno2", 1), ("phase3", 1), ("phase3", 10))


@dataclass(frozen=True)
class CurveSample:
    t: float
    c_exact: float
    c_mc: Optional[float] = None
    mc_stderr: Optional[float] = None


@dataclass(frozen=True)
class CoherenceCurve:
    scheme: str
    repetitions: int
    samples: tuple


def figure5_data(t_max: float, steps: int, shots: Optional[int] = None, seed=0):
    """Coherence curves of ``DEFAULT_CURVES`` from the input IPLUS, on a
    uniform grid of ``steps + 1`` points in [0, t_max].

    With ``shots`` set, each grid point also carries a Monte-Carlo estimate
    and standard error; point (curve, t) gets its own deterministic seed.
    """
    if steps < 2:
        raise ValueError("need at least 2 steps")
    grid = np.linspace(0.0, t_max, steps + 1)
    curves = []
    for curve_idx, (kind, reps) in enumerate(DEFAULT_CURVES):
        scheme = Scheme(kind, reps)
        samples = []
        for t_idx, t in enumerate(grid):
            c_exact = scheme_coherence(scheme, IPLUS, float(t))
            c_mc = stderr = None
            if shots is not None:
                point_seed = np.random.SeedSequence(entropy=seed, spawn_key=(curve_idx, t_idx))
                c_mc, stderr = mc_coherence(scheme, IPLUS, float(t), shots, seed=point_seed)
            samples.append(CurveSample(float(t), c_exact, c_mc, stderr))
        curves.append(CoherenceCurve(kind, reps, tuple(samples)))
    return curves


def curves_to_csv(curves: Sequence[CoherenceCurve]) -> str:
    """Rows ordered by curve then by t; empty MC columns when not sampled."""
    lines = [CSV_HEADER]
    for curve in curves:
        for s in curve.samples:
            mc = "" if s.c_mc is None else f"{s.c_mc:.12g}"
            se = "" if s.mc_stderr is None else f"{s.mc_stderr:.12g}"
            lines.append(f"{s.t:.12g},{curve.scheme},{curve.repetitions},{s.c_exact:.12g},{mc},{se}")
    return "\n".join(lines) + "\n"
