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
operators and compute on arrays; ``run_scheme`` wraps the exact route's
output in a checked ``DensityMatrix`` for the Python API. The exact route
runs all of a call's times at once, as a stack of density matrices, in
chunks of ``_EXACT_CHUNK`` times. Trajectories are drawn in blocks of
``MC_BLOCK``, each keyed by (seed, block index), so results do not depend on
execution order. Every MC command runs its points through one path, as jobs
of whole blocks (a partial last block rides with the full block before it,
unless that would leave a worker idle), heaviest point first, on a small
thread pool: a thread per usable CPU (at most four) when BLAS runs one
thread, else one. Each point is reduced from its jobs' final states as they
arrive. The outputs have the same bits at any worker count, and come back
in input order.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .codes import (
    _collapse,
    build_syndrome_table,
    recovery_operators,
    three_qubit_phase_code,
    two_qubit_zeno_code,
)
from .states import DensityMatrix, I2, PureState, Z, basis_bits

SCHEME_KINDS = ("uncoded", "zeno2", "phase3")

PLUS = PureState(1, np.array([1, 1], dtype=complex) / np.sqrt(2))
IPLUS = PureState(1, np.array([1, 1j], dtype=complex) / np.sqrt(2))

# Bounds on the memory one call may ask for: a job's phases take
# 8 * repetitions * n bytes per trajectory, for at most 2 * MC_BLOCK - 1
# trajectories (about 200 MB at the cap), and the MC route holds about 41 bytes
# per shot of the point it reduces (tracemalloc's peak on one worker: its 16-byte
# off-diagonal elements and the reduction's temporaries; about 410 MB at the
# cap), besides the few jobs in flight.
MAX_REPETITIONS = 1000
MAX_SHOTS = 10**7
MAX_STEPS = 10_000      # figure5_data runs 4 * (steps + 1) exact points


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

def _check_time(t: float) -> float:
    """The exposure time, checked; a zero reads as +0.0, so that -0.0 runs and
    prints as 0 (its phase width sqrt(-0.0) would be -0.0, which NumPy's
    ``normal`` refuses as a negative scale)."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"exposure time must be finite and nonnegative (got {t})")
    return t + 0.0


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


def _dephase(n_qubits: int, times: Sequence[float], qubits: tuple) -> np.ndarray:
    """Exact dephasing factors of ``qubits``: a (T, N, N) stack whose slice k
    holds exp(-times[k])**d(i, j). Callers multiply matrices by it elementwise,
    matrices first, the operand order whose bits the tests pin."""
    mask = _hamming_mask(n_qubits, qubits)
    return np.stack([math.exp(-t) ** mask for t in times])


def dephase_channel(rho: DensityMatrix, qubit: int, t: float) -> DensityMatrix:
    """Exact Gaussian-averaged dephasing of one qubit for time t."""
    _check_time(t)
    if not 0 <= qubit < rho.n_qubits:
        raise ValueError(f"qubit index {qubit} out of range")
    return DensityMatrix(rho.n_qubits, rho.matrix * _dephase(rho.n_qubits, [t], (qubit,))[0])


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


def _phase_width(t: float, slices: int) -> float:
    """Standard deviation sqrt(2t / slices) of the phase one qubit accumulates
    in each of ``slices`` equal parts of exposure time t."""
    sigma = math.sqrt(2.0 * _check_time(t) / slices)
    if sigma == math.inf:
        raise ValueError(f"exposure time {t} is too long: its phase width overflows")
    return sigma


# --- running jobs on a small thread pool ----------------------------------------

# Threads that run MC jobs, at most; fewer when the process may use fewer CPUs.
_MAX_WORKERS = 4
# Jobs submitted and not yet read, per worker. The reader waits on the oldest
# job while the other workers run on through the window, so a worker waits
# only when the oldest job outlasts the jobs behind it more than eight times
# over; a result waiting to be read is at most (2, 2 * MC_BLOCK - 1)
# amplitudes, 256 KB.
_WINDOW_PER_WORKER = 8


def _blas_threads(environ) -> int:
    """The thread count OpenBLAS takes from ``environ`` when it loads: the
    leading integer of the first of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS
    and OMP_NUM_THREADS that reads positive, else 0 (a thread per CPU)."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        lead = re.match(r"\s*[+-]?\d+", environ.get(name, ""))
        if lead and int(lead.group()) > 0:
            return int(lead.group())
    return 0


# OpenBLAS read its variables when NumPy loaded, before this module; read them once too.
_ONE_BLAS_THREAD = _blas_threads(os.environ) == 1


def _workers() -> int:
    """Threads that run MC jobs: with one BLAS thread, the CPUs this process
    may use, at most ``_MAX_WORKERS``; else 1, since every further thread
    would run BLAS's own threads on top of the others'."""
    if not _ONE_BLAS_THREAD:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


@lru_cache(maxsize=None)
def _pool(workers: int):
    """The pool of ``workers`` threads, made on first use: ``concurrent.futures``
    loads only then, and a command with no MC starts no thread."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers, thread_name_prefix="qeclab-mc")


def _in_order(fn, jobs):
    """Yield ``fn(*job)`` for each job, in job order.

    The jobs run on the pool of ``_workers()`` threads, at most
    ``_WINDOW_PER_WORKER`` per worker submitted and not yet read. A job's
    exception is raised to the reader when its result is read; the jobs
    behind it are then cancelled, or waited for when already running, so
    none outlives the call.
    """
    from concurrent.futures import wait
    workers = _workers()
    pool, window, pending = _pool(workers), _WINDOW_PER_WORKER * workers, collections.deque()
    try:
        for job in jobs:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, *job))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


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


# Times the exact route runs at once: a chunk's stacks hold at most this many
# matrices, 1 MB for phase3's (1024, 8, 8) code blocks, however many times a
# command asks for.
_EXACT_CHUNK = 1024


def _run_exact(scheme: Scheme, psi: PureState, times: Sequence[float]):
    """Yield the final (T, 2, 2) density matrices of ``times``, in order, in
    chunks of at most ``_EXACT_CHUNK`` times.

    Each repetition runs once per chunk, on the whole stack: slice k holds
    time k, and every product, dephasing and recovery sum acts on it as on
    that time's matrix alone (a stacked matmul makes the same 2-D product
    per slice), so each slice has the bits of its time run alone. A chunk's
    dephasing factors are built once and serve every repetition.
    """
    n, isometry, recovery = _model(scheme.kind)
    n_reps = scheme.repetitions
    qubits = tuple(range(n))
    rho0 = np.outer(psi.amplitudes, psi.amplitudes.conj())
    for lo in range(0, len(times), _EXACT_CHUNK):
        steps = [t / n_reps for t in times[lo:lo + _EXACT_CHUNK]]
        factors = _dephase(n, steps, qubits)
        rho = np.broadcast_to(rho0, (len(steps), 2, 2))
        for _ in range(n_reps):
            full = (isometry @ rho @ isometry.conj().T) * factors
            rho = sum(A @ full @ A.conj().T for A in recovery)
        yield rho


def _trajectory_point(scheme: Scheme, psi: PureState, t: float, shots: int, seed) -> tuple:
    """One MC point, checked: (scheme, psi, phase width, seed). The time is
    checked before the shot count, the order ``noise`` met them in when it
    ran each time's exact value before its MC estimate."""
    _check_time(t)
    if shots < 2:
        raise ValueError(f"shots must be >= 2 (got {shots}); one trajectory has no error bar")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= {MAX_SHOTS} (got {shots})")
    _model(scheme.kind)                 # built here, so that no pool thread builds it
    return scheme, psi, _phase_width(t, scheme.repetitions), seed


def _trajectory_job(scheme: Scheme, psi: PureState, sigma: float, seed, start: int,
                    stop: int) -> np.ndarray:
    """Final (2, stop - start) one-qubit pure states of trajectories
    [start, stop) of one point, ``start`` a multiple of ``MC_BLOCK``.

    Each block b in the range draws its phases, shape (size, repetitions, n),
    then its Born-sampling uniforms, shape (size, repetitions), from
    ``block_rng(seed, b)``, straight into its rows of the job's arrays; then
    one pass of the repetition loop runs every column. The trajectories run
    along the last axis, so every array operation walks rows of
    ``stop - start`` values, and qubit q's phase e^{i phi_q} multiplies the
    half of the code block where that qubit reads 1 (qubit 0 is the most
    significant bit).
    """
    n, isometry, recovery = _model(scheme.kind)
    n_reps, cols = scheme.repetitions, stop - start
    recovery = recovery.reshape(-1, 2**n)                       # row 2s + a: outcome s, amplitude a
    phases = np.empty((cols, n_reps, n))
    draws = np.empty((cols, n_reps))
    for lo in range(0, cols, MC_BLOCK):
        _draw(block_rng(seed, (start + lo) // MC_BLOCK), sigma,
              phases[lo:lo + MC_BLOCK], draws[lo:lo + MC_BLOCK])
    kick = np.empty((n, cols), dtype=complex)
    states = np.broadcast_to(psi.amplitudes[:, None], (2, cols))
    for rep in range(n_reps):
        # each array is dropped once used up: jobs on the pool run at once,
        # and their peaks add up
        full = isometry @ states                                # (2**n, cols)
        del states
        np.cos(phases[:, rep].T, out=kick.real)
        np.sin(phases[:, rep].T, out=kick.imag)
        for q in range(n):
            full.reshape(2**q, 2, -1, cols)[:, 1] *= kick[q]
        amps = recovery @ full
        del full
        states = _collapse(amps, draws[:, rep])[1]             # Born sampling, collapse
        del amps
    return states


def _draw(rng: np.random.Generator, sigma: float, phases: np.ndarray, draws: np.ndarray) -> None:
    """Fill ``phases`` and then ``draws`` in place with the bits of
    ``rng.normal(0.0, sigma, phases.shape)`` and ``rng.uniform(size=draws.shape)``."""
    rng.standard_normal(out=phases)
    phases *= sigma
    phases += 0.0                       # normal adds its mean: at sigma 0, -0.0 reads +0.0
    rng.random(out=draws)


def _job_spans(shots: int, min_jobs: int = 1) -> list:
    """The [start, stop) trajectory ranges of one point's jobs: each full
    block on its own, except that a partial last block rides with the full
    block before it, so a job holds at most 2 * MC_BLOCK - 1 trajectories.
    When that makes fewer than ``min_jobs`` jobs, a partial last block of 2
    or more trajectories is a job of its own; one trajectory always rides,
    since a one-column job takes NumPy's matrix-vector product, which rounds
    differently."""
    starts = list(range(0, shots - MC_BLOCK + 1, MC_BLOCK)) or [0]
    if len(starts) < min_jobs and shots - starts[-1] - MC_BLOCK >= 2:
        starts.append(starts[-1] + MC_BLOCK)
    return list(zip(starts, starts[1:] + [shots]))


def _weight(scheme: Scheme) -> int:
    """Work per trajectory of a scheme: repetitions times the code block's
    2**n amplitudes."""
    return scheme.repetitions * 2 ** _model(scheme.kind)[0]


def run_scheme(scheme: Scheme, psi: PureState, t: float) -> DensityMatrix:
    """Final reduced one-qubit density matrix after the full protection cycle,
    by exact channel propagation."""
    if psi.n_qubits != 1:
        raise ValueError("schemes protect a single qubit")
    _check_time(t)
    return DensityMatrix(1, next(_run_exact(scheme, psi, [t]))[0])


def _off_diagonal(psi: PureState) -> complex:
    """<1|rho_0|0> of the input, the reference of the coherence; a basis state
    has none. Spelled as an array multiply: that has the bits of
    ``np.outer(a, a.conj())[1, 0]``, while ``a[1] * a[0].conj()`` rounds
    differently."""
    if psi.n_qubits != 1:
        raise ValueError("schemes protect a single qubit")
    a = psi.amplitudes
    z0 = (a[1:] * a[:1].conj())[0]
    if abs(z0) < 1e-12:
        raise ValueError(
            "initial state has no off-diagonal element; pick a superposition input"
        )
    return z0


def scheme_coherence(scheme: Scheme, psi: PureState, t: float) -> float:
    """Exact coherence C = |<1|rho|0> / <1|rho_0|0>| of the scheme at time t."""
    return float(scheme_coherences(scheme, psi, [t])[0])


def scheme_coherences(scheme: Scheme, psi: PureState, times: Sequence[float]) -> np.ndarray:
    """``scheme_coherence`` at each of ``times``, as a float array, in one run
    of the exact route: the input is checked first, then every time in order.
    Besides the array, the call holds one chunk of the route at a time."""
    z0 = _off_diagonal(psi)
    for t in times:
        _check_time(t)
    coherences = np.empty(len(times))
    lo = 0
    for rho in _run_exact(scheme, psi, times):
        # element by element, in NumPy's scalar arithmetic, as for one time
        coherences[lo:lo + len(rho)] = [abs(z / z0) for z in rho[:, 1, 0]]
        lo += len(rho)
    return coherences


def mc_coherence(scheme: Scheme, psi: PureState, t: float, shots: int, seed=None):
    """Monte-Carlo coherence estimate and its standard error (``shots`` >= 2).

    The standard error of |mean z| over the per-trajectory off-diagonal
    elements z is the delta method's: the spread of z projected on the
    direction of the mean, over sqrt(shots).
    """
    return mc_estimates([(scheme, psi, t, seed)], shots)[0]


def mc_estimates(points: Sequence[tuple], shots: int) -> list:
    """``mc_coherence`` of each (scheme, psi, t, seed) point, as a list in
    input order: every point is checked before any trajectory runs.

    A point's block b holds trajectories [b * MC_BLOCK, (b + 1) * MC_BLOCK),
    whatever the shot count, and its jobs are ``_job_spans(shots)``; when all
    points together would have fewer jobs than ``_workers()``, each partial
    last block of 2 or more trajectories is a job of its own. The points run
    by their scheme's ``_weight``, largest first (a stable sort: equal
    weights keep their order), so the longest jobs do not finish last. Every
    point's jobs run in turn through ``_in_order``, so the pool runs the next
    jobs while the caller reduces a point: each job's final states become
    that point's off-diagonal elements z as they come, and only one point's
    z is held at a time.
    """
    refs, checked = [], []
    for scheme, psi, t, seed in points:
        refs.append(_off_diagonal(psi))
        checked.append(_trajectory_point(scheme, psi, t, shots, seed))
    order = sorted(range(len(checked)), key=lambda i: -_weight(checked[i][0]))
    spans = _job_spans(shots, -(-_workers() // max(len(checked), 1)))
    jobs = ((*checked[i], start, stop) for i in order for start, stop in spans)
    estimates = [None] * len(checked)
    with contextlib.closing(_in_order(_trajectory_job, jobs)) as results:
        for i in order:
            z = np.empty(shots, dtype=complex)
            for start, stop in spans:
                states = next(results)
                np.multiply(states[1], states[0].conj(), out=z[start:stop])
            estimates[i] = _estimate(z, refs[i])
            del z                       # freed before the next point's z is made
    return estimates


def _estimate(z: np.ndarray, z0: complex) -> tuple:
    """(coherence, standard error) of one point from the off-diagonal
    elements z = a1 * conj(a0) of its trajectories' final states."""
    shots = len(z)
    mean = z.mean()
    if abs(mean) < 1e-300:
        se_abs = math.hypot(z.real.std(ddof=1), z.imag.std(ddof=1)) / math.sqrt(shots)
    else:
        # the real part of the complex product: with c the unit factor, the
        # parts form z.real * c.real - z.imag * c.imag rounds about a quarter
        # of the elements differently, and can change the printed error bar
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

    def __post_init__(self):
        object.__setattr__(self, "t", _check_time(self.t))


@dataclass(frozen=True)
class CoherenceCurve:
    scheme: str
    repetitions: int
    samples: tuple


def coherence_curves(curves: Sequence[tuple], shots: Optional[int] = None) -> list:
    """A ``CoherenceCurve`` of each (scheme, psi, times, seeds) curve: the
    exact coherence at each of ``times`` and, with ``shots`` set, the
    ``mc_coherence`` of each time with its seed (``seeds`` is read only
    then, and must hold one seed per time). The seeds and the MC points of
    every curve are checked first, and the points run in one
    ``mc_estimates`` call; then each curve's exact values come from one
    ``scheme_coherences`` call."""
    if shots is None:
        estimates = itertools.repeat((None, None))
    else:
        for k, (scheme, _, times, seeds) in enumerate(curves):
            if seeds is None or len(seeds) != len(times):
                raise ValueError(f"curve {k} ({scheme.kind}, n={scheme.repetitions}) has "
                                 f"{'no' if seeds is None else len(seeds)} seeds for {len(times)} "
                                 f"times; with shots it needs one seed per time")
        estimates = iter(mc_estimates([(scheme, psi, t, seed) for scheme, psi, times, seeds in curves
                                       for t, seed in zip(times, seeds)], shots))
    built = []
    for scheme, psi, times, _ in curves:
        samples = tuple(CurveSample(t, c_exact, *next(estimates))
                        for t, c_exact in zip(times, scheme_coherences(scheme, psi, times).tolist()))
        built.append(CoherenceCurve(scheme.kind, scheme.repetitions, samples))
    return built


def figure5_data(t_max: float, steps: int, shots: Optional[int] = None, seed=0):
    """Coherence curves of ``DEFAULT_CURVES`` from the input IPLUS, on a
    uniform grid of ``steps + 1`` points in [0, t_max].

    With ``shots`` set, each grid point also carries a Monte-Carlo estimate
    and standard error; point (curve, t) gets its own deterministic seed.
    """
    _check_time(t_max)
    if steps < 2:
        raise ValueError("need at least 2 steps")
    if steps > MAX_STEPS:
        raise ValueError(f"steps must be <= {MAX_STEPS} (got {steps})")
    grid = np.linspace(0.0, t_max, steps + 1).tolist()
    curves = []
    for curve_idx, (kind, reps) in enumerate(DEFAULT_CURVES):
        seeds = None if shots is None else [
            np.random.SeedSequence(entropy=seed, spawn_key=(curve_idx, t_idx)) for t_idx in range(len(grid))]
        curves.append((Scheme(kind, reps), IPLUS, grid, seeds))
    return coherence_curves(curves, shots)


def curves_to_csv(curves: Sequence[CoherenceCurve]) -> str:
    """Rows ordered by curve then by t; empty MC columns when not sampled."""
    lines = [CSV_HEADER]
    for curve in curves:
        for s in curve.samples:
            mc = "" if s.c_mc is None else f"{s.c_mc:.12g}"
            se = "" if s.mc_stderr is None else f"{s.mc_stderr:.12g}"
            lines.append(f"{s.t:.12g},{curve.scheme},{curve.repetitions},{s.c_exact:.12g},{mc},{se}")
    return "\n".join(lines) + "\n"
