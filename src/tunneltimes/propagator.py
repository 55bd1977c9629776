"""Time-domain 1-D evolution of the truncated packet over the square barrier.

Crank-Nicolson stepping of i dpsi/dt = [-(1/2m) d2/dx2 + V(x)] psi on a
hard-walled grid: (1 + i dt H / 2) psi' = (1 - i dt H / 2) psi, a Cayley map
that conserves the discrete norm to rounding, stepped on one LAPACK
tridiagonal LU factorization per run. CN is unconditionally stable, so dt
has no stability bound; suggest_grid sets it from a stated phase-error budget
(CN_PHASE_BUDGET). The barrier run and a V = 0 reference
run share the grid, and the measurable delay is the difference of
flux-weighted mean arrival times of the probability current at a detector
placed past the barrier. The two runs step on two threads at once (the
LAPACK solves release the GIL), with records bit-identical to serial runs.

The truncated packet has slow 1/q momentum tails, so the transmitted signal
in the deep-tunneling regime is carried mostly by the above-barrier tail
components; signs and magnitudes of the measured delay are estimator
properties, not sharp closed-form predictions. Grids are sized so that
hard-wall reflections cannot reach the detector inside the measurement
window.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientFluxError, NonConvergenceError
from .scattering import Barrier
from .wavepacket import Packet

_MAX_POINT_STEPS = 10**9  # per run: ~30 s at ~30 ns per point-step (2 cores)


@dataclass(frozen=True)
class GridSpec:
    """Geometry and step sizes of the simulation grid (hard walls at ends)."""

    x_min: float
    x_max: float
    dx: float
    dt: float

    def __post_init__(self):
        for name in ("x_min", "x_max", "dx", "dt"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"grid {name} must be finite, got {value}")
        if not (self.x_max > self.x_min and self.dx > 0.0 and self.dt > 0.0):
            raise DomainError("inconsistent grid spec")

    @property
    def n_points(self) -> int:
        """Number of interior grid points, counted without building them."""
        return int(round((self.x_max - self.x_min) / self.dx)) - 1

    @property
    def x(self) -> np.ndarray:
        """Interior grid points; psi = 0 on the walls themselves."""
        return self.x_min + self.dx * np.arange(1, self.n_points + 1)

    def norm(self, psi: np.ndarray) -> float:
        """Discrete norm sum |psi|^2 dx of a state: its amplitudes at x."""
        return float(np.sum(np.abs(psi) ** 2) * self.dx)


@dataclass(frozen=True)
class ArrivalRecord:
    """Flux-weighted first-moment arrival data at one detector position,
    with the grid and step count of the run that produced it."""

    detector_x: float
    mean_arrival: float
    transmitted_fraction: float
    norm_drift: float
    wall_probability: float
    spec: GridSpec
    n_steps: int


def init_state(packet: Packet, barrier: Barrier, spec: GridSpec) -> np.ndarray:
    """Sample the incoming truncated plane wave onto the grid and normalize.

    Support is [-L0 - a/2, -a/2]; the whole support must fit strictly inside
    the grid (DomainError otherwise). The discrete norm is set to 1
    exactly by renormalization.
    """
    lo = -packet.L0 - barrier.width / 2.0
    hi = -barrier.width / 2.0
    if lo <= spec.x_min + spec.dx or hi >= spec.x_max - spec.dx:
        raise DomainError(
            f"support [{lo}, {hi}] does not fit inside ({spec.x_min}, {spec.x_max})"
        )
    x = spec.x
    psi = np.where((x >= lo) & (x <= hi),
                   np.exp(1j * packet.k0 * x) / math.sqrt(packet.L0),
                   0.0).astype(complex)
    psi /= math.sqrt(spec.norm(psi))
    return psi


class _Stopped(Exception):
    """A run was told to stop before its window ended."""


def _stepper(psi: np.ndarray, spec: GridSpec, barrier: Barrier, n_steps: int,
             probe: slice = slice(0, 0), stop: threading.Event | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Advance n_steps of Crank-Nicolson; return psi and psi[probe] per step.

    A = I + (i dt/2) H is LU-factored once (zgttrf). With V >= 0 and
    t = 1/(2m dx^2), each diagonal entry of A/2 is 1/2 + i c with
    c = (dt/4)(2t + V) >= (dt/2) t, its row's off-diagonal sum, so
    |1/2 + i c| > c: A/2 is strictly diagonally dominant for every dt > 0 and
    the factorization cannot break down. B = 2I - A, so
    the step psi' = A^-1 B psi is the Cayley update 2 A^-1 psi - psi: one
    zgttrs solve against A/2 (an exact halving) and one subtraction.
    A stop event, if given, is checked once per step; once set, the run
    raises _Stopped.
    """
    # Imported here: scipy.linalg is a slow import that only stepping needs.
    from scipy.linalg.lapack import zgttrf, zgttrs

    m = barrier.mass
    v = np.where(np.abs(spec.x) <= barrier.width / 2.0, barrier.height, 0.0)
    t = 1.0 / (2.0 * m * spec.dx * spec.dx)
    half_idt = 0.25j * spec.dt  # (i dt / 2) / 2: the entries of A/2
    off = np.full(len(v) - 1, -half_idt * t)
    dl, d, du, du2, ipiv, info = zgttrf(off, 0.5 + half_idt * (2.0 * t + v), off)
    if info != 0:
        raise DomainError(f"Crank-Nicolson factorization failed (zgttrf info={info})")
    psi = psi.copy()
    samples = np.empty((n_steps,) + psi[probe].shape, dtype=complex)
    for n in range(n_steps):
        if stop is not None and stop.is_set():
            raise _Stopped(f"stopped after {n} of {n_steps} steps")
        y, _ = zgttrs(dl, d, du, du2, ipiv, psi)
        psi = np.subtract(y, psi, out=y)
        samples[n] = psi[probe]
    return psi, samples


def evolve(psi: np.ndarray, spec: GridSpec, barrier: Barrier,
           n_steps: int) -> np.ndarray:
    """Advance the state n_steps; unitary up to rounding, deterministic."""
    return _stepper(psi, spec, barrier, n_steps)[0]


def measure_arrival(packet: Packet, barrier: Barrier, spec: GridSpec,
                    detector_x: float, n_steps: int, *,
                    stop: threading.Event | None = None) -> ArrivalRecord:
    """Propagate and accumulate the flux record at the detector.

    The mean arrival time is the first moment of the probability current
    J(x_d, t); the transmitted fraction is its time integral, i.e. the
    probability that has crossed the detector by the end of the window. The
    record's norm drift and wall probability (within 10 dx of either wall)
    are read from the final state. A set stop event ends the run within one
    step (see _stepper). A run of more than _MAX_POINT_STEPS grid-point-steps
    raises NonConvergenceError before any array is built.
    """
    if not (barrier.width / 2.0 < detector_x < spec.x_max - 2 * spec.dx):
        raise DomainError("detector must sit past the barrier and inside the grid")
    # counted as a float: an integer product past 1e308 cannot be formatted
    if (work := float(spec.n_points) * n_steps) > _MAX_POINT_STEPS:
        raise NonConvergenceError(
            f"Crank-Nicolson run: {spec.n_points:.6g} points x {n_steps:.6g} steps = "
            f"{work:.3g} point-steps, more than the {_MAX_POINT_STEPS:.0e} allowed")
    psi = init_state(packet, barrier, spec)
    idx = int(round((detector_x - spec.x_min) / spec.dx)) - 1
    psi, s = _stepper(psi, spec, barrier, n_steps, slice(idx - 1, idx + 2), stop)
    grad = (s[:, 2] - s[:, 0]) / (2.0 * spec.dx)
    j = np.imag(np.conj(s[:, 1]) * grad) / barrier.mass
    j = np.where(j > 0.0, j, 0.0)  # transmitted (outgoing) component only
    flux_sum = float(np.sum(j))
    frac = flux_sum * spec.dt
    if frac < 1e-6:
        raise InsufficientFluxError(
            f"transmitted fraction {frac:.3e} below 1e-6 at detector {detector_x}"
        )
    mean_t = float(np.sum(j * (spec.dt * np.arange(1, n_steps + 1)))) / flux_sum
    return ArrivalRecord(detector_x, mean_t, frac, abs(spec.norm(psi) - 1.0),
                         spec.norm(np.r_[psi[:10], psi[-10:]]), spec, n_steps)


# Tells this module's measure_arrival from a replacement; a tracer that
# rebinds the function by name leaves its code object in place.
_MEASURE_ARRIVAL_CODE = measure_arrival.__code__


# The CN phase error (omega dt)^2/12 allowed at the fastest relevant component.
CN_PHASE_BUDGET = 1e-3


def _fast_wavenumber(packet: Packet, barrier: Barrier) -> float:
    """The fastest spectral component a delay measurement must carry.

    Deep tunneling transmits mostly the above-barrier spectral tail, so this
    covers the barrier-top wavenumber as well as k0, plus the width of the
    packet's spectral peak.
    """
    return (max(packet.k0, barrier.kappa0)
            + max(0.75, 6.0 * math.pi / packet.L0))


def grid_errors(packet: Packet, barrier: Barrier, spec: GridSpec
                ) -> tuple[float, float]:
    """(CN phase error, lattice dispersion error) of spec at _fast_wavenumber.

    The first is (omega dt)^2/12 with omega = k^2/2m, the relative phase
    error of one Cayley step; the second is (k dx)^2/6, the relative
    group-velocity error of the three-point Laplacian.
    """
    k = _fast_wavenumber(packet, barrier)
    omega = k * k / (2.0 * barrier.mass)
    return (omega * spec.dt) ** 2 / 12.0, (k * spec.dx) ** 2 / 6.0


def suggest_grid(packet: Packet, barrier: Barrier, detector_x: float
                 ) -> tuple[GridSpec, int]:
    """Grid, step sizes and window length sized for one delay measurement.

    dx resolves the fastest relevant spectral component (_fast_wavenumber)
    with 20 points per wavelength (and the barrier with 50 points); dt spends
    the CN phase-error budget there, (omega dt)^2/12 = CN_PHASE_BUDGET;
    walls are pushed far enough out that a reflection traveling at the fast
    component speed cannot return to the detector inside the window.
    """
    k0, L0 = packet.k0, packet.L0
    a, m = barrier.width, barrier.mass
    v0 = k0 / m
    k_fast = _fast_wavenumber(packet, barrier)
    v_fast = k_fast / m
    t_total = (L0 + a + detector_x + 0.45 * L0) / v0
    x_max = 0.5 * (v_fast * t_total + detector_x) + 10.0
    x_min = -max(L0 + a / 2.0 + 20.0,
                 0.5 * (v_fast * t_total - detector_x) + 10.0)
    dx_candidates = [2.0 * math.pi / (20.0 * k_fast)]
    if a > 0.0:
        dx_candidates.append(a / 50.0)
    dx = min(dx_candidates)
    dt = math.sqrt(12.0 * CN_PHASE_BUDGET) / (k_fast * k_fast / (2.0 * m))
    spec = GridSpec(x_min, x_max, dx, dt)  # an underflowing dt raises here
    return spec, int(math.ceil(t_total / dt))


def empirical_delay(packet: Packet, barrier: Barrier, detector_x: float,
                    spec: GridSpec | None = None, n_steps: int | None = None
                    ) -> tuple[float, ArrivalRecord, ArrivalRecord]:
    """Measured delay: mean arrival with the barrier minus without it.

    Both runs share the grid and window, which each record names. Only a
    missing spec or n_steps calls suggest_grid: a missing spec is its grid,
    a missing n_steps spans its window at spec.dt.
    The free run is a one-worker concurrent.futures task while the calling
    thread steps the barrier run. Any exception here, a signal included,
    stops the free run within one step; the worker is joined before this
    returns or raises. A replaced measure_arrival (a profiler's wrapper, a
    test double) may not be thread-safe, so it is called serially, barrier
    run first.
    Returns (delay, barrier_record, free_record).

    Raises
    ------
    InsufficientFluxError
        If the transmitted fraction of the barrier run, or else of the free
        run, is below 1e-6. An exception of the barrier run wins over one of
        the free run.
    """
    if spec is None or n_steps is None:
        auto_spec, auto_steps = suggest_grid(packet, barrier, detector_x)
        spec = auto_spec if spec is None else spec
        if n_steps is None:
            n_steps = round(auto_steps * auto_spec.dt / spec.dt)
    free = Barrier(0.0, barrier.width, barrier.mass)
    run = measure_arrival
    if getattr(run, "__code__", None) is not _MEASURE_ARRIVAL_CODE:
        rec_barrier = run(packet, barrier, spec, detector_x, n_steps)
        rec_free = run(packet, free, spec, detector_x, n_steps)
    else:
        # Imported here, as scipy.linalg in _stepper: only stepping needs it.
        from concurrent.futures import ThreadPoolExecutor

        stop = threading.Event()
        with ThreadPoolExecutor(1) as pool:
            try:
                free_run = pool.submit(run, packet, free, spec, detector_x,
                                       n_steps, stop=stop)
                rec_barrier = run(packet, barrier, spec, detector_x, n_steps)
                rec_free = free_run.result()
            except BaseException:
                stop.set()
                raise
    return rec_barrier.mean_arrival - rec_free.mean_arrival, rec_barrier, rec_free
