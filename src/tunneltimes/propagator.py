"""Time-domain 1-D evolution of the truncated packet over the square barrier.

Crank-Nicolson stepping of i dpsi/dt = [-(1/2m) d2/dx2 + V(x)] psi on a
hard-walled grid: (1 + i dt H / 2) psi' = (1 - i dt H / 2) psi, a Cayley map
that conserves the discrete norm to rounding, stepped on one LAPACK
tridiagonal LU factorization per run. The barrier run and a V = 0 reference
run share the grid, and the measurable delay is the difference of
flux-weighted mean arrival times of the probability current at a detector
placed past the barrier.

The truncated packet has slow 1/q momentum tails, so the transmitted signal
in the deep-tunneling regime is carried mostly by the above-barrier tail
components; signs and magnitudes of the measured delay are estimator
properties, not sharp closed-form predictions. Grids are sized so that
hard-wall reflections cannot reach the detector inside the measurement
window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooSmallError, InsufficientFluxError
from .scattering import Barrier
from .wavepacket import Packet


@dataclass(frozen=True)
class GridSpec:
    """Geometry and step sizes of the simulation grid (hard walls at ends)."""

    x_min: float
    x_max: float
    dx: float
    dt: float

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.dx > 0.0 and self.dt > 0.0):
            raise DomainError("inconsistent grid spec")

    @property
    def x(self) -> np.ndarray:
        """Interior grid points; psi = 0 on the walls themselves."""
        n = int(round((self.x_max - self.x_min) / self.dx)) - 1
        return self.x_min + self.dx * np.arange(1, n + 1)


@dataclass(frozen=True)
class Grid1D:
    """Simulation state: the grid it lives on and the amplitudes."""

    spec: GridSpec
    amplitudes: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.spec.x

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.spec.dx)


@dataclass(frozen=True)
class ArrivalRecord:
    """Flux-weighted first-moment arrival data at one detector position."""

    detector_x: float
    mean_arrival: float
    transmitted_fraction: float
    norm_drift: float
    wall_probability: float


def init_state(packet: Packet, barrier: Barrier, spec: GridSpec) -> Grid1D:
    """Sample the incoming truncated plane wave onto the grid and normalize.

    Support is [-L0 - a/2, -a/2]; the whole support must fit strictly inside
    the grid (GridTooSmallError otherwise). The discrete norm is set to 1
    exactly by renormalization.
    """
    lo = -packet.L0 - barrier.width / 2.0
    hi = -barrier.width / 2.0
    if lo <= spec.x_min + spec.dx or hi >= spec.x_max - spec.dx:
        raise GridTooSmallError(
            f"support [{lo}, {hi}] does not fit inside ({spec.x_min}, {spec.x_max})"
        )
    x = spec.x
    psi = np.where((x >= lo) & (x <= hi),
                   np.exp(1j * packet.k0 * x) / math.sqrt(packet.L0),
                   0.0).astype(complex)
    nrm = math.sqrt(float(np.sum(np.abs(psi) ** 2) * spec.dx))
    psi /= nrm
    return Grid1D(spec, psi)


def _stepper(state: Grid1D, barrier: Barrier, n_steps: int,
             probe: slice = slice(0, 0)) -> tuple[np.ndarray, np.ndarray]:
    """Advance n_steps of Crank-Nicolson; return psi and psi[probe] per step.

    A = I + (i dt/2) H is LU-factored once (zgttrf; under the dt bound A is
    strictly diagonally dominant, so this cannot break down). B = 2I - A, so
    the step psi' = A^-1 B psi is the Cayley update 2 A^-1 psi - psi: one
    zgttrs solve against A/2 (an exact halving) and one subtraction.
    """
    # Imported here: scipy.linalg is a slow import that only stepping needs.
    from scipy.linalg.lapack import zgttrf, zgttrs

    m, spec = barrier.mass, state.spec
    if spec.dt > m * spec.dx * spec.dx * (1.0 + 1e-12):
        raise DomainError("dt exceeds the m*dx^2 sanity bound")
    v = np.where(np.abs(spec.x) <= barrier.width / 2.0, barrier.height, 0.0)
    t = 1.0 / (2.0 * m * spec.dx * spec.dx)
    half_idt = 0.25j * spec.dt  # (i dt / 2) / 2: the entries of A/2
    off = np.full(len(v) - 1, -half_idt * t)
    dl, d, du, du2, ipiv, info = zgttrf(off, 0.5 + half_idt * (2.0 * t + v), off)
    if info != 0:
        raise DomainError(f"Crank-Nicolson factorization failed (zgttrf info={info})")
    psi = state.amplitudes.copy()
    samples = np.empty((n_steps,) + psi[probe].shape, dtype=complex)
    for n in range(n_steps):
        y, _ = zgttrs(dl, d, du, du2, ipiv, psi)
        psi = np.subtract(y, psi, out=y)
        samples[n] = psi[probe]
    return psi, samples


def evolve(state: Grid1D, barrier: Barrier, n_steps: int) -> Grid1D:
    """Advance the state n_steps; unitary up to rounding, deterministic."""
    psi, _ = _stepper(state, barrier, n_steps)
    return Grid1D(state.spec, psi)


def measure_arrival(packet: Packet, barrier: Barrier, spec: GridSpec,
                    detector_x: float, n_steps: int) -> tuple[ArrivalRecord, Grid1D]:
    """Propagate and accumulate the flux record at the detector.

    Returns the arrival record and the final state. The mean arrival time is
    the first moment of the probability current J(x_d, t); the transmitted
    fraction is its time integral, i.e. the probability that has crossed the
    detector by the end of the window. The record's norm drift and wall
    probability (within 10 dx of either wall) are read from the final state.
    """
    if not (barrier.width / 2.0 < detector_x < spec.x_max - 2 * spec.dx):
        raise DomainError("detector must sit past the barrier and inside the grid")
    state = init_state(packet, barrier, spec)
    idx = int(round((detector_x - spec.x_min) / spec.dx)) - 1
    psi, s = _stepper(state, barrier, n_steps, slice(idx - 1, idx + 2))
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
    final = Grid1D(spec, psi)
    wall = float(np.sum(np.abs(np.r_[psi[:10], psi[-10:]]) ** 2) * spec.dx)
    return ArrivalRecord(detector_x, mean_t, frac, abs(final.norm() - 1.0),
                         wall), final


def suggest_grid(packet: Packet, barrier: Barrier, detector_x: float
                 ) -> tuple[GridSpec, int]:
    """Grid, step sizes and window length sized for one delay measurement.

    dx resolves the fastest relevant spectral component with 20 points per
    wavelength (and the barrier with 50 points); dt sits at half the m*dx^2
    bound; walls are pushed far enough out that a reflection traveling at the
    fast component speed cannot return to the detector inside the window.
    """
    k0, L0 = packet.k0, packet.L0
    a, m = barrier.width, barrier.mass
    v0 = k0 / m
    # Deep tunneling transmits mostly the above-barrier spectral tail, so the
    # wall-safety speed must cover the barrier-top wavenumber as well.
    k_fast = max(k0, barrier.kappa0) + max(0.75, 6.0 * math.pi / L0)
    v_fast = k_fast / m
    t_total = (L0 + a + detector_x + 0.45 * L0) / v0
    x_max = 0.5 * (v_fast * t_total + detector_x) + 10.0
    x_min = -max(L0 + a / 2.0 + 20.0,
                 0.5 * (v_fast * t_total - detector_x) + 10.0)
    dx_candidates = [2.0 * math.pi / (20.0 * k_fast)]
    if a > 0.0:
        dx_candidates.append(a / 50.0)
    dx = min(dx_candidates)
    dt = 0.5 * m * dx * dx
    n_steps = int(math.ceil(t_total / dt))
    return GridSpec(x_min, x_max, dx, dt), n_steps


def empirical_delay(packet: Packet, barrier: Barrier, detector_x: float,
                    spec: GridSpec | None = None, n_steps: int | None = None
                    ) -> tuple[float, ArrivalRecord, ArrivalRecord]:
    """Measured delay: mean arrival with the barrier minus without it.

    Both runs share the grid and window. A missing spec comes from
    suggest_grid; a missing n_steps spans suggest_grid's window at spec.dt.
    Returns (delay, barrier_record, free_record).

    Raises
    ------
    InsufficientFluxError
        If the transmitted fraction of the barrier run is below 1e-6.
    """
    auto_spec, auto_steps = suggest_grid(packet, barrier, detector_x)
    spec = auto_spec if spec is None else spec
    if n_steps is None:
        n_steps = round(auto_steps * auto_spec.dt / spec.dt)
    rec_barrier, _ = measure_arrival(packet, barrier, spec, detector_x, n_steps)
    free = Barrier(0.0, barrier.width, barrier.mass)
    rec_free, _ = measure_arrival(packet, free, spec, detector_x, n_steps)
    return rec_barrier.mean_arrival - rec_free.mean_arrival, rec_barrier, rec_free
