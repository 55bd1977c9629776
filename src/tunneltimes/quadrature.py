"""Brute-force quadrature oracles for the defining momentum integrals.

These evaluate the packet averages behind the closed forms directly on the
real axis, independently of the closed forms. The 1/k singularity is a
principal value taken by analytic subtraction: the residue c of each declared
simple pole is estimated from a symmetric limit, c/(k - p) is subtracted over
the whole window, the smooth remainder is integrated adaptively, and the
exact PV of the subtracted term, c * ln((b-p)/(p-a)), is added back.

Panels never exceed half an oscillation period pi/L0 of the exp(ikL0)
factors; each panel is scored by a 10- vs 20-point Gauss-Legendre pair and
bisected until the disagreement fits the local share of the error budget.
Refinement is level-synchronous, in the manner of scipy.integrate.quad_vec:
all panels of one level are scored together, their 10 and 20 nodes in one
integrand call per block of at most _BLOCK_PANELS panels, and the rejected
ones are bisected into the next level. Each level is charged to the panel
budget before it is evaluated, so a refinement that cannot finish raises at
once and names the level and k-interval where it stalled. Accepted panels are
summed one by one in order of their left edge, the order of a depth-first
walk, so results are bit-deterministic for a given configuration.

The truncation window is an absolute half-width around k0 (always covering a
symmetric neighborhood of 0). Keeping it fixed as L0 grows makes the window
tail fall off like 1/L0, matching the size of the residue terms the closed
forms neglect, so closed-vs-oracle gaps shrink ~ 1/L0 until physics, not
truncation, dominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ImaginaryResidueError, NonConvergenceError
from .phasetime import phase_time_grid
from .scattering import Barrier, amplitude_grid
from .wavepacket import Packet, f_amp_and_deriv, momentum_density

_X10, _W10 = np.polynomial.legendre.leggauss(10)
_X20, _W20 = np.polynomial.legendre.leggauss(20)
# Both rules' nodes in one row, so one integrand call scores a panel.
_X30 = np.concatenate([_X10, _X20])
# Panels per integrand call: bounds the node arrays at 2048 * 30 points.
_BLOCK_PANELS = 2048
# Imaginary parts below this are rounding noise in any oracle result.
_IMAG_ABS_FLOOR = 1e-10


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the PV quadrature.

    window_half_width is an absolute wavenumber half-width; it is never
    allowed below 20 oscillation wavelengths (40*pi/L0). max_panels caps the
    panels evaluated, first level included; each refinement level is charged
    in full before it is evaluated, so the budget fails at the first level
    that would overrun it.
    """

    window_half_width: float = 8.0
    rel_tol: float = 1e-5
    max_panels: int = 100_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-2):
            raise DomainError(f"rel_tol must be in (0, 1e-2], got {self.rel_tol}")
        if self.max_panels < 16:
            raise DomainError("max_panels too small to do anything")


DEFAULT_CONFIG = QuadratureConfig()


def _score(f_eval, a, b):
    """(I10, I20, max gross |f| on the 20 nodes) of the panels [a, b].

    Evaluates both rules' nodes in one integrand call per block of at most
    _BLOCK_PANELS panels.
    """
    mids = 0.5 * (a + b)
    halves = 0.5 * (b - a)
    # Blocks of equal size: a one-row block would take BLAS's vector-dot
    # route, which rounds differently from the matrix route of the others.
    step = math.ceil(len(a) / math.ceil(len(a) / _BLOCK_PANELS))
    i10, i20, fmax = [], [], []
    for s in range(0, len(a), step):
        h = halves[s:s + step]
        vals, gross = f_eval(mids[s:s + step, None] + h[:, None] * _X30)
        i10.append(np.dot(vals[:, :10], _W10) * h)
        i20.append(np.dot(vals[:, 10:], _W20) * h)
        fmax.append(np.max(gross[:, 10:], axis=1))
    return np.concatenate(i10), np.concatenate(i20), np.concatenate(fmax)


def pv_integrate(
    integrand,
    poles,
    config: QuadratureConfig = DEFAULT_CONFIG,
    *,
    domain: tuple[float, float],
    oscillation_length: float = 0.0,
    residues=None,
) -> complex:
    """Principal-value integral of a vectorized integrand over a window.

    Parameters
    ----------
    integrand : callable
        Maps an ndarray of real abscissas to complex values. Smooth on the
        domain except for the declared simple poles.
    poles : sequence of float
        Real locations of the simple poles. Poles outside the open domain are
        ignored.
    config : QuadratureConfig
    domain : (lo, hi)
        Integration window.
    oscillation_length : float
        Wavelength scale L of exp(ikL) content; panels are capped at half a
        period pi/L. Zero disables the cap.
    residues : sequence of complex, optional
        Analytic residues; estimated numerically when omitted.

    Raises
    ------
    NonConvergenceError
        If the next refinement level would overrun config.max_panels. The
        message names the level, its unresolved panels and the k-interval
        they span.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise DomainError("empty integration domain")
    inside = [float(p) for p in poles if lo < p < hi]
    if residues is None:
        res: list[complex] = []
        for p in inside:
            gaps = [p - lo, hi - p] + [abs(p - q) for q in inside if q != p]
            if oscillation_length > 0.0:
                gaps.append(math.pi / oscillation_length)
            d = 1e-3 * min(gaps)
            # the symmetric limit d * (f(p + d) - f(p - d)) / 2
            f_pm = integrand(np.array([p + d, p - d]))
            res.append(complex(0.5 * d * (f_pm[0] - f_pm[1])))
    else:
        res = [complex(residues[list(poles).index(p)]) for p in inside]

    def f_eval(k):
        # gross tracks the magnitudes before the pole subtraction cancels
        # them; it sets the rounding floor of the remainder.
        vals = np.asarray(integrand(k), dtype=complex)
        gross = np.abs(vals)
        for p, c in zip(inside, res):
            term = c / (k - p)
            vals = vals - term
            gross = gross + np.abs(term)
        return vals, gross

    analytic = sum(
        c * math.log((hi - p) / (p - lo)) for p, c in zip(inside, res)
    )

    # Breakpoints at the poles keep every Gauss node strictly off them.
    edges = sorted({lo, hi, *inside})
    cap = math.pi / oscillation_length if oscillation_length > 0.0 else math.inf
    lefts, rights = [], []
    for ea, eb in zip(edges[:-1], edges[1:]):
        n = max(1, math.ceil((eb - ea) / cap)) if math.isfinite(cap) else 16
        pts = np.linspace(ea, eb, n + 1)
        lefts.append(pts[:-1])
        rights.append(pts[1:])
    a, b = np.concatenate(lefts), np.concatenate(rights)

    width_total = hi - lo
    used = 0
    level = 0
    acc_a, acc_i = [], []
    while len(a):
        used += len(a)
        if used > config.max_panels:
            raise NonConvergenceError(
                f"panel budget max_panels={config.max_panels} exhausted at "
                f"refinement level {level}: {len(a)} unresolved panels span "
                f"k in [{a.min():.9g}, {b.max():.9g}]"
            )
        i10, i20, fm = _score(f_eval, a, b)
        if level == 0:
            # The first level fixes the error-budget scale.
            scale = float(np.sum(np.abs(i20)))
            if scale == 0.0:
                scale = 1e-300
            tol_per_width = config.rel_tol * scale / width_total
        width = b - a
        # The sampled-magnitude floor is the rounding level inherent to any
        # quadrature of this panel; without it, near-singular refinement
        # chains and cancellation-noise integrands would split forever.
        floor = 1e-14 * fm * width
        ok = ((np.abs(i10 - i20) <= tol_per_width * width + floor)
              | (width < 1e-13 * width_total))
        acc_a.append(a[ok])
        acc_i.append(i20[ok])
        a, b = a[~ok], b[~ok]
        m = 0.5 * (a + b)
        a, b = np.stack([a, m], axis=1).ravel(), np.stack([m, b], axis=1).ravel()
        level += 1

    # Left to right, one at a time: the order of a depth-first walk. A
    # pairwise np.sum would change the bits.
    order = np.argsort(np.concatenate(acc_a), kind="stable")
    total = 0.0 + 0.0j
    for v in np.concatenate(acc_i)[order].tolist():
        total += v
    return total + analytic


def _check_real(value: complex, what: str) -> float:
    """Return the real part, rejecting any imaginary part above noise.

    The absolute floor covers results that are themselves zero up to rounding
    (sine nodes, free limits), where a relative test is meaningless.
    """
    imag = abs(value.imag)
    if imag > 1e-8 * abs(value.real) and imag > _IMAG_ABS_FLOOR:
        raise ImaginaryResidueError(
            f"{what} came out complex: {value!r} (|imag| > 1e-8 |real|)"
        )
    return value.real


def _packet_pv(g, packet: Packet, config: QuadratureConfig, what: str) -> float:
    """Real PV integral of g over the window around k0, pole at k = 0."""
    k_hi = packet.k0 + max(config.window_half_width, 40.0 * math.pi / packet.L0)
    val = pv_integrate(g, [0.0], config, domain=(-k_hi, k_hi),
                       oscillation_length=packet.L0)
    return _check_real(val, what)


def oracle_inverse_velocity(
    packet: Packet, barrier: Barrier, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Direct PV evaluation of the packet-averaged inverse group velocity."""
    k0, m = packet.k0, barrier.mass

    def g(k):
        return (m / (2.0 * math.pi)) * momentum_density(k - k0, packet) / k + 0j

    return _packet_pv(g, packet, config, "inverse-velocity oracle")


def oracle_tunneling_time(
    packet: Packet, barrier: Barrier, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Direct PV evaluation of the packet-averaged phase time."""
    k0 = packet.k0

    def g(k):
        return (momentum_density(k - k0, packet) / (2.0 * math.pi)
                * phase_time_grid(k, barrier)) + 0j

    return _packet_pv(g, packet, config, "tunneling-time oracle")


def oracle_delay_B(
    packet: Packet, barrier: Barrier, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Direct PV evaluation of the oscillatory outside-the-barrier delay."""
    k0, m, a = packet.k0, barrier.mass, barrier.width
    if barrier.height * barrier.width == 0.0:
        # F+ + F- vanishes identically with no barrier; numerically the
        # integrand would be pure amplified rounding noise.
        return 0.0

    def g(k):
        F_p, F_m, _, _ = amplitude_grid(k, barrier)
        f_m, df_m = f_amp_and_deriv(k - k0, packet, a)
        f_p, df_p = f_amp_and_deriv(k + k0, packet, a)
        bracket = f_m * df_p - f_p * df_m
        return (0.5j / (2.0 * math.pi)) * (m / k) * (F_p + F_m) * bracket

    return _packet_pv(g, packet, config, "outside-delay oracle")
