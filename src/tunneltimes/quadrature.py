"""Brute-force quadrature oracles for the defining momentum integrals.

These evaluate the packet averages behind the closed forms directly on the
real axis, independently of the closed forms, over a window [-k_hi, k_hi].
The 1/k branch point at k = 0 makes each a principal value (PV). For the
inverse velocity and the tunneling time, rho(k - k0) times a function odd in
k, the PV folds onto the pole-free integral over [0, k_hi] of
(rho(k - k0) - rho(k + k0)) times that function. The outside delay's PV is
taken by analytic subtraction: the residue c of its one simple pole, at
p = 0, is estimated from the Richardson-extrapolated symmetric limit, at two
step sizes in one integrand call, c/(k - p) is subtracted over the whole
window, the smooth remainder is integrated adaptively, and the exact PV of the
subtracted term, c * ln((b-p)/(p-a)), is added back. A plain symmetric limit
leaves an O(d^2) residual pole whose panels only the width floor accepts.
Its amplitudes are real phases (scattering.parity_phases), which never overflow,
and its integrand is i r e^{i theta} with r and theta real, so the unit phase
comes from one real cos/sin pair of theta written into the complex values
(126-128 ns/point, against 145-147 for an np.exp(1j*theta) form, on the
43,008-point block at (k0, L0) = (1.1, 3000), a = 15, measured together on
2 cores).
It is conj-even, g(-k) = conj g(k), so only k >= 0 is evaluated: each panel
there stands for its mirror too, counting twice in the error scale and the
panel budget, and the result is twice the real part of their sum. The error
test, residue and budget are those of the whole window, so a vanishing
barrier's spike still raises; the residue's nodes at -d, -d/2 check the
symmetry the mirror relies on. The folded integrands are real, and real
values stay real through the error test and the Gauss-Kronrod sums; only a
subtracted pole term c * (1/(k - p)) makes values complex.

Every oracle must declare the fastest exp(ikL) content of its integrand, and
first-level panels span at most two periods 4*pi/L of it, so 10 Gauss nodes
sample each period 5 times and the Gauss-Kronrod error estimate does not
alias. Each keeps the 21-point value and is bisected until the two rules agree
within the local error budget, level-synchronously as in scipy's quad_vec: all
panels of one level are scored together, their 21 nodes in one integrand call
per block of at most _BLOCK_PANELS panels, and the rejected ones are bisected
into the next level.
Each level is charged to the panel budget before it is evaluated, the first
(counted as floats) before it is even built, and a non-finite level raises once
scored, so a refinement that cannot finish raises at once and names the level
and k-interval where it stalled.
The accepted 21-point values are summed by one np.sum in level order, so
results are bit-deterministic for a given configuration.

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

from .errors import DomainError, NonConvergenceError
from .phasetime import phase_time_grid
from .scattering import Barrier, parity_phases
from .wavepacket import Packet, momentum_density, sinc_and_deriv

# The Gauss-Kronrod (10, 21) pair, copied from QUADPACK's qk21 table
# (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, Springer
# 1983): the Kronrod nodes x >= 0 in descending order, their Kronrod weights,
# and the Gauss weights of x[1::2], the 10-point Gauss-Legendre nodes. _X21
# holds all 21 nodes in ascending order, the Gauss ones at _X21[1::2].
_XGK = np.array([0.995657163025808080735527280689003,
    0.973906528517171720077964012084452, 0.930157491355708226001207180059508,
    0.865063366688984510732096688423493, 0.780817726586416897063717578345042,
    0.679409568299024406234327365114874, 0.562757134668604683339000099272694,
    0.433395394129247190799265943165784, 0.294392862701460198131126603103866,
    0.148874338981631210884826001129720, 0.0])
_WGK = np.array([0.011694638867371874278064396062192,
    0.032558162307964727478818972459390, 0.054755896574351996031381300244580,
    0.075039674810919952767043140916190, 0.093125454583697605535065465083366,
    0.109387158802297641899210590325805, 0.123491976262065851077958109831074,
    0.134709217311473325928054001771707, 0.142775938577060080797094273138717,
    0.147739104901338491374841515972068, 0.149445554002916905664936468389821])
_WG = np.array([0.066671344308688137593568809893332,
    0.149451349150580593145776339657697, 0.219086362515982043995534934228163,
    0.269266719309996355091226921569469, 0.295524224714752870173892994651338])
_X21 = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK21 = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG10 = np.concatenate([_WG, _WG[::-1]])
# Panels per integrand call: bounds the node arrays at 2048 * 21 points.
_BLOCK_PANELS = 2048
# Error budget: each panel's |G10 - K21| may take its width's share of this
# fraction of the first level's sum of |K21|.
_REL_TOL = 1e-5
# Absolute wavenumber half-width of the window around k0; never below 20
# oscillation wavelengths (40*pi/L0).
_WINDOW_HALF_WIDTH = 8.0


@dataclass(frozen=True)
class QuadratureConfig:
    """The panel budget of the PV quadrature.

    max_panels caps the panels evaluated, first level included; each
    refinement level is charged in full before it is evaluated, so the budget
    fails at the first level that would overrun it. A conj-even panel counts
    twice, for itself and its mirror, so the outside delay's first level,
    2 k_hi (2 L0 + a)/(4 pi) panels, is charged as on the whole window.
    """

    max_panels: int = 100_000

    def __post_init__(self):
        if not isinstance(self.max_panels, (int, np.integer)) or self.max_panels < 16:
            raise DomainError(f"max_panels must be an integer >= 16, got {self.max_panels!r}")


DEFAULT_CONFIG = QuadratureConfig()


def _score(f_eval, a, b):
    """(G10, K21, max gross |f| on the 21 nodes) of the panels [a, b].

    Evaluates the 21 Kronrod nodes, which include the 10 Gauss nodes, in one
    integrand call per block of at most _BLOCK_PANELS panels.
    """
    mids = 0.5 * (a + b)
    halves = 0.5 * (b - a)
    # Blocks of equal size: a one-row block would take BLAS's vector-dot
    # route, which rounds differently from the matrix route of the others.
    step = math.ceil(len(a) / math.ceil(len(a) / _BLOCK_PANELS))
    g10, k21, fmax = [], [], []
    for s in range(0, len(a), step):
        h = halves[s:s + step]
        vals, gross = f_eval(mids[s:s + step, None] + h[:, None] * _X21)
        g10.append(np.dot(vals[:, 1::2], _WG10) * h)
        k21.append(np.dot(vals, _WK21) * h)
        # the max over each panel's 21 nodes, taken down the transposed
        # copy: numpy reduces a short last axis about 3x slower
        fmax.append(np.max(np.ascontiguousarray(gross.T), axis=0))
    return np.concatenate(g10), np.concatenate(k21), np.concatenate(fmax)


def _residue(integrand, p, d, conj_even):
    """Residue at the simple pole p from one integrand call at p -+ d, p -+ d/2.

    c(h) = h (f(p + h) - f(p - h))/2 is c + O(h^2); the Richardson step
    (4 c(d/2) - c(d))/3 cancels the h^2 term. With conj_even, f(p - h) must be
    conj f(p + h) within 1e-8 relative at both steps, or NonConvergenceError.
    """
    f = integrand(np.array([p + d, p - d, p + 0.5 * d, p - 0.5 * d]))
    if conj_even:
        defect = np.abs(f[1::2] - np.conj(f[::2]))
        if np.any(defect > 1e-8 * np.abs(f[::2])):
            raise NonConvergenceError(
                f"integrand is not conj-even about k = {p}: at h = {d:.3g} and "
                f"{0.5 * d:.3g}, |f(p - h) - conj f(p + h)| / |f(p + h)| = "
                f"{np.max(defect / np.abs(f[::2])):.3g} > 1e-8")
    c_d = 0.5 * d * (f[0] - f[1])
    c_half = 0.25 * d * (f[2] - f[3])
    return complex((4.0 * c_half - c_d) / 3.0)


def pv_integrate(
    integrand,
    pole,
    config: QuadratureConfig = DEFAULT_CONFIG,
    *,
    domain: tuple[float, float],
    oscillation_length: float,
    conj_even: bool = False,
) -> complex:
    """Principal-value integral of a vectorized integrand over a window.

    Parameters
    ----------
    integrand : callable
        Maps an ndarray of real abscissas to real or complex values; real
        values are summed as real. Smooth on the domain except for a simple
        pole at `pole`.
    pole : float or None
        Real location of the one simple pole; None, or a pole outside the
        open domain, means none. Its residue is the Richardson extrapolation
        of the symmetric limit h (f(p + h) - f(p - h))/2 at h = d and d/2,
        d = 1e-3 min(p - lo, hi - p, pi/L), so its error is O(d^4).
    config : QuadratureConfig
    domain : (lo, hi)
        Integration window.
    oscillation_length : float
        Fastest angular frequency L > 0 of exp(ikL) content; first-level
        panels span at most two periods 4 pi/L. Required, since panels wider
        than a period alias the Gauss-Kronrod error estimate.
    conj_even : bool
        The integrand obeys f(-k) = conj f(k) on a window (-hi, hi) with the
        pole at 0. Only k >= 0 is evaluated: each panel there stands for
        itself and its mirror, whose G10 and K21 are the conjugates and whose
        |f| is the same, so it counts twice in the error scale and the panel
        budget, and the result is 2 Re of the accepted K21 sum (the log term
        vanishes). The error test, the width floor and the budget therefore
        read as on the whole window.

    Raises
    ------
    DomainError
        If the domain is empty, oscillation_length is not finite and > 0, or
        conj_even is set without pole 0.0 and a domain (-hi, hi).
    NonConvergenceError
        If the next refinement level would overrun config.max_panels, a
        level's integrand values are not all finite, or conj_even is set and
        the residue's values at -d, -d/2 are not the conjugates of those at
        d, d/2 within 1e-8 relative. A level's message names it, its
        unresolved or non-finite panels and the k-interval they span.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise DomainError("empty integration domain")
    if not 0.0 < oscillation_length < math.inf:
        raise DomainError(
            f"oscillation_length must be finite and > 0, got {oscillation_length}")
    if conj_even and not (pole == 0.0 and lo == -hi):
        raise DomainError(
            f"conj_even needs the pole at 0 and a symmetric window, got pole "
            f"{pole} on [{lo}, {hi}]")
    cap = 4.0 * math.pi / oscillation_length
    p = float(pole) if pole is not None and lo < pole < hi else None
    # A conj-even panel on k >= 0 stands for itself and its mirror.
    mult = 2 if conj_even else 1
    used = 0

    def interval(a, b):
        # the k-interval of the panels [a, b] and of their mirrors
        k_hi = np.max(b)
        return f"k in [{-k_hi if conj_even else np.min(a):.9g}, {k_hi:.9g}]"

    def afford(n, level, a, b):
        if used + n > config.max_panels:
            raise NonConvergenceError(
                f"panel budget max_panels={config.max_panels} exhausted at refinement "
                f"level {level}: {n:.6g} unresolved panels span {interval(a, b)}")

    # A breakpoint at the pole keeps every Gauss node strictly off it.
    edges = [lo, hi] if p is None else [p, hi] if conj_even else [lo, p, hi]
    spans = [(ea, eb, max(1.0, (eb - ea) / cap)) for ea, eb in zip(edges[:-1], edges[1:])]
    # counted as floats before it is built
    afford(mult * sum(n for _, _, n in spans), 0, edges[0], hi)
    if p is not None:
        c = _residue(integrand, p, 1e-3 * min(p - lo, hi - p, 0.25 * cap), conj_even)

    def f_eval(k):
        # gross tracks the magnitudes before the pole subtraction cancels
        # them; it sets the rounding floor of the remainder. A real integrand
        # stays real unless a pole term is subtracted.
        vals = np.asarray(integrand(k))
        gross = np.abs(vals)
        if p is not None:
            inv = 1.0 / (k - p)
            gross += abs(c) * np.abs(inv)
            # vals - c * inv a part at a time, without a complex copy of inv
            vals = vals.astype(complex)
            vals.real -= c.real * inv
            vals.imag -= c.imag * inv
        return vals, gross

    pts = [np.linspace(ea, eb, math.ceil(n) + 1) for ea, eb, n in spans]
    a, b = np.concatenate([x[:-1] for x in pts]), np.concatenate([x[1:] for x in pts])

    width_total = hi - lo
    level = 0
    accepted = []
    while len(a):
        afford(mult * len(a), level, a, b)
        used += mult * len(a)
        g10, k21, fm = _score(f_eval, a, b)
        bad = ~np.isfinite(k21)  # a NaN never passes the error test below
        if bad.any():
            raise NonConvergenceError(
                f"non-finite integrand at refinement level {level}: {mult * bad.sum()} "
                f"panels span {interval(a[bad], b[bad])}")
        if level == 0:
            # The first level fixes the error-budget scale.
            scale = mult * float(np.sum(np.abs(k21)))
            if scale == 0.0:
                scale = 1e-300
            tol_per_width = _REL_TOL * scale / width_total
        width = b - a
        # The sampled-magnitude floor is the rounding level inherent to any
        # quadrature of this panel; without it, near-singular refinement
        # chains and cancellation-noise integrands would split forever.
        floor = 1e-14 * fm * width
        ok = ((np.abs(g10 - k21) <= tol_per_width * width + floor)
              | (width < 1e-13 * width_total))
        accepted.append(k21[ok])
        a, b = a[~ok], b[~ok]
        m = 0.5 * (a + b)
        a, b = np.stack([a, m], axis=1).ravel(), np.stack([m, b], axis=1).ravel()
        level += 1

    total = complex(np.sum(np.concatenate(accepted)))
    if conj_even:  # the mirrors add the conjugate; c ln(hi/hi) = 0
        return complex(2.0 * total.real)
    return total if p is None else total + c * math.log((hi - p) / (p - lo))


def _window_edge(packet: Packet) -> float:
    """Upper edge k_hi of the symmetric window [-k_hi, k_hi]."""
    return packet.k0 + max(_WINDOW_HALF_WIDTH, 40.0 * math.pi / packet.L0)


def _folded_pv(odd, packet: Packet, config: QuadratureConfig) -> float:
    """Folded PV: the integral of (rho(k-k0) - rho(k+k0)) odd(k) over [0, k_hi]."""
    k0 = packet.k0

    def g(k):
        rho = momentum_density(k - k0, packet) - momentum_density(k + k0, packet)
        return rho * odd(k)

    return pv_integrate(g, None, config, domain=(0.0, _window_edge(packet)),
                        oscillation_length=packet.L0).real


def oracle_inverse_velocity(
    packet: Packet, barrier: Barrier, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Direct PV evaluation of the packet-averaged inverse group velocity."""
    m = barrier.mass
    return _folded_pv(lambda k: (m / (2.0 * math.pi)) / k, packet, config)


def oracle_tunneling_time(
    packet: Packet, barrier: Barrier, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Direct PV evaluation of the packet-averaged phase time."""
    return _folded_pv(lambda k: phase_time_grid(k, barrier) / (2.0 * math.pi),
                      packet, config)


def oracle_delay_B(
    packet: Packet, barrier: Barrier, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Direct PV evaluation of the oscillatory outside-the-barrier delay.

    The packet bracket collapses to (L0^2/2) e^{i(a+L0)k} (S- S'+ - S+ S'-) at
    x-+ = (k -+ k0) L0/2; with F+- = e^{-ika} e^{-2i phi+-} it is a real factor
    times e^{i(L0 k - phi+ - phi-)}, whose fastest oscillation is e^{ik(2L0+a)}.

    Not folded onto the pole-free integral of 2 Re g over k > 0, though
    g(-k) = conj g(k): the PV route keeps the residue subtraction and tests
    the whole complex g, so it reports a vanishing barrier's |k| <~ m V a
    spike as NonConvergenceError, where the fold would converge. It evaluates
    only k >= 0 all the same (conj_even), at half the integrand points, and
    returns a real total. Where 2mV is so small that g is rounding noise, g
    is not conj-even at the residue nodes and NonConvergenceError is raised.
    """
    k0, m, a, L0 = packet.k0, barrier.mass, barrier.width, packet.L0
    if barrier.is_free:
        # F+ + F- vanishes identically with no barrier; numerically the
        # integrand would be pure amplified rounding noise.
        return 0.0

    def g(k):
        # i r e^{i theta} with r real, from one cos/sin pair of theta; in
        # place where it can be, since block-sized temporaries kept alive
        # cost more in page faults than their arithmetic
        s_m, ds_m = sinc_and_deriv(0.5 * L0 * (k - k0))
        s_p, ds_p = sinc_and_deriv(0.5 * L0 * (k + k0))
        r = np.multiply(s_m, ds_p, out=ds_p)
        r -= np.multiply(s_p, ds_m, out=s_p)
        r *= 0.5 * m * L0 * L0 / (2.0 * math.pi)
        phi_p, phi_m = parity_phases(k, barrier)
        w = np.subtract(phi_p, phi_m, out=s_m)
        w = np.cos(w, out=w)
        w /= k
        r *= w
        theta = np.multiply(L0, k, out=ds_m)
        theta -= phi_p
        theta -= phi_m
        out = np.empty(k.shape, dtype=complex)
        np.multiply(r, np.sin(theta, out=phi_p), out=out.real)
        np.negative(out.real, out=out.real)
        np.multiply(r, np.cos(theta, out=phi_m), out=out.imag)
        return out

    k_hi = _window_edge(packet)
    return pv_integrate(g, 0.0, config, domain=(-k_hi, k_hi),
                        oscillation_length=2.0 * L0 + a, conj_even=True).real
