"""Phase time of the square barrier: closed form and finite-difference route.

The closed form is

    tau_ph(k) = (m/k) * [ l0^4 sinh(2 kappa a) + 2 a kappa k^2 (kappa^2 - k^2) ]
                / [ kappa * ( l0^4 sinh^2(kappa a) + 4 kappa^2 k^2 ) ],

with kappa = sqrt(2mV - k^2) and l0^2 = 2mV. Numerator and denominator share
an overall factor kappa^2 that cancels analytically; evaluated naively the
expression is 0/0 at the barrier top. Using u = kappa^2 = 2mV - k^2 (real for
real k, either sign) it reduces to the manifestly regular, even-in-kappa form

    tau_ph(k) = (m/k) * [ 8 a^3 l0^4 Psi(4 a^2 u) + 2 a (u + 3 k^2) ]
                / [ l0^4 a^2 Sc(a^2 u)^2 + 4 k^2 ],

where Sc(w) = sinh(sqrt(w))/sqrt(w) and Psi(w) = (Sc(w) - 1)/w. This is what
the complex-kappa evaluation produces once the imaginary parts cancel, so no
separate trig form is needed above the barrier and the value is real by
construction.

The independent route differentiates the parity phases. Since
T = (F+ - F-) e^{ika}/2 with unimodular F+-, the transmission phase is
theta = pi/2 + (theta+ + theta-)/2 + k a, so

    tau_ph = (m/k) (a + (1/2) sum_parity dtheta_parity/dk),

with each slope taken by Richardson-extrapolated central differences of
principal-value phase increments. Differentiating arg T directly would fail
in deep tunneling, where T is the difference of two nearly equal unimodular
amplitudes and its phase is rounding noise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .scattering import Barrier, amplitude_grid
from .special import psi_w, sinhc_w


def phase_time_grid(k, barrier: Barrier):
    """Vectorized closed-form phase time; defined for any real k != 0.

    Odd in k: tau_ph(-k) = -tau_ph(k). With no barrier (Barrier.is_free) the
    transmission phase is exactly k*a and tau_ph = m a / k. Where the closed
    form overflows (kappa a >~ 345) it returns the Hartman limit 2m/(k kappa).
    """
    k = np.asarray(k, dtype=float)
    if np.any(k == 0.0):
        raise DomainError("phase time is singular at k = 0")
    m, a = barrier.mass, barrier.width
    if barrier.is_free:
        return m * a / k
    l0_sq = np.float64(barrier.l0_sq)    # its square overflows to inf, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.float64(a)                # and so does its cube
        u = l0_sq - k * k
        num = 8.0 * a**3 * l0_sq**2 * psi_w(4.0 * a * a * u) + 2.0 * a * (u + 3.0 * k * k)
        s = sinhc_w(a * a * u)
        den = l0_sq**2 * a * a * s * s + 4.0 * k * k
        tau = (m / k) * num / den
        thick = ~(np.isfinite(tau) & np.isfinite(den)) & (u > 0.0)
        if thick.any():
            # e^{2 kappa a} overflows there, and tau_ph has long reached
            # the Hartman limit 2m/(k kappa); at and above the top an
            # overflowing form (a^3 past the float range) stays NaN
            tau = np.where(thick, 2.0 * m / (k * np.sqrt(np.where(thick, u, 1.0))), tau)
    return tau


def phase_time(k: float, barrier: Barrier) -> float:
    """Closed-form phase time tau_ph(k) for k > 0; DomainError for k <= 0."""
    if k <= 0.0:
        raise DomainError(f"phase time needs k > 0, got {k}")
    return float(phase_time_grid(k, barrier))


def k_tau_limit(barrier: Barrier) -> float:
    """The finite limit [k * tau_ph(k)] at k = 0.

    Equals (m/kappa0) sinh(2 kappa0 a)/sinh^2(kappa0 a) = 2m/(kappa0 tanh(kappa0 a))
    with kappa0 = sqrt(2mV). Requires a barrier (not Barrier.is_free).
    """
    if barrier.is_free:
        raise DomainError("k*tau limit needs a barrier with 2mV*a > 0")
    k0 = barrier.kappa0
    return 2.0 * barrier.mass / (k0 * math.tanh(k0 * barrier.width))


def _phase_slope(values, x: float) -> float:
    """Summed Richardson slope d(arg v)/dx at x > 0 of unimodular values.

    values maps an array of abscissae to a sequence of complex arrays, one
    per channel, and is called once at x +- h and x +- h/2 with
    h = min(max(5e-5, 1e-8/x), 0.49 x). Phase increments are principal values
    of arg(v(x+step)/v(x-step)), so no unwrapping is needed as long as
    h * slope < pi.
    """
    if x <= 0.0:
        raise DomainError(f"needs a positive abscissa, got {x}")
    h = min(max(5e-5, 1e-8 / x), 0.49 * x)
    v = np.asarray(values(x + np.array([h, -h, h / 2.0, -h / 2.0])))
    d1 = np.angle(v[:, 0] / v[:, 1]) / (2.0 * h)
    d2 = np.angle(v[:, 2] / v[:, 3]) / h
    return float(np.sum((4.0 * d2 - d1) / 3.0))


def phase_time_fd(k: float, barrier: Barrier) -> float:
    """Phase time (m/k) (a + (1/2) sum_parity dtheta_parity/dk) by differences.

    Differentiates the unimodular parity amplitudes F+- rather than T, whose
    phase drowns in rounding noise once |T| ~ e^{-kappa a}.
    """
    slope = _phase_slope(lambda ks: amplitude_grid(ks, barrier)[:2], k)
    return (barrier.mass / k) * (barrier.width + 0.5 * slope)
