"""Square-barrier scattering amplitudes on the real axis, and W+- off it.

Natural units with hbar = 1 throughout the package. The potential is V on
|x| <= a/2 and zero outside. The decay constant inside the barrier is

    kappa = sqrt(2 m V - k**2),

taken positive real below the barrier top and +i*sqrt(k**2 - 2 m V) above it,
so sinh(kappa*a) continues smoothly into i*sin(|kappa|*a).

The parity amplitudes are

    F+-(k) = exp(-i k a) * [(1 +- e)k - i(1 -+ e)kappa] / [(1 +- e)k + i(1 -+ e)kappa],

with e = exp(-kappa*a). They are unimodular for real k, obey
F+-(-k) = conj(F+-(k)), and recombine into the reflection and transmission
coefficients through R = (F+ + F-) e^{ika}/2 and T = (F+ - F-) e^{ika}/2.
Although kappa itself has branch points at k**2 = 2 m V, the amplitudes are
even in kappa and therefore single-valued in k; any square-root branch gives
the same F+-.

The amplitudes are evaluated on the real axis only, and both entries refuse complex k:
amplitude_grid gives F+-, R and T, and parity_phases gives F+- in real arithmetic and
never overflows: below the top it scales W+- by 1/cosh(kappa a/2) (Hartman, J. Appl.
Phys. 33 (1962) 3427). Off the axis only the W+- of _w_terms are needed: their zeros
are the resonance poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import even_kernels


@dataclass(frozen=True)
class Barrier:
    """Square barrier of height V and width a for a particle of mass m.

    Attributes
    ----------
    height : float
        Barrier height V >= 0 (energy, natural units).
    width : float
        Barrier width a >= 0.
    mass : float
        Particle mass m > 0.
    """

    height: float
    width: float
    mass: float = 1.0

    def __post_init__(self):
        for name in ("height", "width", "mass"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"barrier {name} must be finite, got {value}")
        if self.height < 0.0:
            raise DomainError(f"barrier height must be >= 0, got {self.height}")
        if self.width < 0.0:
            raise DomainError(f"barrier width must be >= 0, got {self.width}")
        if self.mass <= 0.0:
            raise DomainError(f"mass must be > 0, got {self.mass}")
        if not math.isfinite(self.l0_sq):
            raise DomainError(f"2mV overflows for V = {self.height}, m = {self.mass}")

    @property
    def is_free(self) -> bool:
        """No barrier: 2mV a == 0 (F+- = +-1 exactly), an underflowing 2mV included."""
        return self.l0_sq * self.width == 0.0

    @property
    def l0_sq(self) -> float:
        """2 m V, the squared wavenumber scale of the barrier top."""
        return 2.0 * self.mass * self.height

    @property
    def kappa0(self) -> float:
        """sqrt(2 m V), the k -> 0 limit of kappa."""
        return math.sqrt(self.l0_sq)

    @classmethod
    def from_two_mv(cls, two_mv: float, width: float, mass: float = 1.0) -> "Barrier":
        """Build a barrier specified by 2 m V (the common figure convention)."""
        return cls(height=two_mv / (2.0 * mass), width=width, mass=mass)


def _w_terms(k, barrier: Barrier, parities="+-", slope=False):
    """The W+- numerators and denominators of the given parities, vectorized.

    The half-width forms scale numerator and denominator of the plain
    exponential expression by e^{kappa a/2}, and by 1/kappa for the odd
    channel: they are even in kappa, so no branch choice enters, and they
    stay regular at the barrier top where the raw expression degrades to 0/0.
    With c = cosh(kappa a/2) and s = sinhc(kappa a/2),

        W+ = k c +- i kappa sinh(kappa a/2),   W- = k (a/2) s +- i c,

    the + sign giving the denominators. k may be real or complex, scalar or
    array. Returns {parity: (num, den)} from one special.even_kernels pass;
    with slope, {parity: (num, den, d den/dk)}, the odd slope taking
    chi = (c - s)/(kappa a/2)^2 from the same pass.
    """
    k = np.asarray(k, dtype=complex)
    a = barrier.width
    u = barrier.l0_sq - k * k            # kappa^2
    names = ("cosh", "sinhc", "chi") if slope and "-" in parities else ("cosh", "sinhc")
    kern = even_kernels(u * a * a / 4.0, names)
    c, s = kern["cosh"], kern["sinhc"]
    w = {}
    if "+" in parities:
        kc = k * c
        ks = u * (a / 2.0) * s           # kappa * sinh(kappa a / 2)
        w["+"] = (kc - 1j * ks, kc + 1j * ks)
        if slope:
            w["+"] += (c - (a * a * k * k / 4.0) * s - 1j * (a * k / 2.0) * (s + c),)
    if "-" in parities:
        kas = k * (a / 2.0) * s
        w["-"] = (kas - 1j * c, kas + 1j * c)
        if slope:
            w["-"] += ((a / 2.0) * s - (a**3 * k * k / 8.0) * kern["chi"]
                       - 1j * (a * a * k / 4.0) * s,)
    return w


def amplitude_grid(k, barrier: Barrier):
    """Vectorized F+, F-, R, T at real k, scalar or array; DomainError for complex k.

    parity_phases is the other real-axis entry. Phases are best read from the
    unimodular F+- = e^{i theta+-}: the transmission phase follows as
    theta = pi/2 + (theta+ + theta-)/2 + k a (mod pi), whereas arg T itself
    is rounding noise once |T| ~ e^{-kappa a}, and undefined where T = 0.
    W+- != 0 for real k != 0, so there is no pole to meet; the resonance
    poles are zeros of W+- off the axis, where _w_terms serves the pole
    search. Where a W+- denominator reaches 1e300 in magnitude, F+- take
    their e^{-kappa a} = 0 limit, e^{-ika}(k - i kappa)/(k + i kappa).
    """
    if np.iscomplexobj(k):
        raise DomainError("amplitude_grid takes real k; off the axis use _w_terms")
    k = np.asarray(k, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        w = _w_terms(k, barrier)
        # num/den reads 0, then inf/inf, near overflow; e^{-kappa a} < 1e-600 there
        thick = ~(np.abs(w["+"][1]) < 1e300) | ~(np.abs(w["-"][1]) < 1e300)
        phase = np.exp(-1j * k * barrier.width)
        F_p, F_m = (phase * num / den for num, den in w.values())
    if np.any(thick):
        kappa = np.sqrt(barrier.l0_sq - k * k + 0j)
        F_thick = phase * (k - 1j * kappa) / (k + 1j * kappa)
        F_p, F_m = np.where(thick, F_thick, F_p), np.where(thick, F_thick, F_m)
    back = np.conj(phase) / 2.0           # 1/(2 e^{-ika}) on the real axis
    return F_p, F_m, (F_p + F_m) * back, (F_p - F_m) * back


def parity_phases(k, barrier: Barrier):
    """Real-axis parity phases (phi+, phi-), F+- = e^{-ika} e^{-2i phi+-}.

    phi+- = arg of the W+- denominator. With u = 2mV - k^2, z = sqrt(|u|) a/2,
    below the top (u >= 0, W+- divided by cosh z) they are arg(k + i kappa tanh z)
    and arg(k (a/2) tanh(z)/z + i); above it arg(k cos z + i u (a/2) sin(z)/z)
    and arg(k (a/2) sin(z)/z + i cos z). W+- != 0 for real k != 0, so there is
    no pole check or thick branch. phi(-k) = -phi(k) mod pi; DomainError for complex k.
    """
    if np.iscomplexobj(k):
        raise DomainError("parity_phases takes real k; off the axis use _w_terms")
    k = np.asarray(k, dtype=float)
    # raveled so that even a 0-d k gives arrays the steps below can overwrite:
    # a block-sized temporary kept alive costs more in page faults than its
    # arithmetic
    shape, k = k.shape, k.ravel()
    a, u = barrier.width, barrier.l0_sq - k * k
    with np.errstate(over="ignore"):      # z = inf is fine; rounded as in amplitude_grid
        z = np.sqrt(np.abs(u * a * a / 4.0))
    below, zero = u >= 0.0, z == 0.0
    y = np.where(below, 0.0, z)           # the trig argument, 0 below the top
    # t = (a/2) tanh(z)/z (sin above the top), a/2 at z = 0, finite where z overflows
    t = np.tanh(z, out=z)
    np.copyto(t, np.sin(y), where=~below)
    root = np.sqrt(np.abs(u))
    root[zero] = 1.0
    t /= root
    t[zero] = 0.5 * a
    c = np.cos(y, out=y)
    phi_p = np.arctan2(np.multiply(u, t, out=u), np.multiply(k, c, out=root), out=u)
    phi_m = np.arctan2(c, np.multiply(k, t, out=t), out=t)
    # [()] makes a 0-d k give scalars, as arctan2 of 0-d arrays does
    return phi_p.reshape(shape)[()], phi_m.reshape(shape)[()]
