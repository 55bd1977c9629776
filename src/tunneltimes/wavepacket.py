"""Truncated plane-wave packets and their momentum-space amplitudes.

The incoming state lives on [-L0 - a/2, -a/2] and the outgoing state on
[a/2, L0 + a/2], both equal to exp(i k0 x)/sqrt(L0) on their support. In
momentum space the incoming state is f*(k - k0) with

    f*(q) = (1/sqrt(L0)) e^{i q a/2} (1 - e^{i q L0}) / (-i q),

and the outgoing state is the same amplitude translated by L0 + a, i.e.
times the phase e^{-i q (L0 + a)}. For real q this is the sinc form
f*(q) = sqrt(L0) e^{i q (a + L0)/2} S(q L0 / 2) with S(x) = sin(x)/x, so one
complex phase and the real pair (S, S') of sinc_and_deriv give f* and f*'.
The partner amplitude is f(q) = f*(-q) = conj(f*(q)), with derivative
-f*'(-q). |f(q)|^2 = L0 sinc^2(q L0 / 2) integrates to 2*pi: unit norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Below |x| = _SERIES_CUT, S'(x) = x sum_{n=1..7} (-1)^n 2n x^(2n-2)/(2n+1)!;
# the first omitted term is at most 48 * 0.5^14/17! = 8.2e-18 of the leading
# -x/3. Above it, (cos x - S)/x loses about 10 ulp (2e-15) to cancellation.
_SERIES_CUT = 0.5
_DS_COEFFS = [(-1) ** n * 2 * n / math.factorial(2 * n + 1) for n in range(1, 8)]


@dataclass(frozen=True)
class Packet:
    """Truncated plane wave with central wavenumber k0 > 0 and width L0 > 0."""

    k0: float
    L0: float

    def __post_init__(self):
        if not (math.isfinite(self.k0) and self.k0 > 0.0):
            raise DomainError(f"packet k0 must be finite and > 0, got {self.k0}")
        if not (math.isfinite(self.L0) and self.L0 > 0.0):
            raise DomainError(f"packet L0 must be finite and > 0, got {self.L0}")


def sinc(x):
    """S(x) = sin(x)/x as a real array, equal to 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    s = np.sin(x, out=np.empty_like(x))
    with np.errstate(invalid="ignore"):  # 0/0, patched below
        s /= x
    s[x == 0.0] = 1.0
    return s


def sinc_and_deriv(x):
    """(S(x), S'(x)) as real arrays, S(x) = sin(x)/x and S'(x) = (cos x - S)/x.

    S comes from sinc; S' takes one cos per argument, and |x| < _SERIES_CUT
    is patched afterwards.
    """
    x = np.asarray(x, dtype=float)
    s, ds = sinc(x), np.cos(x, out=np.empty_like(x))
    with np.errstate(invalid="ignore"):  # 0/0 at x = 0, patched below
        ds -= s
        ds /= x
    small = np.abs(x) < _SERIES_CUT
    xs = x[small]
    # Horner in x^2, as polyval does it, without polyval's per-call set-up
    xx, acc = xs * xs, np.full_like(xs, _DS_COEFFS[-1])
    for c in _DS_COEFFS[-2::-1]:
        acc *= xx
        acc += c
    ds[small] = xs * acc
    return s, ds


def f_amp_and_deriv(q, packet: Packet, barrier_width: float):
    """(f*(q), d f*/dq) as arrays at real offsets q = k - k0.

    With x = q L0/2, d f*/dq = sqrt(L0) e^{i q (a + L0)/2} (i (a + L0)/2 S(x)
    + (L0/2) S'(x)). DomainError for a q with a nonzero imaginary part.
    """
    q = np.atleast_1d(q)
    if np.any(np.imag(q)):
        raise DomainError("packet amplitude needs real offsets q, got a complex q")
    q, L0, a = np.real(q), packet.L0, barrier_width
    s, ds = sinc_and_deriv(0.5 * L0 * q)
    phase = math.sqrt(L0) * np.exp(0.5j * (a + L0) * q)
    return phase * s, phase * (0.5j * (a + L0) * s + 0.5 * L0 * ds)


def f_amp(q, packet: Packet, barrier_width: float):
    """Momentum amplitude f*(q) of the incoming state at offset q = k - k0."""
    val = f_amp_and_deriv(q, packet, barrier_width)[0]
    return complex(val[0]) if np.ndim(q) == 0 else val


def f_amp_deriv(q, packet: Packet, barrier_width: float):
    """Derivative d f*/dq of the incoming-state amplitude."""
    val = f_amp_and_deriv(q, packet, barrier_width)[1]
    return complex(val[0]) if np.ndim(q) == 0 else val


def momentum_density(q, packet: Packet):
    """|f(q)|^2 = L0 sinc^2(q L0 / 2); (1/2 pi) * its integral over q is 1."""
    s = sinc(0.5 * packet.L0 * np.asarray(q, dtype=float))
    val = packet.L0 * s * s
    return float(val) if val.ndim == 0 else val
