"""Truncated plane-wave packets and their momentum-space amplitudes.

The incoming state lives on [-L0 - a/2, -a/2] and the outgoing state on
[a/2, L0 + a/2], both equal to exp(i k0 x)/sqrt(L0) on their support. In
momentum space the incoming state is f*(k - k0) with

    f*(q) = (1/sqrt(L0)) e^{i q a/2} (1 - e^{i q L0}) / (-i q),

and the outgoing state is the same amplitude translated by L0 + a, i.e.
times the phase e^{-i q (L0 + a)}. For real q the partner amplitude is
f(q) = f*(-q) = conj(f*(q)), with derivative -f*'(-q). The modulus squared
|f(q)|^2 = L0 sinc^2(q L0 / 2) integrates to 2*pi, i.e. the states are unit
normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Below this |q|*L0 the oscillatory quotient switches to a 3-term Taylor form.
_TAYLOR_CUT = 1e-6


@dataclass(frozen=True)
class Packet:
    """Truncated plane wave with central wavenumber k0 > 0 and width L0 > 0."""

    k0: float
    L0: float

    def __post_init__(self):
        if self.k0 <= 0.0:
            raise DomainError(f"packet k0 must be > 0, got {self.k0}")
        if self.L0 <= 0.0:
            raise DomainError(f"packet L0 must be > 0, got {self.L0}")


def _expm1_complex(z):
    """e^z - 1 without cancellation: expm1/cos/sin pieces assembled exactly."""
    x, y = z.real, z.imag
    return (np.expm1(x) * np.cos(y) - 2.0 * np.sin(y / 2.0) ** 2
            + 1j * np.exp(x) * np.sin(y))


def _quot(z):
    """(e^z - 1)/z with a 3-term series below the cancellation cutoff."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(z)
    small = np.abs(z) < _TAYLOR_CUT
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs * zs / 6.0
    zb = z[~small]
    out[~small] = _expm1_complex(zb) / zb
    return out


def _quot_deriv(z):
    """d/dz[(e^z - 1)/z] = ((z - 1)e^z + 1)/z^2, series-stabilized for small z."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(z)
    small = np.abs(z) < 0.25
    zs = z[small]
    acc = np.zeros_like(zs)
    # sum_{n>=1} n z^{n-1} / (n+1)! = 1/2 + z/3 + z^2/8 + z^3/30 + ...
    for c in reversed([1 / 2.0, 1 / 3.0, 1 / 8.0, 1 / 30.0, 1 / 144.0,
                       1 / 840.0, 1 / 5760.0, 1 / 45360.0]):
        acc = acc * zs + c
    out[small] = acc
    zb = z[~small]
    out[~small] = ((zb - 1.0) * np.exp(zb) + 1.0) / (zb * zb)
    return out


def f_amp_and_deriv(q, packet: Packet, barrier_width: float):
    """(f*(q), d f*/dq) as arrays at offsets q = k - k0.

    f*(q) = (1/sqrt(L0)) e^{i q a/2} (1 - e^{i q L0})/(-i q), with the q -> 0
    limit sqrt(L0) taken analytically. Both share the phase e^{i q a/2} and
    the quotient, which the oscillatory delay integrand needs at once.
    """
    q = np.atleast_1d(np.asarray(q, dtype=complex))
    L0, a = packet.L0, barrier_width
    z = 1j * q * L0
    phase = np.exp(1j * q * a / 2.0)
    quot = _quot(z)
    root = math.sqrt(L0)
    f = phase * root * quot
    df = phase * (root * (quot * (1j * a / 2.0) + _quot_deriv(z) * 1j * L0))
    return f, df


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
    q = np.asarray(q, dtype=float)
    s = np.sinc(q * packet.L0 / (2.0 * math.pi))
    val = packet.L0 * s * s
    return float(val) if val.ndim == 0 else val
