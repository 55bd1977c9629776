"""Resonance poles of the parity amplitudes, lifetimes, and the delay sum.

Poles of F+- are zeros of the entire functions

    W+(k) = k cosh(kappa a/2) + i kappa sinh(kappa a/2)
    W-(k) = k (a/2) sinhc(kappa a/2) + i cosh(kappa a/2)

(the parity-channel denominators with the nonvanishing exp factor stripped;
W- is additionally divided by kappa to remove a spurious zero at the barrier
top). Both are even in kappa, hence single-valued over the whole k plane, so
Newton iteration and argument-principle counting need no branch bookkeeping.

Each pole k_j maps to a complex energy E_j = k_j^2/(2m) = E_R - i Gamma/2 on
the sheet reached from Im k < 0; Gamma > 0 classifies it as a resonance with
lifetime 1/Gamma. On the real axis the amplitude factorizes into the product
of pole terms (E - E_j*)/(E - E_j) times a unimodular remainder G(E). Any
conjugate-paired factor has unit modulus for real E, so |G| = 1 cannot by
itself expose a wrong pole list; the remainder check therefore also bounds
the sampled phase increment of G, which a spurious (or missed) sharp pole
visibly disturbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CountMismatchError, DomainError, NonConvergenceError
from .phasetime import _phase_slope
from .scattering import Barrier, _w_terms, amplitude_grid
from .special import chi_w

_NEWTON_STEPS = 60
_POLISH_RTOL = 1e-13
_DEDUP_TOL = 1e-8


@dataclass(frozen=True)
class ResonancePole:
    """One pole of F_parity: location, energy, width, lifetime, residual."""

    parity: str            # '+' or '-'
    k_pole: complex
    E_pole: complex
    E_R: float
    Gamma: float
    lifetime: float
    residual: float        # |denominator| / |numerator| at the pole

    @property
    def is_resonance(self) -> bool:
        return self.Gamma > 0.0


@dataclass(frozen=True)
class ResonanceDecomposition:
    """Harvested poles plus real-axis samples of the remainder factor G+-."""

    barrier: Barrier
    poles: tuple[ResonancePole, ...]
    energies: np.ndarray = field(repr=False)
    remainder_phase: dict = field(repr=False)    # parity -> unwrapped arg G
    remainder_modulus: dict = field(repr=False)  # parity -> |G|

    def poles_of(self, parity: str) -> list[ResonancePole]:
        return [p for p in self.poles if p.parity == parity]


def _w_values(k, barrier: Barrier, parity: str):
    """(W, dW/dk, W_numerator) of parity channel '+' or '-', vectorized."""
    k, w_half, c, s, w = _w_terms(k, barrier)
    Wn, W = w[parity]
    a = barrier.width
    if parity == "+":
        dW = c - (a * a * k * k / 4.0) * s - 1j * (a * k / 2.0) * (s + c)
    else:
        dW = ((a / 2.0) * s
              - (a**3 * k * k / 8.0) * chi_w(w_half)
              - 1j * (a * a * k / 4.0) * s)
    return W, dW, Wn


def winding_count(barrier: Barrier, rect, parity: str,
                  n_init: int = 48, max_evals: int = 200_000) -> int:
    """Zeros of the parity denominator inside a rectangle via arg tracking.

    Walks the boundary, accumulating principal-value increments of
    arg W; any segment advancing the phase by more than ~0.8 rad is bisected.
    """
    if parity not in ("+", "-"):
        raise DomainError(f"parity must be '+' or '-', got {parity!r}")
    re_lo, re_hi, im_lo, im_hi = map(float, rect)
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi),
               complex(re_lo, im_lo)]
    evals = [0]

    def w_of(z):
        evals[0] += 1
        if evals[0] > max_evals:
            raise NonConvergenceError("winding walk budget exhausted")
        *_, w = _w_terms(z, barrier)
        return complex(w[parity][1])  # the denominator W

    total = 0.0
    for z1, z2 in zip(corners[:-1], corners[1:]):
        pts = np.linspace(z1, z2, n_init + 1)
        vals = [w_of(z) for z in pts]
        stack = list(zip(pts[:-1], pts[1:], vals[:-1], vals[1:]))
        stack.reverse()
        while stack:
            a1, a2, v1, v2 = stack.pop()
            if v1 == 0 or v2 == 0:
                raise NonConvergenceError("winding contour hit a zero")
            dphi = np.angle(v2 / v1)
            if abs(dphi) <= 0.8 or abs(a2 - a1) < 1e-13:
                total += dphi
                continue
            mid = 0.5 * (a1 + a2)
            vm = w_of(mid)
            stack.append((mid, a2, vm, v2))
            stack.append((a1, mid, v1, vm))
    n = total / (2.0 * math.pi)
    if abs(n - round(n)) > 0.25:
        raise NonConvergenceError(f"winding number did not settle: {n}")
    return int(round(n))


def find_poles(barrier: Barrier, search_rect, max_poles: int = 64,
               seed_step: float = 0.05) -> list[ResonancePole]:
    """All poles of F+ and F- inside a complex-k rectangle.

    Newton seeds sit on a uniform grid of the given step; each harvested
    root is deduplicated, kept only if its relative residual is below 1e-10,
    and the per-parity count is cross-checked against the argument-principle
    winding count.

    Parameters
    ----------
    search_rect : (re_lo, re_hi, im_lo, im_hi)
        Must not contain k = 0, where the energy map branches.

    Raises
    ------
    CountMismatchError
        If the Newton harvest disagrees with the winding count.
    """
    re_lo, re_hi, im_lo, im_hi = map(float, search_rect)
    if re_lo <= 0.0 <= re_hi and im_lo <= 0.0 <= im_hi:
        raise DomainError("search rectangle must exclude k = 0")
    m = barrier.mass
    res = np.arange(re_lo, re_hi + seed_step / 2, seed_step)
    ims = np.arange(im_lo, im_hi + seed_step / 2, seed_step)
    seeds = (res[:, None] + 1j * ims[None, :]).ravel()

    out: list[ResonancePole] = []
    for parity in ("+", "-"):
        k = seeds.copy()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(_NEWTON_STEPS):
                W, dW, _ = _w_values(k, barrier, parity)
                step = W / dW
                step = np.where(np.abs(step) > 0.2,
                                0.2 * step / np.abs(step), step)
                k = k - step
        W, _, Wn = _w_values(k, barrier, parity)
        resid = np.abs(W) / np.maximum(np.abs(Wn), 1e-300)
        margin = 1e-9
        keep = (
            (resid < _POLISH_RTOL)
            & (k.real > re_lo + margin) & (k.real < re_hi - margin)
            & (k.imag > im_lo + margin) & (k.imag < im_hi - margin)
            & np.isfinite(k)
        )
        roots: list[complex] = []
        for z in k[keep]:
            if all(abs(z - r) > _DEDUP_TOL for r in roots):
                roots.append(complex(z))
        roots.sort(key=lambda z: (z.real, z.imag))
        n_wind = winding_count(barrier, search_rect, parity)
        if n_wind != len(roots):
            raise CountMismatchError(
                f"parity {parity}: winding count {n_wind} != harvest {len(roots)}"
            )
        for z in roots:
            Wz, _, Wnz = _w_values(z, barrier, parity)
            E = z * z / (2.0 * m)
            gamma = -2.0 * E.imag
            out.append(ResonancePole(
                parity=parity,
                k_pole=z,
                E_pole=complex(E),
                E_R=E.real,
                Gamma=gamma,
                lifetime=(1.0 / gamma if gamma > 0.0 else math.inf),
                residual=float(abs(Wz) / abs(Wnz)),
            ))
    if len(out) > max_poles:
        raise NonConvergenceError(
            f"found {len(out)} poles, more than max_poles = {max_poles}"
        )
    return out


def reconstruct_amplitude(k, decomposition: ResonanceDecomposition, parity: str):
    """Pole-product factor prod_j (E - E_j*)/(E - E_j) at real wavenumber k."""
    k = np.asarray(k, dtype=float)
    E = k * k / (2.0 * decomposition.barrier.mass) + 0j
    prod = np.ones_like(E)
    for p in decomposition.poles_of(parity):
        prod = prod * (E - np.conj(p.E_pole)) / (E - p.E_pole)
    return prod


def _remainder(k, decomposition: ResonanceDecomposition, parity: str):
    F_p, F_m, _, _ = amplitude_grid(k, decomposition.barrier)
    F = F_p if parity == "+" else F_m
    return F / reconstruct_amplitude(k, decomposition, parity)


def build_decomposition(
    barrier: Barrier,
    search_rect=(0.5, 3.0, -1.0, 0.0),
    energies=None,
    n_samples: int = 100,
    max_poles: int = 64,
) -> ResonanceDecomposition:
    """Harvest poles and sample the remainder factor on the real energy axis."""
    poles = tuple(find_poles(barrier, search_rect, max_poles=max_poles))
    if energies is None:
        e_hi = 0.5 * search_rect[1] ** 2 / barrier.mass * 0.9
        energies = np.linspace(0.02, e_hi, n_samples)
    energies = np.asarray(energies, dtype=float)
    ks = np.sqrt(2.0 * barrier.mass * energies)
    dec = ResonanceDecomposition(
        barrier=barrier, poles=poles, energies=energies,
        remainder_phase={}, remainder_modulus={},
    )
    for parity in ("+", "-"):
        G = _remainder(ks, dec, parity)
        phase = np.angle(G[0]) + np.concatenate(
            ([0.0], np.cumsum(np.angle(G[1:] / G[:-1])))
        )
        dec.remainder_phase[parity] = phase
        dec.remainder_modulus[parity] = np.abs(G)
    return dec


def verify_remainder(decomposition: ResonanceDecomposition,
                     modulus_tol: float = 1e-6,
                     max_phase_step: float = 1.0,
                     n_phase: int = 600) -> dict:
    """Check |G| = 1 on the stored samples and that arg G is pole-free.

    A conjugate-paired pole factor is unimodular on the real axis, so the
    modulus alone cannot reveal a spurious (or missing) entry in the pole
    list. A sharp bogus pole does, however, inject a localized ~pi phase
    swing. The phase test therefore walks a dense uniform-k sweep, where the
    smooth background advances arg G by only a fraction of a radian per step,
    and bounds the largest single-step increment.

    Returns a report dict with 'ok', 'max_modulus_error', 'max_phase_step'.
    """
    worst_mod = 0.0
    for parity in ("+", "-"):
        worst_mod = max(worst_mod, float(np.max(np.abs(
            decomposition.remainder_modulus[parity] - 1.0))))
    e = decomposition.energies
    m = decomposition.barrier.mass
    k_lo = math.sqrt(2.0 * m * float(e.min()))
    k_hi = math.sqrt(2.0 * m * float(e.max()))
    ks = np.linspace(max(k_lo, 0.05), k_hi, n_phase)
    worst_step = 0.0
    for parity in ("+", "-"):
        G = _remainder(ks, decomposition, parity)
        steps = np.abs(np.angle(G[1:] / G[:-1]))
        worst_step = max(worst_step, float(np.max(steps)))
    return {
        "ok": worst_mod <= modulus_tol and worst_step <= max_phase_step,
        "max_modulus_error": worst_mod,
        "max_phase_step": worst_step,
    }


def lorentzian_delay(E0: float, decomposition: ResonanceDecomposition) -> float:
    """Lifetime-weighted Lorentzian sum over all harvested resonance poles:

        2 sum_j (1/Gamma_j) (Gamma_j/2)^2 / ((E0 - E_Rj)^2 + (Gamma_j/2)^2)
    """
    total = 0.0
    for p in decomposition.poles:
        if not p.is_resonance:
            continue
        hw = 0.5 * p.Gamma
        total += (1.0 / p.Gamma) * hw * hw / ((E0 - p.E_R) ** 2 + hw * hw)
    return 2.0 * total


def remainder_delay(E0: float, decomposition: ResonanceDecomposition) -> float:
    """Remainder term (1/2) sum_parity d(arg G)/dE at E0, by Richardson FD."""
    m = decomposition.barrier.mass

    def remainders(es):
        ks = np.sqrt(2.0 * m * es)
        return [_remainder(ks, decomposition, parity) for parity in ("+", "-")]

    return 0.5 * _phase_slope(remainders, E0)


__all__ = [
    "ResonancePole",
    "ResonanceDecomposition",
    "find_poles",
    "winding_count",
    "build_decomposition",
    "reconstruct_amplitude",
    "verify_remainder",
    "lorentzian_delay",
    "remainder_delay",
]
