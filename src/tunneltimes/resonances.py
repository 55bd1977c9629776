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

_NEWTON_STEPS = 60
_POLISH_RTOL = 1e-12
_DEDUP_TOL = 1e-8
_SEED_DEPTH = -1e-3     # deepest Im k of a pole-index Newton seed
_MAX_INDICES = 256       # pole indices n spanned by the seeds
_WIND_SEGMENTS = 48      # initial samples per side of the winding contour
_WIND_LIFT = 0.05        # lowest top edge of a contour that reaches Im k >= 0
_WIND_MAX_EVALS = 200_000
_N_ENERGIES = 100        # real-axis samples of the remainder |G|
_N_PHASE = 600           # least uniform-k samples of the remainder phase check
_MAX_PHASE_SAMPLES = 1 << 16  # and the most
_MODULUS_TOL = 1e-6
_MAX_PHASE_STEP = 1.0
SEARCH_RECT = (0.5, 3.0, -1.0, 0.0)  # default (re_lo, re_hi, im_lo, im_hi)


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
    """Harvested poles plus the real energies where |G+-| = 1 is checked."""

    barrier: Barrier
    poles: tuple[ResonancePole, ...]
    energies: np.ndarray = field(repr=False)

    def poles_of(self, parity: str) -> list[ResonancePole]:
        return [p for p in self.poles if p.parity == parity]


def _check_rect(rect) -> tuple[float, float, float, float]:
    re_lo, re_hi, im_lo, im_hi = map(float, rect)
    if not (re_lo < re_hi and im_lo < im_hi):
        raise DomainError(
            f"search rectangle needs re_lo < re_hi and im_lo < im_hi, got {rect!r}")
    return re_lo, re_hi, im_lo, im_hi


def winding_count(barrier: Barrier, rect, parity: str) -> int:
    """Zeros of the parity denominator inside a rectangle by the argument
    principle (Ying & Katz 1988; Kravanja & Van Barel 2000).

    Each side starts as max(_WIND_SEGMENTS, ceil(|side| a/pi)) segments, at
    least one per pole spacing pi/a (48 along Re k in [0.5, 3] aliased to 76
    for 90 at a = 200), all four sides in one vector evaluation of W.
    Level by level, W is evaluated at the midpoint zm of every segment
    [z1, z2], all of a level's midpoints at once. A segment passes when
    |W(z2)/W(z1) - 1| <= 0.5 holds at two resolutions, for the segment and
    both its halves, and adds arg(W(zm)/W(z1)) + arg(W(z2)/W(zm)), each
    principal value at most pi/6; any other segment is split in two.
    Bounding the change of log W, modulus as well as phase, matters where
    a side passes close to zeros: at a = 60 arg W turns by 5.6-6.5 rad
    inside single initial segments along the real axis while their
    principal steps read 0.2-0.7 rad, so a cut on |Delta arg| alone
    (0.8 rad) counted 25 for 27; |W| changes enough there (|ratio - 1| =
    0.61-840) for the ratio rule to split them. A root just inside a side
    can turn arg W by nearly 2 pi along a segment whose end-point ratio
    passes (2mV = 0.25, a = 120 has one 6.8e-4 inside Re k = 0.5): one
    resolution counted 55 for 56 there. At most _WIND_MAX_EVALS points are
    evaluated.

    If im_hi >= 0 the top edge is walked at max(im_hi, _WIND_LIFT): V >= 0
    binds no state, so W+- has no zero with Im k > 0, and the lifted edge
    keeps clear of the resonances that thick barriers put ~2e-5 under the
    real axis (an edge on Im k = 0 counted 43 for 45 at a = 100).

    Raises
    ------
    DomainError
        For a parity other than '+'/'-' or an empty or reversed rectangle.
    NonConvergenceError
        If W is zero or overflows on the contour, the budget runs out, or the
        winding number is not within 0.25 of an integer.
    """
    if parity not in ("+", "-"):
        raise DomainError(f"parity must be '+' or '-', got {parity!r}")
    re_lo, re_hi, im_lo, im_hi = _check_rect(rect)
    if im_hi >= 0.0:
        im_hi = max(im_hi, _WIND_LIFT)
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi)]
    per_length = barrier.width / math.pi  # poles are ~pi/a apart along Re k
    sides = [(z1, z2, max(_WIND_SEGMENTS, abs(z2 - z1) * per_length))
             for z1, z2 in zip(corners, corners[1:] + corners[:1])]
    evals = 0

    def afford(n):
        if evals + n > _WIND_MAX_EVALS:
            raise NonConvergenceError("winding walk budget exhausted")

    def w_of(z):
        nonlocal evals
        afford(z.size)
        evals += z.size
        with np.errstate(over="ignore", invalid="ignore"):
            w = _w_terms(z, barrier, parity)[parity][1]  # the denominator W
        bad = z[(w == 0) | ~np.isfinite(w)]
        if bad.size:
            raise NonConvergenceError(f"winding contour: W is 0 or inf at k = {bad[0]:.6g}")
        return w

    afford(sum(n for _, _, n in sides) + 1)  # counted as floats before it is built
    z = np.concatenate([np.linspace(z1, z2, endpoint=False, num=math.ceil(n))
                        for z1, z2, n in sides] + [corners[:1]])
    w = w_of(z)
    z1, z2, w1, w2 = z[:-1], z[1:], w[:-1], w[1:]
    total = 0.0
    while z1.size:
        zm = 0.5 * (z1 + z2)
        wm = w_of(zm)
        r1, r2 = wm / w1, w2 / wm
        done = (np.all(np.abs(np.stack([w2 / w1, r1, r2]) - 1.0) <= 0.5, axis=0)
                | (np.abs(z2 - z1) < 1e-13))
        total += float(np.sum(np.angle(r1[done]) + np.angle(r2[done])))
        z1, zm, z2, w1, wm, w2 = (v[~done] for v in (z1, zm, z2, w1, wm, w2))
        z1, z2 = np.concatenate([z1, zm]), np.concatenate([zm, z2])
        w1, w2 = np.concatenate([w1, wm]), np.concatenate([wm, w2])
    n = total / (2.0 * math.pi)
    if not abs(n - np.rint(n)) <= 0.25:
        raise NonConvergenceError(f"winding number did not settle: {n}")
    return int(np.rint(n))


def _index_seeds(barrier: Barrier, rect) -> np.ndarray:
    """One Newton seed +-k_n + i d_n per pole index n.

    Above-barrier poles sit near k_n = sqrt(2mV + q_n^2), q_n = n pi/a, and
    their mirrors near -k_n (zeros of W+- pair as k, -conj(k)), at about the
    depth d_n = (q_n/(k_n a)) ln(2mV/(k_n + q_n)^2) of a Fabry-Perot line with
    edge reflection (k - q)/(k + q); seeds go no deeper than _SEED_DEPTH (at
    a = 200, d_1 = -2.467e-6 for the root 1.000123 - 2.47e-6 i). The seeds
    cover every n >= 1 whose +-k_n lies in [re_lo, re_hi], plus one index on
    each side. More than _MAX_INDICES indices raises NonConvergenceError
    before any seed is formed, as the index count grows with a and would
    otherwise size the Newton arrays. Within it, Barrier.is_free gets no
    seeds: W+ = k e^{-ika/2} and W- = i e^{-ika/2} have no zeros then.
    """
    a, two_mv = barrier.width, barrier.l0_sq
    spans = []
    for sign, lo, hi in ((1.0, rect[0], rect[1]), (-1.0, -rect[1], -rect[0])):
        if hi > 0.0:  # k * k overflows to inf where k ** 2 would raise
            spans.append((sign, *(a * math.sqrt(max(k * k - two_mv, 0.0)) / math.pi
                                  for k in (max(lo, 0.0), hi))))
    # both ends inf (k * k overflows): the count is inf, not inf - inf
    n_indices = sum(n_hi - n_lo if n_lo < math.inf else n_hi for _, n_lo, n_hi in spans)
    if not n_indices <= _MAX_INDICES:
        raise NonConvergenceError(
            f"pole search: {n_indices:.3g} pole indices in the rectangle, "
            f"more than the {_MAX_INDICES} allowed")
    if barrier.is_free:
        return np.empty(0, dtype=complex)
    seeds = []
    for sign, n_lo, n_hi in spans:
        q = np.arange(max(1, math.ceil(n_lo) - 1), math.floor(n_hi) + 2) * math.pi / a
        # k_n a = inf: depth 0; k_n = inf (q * q overflows): depth NaN
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            k_n = np.sqrt(two_mv + q * q)
            depth = q / (k_n * a) * np.log(two_mv / (k_n + q) ** 2)
        seeds.append(sign * k_n + 1j * np.maximum(depth, _SEED_DEPTH))
    return np.concatenate(seeds)


def _harvest(seeds: np.ndarray, barrier: Barrier, rect, parity: str):
    """Distinct roots of W_parity inside rect, sorted by real part.

    Each seed takes _NEWTON_STEPS Newton steps on W_parity, none longer than
    0.2. A root is kept when it lies inside rect and |W|/|W_numerator| <
    max(_POLISH_RTOL, 4 eps |k W'|/|W_numerator|). A candidate within
    max(_DEDUP_TOL, 4 eps |W_numerator|/|W'|) of an earlier kept root, the
    larger of the tolerance and that root's rounding radius, is a duplicate,
    so the first seed to reach a root represents it. Badly conditioned roots
    need the radius: at 2mV = 2e-12 two seeds settle on one root near
    Im k = -2 up to 3e-4 apart, within its radius of 5e-4 to 1.5e-3.

    The closing evaluation shares the Newton loop's errstate: a seed with no
    root nearby may overflow or turn NaN, and then fails the finiteness test
    without a warning.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = seeds
        for _ in range(_NEWTON_STEPS):
            _, W, dW = _w_terms(k, barrier, parity, slope=True)[parity]
            step = W / dW
            step = np.where(np.abs(step) > 0.2, 0.2 * step / np.abs(step), step)
            k = k - step
        Wn, W, dW = _w_terms(k, barrier, parity, slope=True)[parity]
        abs_wn = np.maximum(np.abs(Wn), 1e-300)
        cut = np.maximum(_POLISH_RTOL,
                         4.0 * np.finfo(float).eps * np.abs(k * dW) / abs_wn)
        margin = 1e-9
        keep = (
            (np.abs(W) / abs_wn < cut)
            & (k.real > re_lo + margin) & (k.real < re_hi - margin)
            & (k.imag > im_lo + margin) & (k.imag < im_hi - margin)
            & np.isfinite(k)
        )
        radius = np.maximum(_DEDUP_TOL, 4.0 * np.finfo(float).eps * abs_wn
                            / np.abs(dW))[keep]
    cand = k[keep]
    roots = []
    while cand.size:
        roots.append(complex(cand[0]))
        far = np.abs(cand - cand[0]) > radius[0]
        cand, radius = cand[far], radius[far]
    return sorted(roots, key=lambda z: (z.real, z.imag))


def find_poles(barrier: Barrier, search_rect) -> list[ResonancePole]:
    """All poles of F+ and F- inside a complex-k rectangle.

    The seeds are formed once (_index_seeds; a free barrier forms none and
    has no poles). Per parity, the Newton harvest (see _harvest: _NEWTON_STEPS
    damped steps, duplicates within a root's rounding radius dropped) is
    cross-checked against the argument-principle winding count, so a pole
    the seeds miss is a CountMismatchError, not a short list. A root is kept
    if its relative residual is below _POLISH_RTOL = 1e-12 or the rounding
    floor 4 eps |k W'|/|W_num| of W. Thick barriers stall at that floor:
    k ~ 1.000493 - 2.0e-5 i at a = 100 settles at 1.9e-12, and the floor
    there is ~2e-11; at the reference barrier it stays under 1e-12.

    Parameters
    ----------
    search_rect : (re_lo, re_hi, im_lo, im_hi)
        Must have re_lo < re_hi and im_lo < im_hi, and must not contain
        k = 0, where the energy map branches.

    Raises
    ------
    DomainError
        For a reversed or empty rectangle, or one containing k = 0.
    CountMismatchError
        If the Newton harvest disagrees with the winding count.
    NonConvergenceError
        Past _MAX_INDICES pole indices in the rectangle, or from winding_count.
    """
    rect = _check_rect(search_rect)
    re_lo, re_hi, im_lo, im_hi = rect
    if re_lo <= 0.0 <= re_hi and im_lo <= 0.0 <= im_hi:
        raise DomainError("search rectangle must exclude k = 0")
    seeds = _index_seeds(barrier, rect)
    if not seeds.size:
        return []

    out: list[ResonancePole] = []
    for parity in ("+", "-"):
        roots = _harvest(seeds, barrier, rect, parity)
        n_wind = winding_count(barrier, rect, parity)
        if n_wind != len(roots):
            raise CountMismatchError(
                f"parity {parity}: winding count {n_wind} != harvest {len(roots)}"
            )
        for z in roots:
            Wnz, Wz = _w_terms(z, barrier, parity)[parity]
            E = z * z / (2.0 * barrier.mass)
            gamma = -2.0 * E.imag
            out.append(ResonancePole(
                parity=parity, k_pole=z, E_pole=E, E_R=E.real, Gamma=gamma,
                lifetime=(1.0 / gamma if gamma > 0.0 else math.inf),
                residual=float(abs(Wz) / abs(Wnz))))
    return out


def reconstruct_amplitude(k, decomposition: ResonanceDecomposition, parity: str):
    """Pole-product factor prod_j (E - E_j*)/(E - E_j) at real wavenumber k.

    F is read on k > 0, so a mirror pole -conj(k_j) (Re k <= 0) enters as
    its reflection k_j, energy conj(E_j), unless that energy is listed
    already (within _DEDUP_TOL): a rectangle holding both k_j and its mirror
    would otherwise divide by the factor and its inverse.
    """
    k = np.asarray(k, dtype=float)
    E = k * k / (2.0 * decomposition.barrier.mass) + 0j
    poles = decomposition.poles_of(parity)
    energies = [p.E_pole for p in poles if p.k_pole.real > 0.0]
    for p in poles:
        e = p.E_pole.conjugate()
        if p.k_pole.real <= 0.0 and all(abs(e - f) > _DEDUP_TOL for f in energies):
            energies.append(e)
    prod = np.ones_like(E)
    for e in energies:
        prod = prod * (E - np.conj(e)) / (E - e)
    return prod


def _remainders(k, decomposition: ResonanceDecomposition):
    """[G+, G-] at real wavenumber k: each F over its pole-product factor."""
    F_p, F_m, _, _ = amplitude_grid(k, decomposition.barrier)
    return [F / reconstruct_amplitude(k, decomposition, parity)
            for F, parity in ((F_p, "+"), (F_m, "-"))]


def build_decomposition(
    barrier: Barrier, search_rect=SEARCH_RECT
) -> ResonanceDecomposition:
    """Harvest poles and fix the real energies of the remainder check."""
    poles = tuple(find_poles(barrier, search_rect))
    e_hi = 0.5 * max(map(abs, search_rect[:2])) ** 2 / barrier.mass * 0.9
    energies = np.linspace(0.02, e_hi, _N_ENERGIES)
    return ResonanceDecomposition(barrier, poles, energies)


def verify_remainder(decomposition: ResonanceDecomposition) -> dict:
    """Check |G| = 1 at the stored energies and that arg G is pole-free.

    Both checks evaluate G from the decomposition's own pole list.

    A conjugate-paired pole factor is unimodular on the real axis, so the
    modulus alone cannot reveal a spurious (or missing) entry in the pole
    list. A sharp bogus pole does, however, inject a localized ~pi phase
    swing. The phase test therefore walks a dense uniform-k sweep, where the
    smooth background advances arg G by only a fraction of a radian per step,
    and bounds the largest single-step increment. The background turns at
    about a per unit k, so the sweep takes 2 a (k_hi - k_lo) samples (0.5 rad
    per step), clipped to [_N_PHASE, _MAX_PHASE_SAMPLES].

    Returns a report dict with 'ok', 'max_modulus_error', 'max_phase_step'.
    """
    e = decomposition.energies
    m = decomposition.barrier.mass
    worst_mod = max(float(np.max(np.abs(np.abs(g) - 1.0)))
                    for g in _remainders(np.sqrt(2.0 * m * e), decomposition))
    k_lo = max(math.sqrt(2.0 * m * float(e.min())), 0.05)
    k_hi = math.sqrt(2.0 * m * float(e.max()))
    n = math.ceil(2.0 * decomposition.barrier.width * (k_hi - k_lo))
    ks = np.linspace(k_lo, k_hi, min(max(_N_PHASE, n), _MAX_PHASE_SAMPLES))
    worst_step = max(float(np.max(np.abs(np.angle(G[1:] / G[:-1]))))
                     for G in _remainders(ks, decomposition))
    return {
        "ok": worst_mod <= _MODULUS_TOL and worst_step <= _MAX_PHASE_STEP,
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
        d = E0 - p.E_R
        total += (1.0 / p.Gamma) * hw * hw / (d * d + hw * hw)
    return 2.0 * total


def remainder_delay(E0: float, decomposition: ResonanceDecomposition) -> float:
    """Remainder term (1/2) sum_parity d(arg G)/dE at E0, by Richardson FD."""
    m = decomposition.barrier.mass
    return 0.5 * _phase_slope(
        lambda es: _remainders(np.sqrt(2.0 * m * es), decomposition), E0)

