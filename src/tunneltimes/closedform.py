"""Closed-form time budget of a packet crossing the square barrier.

All quantities for one (barrier, packet) pair, assembled from shared
subexpressions so the two decompositions

    t_age = t0 + dtau_A + dtau_B        (free age difference + barrier delays)
    t_age = t_tunnel + t_outside        (inside / outside split)

agree to rounding. One array kernel evaluates them: budget_grid() over a
whole (k0, L0) grid, age_difference() for one packet as Python scalars.
Every quantity is a field of the returned TimeBudget. The building blocks,
with x = k0 * L0 and the phase time tau_ph(k0):

    v_inv     = (m/k0) (1 - sin(x)/x)                     average slowness
    t0        = (L0 + a) v_inv                            no-barrier age difference
    t_tunnel  = tau_ph(k0) - sin(x)/(k0^2 L0) [k tau]_0   packet-averaged phase time
    t_outside = (m/k0) L0 (1 - sinc^2(x/2))               time spent outside
    dtau_A    = t_tunnel  - a  v_inv
    dtau_B    = t_outside - L0 v_inv

The sin(x) term of t_tunnel and the -(m/k0) L0 sinc^2(x/2) deficit of
t_outside are the continuum-edge (k = 0) contributions, bp_tunnel_term and
bp_outside_term; both are <= 0 for x in (0, pi). They die out for
k0 L0 >> 1 and dominate for k0 L0 ~ 1, which is what makes the tunneling
time depend on the packet size near zero momentum.

The closed forms neglect residue corrections of the scattering amplitudes;
validity_ratio is m V a L0 and valid gates on it (threshold 50, inclusive).
Passing the gate does not make the neglected terms small: at m V a L0 = 75
(k0 = 0.5, L0 = 150) t_tunnel sits 1.6e-2 under oracle_tunneling_time for
a = 1 and 2.7e-2 under it for 2mV = 100, a = 0.01. Both gaps are the
Hilbert-partner term lambda'(k0)/L0, lambda(k) = (m/k) d ln(|T|/k)/dk,
which this form leaves out.
Outside the gate a ValidityWarning is issued but values are still returned,
so parameter sweeps toward a -> 0 stay usable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidityWarning
from .phasetime import k_tau_limit, phase_time_grid
from .scattering import Barrier
from .wavepacket import Packet, sinc

VALIDITY_THRESHOLD = 50.0


@dataclass(frozen=True)
class TimeBudget:
    """Every closed-form time for one (k0, L0) point, natural units.

    age_difference() fills it with Python scalars; budget_grid() fills
    every field with an array of the broadcast shape of k0 and L0.
    """

    k0: float
    L0: float
    tau_ph: float
    v_inv: float
    t0: float
    dtau_A: float
    dtau_B: float
    t_tunnel: float
    t_outside: float
    t_age: float
    bp_tunnel_term: float
    bp_outside_term: float
    validity_ratio: float
    valid: bool


def _budget(k0, L0, barrier: Barrier) -> TimeBudget:
    """The budget from shared subexpressions, broadcast over k0 and L0.

    With no barrier (Barrier.is_free) the parity amplitudes are exactly +-1, both
    delays vanish identically and the inside/outside times reduce to the free
    values a*v_inv and L0*v_inv; the barrier formulas (which assume total
    reflection at k = 0) do not apply there. A branch-point term that is not
    finite (just inside that edge, or where k0^2 L0 underflows) raises
    DomainError.
    """
    k0 = np.asarray(k0, dtype=float)
    L0 = np.asarray(L0, dtype=float)
    m, a = barrier.mass, barrier.width
    if np.any(k0 <= 0.0):
        raise DomainError(f"needs k0 > 0, got {k0.min()}")
    if np.any(L0 <= 0.0):
        raise DomainError(f"needs L0 > 0, got {L0.min()}")
    x = k0 * L0
    # m/k0 = inf at a subnormal k0, and m V a L0 = inf at L0 near the float max
    with np.errstate(over="ignore", invalid="ignore"):
        v = (m / k0) * (1.0 - sinc(x))
        ratio = barrier.mass * barrier.height * barrier.width * L0
    tau = phase_time_grid(k0, barrier)
    if barrier.is_free:
        t_tun = a * v
        t_out = L0 * v
        bp_tunnel = t_tun - tau
        bp_outside = t_out - (m / k0) * L0
    else:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            bp_tunnel = -np.sin(x) / (k0 * k0 * L0) * k_tau_limit(barrier)
        # [k tau]_0 ~ 1/(m V a) just inside the free edge; k0^2 L0 may underflow to 0
        if not np.all(np.isfinite(bp_tunnel)):
            raise DomainError(
                f"branch-point term overflows at 2mV a = {barrier.l0_sq * a:.6g}")
        half = sinc(x / 2.0)
        bp_outside = -(m / k0) * L0 * half * half
        t_tun = tau + bp_tunnel
        t_out = (m / k0) * L0 + bp_outside
    a_v = a * v
    l_v = L0 * v
    k0, L0, tau, ratio = np.broadcast_arrays(k0, L0, tau, ratio)
    _warn_if_invalid(ratio)
    return TimeBudget(
        k0=k0,
        L0=L0,
        tau_ph=tau,
        v_inv=v,
        t0=a_v + l_v,
        dtau_A=t_tun - a_v,
        dtau_B=t_out - l_v,
        t_tunnel=t_tun,
        t_outside=t_out,
        t_age=t_tun + t_out,
        bp_tunnel_term=bp_tunnel,
        bp_outside_term=bp_outside,
        validity_ratio=ratio,
        valid=ratio >= VALIDITY_THRESHOLD,
    )


def _warn_if_invalid(ratio) -> None:
    # Exactly zero barrier area means the exact free reduction, not a
    # breakdown of the neglected-residue approximation; no warning there.
    ratio = np.asarray(ratio)
    low = ratio[(ratio < VALIDITY_THRESHOLD) & (ratio > 0.0)]
    if low.size:
        warnings.warn(
            f"m*V*a*L0 = {low.min():.3g} < {VALIDITY_THRESHOLD:g}: closed forms "
            "neglect amplitude-pole residues that are not small here",
            ValidityWarning,
            stacklevel=4,  # the caller of budget_grid or age_difference
        )


def budget_grid(k0, L0, barrier: Barrier) -> TimeBudget:
    """Full closed-form budget over a grid, every field broadcast over k0 and L0.

    Raises DomainError if any k0 <= 0 or L0 <= 0. Emits one ValidityWarning per call
    when m*V*a*L0 is below the gate anywhere; the values are still returned.
    """
    return _budget(k0, L0, barrier)


def age_difference(packet: Packet, barrier: Barrier) -> TimeBudget:
    """Full closed-form budget of one packet, every field a Python scalar.

    Both decompositions hold by construction. Emits ValidityWarning when
    m*V*a*L0 is below the gate; the values are still returned.
    """
    tb = _budget(packet.k0, packet.L0, barrier)
    return TimeBudget(**{name: val.item() for name, val in vars(tb).items()})
