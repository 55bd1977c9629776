"""Tunneling times, delay times and age differences for a 1-D square barrier.

Three independent routes to the same physics:

* closed forms assembled from the barrier phase time and the packet shape
  (:mod:`tunneltimes.closedform`, :mod:`tunneltimes.phasetime`),
* direct principal-value quadrature of the defining momentum-space integrals
  (:mod:`tunneltimes.quadrature`),
* time-domain wave-packet propagation with a flux-based arrival estimator
  (:mod:`tunneltimes.propagator`),

plus resonance-pole extraction and lifetime-weighted delay sums
(:mod:`tunneltimes.resonances`) and a CSV/JSON command-line driver
(:mod:`tunneltimes.cli`). Natural units, hbar = 1.
"""

from .closedform import TimeBudget, age_difference, budget_grid
from .errors import (
    CountMismatchError,
    DomainError,
    InsufficientFluxError,
    NonConvergenceError,
    TunnelTimesError,
    ValidityWarning,
)
from .phasetime import k_tau_limit, phase_time, phase_time_fd
from .propagator import (
    ArrivalRecord,
    GridSpec,
    empirical_delay,
    evolve,
    init_state,
    measure_arrival,
    suggest_grid,
)
from .quadrature import (
    QuadratureConfig,
    oracle_delay_B,
    oracle_inverse_velocity,
    oracle_tunneling_time,
    pv_integrate,
)
from .resonances import (
    ResonanceDecomposition,
    ResonancePole,
    build_decomposition,
    find_poles,
    lorentzian_delay,
    reconstruct_amplitude,
    remainder_delay,
    verify_remainder,
    winding_count,
)
from .scattering import Barrier, amplitude_grid
from .wavepacket import Packet, momentum_density

__version__ = "0.1.0"
