import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from tunneltimes.closedform import age_difference
from tunneltimes.errors import (
    DomainError,
    ImaginaryResidueError,
    NonConvergenceError,
)
import tunneltimes.quadrature as quadrature
from tunneltimes.quadrature import (
    QuadratureConfig,
    _check_real,
    oracle_delay_B,
    oracle_inverse_velocity,
    oracle_tunneling_time,
    pv_integrate,
)
from tunneltimes.scattering import Barrier
from tunneltimes.wavepacket import Packet, momentum_density


class TestPvIntegrate:
    def test_odd_integrand_vanishes(self):
        val = pv_integrate(lambda k: 1.0 / k + 0j, [0.0],
                           domain=(-2.0, 2.0))
        assert abs(val) < 1e-12

    def test_oscillatory_cauchy_kernel(self):
        # PV int e^{ikL}/k over [-K, K] equals 2i Si(KL); -> i pi as K grows
        L, K = 10.0, 40.0
        val = pv_integrate(lambda k: np.exp(1j * k * L) / k, [0.0],
                           domain=(-K, K), oscillation_length=L)
        expect = 2j * sici(K * L)[0]
        assert val == pytest.approx(expect, abs=1e-6)
        assert abs(val - 1j * math.pi) < 2.5 / (K * L)

    def test_oscillatory_cauchy_kernel_in_blocks(self):
        # 2K/(pi/L) = 5093 first-level panels: more than one block each level
        L, K = 200.0, 40.0
        sizes = []

        def f(k):
            sizes.append(k.size)
            return np.exp(1j * k * L) / k

        val = pv_integrate(f, [0.0], domain=(-K, K), oscillation_length=L)
        expect = 2j * sici(K * L)[0]
        assert val == pytest.approx(expect, abs=1e-6)
        assert abs(val - 1j * math.pi) < 2.5 / (K * L)
        assert max(sizes) <= 30 * quadrature._BLOCK_PANELS
        assert sum(sizes) >= 30 * 5093

    def test_smooth_gaussian(self):
        val = pv_integrate(lambda k: np.exp(-(k * k)) + 0j, [],
                           domain=(-6.0, 6.0))
        expect, _ = quad(lambda k: math.exp(-k * k), -6.0, 6.0)
        assert val.real == pytest.approx(expect, rel=1e-9)
        assert val.imag == 0.0

    def test_asymmetric_window_log_terms(self):
        # PV int 1/k over [-1, e] = 1 exactly
        val = pv_integrate(lambda k: 1.0 / k + 0j, [0.0],
                           domain=(-1.0, math.e))
        assert val.real == pytest.approx(1.0, rel=1e-9)

    def test_explicit_residues_accepted(self):
        val = pv_integrate(lambda k: 3.0 / k + 0j, [0.0], residues=[3.0],
                           domain=(-2.0, 2.0))
        assert abs(val) < 1e-12

    def test_determinism(self, barrier):
        p = Packet(0.7, 150.0)
        v1 = oracle_tunneling_time(p, barrier)
        v2 = oracle_tunneling_time(p, barrier)
        assert v1 == v2

    def test_budget_exhaustion(self):
        cfg = QuadratureConfig(max_panels=20, rel_tol=1e-9)
        with pytest.raises(NonConvergenceError):
            pv_integrate(lambda k: np.exp(40j * k) / (k * k + 1e-6), [],
                         cfg, domain=(-30.0, 30.0), oscillation_length=40.0)

    def test_budget_failure_names_where_it_stalled(self):
        # a spike of width 1e-10 at k = 0.3 cannot be resolved in 200 panels
        cfg = QuadratureConfig(max_panels=200)
        with pytest.raises(NonConvergenceError) as info:
            pv_integrate(lambda k: 1.0 / ((k - 0.3) ** 2 + 1e-20) + 0j, [],
                         cfg, domain=(-1.0, 2.0))
        msg = str(info.value)
        assert "max_panels=200" in msg
        found = re.search(r"refinement level (\d+): (\d+) unresolved panels "
                          r"span k in \[(\S+), (\S+)\]", msg)
        assert found, msg
        level, count = int(found[1]), int(found[2])
        k_lo, k_hi = float(found[3]), float(found[4])
        assert level >= 1
        assert 0 < count <= 200
        assert -1.0 <= k_lo < 0.3 < k_hi <= 2.0
        assert k_hi - k_lo < 0.1

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(rel_tol=0.5)

    def test_realness_guard(self):
        with pytest.raises(ImaginaryResidueError):
            _check_real(1.0 + 1e-3j, "test quantity")
        assert _check_real(2.0 + 1e-12j, "test quantity") == 2.0


class TestCauchyReference:
    @pytest.mark.parametrize("k0, l0", [(0.7, 150.0), (0.3, 150.0),
                                        (1.1, 300.0)])
    def test_inverse_velocity_matches_qawc(self, barrier, k0, l0):
        # QUADPACK's Cauchy-weight rule (QAWC) takes the PV of f(k)/k by its
        # own modified Clenshaw-Curtis scheme, with no residue subtraction.
        p = Packet(k0, l0)
        cfg = QuadratureConfig()
        k_hi = k0 + max(cfg.window_half_width, 40.0 * math.pi / l0)

        def density(k):
            return barrier.mass / (2.0 * math.pi) * momentum_density(k - k0, p)

        ref, _ = quad(density, -k_hi, k_hi, weight="cauchy", wvar=0.0,
                      limit=4 * int(k_hi * l0), epsabs=0.0, epsrel=1e-12)
        assert oracle_inverse_velocity(p, barrier, cfg) == pytest.approx(
            ref, rel=1e-9)


class TestOracles:
    def test_inverse_velocity_reference(self, barrier):
        p = Packet(1.0, 150.0)
        assert oracle_inverse_velocity(p, barrier) == pytest.approx(
            age_difference(p, barrier).v_inv, rel=1e-3
        )

    def test_inverse_velocity_sine_node(self, barrier):
        k0 = math.pi / 150.0
        p = Packet(k0, 150.0)
        assert oracle_inverse_velocity(p, barrier) == pytest.approx(
            1.0 / k0, rel=1e-3
        )

    def test_window_doubling_stable(self, barrier):
        p = Packet(1.0, 150.0)
        v1 = oracle_inverse_velocity(p, barrier, QuadratureConfig())
        v2 = oracle_inverse_velocity(
            p, barrier, QuadratureConfig(window_half_width=16.0))
        assert abs(v2 - v1) <= QuadratureConfig().rel_tol * abs(v1)

    def test_tunneling_time_resonance_region(self, barrier):
        from tunneltimes.phasetime import phase_time

        p = Packet(1.1, 150.0)
        gap = abs(oracle_tunneling_time(p, barrier)
                  - age_difference(p, barrier).t_tunnel)
        assert gap <= 0.05 * phase_time(1.1, barrier)

    def test_tunneling_time_branch_regime(self, barrier):
        # at k0 = 0.01 the deviation from tau_ph(k0) is packet-induced; the
        # oracle reproduces the closed-form deviation within 5%
        from tunneltimes.phasetime import phase_time

        p = Packet(0.01, 150.0)
        tau = phase_time(0.01, barrier)
        dev_closed = age_difference(p, barrier).t_tunnel - tau
        dev_oracle = oracle_tunneling_time(p, barrier) - tau
        assert abs(dev_oracle - dev_closed) <= 0.05 * abs(dev_closed)

    def test_tunneling_time_free_limit(self):
        # At finite L0 the V -> 0 limit keeps a branch-point residue worth
        # rho'(0)*m/2 unless k0 L0 is a multiple of 2 pi, where the packet
        # weight is flat at k = 0; there the free traversal value is clean.
        b = Barrier(1e-12, 15.0, 1.0)
        k0 = 20.0 * math.pi / 150.0
        p = Packet(k0, 150.0)
        assert oracle_tunneling_time(p, b) == pytest.approx(
            15.0 / k0, rel=1e-3
        )

    def test_tunneling_time_exact_free(self):
        free = Barrier(0.0, 15.0, 1.0)
        p = Packet(0.7, 150.0)
        v = (1.0 / 0.7) * (1.0 - math.sin(0.7 * 150.0) / (0.7 * 150.0))
        assert oracle_tunneling_time(p, free) == pytest.approx(
            15.0 * v, rel=1e-4
        )

    def test_delay_B_reference(self, barrier):
        p = Packet(0.1, 150.0)
        assert abs(oracle_delay_B(p, barrier) - age_difference(p, barrier).dtau_B) \
            <= 0.05 / 0.1**2

    def test_delay_B_free_limit(self):
        # with no barrier the parity amplitudes are exactly +-1 and the
        # integrand vanishes identically
        free = Barrier(0.0, 15.0, 1.0)
        p = Packet(0.3, 150.0)
        assert abs(oracle_delay_B(p, free)) < 1e-6

    def test_delay_B_two_pi_node(self, barrier):
        k0 = 2.0 * math.pi / 150.0
        p = Packet(k0, 150.0)
        assert abs(oracle_delay_B(p, barrier)) < 1e-4


class TestFailFast:
    def test_vanishing_barrier_delay_B_raises_within_100_calls(self, monkeypatch):
        # The near-branch-point pole of a vanishing barrier cannot be
        # resolved; the default budget must fail after few integrand calls.
        calls = []
        orig = quadrature.amplitude_grid

        def counting(k, barrier):
            calls.append(k.size)
            return orig(k, barrier)

        monkeypatch.setattr(quadrature, "amplitude_grid", counting)
        b = Barrier.from_two_mv(2e-12, 15.0)
        with pytest.raises(NonConvergenceError):
            oracle_delay_B(Packet(0.7, 150.0), b)
        assert 0 < len(calls) <= 100


# Oracle values from the earlier depth-first, one-panel-at-a-time refinement.
# Level-synchronous refinement visits the same panels, so the values may move
# only by rounding in the last few bits.
PINNED = [
    (oracle_inverse_velocity, 0.3, 150.0, 3.270301979651968),
    (oracle_tunneling_time, 0.3, 150.0, 6.889375275413027),
    (oracle_delay_B, 0.3, 150.0, 9.220074678424815),
    (oracle_inverse_velocity, 1.1, 300.0, 0.909453496315921),
    (oracle_tunneling_time, 1.1, 300.0, 34.60457781312632),
    (oracle_delay_B, 1.1, 300.0, -0.11937975346542923),
    (oracle_inverse_velocity, 1.1, 3000.0, 0.908823315902419),
    (oracle_tunneling_time, 1.1, 3000.0, 34.00740676665289),
    (oracle_delay_B, 1.1, 3000.0, 0.8017689547432097),
]


@pytest.mark.parametrize("oracle, k0, L0, value", PINNED,
                         ids=[f"{o.__name__}-{k0}-{L0:g}" for o, k0, L0, _ in PINNED])
def test_oracle_values_pinned(barrier, oracle, k0, L0, value):
    assert oracle(Packet(k0, L0), barrier) == pytest.approx(value, rel=1e-12)
