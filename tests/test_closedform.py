import dataclasses
import math
import warnings

import numpy as np
import pytest

from tunneltimes.closedform import age_difference, budget_grid
from tunneltimes.errors import DomainError, ValidityWarning
from tunneltimes.phasetime import phase_time
from tunneltimes.quadrature import (
    oracle_delay_B,
    oracle_inverse_velocity,
    oracle_tunneling_time,
)
from tunneltimes.scattering import Barrier
from tunneltimes.wavepacket import Packet


def _oracle_delay_A(packet, barrier):
    """Inside-the-barrier delay by quadrature: averaged phase time - a v_inv."""
    return (oracle_tunneling_time(packet, barrier)
            - barrier.width * oracle_inverse_velocity(packet, barrier))


class TestInverseVelocity:
    def test_sine_node_is_exact(self, barrier):
        k0 = math.pi / 150.0
        assert age_difference(Packet(k0, 150.0), barrier).v_inv \
            == pytest.approx(1.0 / k0, rel=1e-15
        )

    def test_matches_oracle(self, barrier):
        p = Packet(1.0, 150.0)
        closed = age_difference(p, barrier).v_inv
        assert closed == pytest.approx(
            oracle_inverse_velocity(p, barrier), rel=1e-3
        )

    def test_large_k0L0_limit(self, barrier):
        p = Packet(1.0, 1e7)
        assert age_difference(p, barrier).v_inv == pytest.approx(1.0, rel=1e-6)

    def test_rejects_bad_k0(self, barrier):
        with pytest.raises(DomainError):
            age_difference(Packet(1.0, 10.0), Barrier(0.5, 15.0, -1.0))


class TestNoBarrierTime:
    def test_sine_node(self, barrier):
        k0 = 2.0 * math.pi / 150.0
        assert age_difference(Packet(k0, 150.0), barrier).t0 \
            == pytest.approx(165.0 / k0, rel=1e-12
        )

    def test_zero_width(self):
        b = Barrier(0.5, 0.0, 1.0)
        p = Packet(0.7, 150.0)
        tb = age_difference(p, b)
        assert tb.t0 == pytest.approx(150.0 * tb.v_inv, rel=1e-15)


class TestDelayA:
    def test_vanishing_barrier_limit(self):
        # V -> 0 with sin(k0 L0) = 0: free phase time cancels a*v_inv exactly
        b = Barrier(1e-12, 15.0, 1.0)
        k0 = 10.0 * math.pi / 150.0
        with pytest.warns(ValidityWarning):
            val = age_difference(Packet(k0, 150.0), b).dtau_A
        assert abs(val) < 1e-3

    def test_matches_oracle_midrange(self, barrier):
        p = Packet(0.7, 150.0)
        closed = age_difference(p, barrier).dtau_A
        oracle = _oracle_delay_A(p, barrier)
        assert abs(closed - oracle) <= 0.05 * barrier.width / 0.7

    def test_matches_oracle_resonance_region(self, barrier):
        # the packet width is comparable to the sharpest resonance here, so
        # the neglected-residue gap is larger; phase-time scale sets the bound
        p = Packet(1.1, 150.0)
        closed = age_difference(p, barrier).dtau_A
        oracle = _oracle_delay_A(p, barrier)
        assert abs(closed - oracle) <= 0.05 * phase_time(1.1, barrier)

    def test_branch_node_reduction(self, barrier):
        k0 = 2.0 * math.pi / 150.0 * 10
        p = Packet(k0, 150.0)
        tb = age_difference(p, barrier)
        expect = phase_time(k0, barrier) - 15.0 * tb.v_inv
        assert tb.dtau_A == pytest.approx(expect, rel=1e-12)


class TestDelayB:
    def test_explicit_reduction(self, barrier):
        # dtau_B = (m/k0^2) [sin(x) - 2(1 - cos x)/x], x = k0 L0, exactly
        for k0, L0 in [(1.0, 150.0), (0.3, 200.0), (2.2, 97.0)]:
            x = k0 * L0
            expect = (math.sin(x) - 2.0 * (1.0 - math.cos(x)) / x) / k0**2
            assert age_difference(Packet(k0, L0), barrier).dtau_B \
                == pytest.approx(expect, rel=1e-10, abs=1e-12
            )

    def test_small_at_large_x(self, barrier):
        val = age_difference(Packet(1.0, 150.0), barrier).dtau_B
        assert abs(val) <= 1.0 + 4.0 / 150.0

    def test_matches_oracle(self, barrier):
        p = Packet(0.1, 150.0)
        assert abs(age_difference(p, barrier).dtau_B
                   - oracle_delay_B(p, barrier)) <= 0.05 / 0.1**2

    def test_two_pi_node(self, barrier):
        k0 = 2.0 * math.pi / 150.0
        assert age_difference(Packet(k0, 150.0), barrier).dtau_B \
            == pytest.approx(0.0, abs=1e-9
        )


class TestTunnelingTime:
    def test_intrinsic_in_resonance_region(self, barrier):
        t150 = age_difference(Packet(1.1, 150.0), barrier).t_tunnel
        t300 = age_difference(Packet(1.1, 300.0), barrier).t_tunnel
        assert abs(t150 - t300) / abs(t150) < 0.02

    def test_packet_dependent_near_zero(self, barrier):
        t150 = age_difference(Packet(0.01, 150.0), barrier).t_tunnel
        t300 = age_difference(Packet(0.01, 300.0), barrier).t_tunnel
        assert abs(t150 - t300) / abs(t300) > 0.10

    def test_branch_node_equals_phase_time(self, barrier):
        k0 = 2.0 * math.pi / 150.0 * 20
        assert age_difference(Packet(k0, 150.0), barrier).t_tunnel \
            == pytest.approx(phase_time(k0, barrier), rel=1e-12
        )

    def test_matches_oracle(self, barrier):
        p = Packet(0.7, 150.0)
        gap = abs(age_difference(p, barrier).t_tunnel
                  - oracle_tunneling_time(p, barrier))
        assert gap <= 0.05 * phase_time(0.7, barrier)


class TestTimeOutside:
    def test_nonnegative_random(self, barrier, rng):
        for _ in range(1000):
            k0 = float(rng.uniform(0.001, 3.0))
            L0 = float(rng.uniform(1.0, 500.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWarning)  # L0 < 20/3
                tb = age_difference(Packet(k0, L0), barrier)
            assert tb.t_outside >= 0.0

    def test_ballistic_limit(self, barrier):
        k0, L0 = 1.0, 150.0
        val = age_difference(Packet(k0, L0), barrier).t_outside
        assert abs(val - L0 / k0) / (L0 / k0) <= 4.0 / (k0 * L0) ** 2

    def test_vanishes_at_small_x(self, barrier):
        k0, L0 = 1e-5, 1.0
        with pytest.warns(ValidityWarning):  # m V a L0 = 7.5
            tb = age_difference(Packet(k0, L0), barrier)
        assert tb.t_outside <= (1.0 / k0) * L0 * (k0 * L0) ** 2


class TestAgeDifference:
    def test_hartman_dip(self, barrier):
        tb = age_difference(Packet(0.5, 150.0), barrier)
        assert tb.t_age < tb.t0

    def test_branch_point_regime(self, barrier):
        tb = age_difference(Packet(0.005, 150.0), barrier)
        assert tb.t_age < tb.t0

    def test_warns_outside_gate(self):
        b = Barrier(1e-12, 15.0, 1.0)
        with pytest.warns(ValidityWarning):
            age_difference(Packet(0.5, 150.0), b)

    def test_free_barrier_budget(self):
        free = Barrier(0.0, 15.0, 1.0)
        tb = age_difference(Packet(0.7, 150.0), free)
        assert tb.dtau_A == pytest.approx(0.0, abs=1e-14)
        assert tb.dtau_B == pytest.approx(0.0, abs=1e-14)
        assert tb.t_age == pytest.approx(tb.t0, rel=1e-14)

    def test_decomposition_identities_random(self, barrier, rng):
        for _ in range(1000):
            k0 = float(rng.uniform(0.005, 3.0))
            L0 = float(rng.uniform(5.0, 600.0))
            a = float(rng.uniform(0.1, 30.0))
            two_mv = float(rng.uniform(0.01, 9.0))
            m = float(rng.uniform(0.2, 5.0))
            b = Barrier.from_two_mv(two_mv, a, m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWarning)
                tb = age_difference(Packet(k0, L0), b)
            scale = max(abs(tb.t_age), abs(tb.t0), abs(tb.dtau_A),
                        abs(tb.dtau_B), abs(tb.t_tunnel), abs(tb.t_outside))
            assert abs(tb.t_age - (tb.t0 + tb.dtau_A + tb.dtau_B)) \
                <= 1e-12 * scale
            assert abs(tb.t_age - (tb.t_tunnel + tb.t_outside)) \
                <= 1e-12 * scale


class TestBudgetGrid:
    # k0 L0 << 1 down to 5e-4, the three lowest above-barrier resonances of
    # the reference barrier (k0^2 = 1 + (n pi / 15)^2), and large k0
    K0 = np.array([1e-4, 0.003, 0.01, 0.5, 0.7,
                   math.sqrt(1.0 + (math.pi / 15.0) ** 2),
                   math.sqrt(1.0 + (2.0 * math.pi / 15.0) ** 2),
                   math.sqrt(1.0 + (3.0 * math.pi / 15.0) ** 2), 1.1, 2.9])
    L0 = np.array([5.0, 150.0, 300.0, 1e4])
    BARRIERS = [
        Barrier.from_two_mv(1.0, 15.0, 1.0),
        Barrier(0.0, 15.0, 1.0),           # free: V*a = 0
        Barrier(0.5, 0.0, 1.0),            # free: zero width
        Barrier.from_two_mv(9.0, 0.2, 2.0),  # below the gate at L0 = 5
    ]

    @pytest.mark.parametrize("b", BARRIERS)
    def test_equals_scalar_budget_exactly(self, b):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            grid = budget_grid(self.K0[:, None], self.L0, b)
            for f in dataclasses.fields(grid):
                assert getattr(grid, f.name).shape == (self.K0.size,
                                                       self.L0.size)
            for i, k0 in enumerate(self.K0):
                for j, L0 in enumerate(self.L0):
                    point = age_difference(Packet(float(k0), float(L0)), b)
                    for f in dataclasses.fields(point):
                        assert getattr(grid, f.name)[i, j] \
                            == getattr(point, f.name), f.name

    def test_any_nonpositive_k0_or_L0_raises(self, barrier):
        for bad in (0.0, -0.3):
            with pytest.raises(DomainError):
                budget_grid(np.array([0.5, bad, 1.0]), 150.0, barrier)
            with pytest.raises(DomainError):
                budget_grid(0.5, np.array([150.0, bad]), barrier)

    def test_one_warning_per_call(self):
        b = Barrier(1e-6, 15.0, 1.0)  # every point below the gate
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            tb = budget_grid(self.K0[:, None], self.L0, b)
        assert not tb.valid.any()
        assert [w.category for w in rec] == [ValidityWarning]

    def test_free_barrier_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tb = budget_grid(self.K0[:, None], self.L0, Barrier(0.0, 15.0))
        assert not tb.dtau_A.any() and not tb.dtau_B.any()


class TestBranchPointTerms:
    def test_vanish_at_large_L0(self, barrier):
        bp3 = age_difference(Packet(0.5, 1e3), barrier).bp_tunnel_term
        bp4 = age_difference(Packet(0.5, 1e4), barrier).bp_tunnel_term
        assert abs(bp4) < 1e-3
        assert abs(bp4) < abs(bp3)

    def test_grow_at_fixed_k0L0(self, barrier):
        # with x = k0 L0 pinned, the tunnel term scales like L0 and the
        # outside term like L0^2 (its prefactor is L0/k0): both diverge
        vals = []
        for L0 in (150.0, 300.0, 600.0):
            tb = age_difference(Packet(1.0 / L0, L0), barrier)
            vals.append((tb.bp_tunnel_term, tb.bp_outside_term))
        for lo, hi in ((0, 1), (1, 2)):
            assert 1.8 <= vals[hi][0] / vals[lo][0] <= 2.2
            assert 3.6 <= vals[hi][1] / vals[lo][1] <= 4.4

    def test_negative_below_pi(self, barrier, rng):
        for _ in range(200):
            x = float(rng.uniform(0.01, math.pi - 0.01))
            L0 = float(rng.uniform(20.0, 400.0))
            tb = age_difference(Packet(x / L0, L0), barrier)
            assert tb.bp_tunnel_term <= 0.0
            assert tb.bp_outside_term <= 0.0

    def test_deviations_definition(self, barrier):
        p = Packet(0.3, 150.0)
        tb = age_difference(p, barrier)
        assert tb.t_tunnel - phase_time(0.3, barrier) \
            == pytest.approx(tb.bp_tunnel_term, rel=1e-12)
        assert tb.t_outside - 150.0 / 0.3 \
            == pytest.approx(tb.bp_outside_term, rel=1e-12)


class TestValidity:
    def test_reference_parameters(self, barrier):
        tb = age_difference(Packet(1.0, 150.0), barrier)
        assert tb.validity_ratio == pytest.approx(1125.0)
        assert tb.valid

    def test_thin_barrier(self):
        b = Barrier(0.5, 1e-4, 1.0)
        with pytest.warns(ValidityWarning):
            tb = age_difference(Packet(1.0, 150.0), b)
        assert tb.validity_ratio == pytest.approx(0.0075)
        assert not tb.valid

    def test_warning_names_the_calling_file(self):
        b = Barrier(1e-12, 15.0, 1.0)
        for call in (lambda: age_difference(Packet(0.5, 150.0), b),
                     lambda: budget_grid(np.array([0.5, 0.7]), 150.0, b)):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                call()
            assert [(w.category, w.filename) for w in rec] \
                == [(ValidityWarning, __file__)]

    def test_boundary_inclusive(self):
        b = Barrier(0.5, 10.0, 1.0)
        tb = age_difference(Packet(1.0, 10.0), b)
        assert tb.validity_ratio == 50.0
        assert tb.valid


class TestOracleConvergence:
    def test_gap_shrinks_with_L0(self, barrier):
        k0 = 0.7
        gaps_v, gaps_t = [], []
        for L0 in (150.0, 300.0):
            p = Packet(k0, L0)
            tb = age_difference(p, barrier)
            gaps_v.append(abs(tb.v_inv - oracle_inverse_velocity(p, barrier)))
            gaps_t.append(abs(tb.t_tunnel - oracle_tunneling_time(p, barrier)))
        assert 0.3 <= gaps_v[1] / gaps_v[0] <= 0.7
        assert 0.3 <= gaps_t[1] / gaps_t[0] <= 0.7

    def test_outside_delay_closed_form_is_exact_here(self, barrier):
        # no amplitude poles sit in the upper half plane for this barrier, so
        # the closed dtau_B carries no O(1/L0) deficit: the gap is purely
        # numerical and far below the physics tolerance
        for L0 in (150.0, 300.0):
            p = Packet(0.7, L0)
            gap = abs(age_difference(p, barrier).dtau_B
                      - oracle_delay_B(p, barrier))
            assert gap < 1e-6

    def test_branch_point_disappearance_window(self, barrier):
        for k0 in np.linspace(1.0, 2.0, 21):
            p = Packet(float(k0), 300.0)
            tau = phase_time(float(k0), barrier)
            assert abs(age_difference(p, barrier).t_tunnel - tau) < 1e-3 * tau
