import math

import numpy as np
import pytest

from tunneltimes.errors import DomainError
from tunneltimes.phasetime import phase_time, phase_time_fd
from tunneltimes.resonances import (
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
from tunneltimes.scattering import Barrier


def logderiv_delay(k0, barrier):
    """(1/2) sum_parity (m/k0) dtheta_parity/dk, i.e. tau_ph - a m/k0."""
    return phase_time_fd(k0, barrier) - barrier.width * barrier.mass / k0


@pytest.fixture(scope="module")
def decomposition(barrier):
    return build_decomposition(barrier)


class TestFindPoles:
    def test_harvest_matches_winding(self, barrier):
        # find_poles raises CountMismatchError internally on disagreement;
        # here we re-count explicitly for the reference rectangle
        rect = (0.5, 3.0, -1.0, 0.0)
        poles = find_poles(barrier, rect)
        for parity in ("+", "-"):
            n = winding_count(barrier, rect, parity)
            assert n == sum(1 for p in poles if p.parity == parity)

    def test_pinned_reference_poles(self, barrier):
        # bitwise pins of the reference rectangle's harvest: any reordering
        # of the shared W+- arithmetic moves the last bits of these values
        expect = [
            ("+", 1.0206234967640282 - 0.005500776179567507j, 4.8294910255934554e-15),
            ("+", 1.1744383513550642 - 0.041253217015293095j, 7.321030004829e-16),
            ("+", 1.4374259218061773 - 0.08736452379629835j, 5.543463109095303e-17),
            ("+", 1.7627075963928829 - 0.12896435627373534j, 8.589289554929844e-17),
            ("+", 2.121761763363232 - 0.16350111134736592j, 1.2471264186673368e-16),
            ("+", 2.499893419462067 - 0.19205213310732994j, 4.989634604592965e-16),
            ("+", 2.889509495756792 - 0.21603230431155782j, 2.5956653375091846e-16),
            ("-", 1.080516240282463 - 0.02044474112742039j, 1.4338730476011458e-15),
            ("-", 1.2956035849419774 - 0.06436095977992011j, 2.107311611147361e-16),
            ("-", 1.594485044553768 - 0.10904673055611949j, 1.400145590396028e-16),
            ("-", 1.939160750654871 - 0.14707334312563858j, 9.706145135729167e-17),
            ("-", 2.3090281315484815 - 0.17843132793088842j, 3.2601984364034e-16),
            ("-", 2.6935794553065344 - 0.20453573150337306j, 5.137383244154701e-18),
        ]
        poles = find_poles(barrier, (0.5, 3.0, -1.0, 0.0))
        assert [(p.parity, p.k_pole, p.residual) for p in poles] == expect

    def test_residuals_tiny(self, decomposition):
        for p in decomposition.poles:
            assert p.residual < 1e-10

    def test_resonance_near_k0_1p1(self, decomposition):
        assert any(0.9 <= p.k_pole.real <= 1.3 for p in decomposition.poles)

    def test_all_lower_half_for_square_barrier(self, barrier):
        assert winding_count(barrier, (0.1, 3.0, 1e-6, 1.5), "+") == 0
        assert winding_count(barrier, (0.1, 3.0, 1e-6, 1.5), "-") == 0

    def test_widths_positive(self, decomposition):
        for p in decomposition.poles:
            assert p.Gamma > 0.0
            assert p.lifetime == pytest.approx(1.0 / p.Gamma)

    def test_rejects_rect_containing_origin(self, barrier):
        with pytest.raises(DomainError):
            find_poles(barrier, (-0.5, 0.5, -0.5, 0.5))

    def test_poles_sit_under_phase_time_peaks(self, barrier, decomposition):
        # each narrow pole must align with a local maximum of tau_ph(k) on
        # the real axis to within its own half width
        ks = np.linspace(0.95, 1.35, 2001)
        taus = np.array([phase_time(float(k), barrier) for k in ks])
        peak_ks = ks[1:-1][(taus[1:-1] > taus[:-2]) & (taus[1:-1] > taus[2:])]
        for p in decomposition.poles:
            kr = p.k_pole.real
            if 1.0 <= kr <= 1.3 and p.Gamma < 0.2:
                assert np.min(np.abs(peak_ks - kr)) < abs(p.k_pole.imag)

    def test_tall_barrier_lowest_resonance(self):
        # lowest over-barrier resonance of a tall barrier sits near
        # V + (pi/a)^2/(2m) (standard single-mode estimate)
        b = Barrier.from_two_mv(25.0, 4.0, 1.0)
        poles = find_poles(b, (5.02, 5.6, -1.0, 0.0))
        assert poles
        lowest = min(poles, key=lambda p: p.E_R)
        estimate = 12.5 + (math.pi / 4.0) ** 2 / 2.0
        assert abs(lowest.E_R - estimate) / estimate < 0.15


class TestReconstruction:
    def test_product_factor_unimodular(self, decomposition):
        ks = np.linspace(0.3, 2.8, 100)
        for parity in ("+", "-"):
            prod = reconstruct_amplitude(ks, decomposition, parity)
            assert np.max(np.abs(np.abs(prod) - 1.0)) < 1e-12

    def test_remainder_unimodular_100_samples(self, decomposition):
        assert len(decomposition.energies) == 100
        for parity in ("+", "-"):
            assert np.max(np.abs(
                decomposition.remainder_modulus[parity] - 1.0)) < 1e-6

    def test_verify_passes(self, decomposition):
        rep = verify_remainder(decomposition)
        assert rep["ok"]
        assert rep["max_modulus_error"] < 1e-6

    def test_spurious_pole_fails(self, barrier, decomposition):
        kp = 1.5 - 0.001j
        ep = kp * kp / 2.0
        spurious = ResonancePole(
            parity="+", k_pole=kp, E_pole=complex(ep), E_R=ep.real,
            Gamma=-2.0 * ep.imag, lifetime=-0.5 / ep.imag, residual=1.0,
        )
        bad = ResonanceDecomposition(
            barrier=barrier,
            poles=decomposition.poles + (spurious,),
            energies=decomposition.energies,
            remainder_modulus=decomposition.remainder_modulus,
        )
        assert not verify_remainder(bad)["ok"]

    def test_missing_pole_fails(self, barrier, decomposition):
        sharpest = min(decomposition.poles, key=lambda p: p.Gamma)
        bad = ResonanceDecomposition(
            barrier=barrier,
            poles=tuple(p for p in decomposition.poles if p is not sharpest),
            energies=decomposition.energies,
            remainder_modulus=decomposition.remainder_modulus,
        )
        assert not verify_remainder(bad)["ok"]


class TestLorentzianDelay:
    def test_isolated_line_center(self, barrier):
        # a single pole probed at its center contributes exactly 2/Gamma
        kp = 2.0 - 0.01j
        ep = kp * kp / 2.0
        pole = ResonancePole(
            parity="+", k_pole=kp, E_pole=complex(ep), E_R=ep.real,
            Gamma=-2.0 * ep.imag, lifetime=-0.5 / ep.imag, residual=0.0,
        )
        dec = ResonanceDecomposition(
            barrier=barrier, poles=(pole,), energies=np.array([ep.real]),
            remainder_modulus={},
        )
        assert lorentzian_delay(ep.real, dec) == pytest.approx(
            2.0 / pole.Gamma, rel=1e-12
        )

    def test_far_detuned_vanishes(self, decomposition):
        assert lorentzian_delay(1e6, decomposition) < 1e-8

    def test_weights_bounded(self, decomposition):
        # every Lorentzian weight lies in (0, 1]
        for E0 in np.linspace(0.05, 4.0, 40):
            for p in decomposition.poles:
                w = (0.5 * p.Gamma) ** 2 / (
                    (E0 - p.E_R) ** 2 + (0.5 * p.Gamma) ** 2)
                assert 0.0 < w <= 1.0

    def test_matches_logderiv_minus_remainder(self, barrier, decomposition):
        k0 = 1.1
        e0 = 0.5 * k0 * k0
        lor = lorentzian_delay(e0, decomposition)
        total = logderiv_delay(k0, barrier)
        rem = remainder_delay(e0, decomposition)
        assert abs(lor - (total - rem)) <= 0.2 * abs(lor)


class TestLogDerivativeDelay:
    def test_identity_with_phase_time(self, barrier, rng):
        # delay = tau_ph(k0) - a m / k0, exactly
        for k0 in 0.1 + rng.random(20) * 2.4:
            k0 = float(k0)
            lhs = logderiv_delay(k0, barrier)
            rhs = phase_time(k0, barrier) - 15.0 / k0
            scale = max(abs(rhs), 15.0 / k0)
            assert abs(lhs - rhs) <= 1e-8 * scale

    def test_free_limit(self):
        b = Barrier(1e-12, 15.0, 1.0)
        assert abs(logderiv_delay(1.0, b)) < 1e-6

    def test_peaked_in_resonance_window(self, barrier, decomposition):
        # the delay peaks near the resonance poles; at each in-window pole
        # center it is large and positive (2/Gamma-ish), while between
        # resonances and below the barrier top it can stay Hartman-negative
        ks = np.linspace(0.9, 1.3, 41)
        vals = np.array([logderiv_delay(float(k), barrier)
                         for k in ks])
        interior_max = float(np.max(vals[1:-1]))
        assert interior_max > max(vals[0], vals[-1])
        assert interior_max > 0.0
        for p in decomposition.poles:
            kr = p.k_pole.real
            if 0.9 <= kr <= 1.3:
                center = logderiv_delay(kr, barrier)
                assert center > 0.5 / p.Gamma

    def test_rejects_nonpositive_k(self, barrier):
        with pytest.raises(DomainError):
            logderiv_delay(0.0, barrier)
