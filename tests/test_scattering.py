import cmath
import math
import warnings

import numpy as np
import pytest

from tunneltimes.errors import DomainError
from tunneltimes.phasetime import phase_time, phase_time_fd
from tunneltimes.scattering import Barrier, amplitude_grid, parity_phases
from tunneltimes.special import sinhc_w


class TestBarrier:
    def test_l0_sq(self, barrier):
        assert barrier.l0_sq == pytest.approx(1.0)
        assert barrier.kappa0 == pytest.approx(1.0)

    def test_from_two_mv(self):
        b = Barrier.from_two_mv(4.0, 2.0, mass=2.0)
        assert b.height == pytest.approx(1.0)
        assert b.l0_sq == pytest.approx(4.0)

    @pytest.mark.parametrize("kwargs, free", [
        (dict(height=0.0, width=15.0), True),
        (dict(height=0.5, width=0.0), True),
        (dict(height=1e-300, width=15.0, mass=1e-300), True),  # 2mV underflows
        (dict(height=1e-300, width=1e-30), True),              # 2mV a underflows
        (dict(height=1e-300, width=1e-6), False),              # 2mV a = 2e-306
        (dict(height=1e-300, width=15.0, mass=1e-8), False),   # 2mV = 2e-308
    ])
    def test_is_free_at_the_underflow_edge(self, kwargs, free):
        assert Barrier(**kwargs).is_free is free

    @pytest.mark.parametrize("kwargs", [
        dict(height=-1.0, width=1.0),
        dict(height=1.0, width=-1.0),
        dict(height=1.0, width=1.0, mass=0.0),
        dict(height=math.nan, width=1.0),
        dict(height=math.inf, width=1.0),
        dict(height=1.0, width=math.nan),
        dict(height=1.0, width=math.inf),
        dict(height=1.0, width=1.0, mass=math.nan),
        dict(height=1.0, width=1.0, mass=math.inf),
        dict(height=1e308, width=15.0, mass=10.0),  # V, m finite; 2mV not
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            Barrier(**kwargs)


class TestKappa:
    # kappa = sqrt(2mV - k^2) enters the amplitudes only through even kernels
    # of w = (kappa a/2)^2, so no square-root branch is ever chosen.
    def test_branch_point(self, barrier):
        # kappa = 0 at the barrier top k^2 = 2mV: the amplitudes stay
        # unimodular there and continuous across it
        k = np.array([1.0 - 1e-7, 1.0, 1.0 + 1e-7])
        F_p, F_m, _, _ = amplitude_grid(k, barrier)
        for F in (F_p, F_m):
            assert np.max(np.abs(np.abs(F) - 1.0)) < 1e-12
            assert np.max(np.abs(np.diff(F))) < 1e-5

    def test_above_top(self, barrier):
        # above the top kappa = i*sqrt(k^2 - 2mV) and the interior wave
        # oscillates: |T|^2 = 1 / (1 + V^2 sin^2(q a) / (4 E (E - V))) with
        # q = sqrt(k^2 - 2mV), E = k^2/2m, checked by independent arithmetic
        k = np.array([1.2, 1.5, 2.5])
        q = np.sqrt(k * k - 1.0)
        E, V = k * k / 2.0, barrier.height
        expect = 1.0 / (1.0 + V * V * np.sin(q * barrier.width) ** 2
                        / (4.0 * E * (E - V)))
        T = amplitude_grid(k, barrier)[3]
        assert np.max(np.abs(np.abs(T) ** 2 - expect)) < 1e-12

    def test_continuation_into_sine(self):
        # sinh(kappa*a) continues to i*sin(|kappa|*a) above the top:
        # sinh(z)/z at w = z^2 = -y^2 is sin(y)/y
        y = math.sqrt(0.44) * 15.0
        assert y * sinhc_w(-y * y) == pytest.approx(math.sin(y), abs=1e-12)


class TestAmplitudes:
    def test_total_reflection_at_zero(self, barrier):
        F_p, F_m, R, T = amplitude_grid(1e-9, barrier)
        assert abs(F_p + 1.0) < 1e-6
        assert abs(F_m + 1.0) < 1e-6
        assert abs(R + 1.0) < 1e-6
        assert abs(T) < 1e-6

    def test_free_amplitudes(self):
        free = Barrier(0.0, 15.0, 1.0)
        F_p, F_m, R, T = amplitude_grid(0.7, free)
        assert F_p == pytest.approx(1.0, abs=1e-14)
        assert F_m == pytest.approx(-1.0, abs=1e-14)
        assert R == pytest.approx(0.0, abs=1e-14)
        # T is the coefficient of e^{ik(x-a)}, so free transmission carries
        # the traversal phase e^{ika}; its modulus is 1.
        assert abs(T) == pytest.approx(1.0, abs=1e-14)
        assert T == pytest.approx(cmath.exp(1j * 0.7 * 15.0), abs=1e-13)

    def test_unit_modulus_single(self, barrier):
        F_p, F_m, _, _ = amplitude_grid(0.7, barrier)
        assert abs(abs(F_p) - 1.0) < 1e-12
        assert abs(abs(F_m) - 1.0) < 1e-12

    def test_grid_invariants(self, barrier):
        k = np.linspace(-10.0, 10.0, 2001)
        k = k[k != 0.0]
        F_p, F_m, R, T = amplitude_grid(k, barrier)
        assert np.max(np.abs(np.abs(F_p) - 1.0)) < 1e-12
        assert np.max(np.abs(np.abs(F_m) - 1.0)) < 1e-12
        assert np.max(np.abs(np.abs(R) ** 2 + np.abs(T) ** 2 - 1.0)) < 1e-12
        F_p2, F_m2, _, _ = amplitude_grid(-k, barrier)
        assert np.max(np.abs(F_p2 - np.conj(F_p))) < 1e-12
        assert np.max(np.abs(F_m2 - np.conj(F_m))) < 1e-12

    def test_grid_invariants_random_barriers(self, rng):
        # unimodularity and unitarity are convention-independent; they must
        # survive arbitrary (V, a, m), not just the reference barrier
        k = np.linspace(0.02, 6.0, 400)
        for _ in range(25):
            b = Barrier(float(rng.uniform(0.0, 3.0)),
                        float(rng.uniform(0.0, 8.0)),
                        float(rng.uniform(0.3, 3.0)))
            F_p, F_m, R, T = amplitude_grid(k, b)
            assert np.max(np.abs(np.abs(F_p) - 1.0)) < 1e-11
            assert np.max(np.abs(np.abs(F_m) - 1.0)) < 1e-11
            assert np.max(np.abs(np.abs(R) ** 2 + np.abs(T) ** 2 - 1.0)) < 1e-11

    @pytest.mark.parametrize("k", [0.05, 0.1, -0.1, 0.2])
    def test_thick_barrier_limit(self, k):
        # cosh(kappa a/2) overflows at a = 1500: F+- take their e^{-kappa a} = 0
        # limit e^{-ika}(k - i kappa)/(k + i kappa), not inf/inf
        b = Barrier.from_two_mv(1.0, 1500.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            F_p, F_m, R, T = amplitude_grid(k, b)
        kappa = math.sqrt(1.0 - k * k)
        limit = cmath.exp(-1j * k * 1500.0) * (k - 1j * kappa) / (k + 1j * kappa)
        assert abs(F_p) == pytest.approx(1.0, abs=1e-14)
        assert F_p == F_m == pytest.approx(limit, abs=1e-12)
        assert T == 0.0 and abs(R) == pytest.approx(1.0, abs=1e-14)

    def test_thick_barrier_grid_invariants(self):
        # the grid mixes overflowing points (k < ~0.32) with finite ones
        k = np.linspace(0.02, 3.0, 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            F_p, F_m, R, T = amplitude_grid(k, Barrier.from_two_mv(1.0, 1500.0))
        assert np.max(np.abs(np.abs(F_p) - 1.0)) < 1e-12
        assert np.max(np.abs(np.abs(F_m) - 1.0)) < 1e-12
        assert np.max(np.abs(np.abs(R) ** 2 + np.abs(T) ** 2 - 1.0)) < 1e-12

    # the k where kappa a/2 sits in [709.6, 710.5], just below cosh overflow:
    # the complex division num/den read F+- = 0 there
    @pytest.mark.parametrize("a, k_lo, k_hi", [
        (1500.0, 0.3203, 0.3209), (2000.0, 0.7040, 0.7045), (3000.0, 0.8809, 0.8812)])
    def test_overflow_band_unimodular(self, a, k_lo, k_hi):
        k = np.linspace(k_lo, k_hi, 2001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            F_p, F_m, R, T = amplitude_grid(k, Barrier.from_two_mv(1.0, a))
        assert np.max(np.abs(np.abs(F_p) - 1.0)) < 1e-12
        assert np.max(np.abs(np.abs(F_m) - 1.0)) < 1e-12
        assert np.max(np.abs(np.abs(R) ** 2 + np.abs(T) ** 2 - 1.0)) < 1e-12

    def test_overflow_band_phase_time_fd(self):
        b = Barrier.from_two_mv(1.0, 1500.0)
        fd = phase_time_fd(0.3204, b)
        assert math.isfinite(fd)
        assert fd == pytest.approx(phase_time(0.3204, b), rel=1e-8)

    @pytest.mark.parametrize("k", [0.5 + 0.0j, np.array([0.5, 1.0 - 1e-3j])])
    def test_refuses_complex_k(self, barrier, k):
        # the amplitudes live on the real axis; the poles off it are zeros
        # of W+-, which the pole search takes from _w_terms
        with pytest.raises(DomainError):
            amplitude_grid(k, barrier)


class TestParityPhases:
    """The real-axis parity phases phi+- with F+- = e^{-ika} e^{-2i phi+-}."""

    @staticmethod
    def _ks(two_mv):
        top = math.sqrt(two_mv)
        k = np.concatenate([np.linspace(1e-9, 3.0 * top, 3001),
                            [top, np.nextafter(top, 0.0), np.nextafter(top, 9.0),
                             1e-300, 1e-12]])
        return np.concatenate([k, -k])

    @pytest.mark.parametrize("a", [0.5, 15.0, 60.0])
    @pytest.mark.parametrize("two_mv", [1.0, 4.0, 1e4])
    def test_reproduce_amplitude_grid(self, a, two_mv):
        b = Barrier.from_two_mv(two_mv, a)
        k = self._ks(two_mv)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            phi_p, phi_m = parity_phases(k, b)
        with np.errstate(over="ignore", invalid="ignore"):
            F_p, F_m, _, _ = amplitude_grid(k, b)
        phase = np.exp(-1j * k * a)
        assert np.max(np.abs(phase * np.exp(-2j * phi_p) - F_p)) <= 1e-14
        assert np.max(np.abs(phase * np.exp(-2j * phi_m) - F_m)) <= 1e-14

    @pytest.mark.parametrize("a", [0.5, 15.0, 60.0])
    @pytest.mark.parametrize("two_mv", [1.0, 4.0, 1e4])
    def test_odd_mod_pi(self, a, two_mv):
        b = Barrier.from_two_mv(two_mv, a)
        k = self._ks(two_mv)
        n = len(k) // 2
        for phi in parity_phases(k, b):
            # phi(k) + phi(-k) is a multiple of pi
            assert np.max(np.abs(np.sin(phi[:n] + phi[n:]))) < 1e-14

    def test_no_floating_point_error_when_thick(self):
        b = Barrier.from_two_mv(1.0, 1e5)
        k = np.linspace(-3.0, 3.0, 10001)
        with np.errstate(all="raise"):
            phi_p, phi_m = parity_phases(k, b)
        assert np.all(np.isfinite(phi_p)) and np.all(np.isfinite(phi_m))

    @pytest.mark.parametrize("k", [0.5 + 0.0j, np.array([0.5, 1.0 - 1e-3j])])
    def test_refuses_complex_k(self, barrier, k):
        with pytest.raises(DomainError):
            parity_phases(k, barrier)


class TestPhaseSweep:
    # Continuous phases along a k sweep come from the parity phases
    # theta+- = arg F+-, anchored at theta+-(0+) = pi since F+-(0) = -1.
    @staticmethod
    def _parity_phases(ks, barrier):
        F_p, F_m, _, _ = amplitude_grid(ks, barrier)
        return (math.pi + np.unwrap(np.angle(-F_p)),
                math.pi + np.unwrap(np.angle(-F_m)))

    def test_anchors_at_pi(self, barrier):
        ks = np.linspace(1e-6, 0.01, 50)
        th_p, th_m = self._parity_phases(ks, barrier)
        # theta_pm(0+) = pi; at the first grid point the phase has moved by
        # at most |theta'| * k with |theta'| < 20 for this barrier
        assert th_p[0] == pytest.approx(math.pi, abs=20.0 * ks[0])
        assert th_m[0] == pytest.approx(math.pi, abs=20.0 * ks[0])

    def test_transmission_identity(self, barrier):
        # arg T = pi/2 + (theta+ + theta-)/2 + k a (mod pi): the quotient
        # T e^{-i(pi/2 + ka)} / sqrt(F+ F-) is real along the sweep
        ks = np.linspace(0.01, 3.0, 4000)
        F_p, F_m, _, T = amplitude_grid(ks, barrier)
        ratio = T * np.exp(-1j * (math.pi / 2.0 + ks * barrier.width)) \
            / np.sqrt(F_p * F_m)
        # deep tunneling leaves |T| ~ 3e-7, so its phase carries ~eps/|T| noise
        assert np.max(np.abs(ratio.imag) / np.abs(ratio)) < 1e-7

    def test_no_jumps(self, barrier):
        # theta built from the parity phases is continuous where arg T is
        # rounding noise (|T| ~ e^{-kappa a})
        ks = np.linspace(0.01, 3.0, 4000)
        th_p, th_m = self._parity_phases(ks, barrier)
        th = math.pi / 2.0 + 0.5 * (th_p + th_m) + ks * barrier.width
        assert np.max(np.abs(np.diff(th))) < 1.0


class RegimeViolationError(ValueError):
    """The thin-barrier reference was asked for outside its smallness gate."""


def small_a_amplitudes(k, barrier):
    """Thin-barrier approximations to (F+, F-), valid for sqrt(mV)*a << 1.

    F+ ~ e^{-ika} (k - i(mV - k^2/2)a) / (k + i(mV - k^2/2)a)
    F- ~ e^{-ika} (a k - 2i) / (a k + 2i)

    These keep the leading term of exp(-kappa*a) ~ 1 - kappa*a in each parity
    channel. The F+ form retains its near-origin pole at k ~ i m V a, which is
    what makes the k -> 0 and a -> 0 limits non-interchangeable, while the F-
    limits commute. Raises RegimeViolationError if sqrt(m V) * a >= 0.1.
    """
    m, V, a = barrier.mass, barrier.height, barrier.width
    if math.sqrt(m * V) * a >= 0.1:
        raise RegimeViolationError(
            f"sqrt(mV)*a = {math.sqrt(m * V) * a:.3g} is not << 1"
        )
    k = np.asarray(k, dtype=complex)
    phase = np.exp(-1j * k * a)
    g = (m * V - 0.5 * k * k) * a
    F_p = phase * (k - 1j * g) / (k + 1j * g)
    F_m = phase * (a * k - 2j) / (a * k + 2j)
    if F_p.ndim == 0:
        return complex(F_p), complex(F_m)
    return F_p, F_m


class TestSmallA:
    # the exact amplitudes against their thin-barrier limits, written out
    # above as the reference
    def test_gate(self, barrier):
        with pytest.raises(RegimeViolationError):
            small_a_amplitudes(0.5, barrier)  # sqrt(mV)*a ~ 10.6

    def test_limit_a_first(self):
        # a -> 0 at fixed k > 0: F+ -> +1
        b = Barrier(0.5, 1e-7, 1.0)
        F_p, _ = small_a_amplitudes(0.5, b)
        assert F_p == pytest.approx(1.0, abs=1e-6)

    def test_limit_k_first(self):
        # k -> 0 at fixed a with a m V >> k: F+ -> -1
        b = Barrier(0.5, 0.01, 1.0)
        F_p, _ = small_a_amplitudes(1e-9, b)
        assert F_p == pytest.approx(-1.0, abs=1e-6)

    def test_f_minus_limits_interchange(self):
        F_m_small_k = small_a_amplitudes(1e-6, Barrier(0.5, 0.01, 1.0))[1]
        F_m_small_a = small_a_amplitudes(1e-6, Barrier(0.5, 1e-6, 1.0))[1]
        assert F_m_small_k == pytest.approx(-1.0, abs=1e-3)
        assert F_m_small_a == pytest.approx(-1.0, abs=1e-3)

    def test_matches_exact_in_regime(self):
        # sqrt(mV)*a = 0.01
        v = 0.5
        a = 0.01 / math.sqrt(v)
        b = Barrier(v, a, 1.0)
        ks = np.linspace(0.001, 1.0, 200)
        F_p_apx, F_m_apx = small_a_amplitudes(ks, b)
        F_p, F_m, _, _ = amplitude_grid(ks, b)
        assert np.max(np.abs(F_p - F_p_apx)) < 1e-3
        assert np.max(np.abs(F_m - F_m_apx)) < 1e-3
