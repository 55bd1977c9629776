import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from tunneltimes.closedform import age_difference
from tunneltimes.errors import (
    DomainError,
    NonConvergenceError,
)
from tunneltimes.phasetime import phase_time_grid
import tunneltimes.quadrature as quadrature
from tunneltimes.quadrature import (
    QuadratureConfig,
    oracle_delay_B,
    oracle_inverse_velocity,
    oracle_tunneling_time,
    pv_integrate,
)
from tunneltimes.scattering import Barrier, amplitude_grid
from tunneltimes.wavepacket import (Packet, f_amp_and_deriv, momentum_density,
                                   sinc_and_deriv)


class TestKronrodRule:
    def test_nodes_symmetric(self):
        x, w = quadrature._X21, quadrature._WK21
        assert x.size == w.size == 21
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0)

    def test_gauss_subset_is_legendre_10(self):
        x, w = np.polynomial.legendre.leggauss(10)
        assert np.max(np.abs(quadrature._X21[1::2] - x)) < 1e-15
        assert np.max(np.abs(quadrature._WG10 - w)) < 1e-15

    @pytest.mark.parametrize("rule, degree", [("kronrod", 31), ("gauss", 19)])
    def test_polynomial_exactness(self, rule, degree):
        x, w = quadrature._X21, quadrature._WK21
        if rule == "gauss":
            x, w = x[1::2], quadrature._WG10
        for j in range(degree + 1):
            exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            assert abs(np.dot(w, x**j) - exact) < 1e-14, j

    def test_weights_sum_to_two(self):
        assert quadrature._WK21.sum() == pytest.approx(2.0, abs=1e-15)
        assert quadrature._WG10.sum() == pytest.approx(2.0, abs=1e-15)


class TestPvIntegrate:
    def test_odd_integrand_vanishes(self):
        val = pv_integrate(lambda k: 1.0 / k + 0j, 0.0,
                           domain=(-2.0, 2.0), oscillation_length=1.0)
        assert abs(val) < 1e-12

    def test_oscillatory_cauchy_kernel(self):
        # PV int e^{ikL}/k over [-K, K] equals 2i Si(KL); -> i pi as K grows
        L, K = 10.0, 40.0
        val = pv_integrate(lambda k: np.exp(1j * k * L) / k, 0.0,
                           domain=(-K, K), oscillation_length=L)
        expect = 2j * sici(K * L)[0]
        assert val == pytest.approx(expect, abs=1e-6)
        assert abs(val - 1j * math.pi) < 2.5 / (K * L)

    def test_oscillatory_cauchy_kernel_in_blocks(self):
        # first-level panels span at most two periods 4 pi/L: 2 * 2547 = 5094
        # of them, more than one block each level
        L, K = 800.0, 40.0
        first_level = 2 * math.ceil(K / (4.0 * math.pi / L))
        sizes = []

        def f(k):
            sizes.append(k.size)
            return np.exp(1j * k * L) / k

        val = pv_integrate(f, 0.0, domain=(-K, K), oscillation_length=L)
        expect = 2j * sici(K * L)[0]
        assert val == pytest.approx(expect, abs=1e-6)
        assert abs(val - 1j * math.pi) < 2.5 / (K * L)
        nodes = quadrature._X21.size
        assert max(sizes) <= nodes * quadrature._BLOCK_PANELS
        assert sum(sizes) >= nodes * first_level

    def test_smooth_gaussian(self):
        val = pv_integrate(lambda k: np.exp(-(k * k)) + 0j, None,
                           domain=(-6.0, 6.0), oscillation_length=1.0)
        expect, _ = quad(lambda k: math.exp(-k * k), -6.0, 6.0)
        assert val.real == pytest.approx(expect, rel=1e-9)
        assert val.imag == 0.0

    def test_real_integrand_stays_real(self):
        # sin(kL)/k on [0, K], no pole: the same panels and sums whether the
        # values come as a real or as a complex array
        L, K = 10.0, 40.0

        def f(k):
            return np.sin(k * L) / k

        real = pv_integrate(f, None, domain=(0.0, K), oscillation_length=L)
        cplx = pv_integrate(lambda k: f(k) + 0j, None, domain=(0.0, K),
                            oscillation_length=L)
        assert real.imag == 0.0
        assert abs(real - cplx) <= 1e-14 * abs(cplx)
        assert real.real == pytest.approx(sici(K * L)[0], abs=1e-6)

    def test_asymmetric_window_log_terms(self):
        # PV int 1/k over [-1, e] = 1 exactly
        val = pv_integrate(lambda k: 1.0 / k + 0j, 0.0,
                           domain=(-1.0, math.e), oscillation_length=1.0)
        assert val.real == pytest.approx(1.0, rel=1e-9)

    def test_determinism(self, barrier):
        p = Packet(0.7, 150.0)
        v1 = oracle_tunneling_time(p, barrier)
        v2 = oracle_tunneling_time(p, barrier)
        assert v1 == v2

    def test_budget_exhaustion(self):
        cfg = QuadratureConfig(max_panels=20)
        with pytest.raises(NonConvergenceError):
            pv_integrate(lambda k: np.exp(40j * k) / (k * k + 1e-6), None,
                         cfg, domain=(-30.0, 30.0), oscillation_length=40.0)

    def test_budget_failure_names_where_it_stalled(self):
        # a spike of width 1e-10 at k = 0.3 cannot be resolved in 200 panels
        cfg = QuadratureConfig(max_panels=200)
        with pytest.raises(NonConvergenceError) as info:
            pv_integrate(lambda k: 1.0 / ((k - 0.3) ** 2 + 1e-20) + 0j, None,
                         cfg, domain=(-1.0, 2.0), oscillation_length=1.0)
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

    @pytest.mark.parametrize("length", [1e12, 1e300, 1.7e308])
    def test_first_level_charged_before_it_is_built(self, length):
        # 17 L/(4 pi) first-level panels, from 1.4e12 to past the float
        # range: refused before a node array, or the residue, is evaluated
        def never(k):
            raise AssertionError("integrand evaluated")

        with pytest.raises(NonConvergenceError,
                           match=r"refinement level 0: \S+ unresolved panels "
                                 r"span k in \[-8.5, 8.5\]"):
            pv_integrate(never, 0.0, domain=(-8.5, 8.5), oscillation_length=length)

    def test_non_finite_level_raises_at_once(self):
        # NaN on [0.5, 2.5] makes the first level's error scale NaN, and no
        # panel would ever pass; the level raises after one integrand call
        calls = []

        def f(k):
            calls.append(k.size)
            return np.where((k >= 0.5) & (k <= 2.5), np.nan, np.exp(-(k * k))) + 0j

        with pytest.raises(NonConvergenceError,
                           match=r"^non-finite integrand at refinement level 0: 3 panels "
                                 r"span k in \[0, 3\]$"):
            pv_integrate(f, None, domain=(-4.0, 4.0), oscillation_length=4.0 * math.pi)
        assert len(calls) == 1

    @pytest.mark.parametrize("domain", [(1.0, 1.0), (2.0, -2.0),
                                        (float("nan"), 1.0), (0.0, float("nan"))])
    def test_empty_or_nan_domain_rejected(self, domain):
        with pytest.raises(DomainError, match="empty integration domain"):
            pv_integrate(lambda k: np.exp(-(k * k)), None, domain=domain,
                         oscillation_length=1.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, float("nan"), float("inf")])
    def test_oscillation_length_must_be_finite_and_positive(self, length):
        with pytest.raises(DomainError, match="oscillation_length"):
            pv_integrate(lambda k: np.exp(-(k * k)) + 0j, None,
                         domain=(-6.0, 6.0), oscillation_length=length)

    def test_config_validation(self):
        # a NaN budget never compares as exceeded, so it must not get in
        for max_panels in [15, float("nan"), float("inf"), 2500.5]:
            with pytest.raises(DomainError):
                QuadratureConfig(max_panels=max_panels)

    def test_config_accepts_integers(self):
        assert QuadratureConfig(max_panels=np.int64(2000)).max_panels == 2000
        assert [f.name for f in dataclasses.fields(QuadratureConfig)] == ["max_panels"]

    def test_realness_guard(self):
        # the conj-even route's residue nodes reject a relative defect of
        # 1e-3 between f(-k) and conj f(k) and let one of 1e-12 through
        def kernel(defect):
            return lambda k: np.exp(10j * k) / (1j * k) * (1.0 + defect * (k < 0.0))

        with pytest.raises(NonConvergenceError, match="not conj-even"):
            pv_integrate(kernel(1e-3), 0.0, domain=(-2.0, 2.0),
                         oscillation_length=10.0, conj_even=True)
        val = pv_integrate(kernel(1e-12), 0.0, domain=(-2.0, 2.0),
                           oscillation_length=10.0, conj_even=True)
        assert val == pytest.approx(2.0 * sici(20.0)[0], abs=1e-6)
        assert val.imag == 0.0


class TestConjEven:
    """pv_integrate on k >= 0 only, for f(-k) = conj f(k) about a pole at 0."""

    L, K = 10.0, 40.0

    def _kernel(self, sizes):
        # e^{ikL}/(ik) is conj-even; its PV over [-K, K] is 2 Si(KL)
        def f(k):
            sizes.append(k.size)
            return np.exp(1j * k * self.L) / (1j * k)

        return f

    def test_value_is_twice_si(self):
        val = pv_integrate(self._kernel([]), 0.0, domain=(-self.K, self.K),
                           oscillation_length=self.L, conj_even=True)
        assert val == pytest.approx(2.0 * sici(self.K * self.L)[0], abs=1e-6)
        assert val.imag == 0.0

    def test_matches_whole_window_on_half_the_points(self):
        whole, half = [], []
        ref = pv_integrate(self._kernel(whole), 0.0, domain=(-self.K, self.K),
                           oscillation_length=self.L)
        val = pv_integrate(self._kernel(half), 0.0, domain=(-self.K, self.K),
                           oscillation_length=self.L, conj_even=True)
        assert abs(val - ref) <= 1e-12 * abs(ref)
        # the four residue nodes come first in both
        assert whole[0] == half[0] == 4
        assert sum(half[1:]) <= 0.5 * sum(whole[1:])

    def test_budget_failure_reads_as_on_the_whole_window(self):
        # mirrored spikes of width 1e-10 at k = -+0.3: each evaluated panel
        # counts twice in the error scale and the budget, so both routes stall
        # at the same level with the same count and k-interval
        def f(k):
            spikes = 1.0 / ((k - 0.3) ** 2 + 1e-20) + 1.0 / ((k + 0.3) ** 2 + 1e-20)
            return spikes + np.exp(1j * k * self.L) / (1j * k)

        messages = []
        for conj_even in (False, True):
            with pytest.raises(NonConvergenceError) as info:
                pv_integrate(f, 0.0, QuadratureConfig(max_panels=200),
                             domain=(-2.0, 2.0), oscillation_length=self.L,
                             conj_even=conj_even)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "refinement level 21: 32 unresolved panels" in messages[1]

    @pytest.mark.parametrize("pole, domain", [
        (None, (-40.0, 40.0)), (0.5, (-40.0, 40.0)), (0.0, (-40.0, 41.0)),
        (0.0, (-1.0, math.e))])
    def test_needs_pole_at_zero_and_symmetric_window(self, pole, domain):
        def never(k):
            raise AssertionError("integrand evaluated")

        with pytest.raises(DomainError, match="conj_even"):
            pv_integrate(never, pole, domain=domain, oscillation_length=self.L,
                         conj_even=True)

    def test_conj_odd_integrand_raises(self):
        # e^{ikL}/k, the Cauchy kernel of the whole-window tests, is conj-odd
        with pytest.raises(NonConvergenceError, match="not conj-even"):
            pv_integrate(lambda k: np.exp(1j * k * self.L) / k, 0.0,
                         domain=(-self.K, self.K), oscillation_length=self.L,
                         conj_even=True)


class TestCauchyReference:
    @pytest.mark.parametrize("k0, l0", [(0.7, 150.0), (0.3, 150.0),
                                        (1.1, 300.0)])
    def test_inverse_velocity_matches_qawc(self, barrier, k0, l0):
        # QUADPACK's Cauchy-weight rule (QAWC) takes the PV of f(k)/k by its
        # own modified Clenshaw-Curtis scheme, with no residue subtraction.
        p = Packet(k0, l0)
        k_hi = quadrature._window_edge(p)

        def density(k):
            return barrier.mass / (2.0 * math.pi) * momentum_density(k - k0, p)

        ref, _ = quad(density, -k_hi, k_hi, weight="cauchy", wvar=0.0,
                      limit=4 * int(k_hi * l0), epsabs=0.0, epsrel=1e-12)
        assert oracle_inverse_velocity(p, barrier) == pytest.approx(
            ref, rel=1e-9)


class TestUnfoldedReference:
    """The folded oracles against PV routes over the whole symmetric window."""

    POINTS = [(0.3, 150.0), (1.1, 300.0), (1.1, 3000.0)]

    @staticmethod
    def _k_hi(k0, l0):
        return quadrature._window_edge(Packet(k0, l0))

    @pytest.mark.parametrize("k0, l0", POINTS)
    def test_folded_matches_pv_with_pole(self, barrier, k0, l0):
        p, m, k_hi = Packet(k0, l0), barrier.mass, self._k_hi(k0, l0)

        def pv(g):
            return pv_integrate(g, 0.0, domain=(-k_hi, k_hi),
                                oscillation_length=l0).real

        v_inv = pv(lambda k: m / (2.0 * math.pi) * momentum_density(k - k0, p) / k)
        t_tunnel = pv(lambda k: momentum_density(k - k0, p) / (2.0 * math.pi)
                      * phase_time_grid(k, barrier))
        assert oracle_inverse_velocity(p, barrier) == pytest.approx(v_inv, rel=1e-11)
        assert oracle_tunneling_time(p, barrier) == pytest.approx(t_tunnel, rel=1e-11)

    @pytest.mark.parametrize("k0, l0", POINTS)
    def test_delay_B_pv_matches_fold(self, barrier, k0, l0):
        p = Packet(k0, l0)
        assert oracle_delay_B(p, barrier) == pytest.approx(
            _delay_B_fold(p, barrier), rel=1e-11)


def _delay_B_fold(p, barrier):
    """delay-B from amplitude_grid, folded: g(-k) = conj g(k), so the PV over
    [-k_hi, k_hi] is the ordinary integral of 2 Re g over [0, k_hi], whose
    integrand has no pole. Re g oscillates like cos((2 L0 + a) k)."""
    k_hi = quadrature._window_edge(p)

    def two_re_g(k):
        return 2.0 * _delay_B_amplitude_form(k, p, barrier).real

    return pv_integrate(two_re_g, None, domain=(0.0, k_hi),
                        oscillation_length=2.0 * p.L0 + barrier.width).real


def _delay_B_amplitude_form(k, p, barrier):
    """The delay-B integrand with the packet bracket from f_amp_and_deriv."""
    F_p, F_m, _, _ = amplitude_grid(k, barrier)
    f_m, df_m = f_amp_and_deriv(k - p.k0, p, barrier.width)
    f_p, df_p = f_amp_and_deriv(k + p.k0, p, barrier.width)
    bracket = f_m * df_p - f_p * df_m
    return (0.5j / (2.0 * math.pi)) * (barrier.mass / k) * (F_p + F_m) * bracket


class TestDelayBBracket:
    """The collapsed delay-B integrand against the f_amp_and_deriv bracket."""

    @pytest.mark.parametrize("k0", [0.3, 1.1, 2.0 * math.pi / 150.0])
    def test_collapsed_integrand_matches_amplitude_form(self, barrier, monkeypatch, k0):
        p = Packet(k0, 150.0)
        seen = []
        monkeypatch.setattr(quadrature, "pv_integrate",
                            lambda g, *args, **kwargs: seen.append(g) or 0j)
        oracle_delay_B(p, barrier)
        # x = (k -+ k0) L0/2 inside the S' series region and at the sinc zero
        # x = pi, the two-pi node q = 2 pi/L0
        x = np.concatenate([np.linspace(-0.6, 0.6, 49), [math.pi, -math.pi]])
        k = np.concatenate([k0 + 2.0 * x / p.L0, -k0 + 2.0 * x / p.L0])
        k = k[k != 0.0]  # the pole, at x = -+pi when k0 L0 = 2 pi
        ref = _delay_B_amplitude_form(k, p, barrier)
        got = seen[0](k)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


class TestDelayBMirror:
    """The conj-even symmetry that lets delay-B evaluate only k >= 0."""

    @pytest.mark.parametrize("two_mv, a", [
        (1.0, 0.01), (1.0, 15.0), (1.0, 1500.0), (2e-12, 15.0), (1e300, 15.0)])
    def test_integrand_is_conj_even(self, monkeypatch, two_mv, a):
        # measured against the gross size |C (S- S'+ - S+ S'-)/k|, the
        # integrand with its unit phase and its cos(phi+ - phi-) factor set to
        # 1: near the zeros of that factor, and everywhere on the vanishing
        # barrier, g itself is a cancellation whose relative rounding is large
        p, b = Packet(0.5, 150.0), Barrier.from_two_mv(two_mv, a)
        seen = []
        monkeypatch.setattr(quadrature, "pv_integrate",
                            lambda g, *args, **kwargs: seen.append(g) or 0j)
        oracle_delay_B(p, b)
        # the window, the overflow band near k = 0.3204 at a = 1500, both
        # sides of the barrier top at 2mV = 1, and below the top at 2e-12
        k = np.concatenate([np.linspace(1e-4, quadrature._window_edge(p), 20001),
                            np.linspace(0.3194, 0.3214, 2001),
                            1.0 + np.linspace(-1e-3, 1e-3, 201),
                            np.geomspace(1e-9, 1e-6, 31)])
        s_m, ds_m = sinc_and_deriv(0.5 * p.L0 * (k - p.k0))
        s_p, ds_p = sinc_and_deriv(0.5 * p.L0 * (k + p.k0))
        gross = np.abs(0.5 * b.mass * p.L0**2 / (2.0 * math.pi)
                       * (s_m * ds_p - s_p * ds_m) / k)
        assert np.all(np.abs(seen[0](-k) - np.conj(seen[0](k))) <= 1e-12 * gross)

    def test_half_the_points_and_none_below_the_residue_nodes(self, barrier, monkeypatch):
        # the whole window took 182,956 points in 6 integrand calls
        p = Packet(1.1, 3000.0)
        ks = []
        orig = quadrature.parity_phases

        def recording(k, b):
            ks.append(k)
            return orig(k, b)

        monkeypatch.setattr(quadrature, "parity_phases", recording)
        oracle_delay_B(p, barrier)
        d = 1e-3 * min(quadrature._window_edge(p),
                       math.pi / (2.0 * p.L0 + barrier.width))
        assert min(k.min() for k in ks) == -d
        assert sum(k.size for k in ks) <= 0.51 * 182_956


class TestThickBarrier:
    """delay-B at a = 1500, where cosh(kappa a/2) overflows below k ~ 0.32."""

    THICK = Barrier.from_two_mv(1.0, 1500.0)

    @pytest.mark.parametrize("l0", [150.0, 300.0])
    def test_delay_B_pv_matches_fold(self, l0):
        p = Packet(0.5, l0)
        assert abs(oracle_delay_B(p, self.THICK) - _delay_B_fold(p, self.THICK)) <= 1e-7

    @pytest.mark.parametrize("l0", [150.0, 300.0])
    def test_delay_B_matches_closed_form(self, l0):
        p = Packet(0.5, l0)
        assert abs(oracle_delay_B(p, self.THICK)
                   - age_difference(p, self.THICK).dtau_B) <= 1e-7


class TestLargeL0:
    """Panels of two periods of the declared frequency reach large L0."""

    @pytest.mark.parametrize("l0", [3000.0, 15000.0])
    def test_delay_B_converges(self, barrier, l0):
        p = Packet(1.1, l0)
        assert oracle_delay_B(p, barrier) == pytest.approx(
            age_difference(p, barrier).dtau_B, abs=1e-9)

    @pytest.mark.parametrize("oracle, field", [
        (oracle_inverse_velocity, "v_inv"), (oracle_tunneling_time, "t_tunnel")])
    def test_folded_oracles_converge_at_40000(self, barrier, oracle, field):
        def gap(l0):
            p = Packet(1.1, l0)
            return abs(oracle(p, barrier) - getattr(age_difference(p, barrier), field))

        assert gap(40000.0) < gap(3000.0)

    def test_delay_B_raises_at_level_0_at_40000(self, barrier):
        with pytest.raises(NonConvergenceError, match="refinement level 0:"):
            oracle_delay_B(Packet(1.1, 40000.0), barrier)


class TestScipyReference:
    """QUADPACK's QAGS on the pole-free integrands at the hardest points."""

    @staticmethod
    def _quad(f, k0, l0):
        k_hi = quadrature._window_edge(Packet(k0, l0))
        val, _ = quad(lambda k: float(f(np.array([k]))[0]), 0.0, k_hi,
                      limit=int(8 * k_hi * l0), epsabs=0.0, epsrel=1e-13,
                      points=[k0])
        return val

    def test_tunneling_time_folded(self, barrier):
        k0, l0 = 0.5, 40.0
        p = Packet(k0, l0)

        def g(k):
            rho = momentum_density(k - k0, p) - momentum_density(k + k0, p)
            return rho * phase_time_grid(k, barrier) / (2.0 * math.pi)

        assert oracle_tunneling_time(p, barrier) == pytest.approx(
            self._quad(g, k0, l0), rel=1e-7)

    def test_delay_B_fold(self, barrier):
        # g(-k) = conj g(k): the PV is the integral of 2 Re g over k > 0
        k0, l0 = 0.01, 150.0
        p = Packet(k0, l0)
        fold = self._quad(lambda k: 2.0 * _delay_B_amplitude_form(k, p, barrier).real,
                          k0, l0)
        assert oracle_delay_B(p, barrier) == pytest.approx(fold, rel=1e-8)


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

    def test_window_doubling_stable(self, barrier, monkeypatch):
        p = Packet(1.0, 150.0)
        v1 = oracle_inverse_velocity(p, barrier)
        monkeypatch.setattr(quadrature, "_WINDOW_HALF_WIDTH", 16.0)
        assert quadrature._window_edge(p) == p.k0 + 16.0
        v2 = oracle_inverse_velocity(p, barrier)
        assert abs(v2 - v1) <= quadrature._REL_TOL * abs(v1)

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
        orig = quadrature.parity_phases

        def counting(k, barrier):
            calls.append(k.size)
            return orig(k, barrier)

        monkeypatch.setattr(quadrature, "parity_phases", counting)
        b = Barrier.from_two_mv(2e-12, 15.0)
        with pytest.raises(NonConvergenceError):
            oracle_delay_B(Packet(0.7, 150.0), b)
        assert 0 < len(calls) <= 100

    @pytest.mark.parametrize("k0", [0.692, 0.706])
    def test_vanishing_barrier_delay_B_raises_on_a_small_budget(self, monkeypatch, k0):
        # the benchmark's fail-fast call: a 2000-panel budget at the ends of
        # its k0 range
        calls = []
        orig = quadrature.parity_phases

        def counting(k, barrier):
            calls.append(k.size)
            return orig(k, barrier)

        monkeypatch.setattr(quadrature, "parity_phases", counting)
        b = Barrier.from_two_mv(2e-12, 15.0)
        with pytest.raises(NonConvergenceError, match="max_panels=2000"):
            oracle_delay_B(Packet(k0, 150.0), b, QuadratureConfig(max_panels=2000))
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


DELAY_B_POINTS = [(k0, L0) for oracle, k0, L0, _ in PINNED if oracle is oracle_delay_B]


class TestDelayBResidue:
    """The pole residue that pv_integrate subtracts from the delay-B integrand."""

    @pytest.mark.parametrize("k0, l0", DELAY_B_POINTS)
    def test_residue_matches_closed_form(self, barrier, monkeypatch, k0, l0):
        # at k = 0, F+ + F- = -2 and the bracket is 2 S(X) S'(X), X = k0 L0/2,
        # so the residue is -4 C S(X) S'(X), C the integrand's prefactor
        seen = []
        residue = quadrature._residue
        monkeypatch.setattr(quadrature, "_residue",
                            lambda *args: seen.append(residue(*args)) or seen[-1])
        oracle_delay_B(Packet(k0, l0), barrier)
        c = 0.25j * barrier.mass * l0 * l0 / (2.0 * math.pi)
        s, ds = sinc_and_deriv(np.array(0.5 * k0 * l0))
        exact = -4.0 * c * s * ds
        assert len(seen) == 1
        assert abs(seen[0] - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("k0, l0", DELAY_B_POINTS)
    def test_few_integrand_calls(self, barrier, monkeypatch, k0, l0):
        # a residue with an O(d^2) error left a residual pole whose panels
        # were bisected down to the width floor: 36-37 integrand calls
        calls = []
        orig = quadrature.parity_phases

        def counting(k, b):
            calls.append(k.size)
            return orig(k, b)

        monkeypatch.setattr(quadrature, "parity_phases", counting)
        oracle_delay_B(Packet(k0, l0), barrier)
        assert 0 < len(calls) <= 6
