import math
import warnings

import numpy as np
import pytest

from tunneltimes.errors import DomainError
from tunneltimes.phasetime import (
    k_tau_limit,
    phase_time,
    phase_time_fd,
    phase_time_grid,
)
from tunneltimes.scattering import Barrier


def test_domain_errors(barrier):
    with pytest.raises(DomainError):
        phase_time(0.0, barrier)
    with pytest.raises(DomainError):
        phase_time(-1.0, barrier)
    with pytest.raises(DomainError):
        k_tau_limit(Barrier(0.0, 15.0, 1.0))


def test_grid_rejects_k_zero(barrier):
    # the grid route is odd in k and so takes negative k, but not k = 0
    with pytest.raises(DomainError, match="k = 0"):
        phase_time_grid(np.array([-1.0, 0.0, 1.0]), barrier)


def test_free_traversal_asymptote(barrier):
    # k >> sqrt(2mV): tau_ph -> m a / k
    assert phase_time(50.0, barrier) == pytest.approx(15.0 / 50.0, rel=0.02)


def test_free_barrier_exact():
    free = Barrier(0.0, 15.0, 1.0)
    assert phase_time(2.0, free) == pytest.approx(7.5, rel=1e-14)


@pytest.mark.parametrize("k", [0.3, 0.7, 1.5])
def test_matches_phase_derivative(barrier, k):
    assert phase_time(k, barrier) == pytest.approx(
        phase_time_fd(k, barrier), rel=1e-6
    )


def test_derivative_oracle_random(barrier, rng):
    for k in 0.05 + rng.random(50) * 2.95:
        closed = phase_time(float(k), barrier)
        fd = phase_time_fd(float(k), barrier)
        assert abs(closed - fd) <= 1e-6 * abs(closed)


@pytest.mark.parametrize("two_mv, a", [(1.0, 60.0), (4.0, 15.0)])
def test_fd_route_on_thick_and_high_barriers(two_mv, a):
    # |T| ~ e^{-kappa a} is rounding noise here, so the route must
    # differentiate the unimodular parity phases, not arg T
    b = Barrier.from_two_mv(two_mv, a)
    ks = np.geomspace(0.02, 10.0, 300)
    closed = phase_time_grid(ks, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fd = np.array([phase_time_fd(float(k), b) for k in ks])
    assert np.max(np.abs(fd - closed) / np.abs(closed)) < 1e-6


@pytest.mark.parametrize("a", [400.0, 800.0])
def test_thick_barrier_reaches_hartman_limit(a):
    # sinh(2 kappa a) overflows past kappa a ~ 355; the closed form must
    # answer with the Hartman limit 2m/(k kappa) there, not NaN
    b = Barrier.from_two_mv(1.0, a)
    for k in [0.01, 0.1, 0.5, 0.9]:
        assert phase_time(k, b) == pytest.approx(phase_time_fd(k, b), rel=1e-9)


def test_thick_barrier_fd_route_reaches_hartman_limit():
    # at a = 1500 cosh(kappa a/2) overflows in the parity amplitudes too, so
    # the difference route sees their e^{-kappa a} = 0 limit, not NaN
    b = Barrier.from_two_mv(1.0, 1500.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in np.linspace(0.05, 0.3, 6):
            assert phase_time_fd(k, b) == pytest.approx(phase_time(k, b), rel=1e-9)


def test_two_mv_past_the_float_square_reaches_hartman_limit():
    # (2mV)^2 overflows a Python float once 2mV > ~1.34e154; the closed form
    # must still answer with 2m/(k kappa)
    b = Barrier.from_two_mv(1e200, 15.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in [0.01, 1.0, 1e50]:
            hartman = 2.0 / (k * math.sqrt(1e200 - k * k))
            assert phase_time(k, b) == pytest.approx(hartman, rel=1e-12)


def test_width_cubed_past_the_float_range_reaches_hartman_limit():
    # a^3 overflows a Python float at a = 1e300; below the top the closed
    # form must still answer with 2m/(k kappa), without a warning
    b = Barrier.from_two_mv(1.0, 1e300)
    ks = np.array([0.01, 0.5, 0.99])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tau = phase_time_grid(ks, b)
    np.testing.assert_allclose(tau, 2.0 / (ks * np.sqrt(1.0 - ks * ks)), rtol=1e-12)


def test_k_tau_limit_at_the_underflow_edge():
    # 2mV underflows to 0: the free barrier, refused rather than divided by 0
    with pytest.raises(DomainError):
        k_tau_limit(Barrier(1e-300, 15.0, 1e-300))
    # just inside the edge, 2m/(kappa0 tanh(kappa0 a)) = 2m/(2mV a)
    b = Barrier(1e-300, 1e-6)
    assert k_tau_limit(b) == pytest.approx(2.0 / (b.l0_sq * b.width), rel=1e-12)


def test_tall_thin_barrier_does_not_collapse_to_zero():
    # here only the denominator l0^4 a^2 Sc^2 overflows (kappa a ~ 346), which
    # made the closed form 0; the difference route loses digits to the
    # cancellation of a against the phase slope, hence rel 1e-6
    b = Barrier.from_two_mv(1e10, 3.465e-3)
    ks = np.array([0.01, 1.0, 100.0])
    fd = [phase_time_fd(float(k), b) for k in ks]
    np.testing.assert_allclose(phase_time_grid(ks, b), fd, rtol=1e-6)


def test_resonance_region_delayed(barrier):
    # around k = 1.1 the phase time far exceeds the free traversal time
    assert phase_time(1.1, barrier) > 2.0 * 15.0 / 1.1


def test_continuity_across_barrier_top(barrier):
    # quadratic extrapolation of each side to the top agrees to 1e-8
    top = barrier.kappa0
    d = 1e-6

    def extrap(sign):
        k1, k2, k3 = top + sign * d, top + sign * 2 * d, top + sign * 3 * d
        t1, t2, t3 = (phase_time(k, barrier) for k in (k1, k2, k3))
        return 3.0 * t1 - 3.0 * t2 + t3

    assert abs(extrap(-1.0) - extrap(+1.0)) < 1e-8


def test_k_tau_limit_value(barrier):
    # (m/kappa0) sinh(2 kappa0 a) / sinh^2(kappa0 a), kappa0 = 1, a = 15
    expect = math.sinh(30.0) / math.sinh(15.0) ** 2
    assert k_tau_limit(barrier) == pytest.approx(expect, rel=1e-12)


def test_k_tau_limit_matches_small_k(barrier):
    assert k_tau_limit(barrier) == pytest.approx(
        1e-6 * phase_time(1e-6, barrier), rel=1e-5
    )


def test_k_tau_limit_asymptote():
    # kappa0 a >> 1: limit -> 2 m / kappa0
    b = Barrier.from_two_mv(4.0, 15.0, 1.0)
    assert k_tau_limit(b) == pytest.approx(2.0 / 2.0, rel=1e-10)
    # quadrupling 2mV at fixed a halves the value
    b4 = Barrier.from_two_mv(16.0, 15.0, 1.0)
    assert k_tau_limit(b4) == pytest.approx(0.5 * k_tau_limit(b), rel=1e-10)


def test_grid_and_scalar_agree(barrier):
    ks = np.array([0.2, 0.9, 1.0, 1.4])
    grid = phase_time_grid(ks, barrier)
    for k, val in zip(ks, grid):
        assert phase_time(float(k), barrier) == pytest.approx(float(val), rel=1e-14)


def test_oddness(barrier):
    ks = np.array([0.2, 0.9, 1.3])
    assert np.allclose(phase_time_grid(-ks, barrier),
                       -phase_time_grid(ks, barrier), rtol=1e-14)


def test_sample_record(barrier):
    tau_ph = phase_time(0.5, barrier)
    k_tau_at_zero = k_tau_limit(barrier)
    assert tau_ph == pytest.approx(float(phase_time_grid(0.5, barrier)))
    assert k_tau_at_zero == pytest.approx(
        2.0 * barrier.mass
        / (barrier.kappa0 * math.tanh(barrier.kappa0 * barrier.width)))
