import math

import numpy as np
import pytest
from scipy.integrate import quad

from tunneltimes.errors import DomainError
from tunneltimes.wavepacket import (
    Packet,
    f_amp,
    f_amp_and_deriv,
    f_amp_deriv,
    momentum_density,
    sinc,
)

A = 15.0


def test_packet_validation():
    with pytest.raises(DomainError):
        Packet(0.0, 150.0)
    with pytest.raises(DomainError):
        Packet(1.0, -1.0)
    for k0, l0 in [(math.nan, 150.0), (math.inf, 150.0), (1.0, math.inf),
                   (1.0, math.nan)]:
        with pytest.raises(DomainError):
            Packet(k0, l0)


def test_zero_offset_limit():
    p = Packet(1.0, 150.0)
    assert abs(f_amp(0.0, p, A)) == pytest.approx(math.sqrt(p.L0), rel=1e-12)


def test_complex_offset_rejected():
    p = Packet(1.0, 150.0)
    with pytest.raises(DomainError):
        f_amp_and_deriv(np.array([0.1, 0.2 + 1e-9j]), p, A)
    with pytest.raises(DomainError):
        f_amp(0.1 + 0.1j, p, A)
    # a complex dtype with zero imaginary parts is still a real offset
    f, df = f_amp_and_deriv(np.array([0.1 + 0j]), p, A)
    assert (f[0], df[0]) == (f_amp(0.1, p, A), f_amp_deriv(0.1, p, A))


def test_density_zero_at_recurrence():
    p = Packet(1.0, 150.0)
    q = 2.0 * math.pi / p.L0
    assert momentum_density(q, p) == pytest.approx(0.0, abs=1e-9)


def test_normalization_by_quadrature():
    # (1/2pi) integral of |f|^2 over |q| <= 200pi/L0 -> 1 within 2e-3
    p = Packet(1.0, 150.0)
    w = 200.0 * math.pi / p.L0
    total = 0.0
    # split at sinc zeros' scale to help the adaptive rule
    edges = np.linspace(-w, w, 401)
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = quad(lambda q: momentum_density(q, p), lo, hi, limit=200)
        total += val
    assert total / (2.0 * math.pi) == pytest.approx(1.0, abs=2e-3)


def test_conjugation_symmetry():
    p = Packet(1.0, 150.0)
    q = np.linspace(-0.5, 0.5, 301)
    lhs = f_amp(-q, p, A)  # the partner amplitude f(q) = f*(-q)
    rhs = np.conj(f_amp(q, p, A))
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_density_matches_complex_form():
    p = Packet(1.0, 150.0)
    rng = np.random.default_rng(5)
    q = rng.uniform(0.001, 0.5, 200)
    direct = np.abs(f_amp(q, p, A)) ** 2
    closed = momentum_density(q, p)
    mask = closed > 1e-12
    assert np.max(np.abs(direct[mask] - closed[mask]) / closed[mask]) < 1e-12


def test_density_explicit_formula():
    # |f(q)|^2 = (2/(L0 q^2)) (1 - cos(q L0))
    p = Packet(1.0, 150.0)
    q = np.linspace(0.011, 0.8, 97)
    expect = 2.0 / (p.L0 * q**2) * (1.0 - np.cos(q * p.L0))
    assert np.max(np.abs(momentum_density(q, p) - expect)) < 1e-10


def test_taylor_branch_continuity():
    # either side of the S' series cutoff |x| = |q| L0/2 = 0.5, the derivative
    # matches a central difference of the amplitude
    p = Packet(1.0, 150.0)
    h = 1e-5 / p.L0
    for q in (0.9 / p.L0, 1.1 / p.L0, -0.9 / p.L0, -1.1 / p.L0):
        fd = (f_amp(q + h, p, A) - f_amp(q - h, p, A)) / (2.0 * h)
        assert f_amp_deriv(q, p, A) == pytest.approx(fd, rel=1e-8)


def test_series_cut_continuity():
    # S' switches from its series to (cos x - S)/x at |x| = |q| L0/2 = 0.5;
    # 1e-14 either side the derivative may differ only by rounding
    p = Packet(1.0, 150.0)
    for x in (0.5, -0.5):
        inside = f_amp_deriv(2.0 * x * (1.0 - 1e-14) / p.L0, p, A)
        outside = f_amp_deriv(2.0 * x * (1.0 + 1e-14) / p.L0, p, A)
        assert abs(outside - inside) < 1e-13 * abs(inside)


def test_derivatives_match_finite_differences():
    p = Packet(1.0, 150.0)
    h = 1e-7
    for q0 in (0.0, 0.013, -0.2, 0.31):
        fd = (f_amp(q0 + h, p, A) - f_amp(q0 - h, p, A)) / (2.0 * h)
        assert f_amp_deriv(q0, p, A) == pytest.approx(fd, rel=2e-6)
        # the partner f(q) = f*(-q) has derivative -f*'(-q)
        fd_c = (f_amp(-(q0 + h), p, A) - f_amp(-(q0 - h), p, A)) / (2.0 * h)
        assert -f_amp_deriv(-q0, p, A) == pytest.approx(fd_c, rel=2e-6)


def test_sinc_kernel():
    x = np.array([-7.5, -1e-9, 0.0, 1e-9, 0.3, math.pi, 40.0])
    np.testing.assert_allclose(sinc(x), np.sinc(x / math.pi), rtol=1e-14, atol=1e-16)
    assert sinc(0.0) == 1.0
