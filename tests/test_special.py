import numpy as np
import pytest

from tunneltimes import special
from tunneltimes.special import chi_w, cosh_w, even_kernels, psi_w, sinhc_w


def _per_kernel(w, series_coeffs, closed):
    """Reference: one mask, gather and scatter per kernel, as each kernel
    was evaluated before the shared pass."""
    w = np.asarray(w)
    scalar = w.ndim == 0
    wc = np.atleast_1d(w).astype(complex)
    out = np.empty_like(wc)
    small = np.abs(wc) < 0.0625
    if np.any(small):
        ws = wc[small]
        acc = np.zeros_like(ws)
        for c in reversed(series_coeffs):
            acc = acc * ws + c
        out[small] = acc
    if np.any(~small):
        out[~small] = closed(wc[~small])
    if np.isrealobj(w):
        out = out.real
    return out[0] if scalar else out


REFERENCE = {
    "sinhc": lambda w: _per_kernel(
        w, [1.0, 1 / 6.0, 1 / 120.0, 1 / 5040.0, 1 / 362880.0, 1 / 39916800.0],
        lambda ws: np.sinh(np.sqrt(ws)) / np.sqrt(ws)),
    "cosh": lambda w: _per_kernel(
        w, [1.0, 1 / 2.0, 1 / 24.0, 1 / 720.0, 1 / 40320.0, 1 / 3628800.0],
        lambda ws: np.cosh(np.sqrt(ws))),
    "psi": lambda w: _per_kernel(
        w, [1 / 6.0, 1 / 120.0, 1 / 5040.0, 1 / 362880.0, 1 / 39916800.0],
        lambda ws: (np.sinh(np.sqrt(ws)) / np.sqrt(ws) - 1.0) / ws),
    "chi": lambda w: _per_kernel(
        w, [1 / 3.0, 1 / 30.0, 1 / 840.0, 1 / 45360.0, 1 / 3991680.0,
            12 / 6227020800.0],
        lambda ws: (np.cosh(np.sqrt(ws))
                    - np.sinh(np.sqrt(ws)) / np.sqrt(ws)) / ws),
}
VIEWS = {"sinhc": sinhc_w, "cosh": cosh_w, "psi": psi_w, "chi": chi_w}

SERIES = [0.0, 1e-9, 0.01, -0.03, 0.0624]
CLOSED = [0.5, -3.0, 40.0, -700.0, 0.0625000001]
EDGE = [0.0625, -0.0625]          # |w| exactly at the switch: closed branch
INPUTS = {
    "series real": np.array(SERIES),
    "closed real": np.array(CLOSED),
    "mixed real": np.array([0.01, 2.5, -0.0625, 1e-4, -9.0, 0.0625]),
    "series complex": np.array(SERIES) + 0.02j,
    "closed complex": np.array(CLOSED) * (1 - 0.3j),
    "mixed complex": np.array([0.01 + 0.01j, 2.5 - 1.0j, 0.0625j,
                               -0.0625j, -9.0 + 40.0j, 0.03j]),
    "edge": np.array(EDGE),
    "2-d mixed": np.array([[0.01, 3.0], [-0.0625, -1e-3]]) * (1 + 0.5j),
    "empty": np.array([]),
    # W's argument (kappa a/2)^2 for a = 15, 2mV = 1 on a block of real k
    # straddling k = +-1, where |w| crosses 0.0625
    "block": (1.0 - np.concatenate([np.linspace(-1.004, -0.996, 1500),
                                    np.linspace(0.996, 1.004, 1500)]) ** 2)
    * 56.25 + 0j,
}
SCALARS = [0.01, 0.0625, -2.0, 0.01 + 0.02j, 0.0625j, -3.0 - 1.0j,
           np.float64(0.5), np.complex128(1e-3 - 0.2j),
           np.array(0.02), np.array(-4.0 + 1.0j)]
NAME_SETS = [("cosh", "sinhc"), ("cosh", "sinhc", "chi"),
             ("chi", "psi", "sinhc", "cosh"), ("psi",), ("cosh",)]


def _same(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("names", NAME_SETS)
@pytest.mark.parametrize("case", sorted(INPUTS))
def test_shared_pass_is_bitwise_per_kernel(case, names):
    w = INPUTS[case]
    got = even_kernels(w, names)
    assert list(got) == list(names)
    for name in names:
        _same(got[name], REFERENCE[name](w))
        _same(VIEWS[name](w), REFERENCE[name](w))


@pytest.mark.parametrize("names", NAME_SETS)
@pytest.mark.parametrize("w", SCALARS, ids=repr)
def test_scalar_and_0d_inputs(w, names):
    got = even_kernels(w, names)
    for name in names:
        _same(got[name], REFERENCE[name](w))
        _same(VIEWS[name](w), REFERENCE[name](w))


def test_no_gather_without_small_points(monkeypatch):
    # with no point in the series disc the closed forms see w itself
    seen = []
    closed = special._closed

    def recording(w, names):
        seen.append(w)
        return closed(w, names)

    monkeypatch.setattr(special, "_closed", recording)
    w = np.array([1.0 + 1.0j, -4.0, 0.5j])
    even_kernels(w, ("cosh", "sinhc", "chi"))
    assert len(seen) == 1 and seen[0] is w
    # with some or all points in it, the series patches the closed forms'
    # output in place: still one call, on w itself
    for w in (np.array([1.0 + 1.0j, 0.01, -4.0, 0.0]),
              np.array([0.01j, 0.0, -0.03 + 0.01j])):
        seen.clear()
        even_kernels(w, ("cosh", "sinhc", "chi"))
        assert len(seen) == 1 and seen[0] is w
