"""Stable even kernels used by the amplitude and phase-time formulas.

All functions take w = z**2 instead of z. They are even in z, so they are
single-valued in w and no square-root branch ever has to be chosen by the
caller: negative (or complex) w simply continues sinh into sin. The closed
forms run on the whole input; their Taylor series in w then overwrite the
points near w = 0, where the closed forms lose digits (and give 0/0 at w = 0).
"""

from __future__ import annotations

import numpy as np

_SMALL = 0.0625
_SERIES = {  # Taylor coefficients in w, lowest order first
    "cosh": (1.0, 1 / 2.0, 1 / 24.0, 1 / 720.0, 1 / 40320.0, 1 / 3628800.0),
    "sinhc": (1.0, 1 / 6.0, 1 / 120.0, 1 / 5040.0, 1 / 362880.0, 1 / 39916800.0),
    "psi": (1 / 6.0, 1 / 120.0, 1 / 5040.0, 1 / 362880.0, 1 / 39916800.0),
    "chi": (1 / 3.0, 1 / 30.0, 1 / 840.0, 1 / 45360.0, 1 / 3991680.0,
            12 / 6227020800.0),
}


def _closed(w, names):
    sq = np.sqrt(w)
    ch = np.cosh(sq) if {"cosh", "chi"} & set(names) else None
    sc = np.sinh(sq) / sq if {"sinhc", "psi", "chi"} & set(names) else None
    out = {"cosh": ch, "sinhc": sc}
    if "psi" in names:
        out["psi"] = (sc - 1.0) / w
    if "chi" in names:
        out["chi"] = (ch - sc) / w
    return [out[name] for name in names]


def even_kernels(w, names) -> dict:
    """The kernels in the sequence names ('cosh', 'sinhc', 'psi', 'chi') at w.

    One pass: the closed forms, which share sqrt(w), cosh and
    sinh(sqrt(w))/sqrt(w), run once on w itself; then each kernel's series
    overwrites the points with |w| < _SMALL. Real w gives real kernels, and
    0-d w gives scalars.
    """
    w = np.asarray(w)
    wc = np.atleast_1d(w).astype(complex, copy=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        outs = _closed(wc, names)
    small = np.abs(wc) < _SMALL
    if small.any():
        for out, name in zip(outs, names):
            out[small] = np.polynomial.polynomial.polyval(wc[small], _SERIES[name])
    if np.isrealobj(w):
        outs = [out.real for out in outs]
    return dict(zip(names, [out[0] for out in outs] if w.ndim == 0 else outs))


def sinhc_w(w):
    """sinh(z)/z as a function of w = z**2 (equals sin(y)/y for w = -y**2)."""
    return even_kernels(w, ("sinhc",))["sinhc"]


def cosh_w(w):
    """cosh(z) as a function of w = z**2."""
    return even_kernels(w, ("cosh",))["cosh"]


def psi_w(w):
    """(sinh(z)/z - 1)/z**2 as a function of w = z**2; psi_w(0) = 1/6."""
    return even_kernels(w, ("psi",))["psi"]


def chi_w(w):
    """(cosh(z) - sinh(z)/z)/z**2 as a function of w = z**2; chi_w(0) = 1/3."""
    return even_kernels(w, ("chi",))["chi"]
