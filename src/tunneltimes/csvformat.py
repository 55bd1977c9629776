"""CSV cells in numpy: printf '%.17g' of each value, byte for byte.

A finite nonzero value whose 17-digit decimal exponent e lies in [-4, 16]
prints in fixed notation. Its 17 digits come from one exact scaling, split
into the integer part and the fraction, and are written through a table of
4-digit words. The rest (zeros, infinities, NaN, |x| < 1e-4 or >= 1e17) go
through '%.17g' itself. The tables are built on first use, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

# A CSV cell is first written into _CELL bytes at fixed places, with NUL
# bytes between its characters; the NULs are dropped when its block is
# written out:
#   0-3    NUL, NUL, '-' or NUL, the integer part's 10^16 digit or NUL
#   4-19   the integer part's other 16 digits, leading zeros NUL ('0' if 0)
#   20-23  '.' and up to three '0', or NUL where there is no fraction
#   24-40  17 fraction digits, trailing zeros NUL
#   41     the separator
_CELL, _SEP = 44, 41
BLOCK_CELLS = 2048  # cells per pass: fewer add call overhead, more memory


@functools.cache
def _cell_tables():
    """The word table, 10^0..10^17 as int64, 10^0..10^20 as exact doubles,
    and the table offset of each of the words 0-5 by exponent e = -4..16.

    Words are four ASCII bytes, at v + 10000 * variant for v < 10^4:
    variant 0 writes v's four digits, 1 NULs its leading zeros (v = 0 gives
    NUL NUL NUL '0'), 2 its trailing zeros (v = 0 gives four NUL). Then come
    the five words NUL, '.', '.0', '.00', '.000'.
    """
    words = np.zeros((30005, 4), np.uint8)
    full, lead, trail = words[:10000], words[10000:20000], words[20000:30000]
    for j in range(4):  # digit j of v = 1000 a + 100 b + 10 c + d
        full.reshape(10, 10, 10, 10, 4)[..., j] = (
            48 + np.arange(10, dtype=np.uint8).reshape((10,) + (1,) * (3 - j)))
    lead[:] = trail[:] = full
    for j, place in enumerate((1000, 100, 10, 1)):
        lead[:place, j] = 0  # v < place: digit j is a leading zero
        trail[::10 * place, j] = 0  # v % (10 place) == 0: a trailing zero
    lead[0, 3] = 48
    words[30001:, 0] = 46
    words[30002:, 1] = words[30003:, 2] = words[30004, 3] = 48
    # integer-part word j holds the digits from 10^low[j] up: all of them
    # below 10^e, leading zeros NUL in the one holding 10^e, NUL above it;
    # '0' in the units word for e < 0, which also gets -1 - e zeros after '.'
    e = np.arange(-4, 17)
    low = np.array([16, 12, 8, 4, 0])[:, None]
    offsets = np.where(e >= low + 4, 0, np.where(e >= low, 10000, 20000))
    offsets[4, e < 0] = 10000
    offsets = np.vstack([offsets, 30000 + np.maximum(-1 - e, 0)])
    offsets = offsets.astype(np.int32)
    return (words.view(np.uint32).ravel(),
            np.array([10 ** k for k in range(18)], np.int64),
            np.array([float(10 ** k) for k in range(21)]), offsets)


def _digits17(ax, e, pow10f):
    """ax * 10^(16 - e) rounded half to even, as int64. The product is
    formed exactly as hi + lo (Dekker's two-product, split 2^27 + 1). Where
    it lies in [10^16, 10^17), hi is an even integer (it is past 2^53), so
    rounding lo half to even rounds the sum."""
    p = pow10f[16 - e]
    hi = ax * p
    c = 134217729.0 * ax
    ah = c - (c - ax)
    al = ax - ah
    c = 134217729.0 * p
    ph = c - (c - p)
    pl = p - ph
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _cells(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v for each v of the 1-d float array x, as (len(x), _CELL)
    uint8 rows laid out as described at _CELL. The fixed-notation digits
    are n = round(|v| 10^(16 - e)). For e >= 0 the integer part is
    n // 10^(16 - e) and the fraction's 17 digits (n mod 10^(16 - e))
    10^(e + 1); for e < 0 the integer part is 0 and the fraction -1 - e
    zeros, then n."""
    words, pow10, pow10f, offsets = _cell_tables()
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(ax))
    fast = (e >= -4.0) & (e <= 16.0)
    e = np.where(fast, e, 0.0).astype(np.intp)
    np.copyto(ax, 1.0, where=~fast)
    n = _digits17(ax, e, pow10f)
    # log10 can miss e by one next to a power of ten, and rounding can
    # carry n up to 10^17; two corrections settle both
    for _ in range(2):
        bad = np.flatnonzero((n < pow10[16]) | (n >= pow10[17]))
        if not bad.size:
            break
        e[bad] = np.clip(e[bad] + np.where(n[bad] < pow10[16], -1, 1), -4, 16)
        n[bad] = _digits17(ax[bad], e[bad], pow10f)
    fast &= (n >= pow10[16]) & (n < pow10[17])
    scale = pow10.take(np.minimum(16 - e, 17))  # e < 0: no integer digit
    ip = n // scale
    fp = (n - ip * scale) * (pow10[17] // scale)
    del ax, n, scale
    off = offsets.take(e + 4, axis=1)
    w = np.empty((len(x), _CELL // 4), np.uint32)
    d0 = ip // pow10[16]
    w[:, 0] = words.take(d0 + off[0])
    ip -= d0 * pow10[16]
    for j, place in enumerate((10 ** 12, 10 ** 8, 10 ** 4), 1):
        q = ip // place
        ip -= q * place
        w[:, j] = words.take(q + off[j])
    w[:, 4] = words.take(ip + off[4])
    w[:, 5] = words.take(off[5] + (fp != 0))
    q = fp // 10
    fp -= 10 * q
    w[:, 10] = words.take(20000 + 1000 * fp)
    trail = fp == 0
    for j in (9, 8, 7, 6):
        rest = q // 10 ** 4
        q -= rest * 10 ** 4
        w[:, j] = words.take(q + 20000 * trail)
        trail &= q == 0
        q = rest
    cells = w.view(np.uint8)
    cells[:, 2] = np.signbit(x) * np.uint8(45)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([b"%.17g" % v for v in x[slow].tolist()], dtype="S24")
        cells[slow] = 0
        cells[slow, :24] = text[:, None].view(np.uint8)
    return cells


def csv_rows(block: np.ndarray) -> bytes:
    """CSV lines, LF-terminated, of a 2-d float array: one per row, each
    cell '%.17g' of its value."""
    cells = _cells(block.ravel()).reshape(*block.shape, _CELL)
    cells[:, :, _SEP] = ord(",")
    cells[:, -1, _SEP] = ord("\n")
    return cells.tobytes().translate(None, b"\0")
