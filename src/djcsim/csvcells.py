"""CSV cells of float64 values, byte for byte as ``%.17g`` writes them,
formatted a block of rows at a time in numpy.

``format_rows`` turns a (rows, columns) float64 block into comma-separated,
LF-terminated lines.  Values with 1e-6 < |v| < 1e17 and zeros are laid out
by table lookups; Python's ``%`` formats the rest (nonfinite, |v| <= 1e-6
and |v| >= 1e17).  Each layout is masked to the bytes its cell keeps and
the NUL bytes left are deleted.  Every cell reads back to the float64 it
was written from.
"""

from __future__ import annotations

import functools

import numpy as np

#: Every CSV number: 17 significant digits read back to the same float64.
SPEC = "%.17g"
#: Bytes of one cell's layout.
_CELL = 48
#: Veltkamp's splitting constant 2**27 + 1.
_SPLIT = 134217729.0


@functools.cache
def _tables():
    """Lookup tables of ``format_rows``, built on its first call.

    A cell is laid out in ``_CELL`` bytes: a sign (byte 0), the prefix
    ``0.000`` (1-5), 17 digits each followed by a point slot (6-39), ``e-0``
    and an exponent digit (40-43), the separator (44) and padding.  Each
    entry of ``lead``, ``groups`` and ``tail`` is 8 bytes of that layout.
    ``masks`` holds the bytes to keep as 0xFF and the rest as 0x00, viewed
    as six uint64 per row: one row per (sign, exponent -6..16,
    significant-digit count 1..17), two rows for 0 and -0, and a last row
    for a cell that ``%`` formats, which keeps bytes 0-23 and the separator.
    """
    group = np.arange(10000, dtype=np.int16)
    digits = group[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
    # four digits with their point slots, as one uint64 per group
    pairs = np.full((10000, 8), ord("."), dtype=np.uint8)
    pairs[:, 0::2] = digits + ord("0")
    groups = pairs.view(np.uint64).ravel()
    trailing = sum(group % 10 ** j == 0 for j in range(1, 5))  # 4 for a zero group
    lead = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64)
    tail = np.frombuffer(b"".join(b"e-0%d,\0\0\0" % max(-x, 0) for x in range(-6, 17)),
                         np.uint64)
    # exact powers of ten and their Veltkamp halves, for Dekker's TwoProduct
    power = np.array([float(10 ** k) for k in range(23)])
    power_hi = power * _SPLIT - (power * _SPLIT - power)
    pos = np.arange(_CELL)
    neg = np.arange(2)[:, None, None, None]
    x = np.arange(-6, 17)[None, :, None, None]
    count = np.arange(1, 18)[None, None, :, None]
    fixed = x >= -4  # %g's choice of positional notation
    digit, point = (pos - 6) // 2, (pos >= 7) & (pos % 2 == 1)
    last = np.where(x >= 0, np.maximum(x, count - 1), count - 1)  # last digit kept
    keep = ((pos == 0) & (neg == 1)
            | ((pos == 1) | (pos == 2)) & fixed & (x < 0)
            | (pos >= 3) & (pos < 6) & fixed & (pos - 3 < -x - 1)
            | (pos >= 6) & (pos < 40) & ~point & (digit <= last)
            | (pos < 40) & point & (digit == np.where(fixed, x, 0)) & (digit < count - 1)
            | (pos >= 40) & (pos < 44) & ~fixed
            | (pos == 44))
    zeros = (pos == 1) | (pos == 44) | (pos == 0) & (np.arange(2)[:, None] == 1)
    printed = (pos < 24) | (pos == 44)
    masks = np.concatenate((keep.reshape(-1, _CELL), zeros, [printed])) * np.uint8(0xFF)
    return lead, groups, trailing, tail, power, power_hi, masks.view(np.uint64)


def _scaled(a, k, power, power_hi):
    """a * 10**k as hi + lo exactly (Dekker's TwoProduct, Numer. Math. 18,
    224, 1971): 10**k is exact for k <= 22 and nothing under- or overflows."""
    p, ph = power[k], power_hi[k]
    pl = p - ph
    hi = a * p
    split = a * _SPLIT
    ah = split - (split - a)
    al = a - ah
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _mantissas(a, power, power_hi):
    """M = round(a * 10**k) with 10**16 <= M < 10**17, ties to even, and k,
    for 1e-6 < a < 1e17 (so 0 <= k <= 22: float 1e-6 is below 10**-6).

    k starts from log10(a), which may miss by one next to a power of ten,
    and is corrected from the exact product hi + lo.  hi >= 1e16 > 2**53 is
    an even integer, so rounding hi + lo is hi + rint(lo).  No M rounds up
    to 10**17: the largest float below each power of ten from 1e-5 to 1e17
    lies 4.5 units of the 17th digit or more below it.
    """
    k = (16.0 - np.floor(np.log10(a))).clip(0, 22).astype(np.intp)
    hi, lo = _scaled(a, k, power, power_hi)
    up = (hi < 1e16) | (hi == 1e16) & (lo < 0)
    down = (hi > 1e17) | (hi == 1e17) & (lo >= 0)
    redo = np.flatnonzero(up | down)
    if redo.size:
        k[redo] += up[redo]
        k[redo] -= down[redo]
        hi[redo], lo[redo] = _scaled(a[redo], k[redo], power, power_hi)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), k


def _cells(v: np.ndarray):
    """The ``_CELL``-byte layouts of the values v, as six uint64 per cell,
    and the row of ``masks`` that selects each one's bytes; the last row
    where ``%`` must format it.

    A value with 1e-6 < |v| < 1e17 becomes its 17-digit mantissa
    (``_mantissas``), whose digits come from 4-digit groups; the mask row is
    looked up by sign, exponent and significant-digit count.  Zeros take
    rows of their own.
    """
    lead, groups, trailing, tail, power, power_hi, masks = _tables()
    a = np.abs(v)
    fast = (a > 1e-6) & (a < 1e17)  # False for NaN
    a[~fast] = 1.0
    m, k = _mantissas(a, power, power_hi)
    first, rest = np.divmod(m, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    g1, g2 = np.divmod(high, 10 ** 4)
    g3, g4 = np.divmod(low, 10 ** 4)
    # significant digits: 17 less the trailing zeros of the groups, which
    # reach past the last group only where it is zero
    count = 17 - trailing[g4]
    tied = np.flatnonzero(g4 == 0)
    if tied.size:
        zero = np.ones(tied.size, dtype=bool)
        for g in (g3, g2, g1):
            count[tied] -= zero * trailing[g[tied]]
            zero &= g[tied] == 0
    neg = np.signbit(v)
    exponent = 22 - k  # the exponent plus 6
    key = (neg * 23 + exponent) * 17 + count - 1
    key[~fast] = len(masks) - 1
    zeros = v == 0
    key[zeros] = len(masks) - 3 + neg[zeros]

    cells = np.empty((len(v), _CELL // 8), dtype=np.uint64)
    cells[:, 0] = np.take(lead, first)
    cells[:, 1] = np.take(groups, g1)
    cells[:, 2] = np.take(groups, g2)
    cells[:, 3] = np.take(groups, g3)
    cells[:, 4] = np.take(groups, g4)
    cells[:, 5] = np.take(tail, exponent)
    return cells, key


def format_rows(block: np.ndarray) -> np.ndarray:
    """The bytes of the rows of ``block``, a (rows, columns) float64 array,
    as CSV lines, each cell exactly as ``SPEC`` writes it: the cells'
    layouts (``_cells``) ANDed with their keep-masks, with the NUL bytes
    left deleted.  A cell that ``%`` formats is written NUL-padded into its
    first 24 bytes, so the same deletion drops its padding.  The digit
    arrays of ``_cells`` are freed before the masks are taken, which bounds
    the peak memory."""
    rows, columns = block.shape
    v = block.ravel()
    cells, key = _cells(v)
    text = cells.view(np.uint8)
    text.reshape(rows, columns, _CELL)[:, -1, 44] = ord("\n")
    masks = _tables()[-1]
    other = np.flatnonzero(key == len(masks) - 1)
    if other.size:
        # the longest cell, -2.2250738585072014e-308, has 24 characters
        printed = np.array([SPEC % x for x in v[other].tolist()], dtype="S24")
        text[other, :24] = printed.view(np.uint8).reshape(-1, 24)
    cells &= np.take(masks, key, axis=0)
    return np.frombuffer(cells.tobytes().translate(None, b"\0"), np.uint8)
