"""CSV cells of float64 values, byte for byte as ``%.17g`` writes them,
formatted a block of rows at a time in numpy.

``format_rows`` turns a (rows, columns) float64 block into comma-separated,
LF-terminated lines.  Values with 1e-6 < |v| < 1e17 and zeros are laid out
in 32 bytes a cell by table lookups; Python's ``%`` formats the rest
(nonfinite, |v| <= 1e-6 and |v| >= 1e17).  Each layout is masked to the
bytes its cell keeps and the NUL bytes left are deleted.  Every cell reads
back to the float64 it was written from.
"""

from __future__ import annotations

import functools

import numpy as np

#: Every CSV number: 17 significant digits read back to the same float64.
SPEC = "%.17g"
#: Bytes of one cell's layout.
_CELL = 32
#: Veltkamp's splitting constant 2**27 + 1.
_SPLIT = 134217729.0


@functools.cache
def _tables():
    """Lookup tables of ``format_rows``, built on its first call.

    A cell is laid out in ``_CELL`` bytes: a sign (byte 0), the prefix
    ``0.000`` (1-5), the first digit and a point (6-7), the other 16 digits
    (8-23), a spare byte (24), ``e-0`` and an exponent digit (25-28), the
    separator (29) and padding.  A value of decimal exponent x from 1 to 15
    has its point inside the digits: the digits after the (x+1)th move up
    one byte, into the spare one, and the point fills the gap at byte 8+x.
    Each entry of ``lead`` and ``tail`` is 8 bytes of that layout and each
    of ``groups`` 4 digits; ``trailing`` counts a 4-digit group's trailing
    zeros.  For the point after digit x+1, row x-1 of ``stay`` marks the
    bytes of the two words at bytes 8-23 that stay in place, and the same
    row of ``dot`` holds the point in its byte.  ``masks`` holds the bytes
    to keep as 0xFF and the rest as 0x00, viewed as four uint64 per row:
    one row per (sign, exponent -6..16, significant-digit count 1..17), two
    rows for 0 and -0, and a last row for a cell that ``%`` formats, which
    keeps bytes 0-23 and the separator.
    """
    group = np.arange(10000, dtype=np.int16)
    digits = group[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
    groups = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    trailing = sum(group % 10 ** j == 0 for j in range(1, 5)).astype(np.uint8)
    lead = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64)
    tail = np.frombuffer(b"".join(b"\0e-0%d,\0\0" % max(-x, 0) for x in range(-6, 17)),
                         np.uint64)
    # the point's byte in each word of bytes 8-23, read little-endian
    at = [[x - 8 * w for w in (0, 1)] for x in range(1, 16)]
    stay = np.array([[(1 << 8 * min(max(b, 0), 8)) - 1 for b in row] for row in at], "<u8")
    dot = np.array([[ord(".") << 8 * b if 0 <= b < 8 else 0 for b in row] for row in at],
                   "<u8")
    # exact powers of ten and their Veltkamp halves, for Dekker's TwoProduct
    power = np.array([float(10 ** k) for k in range(23)])
    power_hi = power * _SPLIT - (power * _SPLIT - power)
    pos = np.arange(_CELL)
    neg = np.arange(2)[:, None, None, None]
    x = np.arange(-6, 17)[None, :, None, None]
    count = np.arange(1, 18)[None, None, :, None]
    fixed = x >= -4  # %g's choice of positional notation
    after = np.where(fixed, x, 0)  # the digit the point follows, if >= 0
    point = np.where(after == 0, 7, 8 + after)
    moved = (after >= 1) & (after <= 15) & (pos > point)
    # the digit each byte holds; 17 where it holds none
    digit = np.where(pos == 6, 0, np.where((pos >= 8) & (pos != point), pos - 7 - moved, 17))
    last = np.where(x >= 0, np.maximum(x, count - 1), count - 1)  # last digit kept
    keep = ((pos == 0) & (neg == 1)
            | ((pos == 1) | (pos == 2)) & fixed & (x < 0)
            | (pos >= 3) & (pos < 6) & fixed & (pos - 3 < -x - 1)
            | (digit <= last)
            | (pos == point) & (after >= 0) & (after < count - 1)
            | (pos >= 25) & (pos < 29) & ~fixed
            | (pos == 29))
    zeros = (pos == 1) | (pos == 29) | (pos == 0) & (np.arange(2)[:, None] == 1)
    printed = (pos < 24) | (pos == 29)
    masks = np.concatenate((keep.reshape(-1, _CELL), zeros, [printed])) * np.uint8(0xFF)
    return (lead, groups, trailing, tail, stay, dot, power, power_hi,
            masks.view(np.uint64))


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


def _split(m, unit):
    """m // unit and m % unit for m >= 0: numpy divides an array by one
    integer much faster with ``//`` than with ``divmod``."""
    q = m // unit
    return q, m - q * unit


def _cells(v: np.ndarray):
    """The ``_CELL``-byte layouts of the values v, as four uint64 per cell,
    and the row of ``masks`` that selects each one's bytes; the last row
    where ``%`` must format it.

    A value with 1e-6 < |v| < 1e17 becomes its 17-digit mantissa
    (``_mantissas``), whose digits come from 4-digit groups; the mask row is
    looked up by sign, exponent and significant-digit count.  Zeros take
    rows of their own.
    """
    lead, groups, trailing, tail, stay, dot, power, power_hi, masks = _tables()
    a = np.abs(v)
    fast = (a > 1e-6) & (a < 1e17)  # False for NaN
    a[~fast] = 1.0
    # the float64 and int64 digit arrays are freed once the int32 groups
    # exist, which bounds a block's peak memory
    m, k = _mantissas(a, power, power_hi)
    del a
    first, rest = _split(m, 10 ** 16)
    high, low = _split(rest, 10 ** 8)
    del m, rest
    g1, g2 = _split(high.astype(np.int32), 10 ** 4)  # int32 divides faster
    g3, g4 = _split(low.astype(np.int32), 10 ** 4)
    del high, low
    # trailing zeros of the 17 digits: a group's count goes on into the
    # group before it only where it is 4, a zero group
    trail = np.take(trailing, g4)
    trail += (trail == 4) * np.take(trailing, g3)
    trail += (trail == 8) * np.take(trailing, g2)
    trail += (trail == 12) * np.take(trailing, g1)
    exponent = 22 - k  # the exponent plus 6

    cells = np.empty((len(v), _CELL // 8), dtype=np.uint64)
    cells[:, 0] = np.take(lead, first)
    quads = cells.view(np.uint32)
    quads[:, 2] = np.take(groups, g1)
    quads[:, 3] = np.take(groups, g2)
    quads[:, 4] = np.take(groups, g3)
    quads[:, 5] = np.take(groups, g4)
    cells[:, 3] = np.take(tail, exponent)
    inside = np.flatnonzero((exponent >= 7) & (exponent <= 21))  # point after digit 2-16
    if inside.size:
        words = cells.view("<u8")
        row = exponent[inside] - 7
        digits = words[inside, 1:3]
        kept = digits & stay[row]
        up = digits ^ kept
        words[inside, 3] |= digits[:, 1] >> 56
        digits = kept | dot[row] | up << 8
        digits[:, 1] |= up[:, 0] >> 56
        words[inside, 1:3] = digits

    neg = np.signbit(v)
    key = (neg * 23 + exponent) * 17 + 16 - trail
    key[~fast] = len(masks) - 1
    zero = v == 0
    key[zero] = len(masks) - 3 + neg[zero]
    return cells, key


def format_rows(block: np.ndarray) -> np.ndarray:
    """The bytes of the rows of ``block``, a (rows, columns) float64 array,
    as CSV lines, each cell exactly as ``SPEC`` writes it: the cells'
    layouts (``_cells``) ANDed with their keep-masks, with the NUL bytes
    left deleted.  A cell that ``%`` formats is written NUL-padded into its
    first 24 bytes, so the same deletion drops its padding.  The digit
    arrays of ``_cells`` are freed before the masks are taken, and the keys
    before the bytes are joined, which bounds the peak memory."""
    rows, columns = block.shape
    v = block.ravel()
    cells, key = _cells(v)
    text = cells.view(np.uint8)
    text.reshape(rows, columns, _CELL)[:, -1, 29] = ord("\n")
    masks = _tables()[-1]
    other = np.flatnonzero(key == len(masks) - 1)
    if other.size:
        # the longest cell, -2.2250738585072014e-308, has 24 characters
        printed = np.array([SPEC % x for x in v[other].tolist()], dtype="S24")
        text[other, :24] = printed.view(np.uint8).reshape(-1, 24)
    cells &= np.take(masks, key, axis=0)
    del key
    return np.frombuffer(cells.tobytes().translate(None, b"\0"), np.uint8)
