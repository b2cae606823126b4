"""CSV cells of float64 values, byte for byte as ``%+.16e`` writes them,
formatted a block of rows at a time in numpy.

``format_rows`` turns a (rows, columns) float64 block into comma-separated,
LF-terminated lines.  A cell whose exponent has two digits takes exactly
24 bytes, its separator included: a sign byte, 17 digits, the point, ``e``
and a signed exponent.  Zeros and values with 1e-6 < |v| < 1e17 are laid
out by table lookups; Python's ``%`` formats the rest (nonfinite,
|v| <= 1e-6 and |v| >= 1e17).  A block holding a ``%`` text of another
length (nonfinite, or a 3-digit exponent) is formatted whole by ``%``.
Every cell reads back to the float64 it was written from.
"""

from __future__ import annotations

import functools

import numpy as np

#: Every CSV number: 17 significant digits read back to the same float64.
SPEC = "%+.16e"
#: Bytes of one cell's layout.
_CELL = 24
#: Veltkamp's splitting constant 2**27 + 1.
_SPLIT = 134217729.0


@functools.cache
def _tables():
    """Lookup tables of ``format_rows``, built on its first call.

    A cell is six 4-byte words: ``lead`` holds [sign, d1, '.', d2]
    for a sign and the leading two digits, ``groups`` a 4-digit group,
    ``last`` [d15, d16, d17, 'e'] and ``exponents`` [exponent sign, two
    exponent digits, ','] for the power-of-ten index k of ``_mantissas``.
    """
    group = np.arange(10000, dtype=np.int16)
    digits = (group[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
              + ord("0")).astype(np.uint8)
    groups = digits.view(np.uint32).ravel()
    e = np.full((1000, 1), ord("e"), np.uint8)
    last = np.hstack((digits[:1000, 1:], e)).view(np.uint32).ravel()
    lead = np.frombuffer(b"".join(b"%s%d.%d" % (sign, d // 10, d % 10)
                                  for sign in (b"+", b"-") for d in range(100)), np.uint32)
    exponents = np.frombuffer(b"".join(b"%+03d," % (16 - k) for k in range(23)), np.uint32)
    # exact powers of ten and their Veltkamp halves, for Dekker's TwoProduct
    power = np.array([float(10 ** k) for k in range(23)])
    power_hi = power * _SPLIT - (power * _SPLIT - power)
    return lead, groups, last, exponents, power, power_hi


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


def format_rows(block: np.ndarray) -> np.ndarray:
    """The bytes of the rows of ``block``, a (rows, columns) float64 array,
    as CSV lines in a uint8 array, each cell exactly as ``SPEC`` writes it.

    A fast cell's 17-digit mantissa (``_mantissas``) is split into its
    leading two digits, three 4-digit groups and its last three, which
    index the tables; a zero takes the mantissa 0 and the exponent +00.  A
    cell that ``%`` formats fills the first 23 bytes of its layout when its
    text has 23 characters; any other length (``+nan``, ``-inf``, a 3-digit
    exponent) does not fit, and ``%`` formats its block whole.  Otherwise
    the result is a view of the cells' layouts, with no copy.
    """
    lead, groups, last, exponents, power, power_hi = _tables()
    rows, columns = block.shape
    v = block.ravel()
    a = np.abs(v)
    fast = (a > 1e-6) & (a < 1e17)  # False for NaN
    zero = a == 0
    a[~fast] = 1.0
    # the float64 and int64 digit arrays are freed once the int32 groups
    # exist, which bounds a block's peak memory
    m, k = _mantissas(a, power, power_hi)
    del a
    top, rest = _split(m, 10 ** 15)
    high, low = _split(rest, 10 ** 7)
    del m, rest
    g1, g2 = _split(high.astype(np.int32), 10 ** 4)  # int32 divides faster
    g3, g4 = _split(low.astype(np.int32), 1000)
    del high, low
    top[zero] = 0
    top += 100 * np.signbit(v)

    cells = np.empty((len(v), _CELL // 4), dtype=np.uint32)
    cells[:, 0] = np.take(lead, top)
    cells[:, 1] = np.take(groups, g1)
    cells[:, 2] = np.take(groups, g2)
    cells[:, 3] = np.take(groups, g3)
    cells[:, 4] = np.take(last, g4)
    cells[:, 5] = np.take(exponents, k)
    del top, g1, g2, g3, g4, k
    text = cells.view(np.uint8)  # one row of _CELL bytes per cell
    text.reshape(rows, columns, _CELL)[:, -1, -1] = ord("\n")
    other = np.flatnonzero(~(fast | zero))
    if other.size:
        printed = [SPEC % x for x in v[other].tolist()]
        if any(len(cell) != _CELL - 1 for cell in printed):
            whole = "".join(",".join(SPEC % x for x in row) + "\n" for row in block.tolist())
            return np.frombuffer(whole.encode("ascii"), np.uint8)
        text[other, :-1] = np.array(printed, dtype=f"S{_CELL - 1}").view(np.uint8).reshape(
            -1, _CELL - 1)
    return text.ravel()
