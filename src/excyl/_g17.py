"""The CSV text np.savetxt(fmt="%.17g", delimiter=",") writes for a float64
table, byte for byte, formatted with array arithmetic.

CPython formats a double with 17 significant digits by exact big-integer
arithmetic.  Here each nonzero value x with |x| <= 1e290 is multiplied by
10^(16 - E), E its decimal exponent, held as a double-double (hi + lo).
Dekker's exact product gives y = p + t with an error below 1e-14, where p
is integer-valued (y >= 1e16 > 2^53), so the 17 digits are p + rint(t).
Values below 1e-280 (subnormals included) are first scaled exactly by
2^600, and their table entry carries 2^-600; zeros get the digits 0.
%g's layout (fixed notation for -4 <= E < 17, trailing zeros stripped, a
two-digit minimum exponent, -0 kept) is composed in a row of 32 bytes per
value from lookup tables indexed by E and the count of trailing zeros,
and one keep mask compacts the rows.

Only the values the product cannot decide are formatted one by one with
"%.17g" %: those whose digit after the 17th lies within 1e-9 of a half
(exact ties included), non-finite values and |x| > 1e290.  Tables are
formatted in blocks of rows, so the transient arrays stay near 1 MiB at
any table size, and the lookup tables are built on first use, with
integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace
from typing import Iterator

import numpy as np

__all__ = ["BLOCK_VALUES", "csv_blocks"]

_FMT = "%.17g"

# values formatted per block: about 1 MiB of transient arrays
BLOCK_VALUES = 1 << 12

_SPLIT = 134217729.0            # 2^27 + 1, Dekker's splitting constant
_TINY, _HUGE = 1e-280, 1e290    # the exact product's range, unscaled
_SHIFT = 600                    # |x| < _TINY is scaled by 2^_SHIFT
# the exponents E the tables hold: [_E_LO, _E_HI] unscaled and
# [_E_MIN, _E_TINY] scaled, each with room for log10's one-decade slip
_E_MIN, _E_LO, _E_TINY, _E_HI = -326, -283, -278, 292
_N_E = _E_HI - _E_MIN + 1

# each value's text is laid out in a row of _WIDTH bytes, each kept or
# not: the sign at 1, "0.000" at 2-6 before a fixed value below 1, the 17
# digits and their point in the 18 slots 7-24, "e+308" at 25-29 and the
# delimiter at 30
_WIDTH, _DIGITS, _EXP, _DELIM = 32, 7, 25, 30
_ROW = np.dtype((np.void, _WIDTH))


@lru_cache(maxsize=None)
def _tables() -> SimpleNamespace:
    """The lookup tables, built on first use: the power-of-ten halves, the
    row frames by E, the keep masks by E and trailing zeros, and the digit
    characters of 0..9999."""
    hi = np.full(2 * _N_E, np.nan)
    lo = np.full(2 * _N_E, np.nan)
    for scaled, (e_lo, e_hi) in enumerate(((_E_LO, _E_HI),
                                           (_E_MIN, _E_TINY))):
        for e in range(e_lo, e_hi + 1):
            # 10^(16-e) 2^(-600 scaled) as num / den, rounded to hi, and lo
            # the rounded rest: int / int is correctly rounded
            k = 16 - e
            num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
            den <<= _SHIFT * scaled
            h = num / den
            a, b = h.as_integer_ratio()
            i = scaled * _N_E + e - _E_MIN
            hi[i], lo[i] = h, (num * b - a * den) / (den * b)
    c = _SPLIT * hi
    hh = c - (c - hi)

    e = np.arange(_E_MIN, _E_HI + 1)[:, None]
    fixed = (e >= -4) & (e < 17)
    below_one = fixed & (e < 0)
    # the point follows digit slot `point` (after the last digit below 1,
    # where it is never kept)
    point = np.where(fixed, np.where(below_one, 16, e), 0)
    byte = np.arange(_WIDTH)
    ae = np.abs(e)
    exp_chars = np.concatenate([np.full_like(e, ord("e")),
                                np.where(e < 0, ord("-"), ord("+")),
                                ae // 100 + 48, ae // 10 % 10 + 48,
                                ae % 10 + 48], axis=1)
    frame = np.zeros((len(e), 3, _WIDTH), dtype=np.uint8)
    frame[:, 0, 1:_DIGITS] = np.frombuffer(b"-0.000", dtype=np.uint8)
    frame[:, 0, _EXP:_DELIM] = exp_chars
    frame[:, 0][byte == _DIGITS + 1 + point] = ord(".")
    # the digits up to the point come from the row, those after it from
    # the row moved one byte on
    frame[:, 1][(byte >= _DIGITS) & (byte <= _DIGITS + point)] = 0xFF
    frame[:, 2][(byte >= _DIGITS + 2 + point) & (byte < _EXP)] = 0xFF

    # with z trailing zeros, the 17 - z digits (at least the integer part)
    # and the point before any of them that stay form one run from slot 0
    kept = np.maximum(17 - np.arange(17), np.where(fixed & ~below_one,
                                                    e + 1, 1))
    run = kept + (kept > point + 1)
    keep = (byte >= _DIGITS) & (byte < _DIGITS + run[..., None])
    # "0." and -E - 1 zeros before a fixed value below 1
    keep |= ((byte >= 2) & (byte < 2 + np.where(below_one, 1 - e, 0))
             )[:, None]
    keep |= (~fixed & (byte >= _EXP) & (byte < _DELIM)
             & ((byte != _EXP + 2) | (ae >= 100)))[:, None]
    keep |= byte == _DELIM
    # outside fixed notation the masks depend on E only through the
    # exponent's width: keep one per kind, and each E's row
    kind = np.where(fixed, e, 1000 + (ae >= 100))
    _, first, keep_row = np.unique(kind, return_index=True,
                                   return_inverse=True)
    keep = keep[first]

    quad = np.arange(10 ** 4)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    tables = SimpleNamespace(
        hi=hi, hh=hh, hl=hi - hh, lo=lo,
        chars=frame[:, 0].view(_ROW).ravel(),
        left=frame[:, 1].view(_ROW).ravel(),
        right=frame[:, 2].view(_ROW).ravel(),
        keep=keep.reshape(-1, _WIDTH).view(np.uint8).view(_ROW).ravel(),
        keep_row=17 * keep_row.ravel(),
        quad=(quad + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        quad_zeros=(quad == 0)[:, ::-1].cumprod(1).sum(1).astype(np.int8))
    for table in vars(tables).values():
        table.flags.writeable = False  # one copy serves every caller
    return tables


def _times_pow10(a, i):
    """a times table entry i as p + t: p = fl(a hi), t the rest, from
    Dekker's exact product and a lo."""
    tab = _tables()
    hi, hh, hl, lo = tab.hi[i], tab.hh[i], tab.hl[i], tab.lo[i]
    p = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    return p, (((ah * hh - p) + ah * hl) + al * hh) + al * hl + lo * a


def _block(x: np.ndarray, delim: np.ndarray) -> np.ndarray:
    """The text of the values x, each followed by its byte of delim, as
    one uint8 array."""
    tab = _tables()
    n = len(x)
    a = np.abs(x)
    zero = a == 0.0
    slow = ~(a <= _HUGE)  # NaN, inf and values past the table
    a[slow | zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    tiny = a < _TINY
    a[tiny] *= 2.0 ** _SHIFT  # exact
    base = tiny * _N_E - _E_MIN
    p, t = _times_pow10(a, e + base)
    # log10 can land one decade off next to a power of ten: the sign of
    # (p - 10^16) + t is exact, and a y right at a decade edge carries
    step = ((p - 1e17) + t >= 0).astype(np.intp) - ((p - 1e16) + t < 0)
    fix = np.flatnonzero(step)
    if fix.size:
        e[fix] += step[fix]
        p[fix], t[fix] = _times_pow10(a[fix], e[fix] + base[fix])
    r = np.rint(t)
    slow |= np.abs(np.abs(t - r) - 0.5) < 1e-9
    d = p.astype(np.int64) + r.astype(np.int64)
    carry = d >= 10 ** 17
    d[carry] //= 10
    e += carry
    d[zero] = 0
    e[zero] = 0
    ei = e - _E_MIN

    # the digits: the leading one, then four groups of four
    lead, rest = np.divmod(d, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    groups = np.empty((n, 4), dtype=np.intp)
    groups[:, 0], groups[:, 1] = np.divmod(high, 10 ** 4)
    groups[:, 2], groups[:, 3] = np.divmod(low, 10 ** 4)
    row = np.empty((n, _WIDTH), dtype=np.uint8)
    row[:, _DIGITS] = lead + ord("0")
    row.view(np.uint32)[:, 2:6] = tab.quad[groups]
    zq = tab.quad_zeros[groups]
    low_zeros = np.where(zq[:, 3] < 4, zq[:, 3], 4 + zq[:, 2])
    zeros = np.where(low != 0, low_zeros,
                     np.where(zq[:, 1] < 4, 8 + zq[:, 1], 12 + zq[:, 0]))

    # the row, its digits moved one byte on, and the frame of each E
    moved = np.empty_like(row)
    moved.ravel()[1:] = row.ravel()[:-1]
    words, moved = row.view(np.uint64), moved.view(np.uint64)
    words &= tab.left[ei].view(np.uint64).reshape(n, -1)
    moved &= tab.right[ei].view(np.uint64).reshape(n, -1)
    words |= moved
    words |= tab.chars[ei].view(np.uint64).reshape(n, -1)
    row[:, _DELIM] = delim[:n]
    keep = tab.keep[tab.keep_row[ei] + zeros].view(np.uint8).reshape(n, _WIDTH)
    keep[:, 1] = np.signbit(x)
    for i in np.flatnonzero(slow):
        s = (_FMT % x[i]).encode()
        row[i, :len(s)] = np.frombuffer(s, dtype=np.uint8)
        keep[i, :_DELIM] = np.arange(_DELIM) < len(s)
    return row[keep.view(bool)]


def csv_blocks(table: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the rows of the 2-D table as np.savetxt(fmt="%.17g",
    delimiter=",") writes them (no header): one uint8 array per block of
    rows, each block's text formatted only when it is asked for."""
    table = np.asarray(table, dtype=np.float64)
    rows = max(1, BLOCK_VALUES // table.shape[1])
    delim = np.tile(np.frombuffer(b"," * (table.shape[1] - 1) + b"\n",
                                  dtype=np.uint8), rows)
    for i in range(0, len(table), rows):
        yield _block(table[i:i + rows].ravel(), delim)
