"""Exact ``%.17g`` CSV text of float64 matrices, computed in bulk with numpy.

``matrix_text`` yields the CSV rows of a float matrix as ASCII bytes: each
field is byte for byte ``'%.17g' % x``, fields are joined by ',' and rows end
in '\\n'.  It works on whole rows of about ``BLOCK_VALUES`` values at a time.

Digits.  For finite ``1e-280 < |x| < 1e280`` let ``k = floor(log10 |x|)``,
corrected by one where needed, so that ``V = |x| * 10**(16 - k)`` lies in
[1e16, 1e17).  V is formed as a double-double: Dekker's exact product of
``|x|`` with the high part of 10**(16 - k), plus ``|x|`` times its low part
(Dekker, *A floating-point technique for extending the available
precision*).  Its error is below 1e-14, so the integer part of V is the
17-digit significand and the fraction rounds it; a carry to 1e17 raises k.
A fraction within 1e-6 of 1/2 (an exact or near tie) and every value outside
the range is left to Python's ``%``.  Zero, nan and infinity have fixed text.

Layout.  Each value gets a 32-byte source row: its last 16 digits, the
exponent sign and three exponent digits, its first digit, its separator, NUL
and the constant bytes the ``%g`` rules need.  A layout table indexed by
(sign, notation, digits kept) lists which source bytes make the field: fixed
notation for -4 <= k < 17, exponent notation otherwise, trailing zeros
stripped, at least two exponent digits.  One gather per block builds
NUL-padded fields that end in their separator, and one pass drops the NULs.
``column_fields`` keeps those padded fields per column instead, so that a
column several files share is rendered once; ``fields_text`` joins any such
columns into rows of text.

The tables are built on first use, so importing the module costs nothing.
Multi-byte table entries are byte strings viewed as wider integers and
written into views of the same byte rows, so no result depends on the byte
order of the machine.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from types import SimpleNamespace

import numpy as np

BLOCK_VALUES = 4096  # matrix values formatted per numpy pass (whole rows)

_WIDTH = 25       # '-1.2345678901234567e-308' is the longest field: 24 bytes + separator
_TIE_BAND = 1e-6  # fractions this close to 1/2 go to Python's %
_K_MIN, _K_MAX = -282, 280  # decimal exponents the fast path can reach
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_RECIPROCAL_BITS = 1000  # 2**1000 / 10**264 keeps 123 bits; 2**1001 / 10 is finite

# source row: bytes 0-15 digits 2..17, 16-19 exponent sign and digits,
# 20 digit 1, 21 separator, 22-23 NUL, 24-31 the constants below
_ESIGN, _EXP, _LEAD, _SEP, _NUL = 16, 17, 20, 21, 22
_CONSTANTS = b".0-enaif"
_DOT, _ZERO, _MINUS, _E, _N, _A, _I, _F = range(24, 32)

# notation cases: fixed with exponent k in [-4, 16] is case k + 4; then
_EXP2, _EXP3, _ZERO_CASE, _INF_CASE, _NAN_CASE = 21, 22, 23, 24, 25
_N_CASES = 26


def _split(a):
    """Veltkamp split: a = hi + lo with each half at most 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _powers_of_ten() -> tuple[list[float], list[float]]:
    """10**(16 - k) = hi + lo for k = _K_MIN.._K_MAX, hi and lo each
    correctly rounded, from powers stepped exactly as Python ints.

    10**n, n >= 0, is p *= 10.  For 10**-m, t = floor(2**S / 10**m) is the
    previous t // 10, and 10**-m = (2t + 2f) 2**-(S+1) for some 0 < f < 1
    (10**-m is not dyadic).  When 2t + 1 has more than 54 bits, its
    rounding points are even integers, so the odd 2t + 1 rounds as 2t + 2f
    does: float(2t + 1) scaled is hi.  The odd remainder d = 2t + 1 -
    hi 2**(S+1) keeps more than 54 bits (at least 68 here), so likewise lo
    is float(d) scaled.  No big-int division is needed.
    """
    hi, lo = [], []
    p = 1
    for _ in range(16 - _K_MIN + 1):
        h = float(p)
        hi.append(h)
        lo.append(float(p - int(h)))
        p *= 10
    hi.reverse()
    lo.reverse()
    t, s = 1 << _RECIPROCAL_BITS, _RECIPROCAL_BITS + 1
    for _ in range(_K_MAX - 16):
        t //= 10
        h = math.ldexp(float(2 * t + 1), -s)
        hi.append(h)
        lo.append(math.ldexp(float(2 * t + 1 - int(math.ldexp(h, s))), -s))
    return hi, lo


def _field(case: int, nd: int) -> list[int]:
    """Source bytes of one non-negative field, before its separator, keeping
    nd digits."""
    digits = [_LEAD] + list(range(16))  # digit i sits at byte i - 1
    if case == _NAN_CASE:
        return [_N, _A, _N]
    if case == _ZERO_CASE:
        return [_ZERO]
    if case == _INF_CASE:
        return [_I, _N, _F]
    if case in (_EXP2, _EXP3):
        mantissa = digits[:1] + ([_DOT] + digits[1:nd] if nd > 1 else [])
        exponent = [_EXP, _EXP + 1, _EXP + 2] if case == _EXP3 else [_EXP + 1, _EXP + 2]
        return mantissa + [_E, _ESIGN] + exponent
    k = case - 4
    if k < 0:
        return [_ZERO, _DOT] + [_ZERO] * (-k - 1) + digits[:nd]
    return digits[:k + 1] + ([_DOT] + digits[k + 1:nd] if nd > k + 1 else [])


@functools.cache
def _tables() -> SimpleNamespace:
    """The read-only tables, built once per process (a few milliseconds):

    ten_hi, ten_lo       10**(16 - k) = hi + lo, indexed by k - _K_MIN
    ten_hi_hi, ten_hi_lo Veltkamp halves of ten_hi
    digits4              uint32 views of b'0000' .. b'9999'
    trailing4            trailing '0's of each 4-digit group (4 for 0000)
    exponent             uint32 views of b'-282' .. b'+280', indexed by k - _K_MIN
    constants            _CONSTANTS viewed as one uint64
    layout               (2 * _N_CASES * 18, _WIDTH) source bytes of each field
    """
    hi, lo = _powers_of_ten()
    hi = np.array(hi)
    hh, hl = _split(hi)

    four = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row i: digits of i
    digits4 = (four + ord("0")).astype(np.uint8, order="C").view(np.uint32).ravel()
    trailing4 = np.cumprod(four[:, ::-1] == 0, axis=1).sum(axis=1)
    k = np.arange(_K_MIN, _K_MAX + 1)
    three = (np.abs(k)[:, None] // np.array([100, 10, 1])) % 10
    exponent = np.column_stack([np.where(k < 0, ord("-"), ord("+")), three + ord("0")])
    exponent = exponent.astype(np.uint8).view(np.uint32).ravel()

    layout = np.full((2, _N_CASES, 18, _WIDTH), _NUL, dtype=np.intp)
    pad = [_NUL] * _WIDTH
    layout[0, :, 1:] = [[(_field(case, nd) + [_SEP] + pad)[:_WIDTH] for nd in range(1, 18)]
                        for case in range(_N_CASES)]
    # a negative field is its positive field behind a '-'; Python prints nan
    # without its sign.  The longest positive field leaves the last byte free.
    layout[1, :, 1:, 0] = _MINUS
    layout[1, :, 1:, 1:] = layout[0, :, 1:, :-1]
    layout[1, _NAN_CASE] = layout[0, _NAN_CASE]
    tables = SimpleNamespace(
        ten_hi=hi, ten_lo=np.array(lo), ten_hi_hi=hh, ten_hi_lo=hl, digits4=digits4,
        trailing4=trailing4, exponent=exponent, layout=layout.reshape(-1, _WIDTH),
        constants=np.frombuffer(_CONSTANTS, dtype=np.uint64)[0])
    for t in vars(tables).values():
        if isinstance(t, np.ndarray):
            t.flags.writeable = False
    return tables


def _significand(a: np.ndarray, k: np.ndarray, tables: SimpleNamespace):
    """Integer part (int64) and fraction of a * 10**(16 - k), as a double-double."""
    i = k - _K_MIN
    h = tables.ten_hi[i]
    p = a * h
    ah, al = _split(a)
    bh, bl = tables.ten_hi_hi[i], tables.ten_hi_lo[i]
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # a * h == p + err exactly
    t = err + a * tables.ten_lo[i]
    s = p + t
    t -= s - p  # s + t == p + t exactly; s is an integer once s >= 2**53
    whole = np.floor(t)
    return s.astype(np.int64) + whole.astype(np.int64), t - whole


def _block_fields(x: np.ndarray, sep: np.ndarray, base: np.ndarray,
                  tables: SimpleNamespace) -> np.ndarray:
    """The '%.17g' fields of the values x, each followed by its separator and
    NUL-padded to _WIDTH bytes: (len(x), _WIDTH) uint8.

    ``base`` holds 32 * (i // _WIDTH) for i < _WIDTH * len(x): the offset of
    each output byte's source row."""
    n = len(x)
    a = np.abs(x)
    fast = (a > 1e-280) & (a < 1e280)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _significand(a, k, tables)
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    if len(off):  # log10 rounded across a power of ten
        k[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off], frac[off] = _significand(a[off], k[off], tables)
    d += frac > 0.5
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    k += carry

    lead, rest = np.divmod(d, 10 ** 16)
    groups = np.empty((n, 4), dtype=np.int64)
    high, low = np.divmod(rest, 10 ** 8)
    np.divmod(high, 10000, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low, 10000, out=(groups[:, 2], groups[:, 3]))
    src = np.empty((n, 32), dtype=np.uint8)
    words = src.view(np.uint32)
    words[:, :4] = np.take(tables.digits4, groups)
    words[:, 4] = tables.exponent[k - _K_MIN]
    words[:, 5] = 0
    src[:, _LEAD] = lead + ord("0")
    src[:, _SEP] = sep
    src.view(np.uint64)[:, 3] = tables.constants

    t4 = tables.trailing4
    g = groups.T
    tz = t4[g[3]] + (g[3] == 0) * t4[g[2]] + (low == 0) * (t4[g[1]] + (g[1] == 0) * t4[g[0]])
    case = np.where((k < -4) | (k >= 17), np.where(np.abs(k) >= 100, _EXP3, _EXP2), k + 4)
    case[x == 0] = _ZERO_CASE
    case[np.isinf(x)] = _INF_CASE
    case[np.isnan(x)] = _NAN_CASE
    row = (np.signbit(x) * _N_CASES + case) * 18 + 17 - tz
    idx = np.take(tables.layout, row, axis=0).reshape(-1)
    idx += base
    out = np.take(src.reshape(-1), idx).reshape(n, _WIDTH)

    slow = ~fast & np.isfinite(x) & (x != 0) | (np.abs(frac - 0.5) < _TIE_BAND)
    for i in np.flatnonzero(slow):
        field = ("%.17g" % x[i]).encode() + bytes(sep[i:i + 1])
        out[i] = 0
        out[i, :len(field)] = np.frombuffer(field, dtype=np.uint8)
    return out


def _row_blocks(parts, seps: str) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, fields) per block of whole rows, about ``BLOCK_VALUES``
    values, of float64 ``parts`` put side by side by ``np.column_stack``: the
    NUL-padded fields, (rows, cols * _WIDTH), ending in their column's ``seps``."""
    tables = _tables()
    rows = max(1, BLOCK_VALUES // len(seps))
    sep = np.tile(np.frombuffer(seps.encode("ascii"), dtype=np.uint8), rows)
    base = np.repeat(np.arange(len(sep)) * 32, _WIDTH)
    for i in range(0, len(parts[0]), rows):
        block = np.column_stack([part[i:i + rows] for part in parts]).ravel()
        fields = _block_fields(block, sep[:len(block)], base[:_WIDTH * len(block)], tables)
        yield i, fields.reshape(-1, len(seps) * _WIDTH)


def column_fields(columns, seps: str) -> np.ndarray:
    """The fields of each of ``columns`` (float64 rows of one length, at least
    one), every field ending in its column's separator in ``seps``: (cols,
    rows, _WIDTH) NUL-padded bytes, rendered in one pass over blocks of their
    rows.  ``fields_text`` joins any columns with as many rows."""
    n_rows, n_cols = len(columns[0]), len(columns)
    out = np.empty((n_rows, n_cols * _WIDTH), dtype=np.uint8)
    for i, fields in _row_blocks(columns, seps):
        out[i:i + len(fields)] = fields
    return out.reshape(n_rows, n_cols, _WIDTH).transpose(1, 0, 2)


def fields_text(columns) -> Iterator[bytes]:
    """The CSV rows whose fields are ``columns`` (at least one), left to
    right: each a (rows, _WIDTH) column of ``column_fields``, the last one's
    fields ending in '\\n' and the others' in ','.  In blocks of bytes."""
    rows = max(1, BLOCK_VALUES // len(columns))
    for i in range(0, len(columns[0]), rows):
        fields = np.concatenate([column[i:i + rows] for column in columns], axis=1)
        yield fields.tobytes().translate(None, b"\0")


def matrix_text(matrix) -> Iterator[bytes]:
    """The CSV rows of a 2-D float matrix, '%.17g' fields, in blocks of bytes."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n_rows, n_cols = matrix.shape
    if n_cols == 0:
        yield b"\n" * n_rows
        return
    for _, fields in _row_blocks([matrix], "," * (n_cols - 1) + "\n"):
        yield fields.tobytes().translate(None, b"\0")
