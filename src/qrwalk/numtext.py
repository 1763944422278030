"""Decimal texts of numeric arrays, with no Python work per value.

Every number the package writes as text is spelled here: integers by
:func:`_digits`, as ``str`` spells them, and floats by :func:`_reprs`, as
``repr`` spells them. Both return a 2-d uint8 table with one text per
row, NUL-padded, whose non-NUL bytes, in order, are the texts end to end;
:func:`_texts` packs such a table into a bytes array.

:func:`_reprs` finds the shortest round-trip digits of each double by
Schubfach (R. Giulietti, *The Schubfach way to render doubles*, 2020), in
uint64 arithmetic whose 64x128-bit products are built from 32-bit limbs,
and lays them out as Python's ``repr`` does (Steele & White, PLDI 1990;
Gay, AT&T report 90-10, 1990; Adams, *Ryu*, PLDI 2018, is the related
table-driven method). Zeros, subnormals and non-finite values, and every
array of fewer than :data:`FLOAT_FLOOR` values, are spelled one by one,
by ``repr`` or by the speller the caller gives (``json.dumps`` for the
JSON form, which spells the non-finite values its own way).
"""

from __future__ import annotations

import numpy as np

#: The fewest values :func:`_reprs` spells in numpy: below it, ``repr``
#: one value at a time is faster than the whole-array passes.
FLOAT_FLOOR = 1024
#: Values :func:`_reprs` spells per numpy pass, so that each temporary
#: stays under a megabyte: a whole 16 384-value chunk at once (a 3 MB
#: gather index) left the heap so that later commands in the same process
#: page-faulted about 2000 more times each.
FLOAT_BLOCK = 4096


def _digits(values) -> np.ndarray:
    """The decimal text of each integer of a 1-d array, as ``str`` spells
    it, in ASCII: a ``(n, w)`` uint8 table whose row ``i`` holds the text
    of ``values[i]`` right-aligned, NUL-padded on the left to the width
    ``w`` of the longest text (at least 1).

    The one integer formatter of the package: every digit column is made
    by whole-array division, with no Python work per value, so the non-NUL
    bytes of the rows, in order, are the texts end to end."""
    values = np.asarray(values)
    negative = values < 0
    sign = bool(negative.any())
    # magnitudes as uint64: two's complement negation spells int64 min too
    mag = values.astype(np.uint64 if values.dtype.kind == "u"
                        else np.int64).view(np.uint64)
    if sign:
        mag = np.where(negative, -mag, mag)
    top = int(mag.max(initial=0))
    digits = len(str(top))
    width = max(digits, len(str(int(mag[negative].max()))) + 1) if sign \
        else digits
    if top < 2**32:  # a narrower division is faster
        mag = mag.astype(np.uint32)
    # column by column, each a contiguous row here, transposed at the end
    out = np.zeros((width, values.size), np.uint8)
    length = np.ones(values.size if sign else 0, np.uint8)
    for col in range(width - 1, width - 1 - digits, -1):
        quot = mag // 10
        np.subtract(mag, quot * 10, out=out[col], casting="unsafe")
        out[col] += ord("0")
        if col < width - 1:  # a leading zero is padding
            nonzero = mag != 0
            out[col] *= nonzero
            if sign:
                length += nonzero
        mag = quot
    if sign:  # just left of the first digit
        out[width - 1 - length[negative], negative] = ord("-")
    return np.ascontiguousarray(out.T)


def _texts(octets: np.ndarray) -> np.ndarray:
    """The non-NUL bytes of each row of a 2-d uint8 table, in order, as a
    1-d bytes array (numpy ``S`` dtype)."""
    keep = octets != 0
    packed = np.zeros_like(octets)
    # row-major, the kept bytes fill each row's first (row length) slots
    packed[np.arange(octets.shape[1])
           < np.count_nonzero(keep, axis=1)[:, None]] = octets[keep]
    return packed.view(f"S{octets.shape[1]}").reshape(-1)


def _flog2pow10(e):
    """floor(e * log2(10)), for |e| up to a few thousand."""
    return (e * 913124641741) >> 38


def _g_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 126-bit ``g = floor(10**-k * 2**(125 - flog2pow10(-k))) + 1``
    for k in -324 .. 292, split as ``g >> 63`` and ``g mod 2**63``."""
    g1, g0 = [], []
    for k in range(-324, 293):
        e = -k
        r = 125 - _flog2pow10(e)
        g = (10 ** max(e, 0) << max(r, 0)) \
            // (10 ** max(-e, 0) << max(-r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
    return np.array(g1, np.uint64), np.array(g0, np.uint64)


_G1, _G0 = _g_tables()
_M32, _M63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)
_U32, _U63 = np.uint64(32), np.uint64(63)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``a * b``, from 32-bit
    limbs."""
    a1, a0, b1, b0 = a >> _U32, a & _M32, b >> _U32, b & _M32
    lh, hl = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U32) + (lh & _M32) + (hl & _M32)
    return a1 * b1 + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's round-to-odd product ``g * cp / 2**127``."""
    z = (g1 * cp >> np.uint64(1)) + _mulhi(g0, cp)
    return (_mulhi(g1, cp) + (z >> _U63)) | ((z & _M63) + _M63) >> _U63


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest digits ``d``, of 16 or 17 digits with any trailing
    zeros, and the exponent ``k`` of ``d * 10**k``, the decimal nearest
    each normal double of the bit patterns ``bits`` (uint64) among the
    shortest that round to it."""
    f = bits & np.uint64(2**52 - 1)
    bq = (bits >> np.uint64(52) & np.uint64(0x7FF)).astype(np.int64)
    c, q = f | np.uint64(2**52), bq - 1075
    odd = c & np.uint64(1)
    # at a power of two the gap below is half the gap above
    narrow = (f == 0) & (bq > 1)
    cb = c << np.uint64(2)
    k = (q * 661971961083 - narrow * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = _G1[k + 324], _G0[k + 324]
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - np.uint64(2) + narrow) << h)
    vbr = _rop(g1, g0, (cb + np.uint64(2)) << h)
    s = vb >> np.uint64(2)
    t = s + np.uint64(1)
    # one digit fewer: the multiple of 10 inside the rounding interval
    sp10 = s // np.uint64(10) * np.uint64(10)
    tp10 = sp10 + np.uint64(10)
    upin = vbl + odd <= sp10 << np.uint64(2)
    wpin = (tp10 << np.uint64(2)) + odd <= vbr
    # else s or t: the one inside, or the nearer, s on a tie if even
    uin = vbl + odd <= s << np.uint64(2)
    win = (t << np.uint64(2)) + odd <= vbr
    cmp = vb.astype(np.int64) - ((s + t) << np.uint64(1)).astype(np.int64)
    lower = np.where(uin != win, uin,
                     (cmp < 0) | (cmp == 0) & (s & np.uint64(1) == 0))
    digits = np.where(upin != wpin, np.where(upin, sp10, tp10),
                      np.where(lower, s, t))
    return digits, k


#: Columns of the source table :func:`_layout` lays out: the sign, a zero
#: and a point; the 17 digits; the same digits with the trailing zeros
#: NUL; the point of the exponent form; ``e`` and :data:`_EXPONENTS`; NUL.
_SIGN, _ZERO, _POINT, _DIGIT, _KEPT, _EPOINT, _E, _NUL = \
    0, 1, 2, 3, 20, 37, 38, 43


def _layouts() -> np.ndarray:
    """Source columns of each text, one row per layout: the positional
    form for each first-digit exponent -4 .. 15, then the exponent form,
    NUL-padded to the longest."""
    rows = []
    for e in range(-4, 16):
        if e < 0:  # 0.000ddd
            row = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + [_DIGIT] \
                + list(range(_KEPT + 1, _KEPT + 17))
        else:  # ddd.d, the first fraction digit kept even when 0
            row = list(range(_DIGIT, _DIGIT + e + 2)) \
                + list(range(_KEPT + e + 2, _KEPT + 17))
            row.insert(e + 1, _POINT)
        rows.append([_SIGN] + row)
    rows.append([_SIGN, _DIGIT, _EPOINT] + list(range(_KEPT + 1, _KEPT + 17))
                + list(range(_E, _NUL)))
    width = max(map(len, rows))
    return np.array([row + [_NUL] * (width - len(row)) for row in rows])


def _exponents() -> np.ndarray:
    """The sign and the 3 digits of each exponent -324 .. 324 of the
    exponent form, one row each: at least 2 digits, the first NUL below
    100."""
    e = np.arange(-324, 325)
    table = np.empty((e.size, 4), np.uint8)
    table[:, 0] = np.where(e < 0, ord("-"), ord("+"))
    table[:, 1:] = _digits(np.abs(e) + 1000)[:, 1:]
    table[:, 1] *= np.abs(e) >= 100
    return table


_LAYOUTS, _EXPONENTS = _layouts(), _exponents()


def _layout(bits: np.ndarray) -> np.ndarray:
    """The ``repr`` texts of normal doubles, given as bit patterns, in the
    table form :func:`_reprs` returns."""
    digits, k = _shortest(bits)
    long = digits >= np.uint64(10**16)
    digits = np.where(long, digits, digits * np.uint64(10))
    e = k + 15 + long
    src = np.zeros((bits.size, _NUL + 1), np.uint8)
    src[:, _SIGN] = (bits >> _U63).astype(np.uint8) * ord("-")
    src[:, _ZERO], src[:, _POINT], src[:, _E] = ord("0"), ord("."), ord("e")
    src[:, _DIGIT:_KEPT] = table = _digits(digits)
    # the digits up to the last nonzero one
    kept = 17 - np.argmax(table[:, ::-1] != ord("0"), axis=1)
    np.multiply(table, np.arange(17) < kept[:, None],
                out=src[:, _KEPT:_EPOINT])
    src[:, _EPOINT] = (kept > 1) * ord(".")
    src[:, _E + 1:_NUL] = _EXPONENTS[e + 324]
    # one gather: each row's layout, as offsets into the flat source
    index = _LAYOUTS[np.where((e >= -4) & (e <= 15), e + 4, -1)]
    index += np.arange(0, src.size, src.shape[1])[:, None]
    return src.reshape(-1).take(index)


def _reprs(values, spell=repr) -> np.ndarray:
    """The ``repr`` text of each float of a 1-d array (narrower floats
    widened to float64 first, as ``tolist`` does), in ASCII: a ``(n, w)``
    uint8 table whose row ``i``, without its NULs, is the text of
    ``values[i]``.

    The one float formatter of the package. The normal values are spelled
    :data:`FLOAT_BLOCK` at a time by :func:`_layout`: their shortest
    digits come from :func:`_shortest`, are spelled by :func:`_digits`
    and laid out by one gather through :data:`_LAYOUTS`. Zeros,
    subnormals and non-finite values, and every array of fewer than
    :data:`FLOAT_FLOOR` values, go through ``spell`` one by one, whose
    ASCII text of a finite float must be its ``repr``: ``json.dumps``
    spells the non-finite ones ``NaN``, ``Infinity`` and ``-Infinity``."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < FLOAT_FLOOR:
        texts = np.array(list(map(spell, values.tolist())), dtype="S")
        return texts.view(np.uint8).reshape(values.size, texts.itemsize)
    bits = values.view(np.uint64)
    out = np.empty((values.size, _LAYOUTS.shape[1]), np.uint8)
    for lo in range(0, values.size, FLOAT_BLOCK):
        out[lo:lo + FLOAT_BLOCK] = _layout(bits[lo:lo + FLOAT_BLOCK])
    if not np.signbit(values).any():  # a NUL sign column would cost a byte
        out = out[:, 1:]
    exponent = bits & np.uint64(0x7FF << 52)
    rare = np.flatnonzero((exponent == 0)
                          | (exponent == np.uint64(0x7FF << 52)))
    if rare.size:
        texts = np.array(list(map(spell, values[rare].tolist())),
                         dtype=f"S{out.shape[1]}")
        out[rare] = texts.view(np.uint8).reshape(rare.size, -1)
    return out
