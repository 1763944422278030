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
table-driven method). The layout works on whole 8-byte words: the digits
are spelled 8 to a word, and each text is shifted into one fixed template
of 24 columns that holds the exponent form and the positional form below
1; only the values in [1, 1e16), whose point moves with their exponent,
are laid out again on their rows alone. Zeros, subnormals and non-finite
values, and every array of fewer than :data:`FLOAT_FLOOR` values, are
spelled one by one, by ``repr`` or by the speller the caller gives
(``json.dumps`` for the JSON form, which spells the non-finite values its
own way).
"""

from __future__ import annotations

import numpy as np

#: The fewest values :func:`_reprs` spells in numpy: below it, ``repr``
#: one value at a time is faster than the whole-array passes.
FLOAT_FLOOR = 1024
#: Values :func:`_reprs` spells per numpy pass, so that a pass's word
#: arrays (up to 96 KB each) stay in the processor's cache: 36 000 values
#: took 5.6 ms at 4096 a pass, 7.0 ms at 16 384 and 8.9 ms at 1024 (more
#: passes, each with its fixed cost), on a 2-vCPU x86-64 machine.
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


def _limbs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and the low 32 bits of each of ``x`` (uint64)."""
    return x >> _U32, x & _M32


def _mulhi(a: tuple[np.ndarray, np.ndarray],
           b: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The high 64 bits of each 128-bit product of two factors given as
    their 32-bit limbs (:func:`_limbs`)."""
    (a1, a0), (b1, b0) = a, b
    lh, hl = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U32) + (lh & _M32) + (hl & _M32)
    return a1 * b1 + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's round-to-odd products ``g * cp / 2**127`` of each row
    of ``cp`` (k, n) with the n values ``g``; each factor is split into
    limbs once for all rows."""
    c = _limbs(cp)
    z = (g1 * cp >> np.uint64(1)) + _mulhi(_limbs(g0), c)
    return (_mulhi(_limbs(g1), c) + (z >> _U63)) \
        | ((z & _M63) + _M63) >> _U63


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
    # the value and the two ends of its rounding interval, in one pass
    vb, vbl, vbr = _rop(g1, g0, np.stack(
        [cb, cb - np.uint64(2) + narrow, cb + np.uint64(2)]) << h)
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


#: ASCII ``0`` in each byte of a word; every bit of a word.
_ZEROS, _ALL = np.uint64(0x3030303030303030), np.uint64(2**64 - 1)


def _digit_bytes(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each integer of ``x`` (uint64, each below
    10**8) as the values 0 to 9 of the bytes of a word, the first digit
    in the lowest byte: the number is cut into halves, the halves into
    quarters and those into digits, every part of a word at once. Each
    division is a multiply and a shift, exact below 10**8, 10**4 and 100
    in turn."""
    hi = x * np.uint64(109951163) >> np.uint64(40)
    x = hi | (x - hi * np.uint64(10**4)) << _U32
    hi = x * np.uint64(5243) >> np.uint64(19) & np.uint64(0x7F0000007F)
    x = hi | (x - hi * np.uint64(100)) << np.uint64(16)
    hi = x * np.uint64(103) >> np.uint64(10) & np.uint64(0xF000F000F000F)
    return hi | (x - hi * np.uint64(10)) << np.uint64(8)


def _kept(octets: np.ndarray) -> np.ndarray:
    """The byte masks that keep the digits of each number up to its last
    nonzero one, given its 16 digits as the two rows of words of
    :func:`_digit_bytes`."""
    # a word's last nonzero byte is b when its float's exponent field is
    # 1023 + 8 b + (0 .. 7): no digit exceeds 9, so no word rounds up to a
    # power of two; a zero word's field is 0, and a cut of 1080 bits keeps
    # no byte
    cut = (np.uint64(1086)
           - (octets.astype(np.float64).view(np.uint64) >> np.uint64(52))
           ) & np.uint64(2**64 - 8)
    cut[0] *= octets[1] == 0  # the first half is whole before a nonzero one
    return _ALL >> cut


def _shifted(halves: np.ndarray, shift) -> np.ndarray:
    """The three words of text that hold the 16 bytes of ``halves`` (two
    rows of words) moved up by ``shift`` bits, 8 to 56 (per column, or
    one for all)."""
    words = np.empty((3, halves.shape[1]), np.uint64)
    np.left_shift(halves, shift, out=words[:2])
    words[2] = 0
    words[1:] |= halves >> np.uint64(64) - shift
    return words


#: Bytes 0 to ``m`` of three words, in column ``m``.
_UPTO = np.array([[(1 << 8 * m + 8) - 1 >> 64 * w & 2**64 - 1
                   for m in range(24)] for w in range(3)], np.uint64)


def _template() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per form ``clip(e, -5, 16) + 5`` of a text whose first digit has
    the exponent ``e``, its layout in :func:`_layout`'s template: the bit
    offsets in the row of its first digit and of the 16 digits after it,
    and the fixed bytes of its first word (``0.`` and the zeros of the
    positional form below 1). Forms 0 and 21 are the exponent form; forms
    5 to 20, the values in [1, 1e16), take its offsets and are laid out
    again."""
    first, rest, head = [8] * 22, [24] * 22, [0] * 22
    for zeros in range(4):  # 0.000ddd, from e = -4
        form = 4 - zeros
        first[form], rest[form] = 24 + 8 * zeros, 32 + 8 * zeros
        head[form] = int.from_bytes(b"\0" + b"0." + b"0" * zeros, "little")
    return tuple(np.array(t, np.uint64) for t in (first, rest, head))


def _tails() -> np.ndarray:
    """The last word of the template's exponent form, for each exponent
    -324 .. 324: ``e``, the sign and 3 digits in its bytes 3 to 7, at
    least 2 digits, the first NUL below 100; 0 for the exponents -4 .. 15
    of the positional form."""
    e = np.arange(-324, 325)
    table = np.zeros((e.size, 8), np.uint8)
    table[:, 3] = ord("e")
    table[:, 4] = np.where(e < 0, ord("-"), ord("+"))
    table[:, 5:] = _digits(np.abs(e) + 1000)[:, 1:]
    table[:, 5] *= np.abs(e) >= 100
    table[(e >= -4) & (e <= 15)] = 0
    return table.view("<u8").reshape(-1).astype(np.uint64)


(_FIRST, _REST, _HEAD), _TAILS = _template(), _tails()


def _layout(bits: np.ndarray, out: np.ndarray) -> None:
    """Write the ``repr`` texts of normal doubles, given as bit patterns,
    into ``out``: one row of three little-endian words per value, whose
    bytes, without their NULs, are its text.

    Each value's 17 digits (:func:`_shortest`'s, with any trailing zeros)
    are its first digit and two words of 8 (:func:`_digit_bytes`), the
    trailing zeros NUL (:func:`_kept`). They are laid out by whole-word
    shifts in one template of 24 byte columns that holds two forms, the
    point in column 2 (:func:`_template`)::

        column    0     1   2   3 .. 18    19   20     21 - 23
        exponent  sign  d   .   d .. d     e    sign   exponent
        below 1   sign  0   .   0 to 3 zeros, then the digits

    The exponent form's point is NUL after a lone digit, and the
    positional form's last digit is in column 22 at most. A value in
    [1, 1e16), whose point moves with its exponent, is laid out again, by
    :func:`_positional`, on its rows alone."""
    digits, k = _shortest(bits)
    long = digits >= np.uint64(10**16)
    digits = np.where(long, digits, digits * np.uint64(10))
    e = k + 15 + long  # the exponent of the first digit
    first = digits // np.uint64(10**16)
    rest = digits - first * np.uint64(10**16)
    halves = np.empty((2, bits.size), np.uint64)
    np.floor_divide(rest, np.uint64(10**8), out=halves[0])
    np.subtract(rest, halves[0] * np.uint64(10**8), out=halves[1])
    octets = _digit_bytes(halves)
    kept = _kept(octets)
    text = octets | _ZEROS
    first |= np.uint64(ord("0"))
    sign = (bits >> _U63) * np.uint64(ord("-"))
    form = np.clip(e, -5, 16) + 5
    words = _shifted(text & kept, _REST[form])
    words[0] |= sign | first << _FIRST[form] | _HEAD[form] \
        | (kept[0] & np.uint64(ord("."))) << np.uint64(16)
    words[2] |= _TAILS[e + 324]
    out[...] = words.T
    rows = np.flatnonzero((e >= 0) & (e <= 15))
    if rows.size:
        out[rows] = _positional(rows, text, kept, first, e, sign).T


def _positional(rows: np.ndarray, text: np.ndarray, kept: np.ndarray,
                first: np.ndarray, e: np.ndarray, sign: np.ndarray
                ) -> np.ndarray:
    """The three words of :func:`_layout` of its values in [1, 1e16), at
    ``rows`` of its parts: the first digit in column 1, the next ``e``
    digits after it, the point, then the other digits, the first of them
    kept even when 0."""
    e = e.take(rows)
    ints, point = _UPTO.take(e + 1, axis=1), _UPTO.take(e + 2, axis=1)
    text = text.take(rows, axis=1) \
        & (kept.take(rows, axis=1) | _UPTO[:2].take(e, axis=1))
    words = _shifted(text, np.uint64(16)) & ints
    words |= _shifted(text, np.uint64(24)) & ~point
    words |= (ints ^ point) & np.uint64(0x2E2E2E2E2E2E2E2E)
    words[0] |= sign.take(rows) | first.take(rows) << np.uint64(8)
    return words


def _reprs(values, spell=repr) -> np.ndarray:
    """The ``repr`` text of each float of a 1-d array (narrower floats
    widened to float64 first, as ``tolist`` does), in ASCII: a ``(n, w)``
    uint8 table whose row ``i``, without its NULs, is the text of
    ``values[i]``.

    The one float formatter of the package. The normal values are spelled
    :data:`FLOAT_BLOCK` at a time by :func:`_layout`: their shortest
    digits come from :func:`_shortest`, are spelled 8 to a word and
    shifted into one template of 24 columns, the rows in [1, 1e16) laid
    out again by :func:`_positional`. The table has those 24 columns, or
    23 without the sign column when no value is negative. Zeros,
    subnormals and non-finite values, and every array of fewer than
    :data:`FLOAT_FLOOR` values, go through ``spell`` one by one, whose
    ASCII text of a finite float must be its ``repr``: ``json.dumps``
    spells the non-finite ones ``NaN``, ``Infinity`` and ``-Infinity``."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < FLOAT_FLOOR:
        texts = np.array(list(map(spell, values.tolist())), dtype="S")
        return texts.view(np.uint8).reshape(values.size, texts.itemsize)
    bits = values.view(np.uint64)
    out = np.empty((values.size, 3), "<u8")
    for lo in range(0, values.size, FLOAT_BLOCK):
        _layout(bits[lo:lo + FLOAT_BLOCK], out[lo:lo + FLOAT_BLOCK])
    out = out.view(np.uint8)
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
