"""Shortest round-trip text of float64 arrays, byte for byte what ``repr`` gives.

``repr(float)`` runs David Gay's bignum dtoa, about a microsecond per value;
here numpy renders a block of values at a time. The digits come from
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020, the
algorithm behind JDK 19's ``Double.toString``): the shortest decimal in the
value's rounding interval, and of those the closest, from a few 64 x 64-bit
products per value. The text follows repr's layout: fixed notation with a
trailing ".0" for 1e-4 <= |v| < 1e16, otherwise d.ddde±XX, and -0.0 keeps
its sign. Subnormals, infinities and NaN go through repr itself: the JDK
forms differ there (``4.9E-324`` against ``5e-324``).

``csv_rows`` cuts the flattened grid into blocks of BLOCK cells. Each
value's text fills fixed slots of a row, NUL where unused, after its
coordinates' text (each axis point's repr, formatted once), and one
compaction of a block of rows gives the bytes. The arithmetic runs on uint64
arrays of a block's size and wraps where the algorithm wants it; numpy
scalars would warn on the wrapping products, so constants are 0-d arrays.
"""

from __future__ import annotations

import functools
import sys
from typing import Iterator, Sequence

import numpy as np

# cells per block: its rows (~100 bytes a cell) with the kernel's arrays
# (~250 at their peak), or with the compaction's mask (~100) and text (~64),
# come to at most ~0.7 MB
BLOCK = 2048

# A value's text takes seven little-endian words, NUL where unused: the sign
# in the top byte of word 0 (its other bytes belong to the text before it);
# the integer digits, right-aligned, in words 1-2; the point (byte 3) and
# fraction slots 0-3 (bytes 4-7) in word 3; fraction slots 4-19 in words 4-5;
# e, the exponent's sign and 3 digits (NUL-padded), then the row's end, in
# word 6. Fraction slots 3-19 hold the fraction's digits zero-padded to 17,
# and slots 0-2 the '0's of 0.000ddd.
_END = 8 * 6 + 5  # the byte of the row's end, a newline

_SIGN_BYTE = 7 if sys.byteorder == "little" else 0  # of a float64
_K_MIN, _K_MAX = -324, 292  # the powers 10^-k that doubles need
_EXP_OFFSET = 330  # exponent e is entry e + 330 of the exponent table


def _u(x):
    return np.array(x, dtype=np.uint64)


def _i(x):
    return np.array(x, dtype=np.int64)


_U0, _U1, _U2, _U4, _U32, _U52, _U63 = (_u(x) for x in (0, 1, 2, 4, 32, 52, 63))
_I0, _I1, _I4, _I12, _I21, _I64 = (_i(x) for x in (0, 1, 4, 12, 21, 64))
_M32, _M63, _FRACTION, _HIDDEN = _u((1 << 32) - 1), _u((1 << 63) - 1), _u((1 << 52) - 1), _u(1 << 52)
_TEN, _TEN4, _TEN8, _TEN16 = _u(10), _u(10**4), _u(10**8), _u(10**16)
_ASCII_ZEROS = _u(0x3030303030303030)
_SEVEN, _MINUS = np.array(7, dtype=np.uint8), np.array(ord("-"), dtype=np.uint8)


def _flog10pow2(e):  # floor(log10(2^e))
    return (e * 661971961083) >> 41


def _flog10threequarterspow2(e):  # floor(log10(3/4 2^e))
    return (e * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):  # floor(log2(10^e))
    return (e * 913124641741) >> 38


def _g(k: int) -> int:
    """floor(10^-k 2^-r) + 1, for the r that puts it in [2^125, 2^126)."""
    e = -k
    r = _flog2pow10(e) - 125
    return ((10 ** max(e, 0)) << max(-r, 0)) // ((10 ** max(-e, 0)) << max(r, 0)) + 1


@functools.cache
def _tables():
    # built on first use, so that importing the package costs nothing here
    tables = _build_tables()
    for table in tables:
        table.flags.writeable = False
    return tables


def _words(keep: np.ndarray) -> np.ndarray:
    """Byte masks (0xFF where kept), rows of bytes to rows of little-endian words, transposed."""
    masks = np.ascontiguousarray(keep.astype(np.uint8) * 0xFF)
    return masks.view("<u8").astype(np.uint64).T.copy()


def _build_tables():
    # g = g1 2^63 + g0 for each k, as rows g1 and g0
    g = [_g(k) for k in range(_K_MIN, _K_MAX + 1)]
    g = np.array([[x >> 63 for x in g], [x & ((1 << 63) - 1) for x in g]], dtype=np.uint64)
    # "0000".."9999" as the low half of little-endian words
    i = np.arange(10000, dtype=np.uint16)
    quads = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8) + ord("0")
    quads = quads.view("<u4").reshape(-1).astype(np.uint64)
    pow10 = np.array([10 ** min(m, 19) for m in range(21)], dtype=np.uint64)
    # words 3-5 to keep, by first * 21 + last + 1 for fraction slots first..last:
    # fraction slot s is byte s + 4, and the point, byte 3, goes with any slot
    byte, first, last = np.arange(24), np.arange(21)[:, None, None], np.arange(-1, 20)[:, None]
    frac = (byte >= first + 4) & (byte <= last + 4) | (byte == 3) & (first <= last)
    frac_masks = _words(frac.reshape(-1, 24))
    # word 3 before masking, by the fraction's digit 17 from the right
    point_words = np.array([int.from_bytes(b"\0\0\0.000" + bytes([48 + i]), "little") for i in range(10)],
                           dtype=np.uint64)
    # by point + 330: word 6 (e, the exponent point - 1's sign and 3 digits,
    # NUL-padded, or nothing in fixed notation; then the row's end) and the
    # integer slots to keep
    points = np.arange(-_EXP_OFFSET, _EXP_OFFSET + 1)
    fixed = (points > -4) & (points <= 16)
    exps = [f"e{point - 1:+03d}".encode() for point in points.tolist()]
    exps = [bytes(5) if f else x[:2] + x[2:].rjust(3, b"\0") for f, x in zip(fixed.tolist(), exps)]
    exps = np.frombuffer(b"".join(x + b"\n\0\0" for x in exps), dtype="<u8").astype(np.uint64)
    digits = np.where(fixed, np.maximum(points, 1), 1)
    by_point = np.concatenate([exps[None], _words(np.arange(16) >= 16 - digits[:, None])])
    return g, quads, pow10, frac_masks, point_words, by_point


def _mulhi(a, b):
    """The high 64 bits of a b, from 32-bit halves, for a < 2^59.

    No sum wraps: (2^32 - 1)^2 + 2^32 - 1 < 2^64, and a_hi b_lo < 2^59.
    """
    a_hi, a_lo, b_hi, b_lo = a >> _U32, a & _M32, b >> _U32, b & _M32
    carry = a_lo * b_lo
    carry >>= _U32
    carry += a_lo * b_hi
    middle = carry & _M32
    middle += a_hi * b_lo
    high = a_hi * b_hi
    carry >>= _U32
    high += carry
    middle >>= _U32
    high += middle
    return high


def _rop(g, cb, below, above):
    """vb, vbl, vbr: g times cb, cb - 2^below and cb + 2^above, each rounded to odd as the JDK's rop.

    g = g1 2^63 + g0 is a column pair of the g table. The ends' products
    step from the centre's: their low words borrow from or carry into the
    high words where they wrap.
    """
    high = np.empty((3, 2, cb.size), dtype=np.uint64)  # [vb, vbl, vbr][of g1, of g0]
    high[0] = _mulhi(cb, g)
    low = np.empty_like(high)
    np.multiply(cb, g, out=low[0])
    np.subtract(low[0], g << below.view(np.uint64), out=low[1])
    np.subtract(high[0], g >> (_I64 - below).view(np.uint64), out=high[1])
    high[1] -= low[1] > low[0]
    np.add(low[0], g << above.view(np.uint64), out=low[2])
    np.add(high[0], g >> (_I64 - above).view(np.uint64), out=high[2])
    high[2] += low[2] < low[0]
    # with z = (y0 >> 1) + x1, the top word y1 + (z >> 63), odd unless z mod 2^63 is 0
    y1, x1, y0 = high[:, 0], high[:, 1], low[:, 0]
    y0 >>= _U1
    x1 += y0
    y1 += x1 >> _U63
    x1 &= _M63
    x1 += _M63
    x1 >>= _U63
    y1 |= x1
    return y1


def _shortest(bits: np.ndarray) -> tuple:
    """Schubfach's digits of float64 bit patterns: (d, k, special), the value d 10^k.

    In the JDK's names: v = c 2^q, and vb, vbl, vbr are 4 v and the ends of
    its rounding interval, times 10^-k and rounded to odd. d is the
    shortest decimal in the interval, and of those the closest. ``special``
    marks subnormals, infinities and NaN, whose d and k mean nothing; +-0
    give d = k = 0.
    """
    g_table = _tables()[0]
    biased = bits >> _U52
    biased &= _u(0x7FF)
    special = biased - _U1 >= _u(2046)  # 0, subnormal, inf, nan
    c = bits & _FRACTION
    irregular = c == _U0
    irregular &= biased > _U1  # c = 2^52: the interval below v is half as wide
    q = biased.view(np.int64) - _i(1075)
    k = _flog10pow2(q)
    np.copyto(k, _flog10threequarterspow2(q), where=irregular)
    h = _flog2pow10(-k)
    h += q
    h += _i(2)
    g = np.take(g_table, k - _i(_K_MIN), axis=1, mode="clip")
    c |= _HIDDEN
    cb = c << (h + _i(2)).view(np.uint64)  # 4 c 2^h
    # the steps to the interval's ends: 2 g 2^h, and below g 2^h where irregular
    above = h + _I1
    vb, vbl, vbr = _rop(g, cb, above - irregular, above)
    out = c & _U1  # c odd: the interval's ends are out
    vbl += out
    vbr -= out

    s = vb >> _U2
    sp = s // _TEN
    sp *= _TEN  # s' = 10 floor(s / 10), one digit shorter than s
    upin = vbl <= sp << _U2
    wpin = (sp << _U2) + _u(40) <= vbr
    uin = vbl <= s << _U2
    wout = (s << _U2) + _U4 > vbr
    # s if s is in and s + 1 is out, or vb is below 4 s + 2, or at it and s is even
    pick_s = vb < (s << _U2) + _u(3) - (s & _U1)
    pick_s |= wout
    pick_s &= uin
    d = s + _U1
    d -= pick_s
    np.copyto(d, sp + _TEN * wpin, where=upin != wpin)  # exactly one of s', s' + 10 is in: it is d
    zero = bits << _U1 == _U0
    np.copyto(d, _U0, where=zero)
    np.copyto(k, _I0, where=zero)
    special &= ~zero
    return d, k, special


def _digit_words(d, power, quads):
    """The digits of d // power and d % power as text: (top, digits), each [integer part, fraction].

    top is each one's digit 17 from the right, and digits[0] and digits[1]
    the 8 digits below it and the 8 below those, as little-endian words.
    """
    whole = np.empty((2, d.size), dtype=np.uint64)
    np.floor_divide(d, power, out=whole[0])
    np.multiply(whole[0], power, out=whole[1])
    np.subtract(d, whole[1], out=whole[1])
    top = whole // _TEN16
    whole -= top * _TEN16
    halves = np.empty((2,) + whole.shape, dtype=np.uint64)
    np.floor_divide(whole, _TEN8, out=halves[0])
    np.multiply(halves[0], _TEN8, out=halves[1])
    np.subtract(whole, halves[1], out=halves[1])
    upper = halves // _TEN4
    halves -= upper * _TEN4  # the lower 4 digits
    digits = np.take(quads, upper.view(np.int64), mode="clip")
    lower = np.take(quads, halves.view(np.int64), mode="clip")
    lower <<= _U32
    digits |= lower
    return top, digits


def _render(values: np.ndarray, words: np.ndarray) -> None:
    """Write each value of a 1-D float64 array into a row of ``words`` (n x 7, '<u8')."""
    _, quads, pow10, frac_masks, point_words, by_point = _tables()
    d, k, special = _shortest(values.view(np.uint64))
    # v = 0.ddd 10^point, fixed notation for -4 < point <= 16, where the
    # fraction has m = -k digits; else m = all but d's first
    length = (d >= _TEN16) + _i(16)  # digits in d: 16 or 17, or 1 for 0
    np.copyto(length, _I1, where=d == _U0)
    point = length + k
    fixed = (point + _i(3)).view(np.uint64) < _u(20)
    m = np.where(fixed, -k, length - _I1)
    top, digits = _digit_words(d, np.take(pow10, m, mode="clip"), quads)
    # the fraction's last nonzero digit: a word's bytes less '0' are its
    # digits, and the word's exponent as a float gives the highest nonzero
    exponent = (digits[:, 1] ^ _ASCII_ZEROS).astype(np.float64).view(np.int64)
    exponent -= _i(1023 << 52)
    exponent >>= _i(55)
    last = np.maximum(exponent[1] + _I12, exponent[0] + _I4)
    np.maximum(last, (top[1] != _U0) * _I4 - _I1, out=last)  # fraction slot 3 is the top digit
    np.maximum(last, _i(-1), out=last)  # -1: no nonzero digit
    first = np.maximum(_i(20) - m, _I0)
    mask_at = first * _I21
    mask_at += last
    mask_at += _I1
    np.copyto(mask_at, _i(19 * 21 + 20), where=fixed & (last < _I0))  # fixed and the fraction is 0: ".0"
    frac_mask = np.take(frac_masks, mask_at, axis=1, mode="clip")
    by_point_row = np.take(by_point, point + _i(_EXP_OFFSET), axis=1, mode="clip")
    np.bitwise_and(digits[0, 0], by_point_row[1], out=words[:, 1])
    np.bitwise_and(digits[1, 0], by_point_row[2], out=words[:, 2])
    np.bitwise_and(np.take(point_words, top[1].view(np.int64), mode="clip"), frac_mask[0], out=words[:, 3])
    np.bitwise_and(digits[0, 1], frac_mask[1], out=words[:, 4])
    np.bitwise_and(digits[1, 1], frac_mask[2], out=words[:, 5])
    words[:, 6] = by_point_row[0]
    sign = values.view(np.uint8)[_SIGN_BYTE::8] >> _SEVEN
    np.multiply(sign, _MINUS, out=words.view(np.uint8)[:, 7])

    if special.any():
        at = np.flatnonzero(special)
        texts = np.array([repr(v).encode() for v in values[at].tolist()], dtype="S24")
        row = words.view(np.uint8)[at]  # the sign byte is byte 7
        row[:, 7:_END] = 0
        row[:, 7:31] = texts.view(np.uint8).reshape(-1, 24)
        words.view(np.uint8)[at] = row


def _labels(axis: np.ndarray) -> np.ndarray:
    """Each point's repr and a comma, NUL-padded to the widest, as rows of bytes."""
    texts = np.array([f"{v!r},".encode() for v in np.asarray(axis, dtype=np.float64).tolist()])
    return texts.view(np.uint8).reshape(texts.size, -1)


def csv_rows(values: np.ndarray, axes: Sequence[np.ndarray], scale: float = 1.0) -> Iterator[np.ndarray]:
    """The CSV text "a,v\\n" (one axis) or "a,b,v\\n" (two axes) of ``scale * values`` over the axes.

    Rows run over the product of the axes, the first slowest, and come as
    uint8 arrays of exactly BLOCK rows, the last shorter, whatever the
    grid's shape; each axis point is formatted once, each block scaled once.
    """
    shape = tuple(axis.size for axis in axes)
    cells = np.ascontiguousarray(values, dtype=np.float64).reshape(shape).reshape(-1)
    labels = [_labels(axis) for axis in axes]
    lead = sum(label.shape[1] for label in labels)
    at = lead + (7 - lead) % 8  # the sign byte, the top byte of a word
    buf = np.zeros((min(cells.size, BLOCK), at + 1 + 48), dtype=np.uint8)
    words = buf.view("<u8")[:, at // 8:]
    for start in range(0, cells.size, BLOCK):
        with np.errstate(invalid="ignore"):  # a signalling NaN is quieted, and prints as "nan" either way
            block = cells[start:start + BLOCK] * scale
        rows = buf[:block.size]
        # each row's coordinates, gathered by the cell's index along each axis
        column = 0
        for label, index in zip(labels, np.unravel_index(np.arange(start, start + block.size), shape)):
            np.take(label, index, axis=0, out=rows[:, column:column + label.shape[1]])
            column += label.shape[1]
        _render(block, words[:block.size])
        yield rows[rows != 0]
