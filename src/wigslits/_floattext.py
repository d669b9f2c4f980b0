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

Each value's text fills fixed slots of a row, NUL where unused, and one
compaction of a block of rows gives the bytes. The arithmetic runs on uint64
arrays, in place in scratch allocated once per call and sized by the block,
and wraps where the algorithm wants it; numpy scalars would warn on the
wrapping products, so constants are 0-d arrays.
"""

from __future__ import annotations

import functools
import sys
from typing import Iterator, Sequence

import numpy as np

# cells per block: a block's scratch (~230 bytes a cell), rows (~100) and
# text (~64) come to ~0.8 MB
BLOCK = 2048

# A value's text takes seven little-endian words, NUL where unused: the sign
# in the top byte of word 0 (its other bytes belong to the text before it);
# the integer digits, right-aligned, in words 1-2; the point (byte 3) and
# fraction slots 0-3 (bytes 4-7) in word 3; fraction slots 4-19 in words 4-5;
# e, the exponent's sign and 3 digits (NUL-padded), then the row's end, in
# word 6. Fraction slots 3-19 hold the fraction's digits zero-padded to 17,
# and slots 0-2 the '0's of 0.000ddd.
_END = 8 * 6 + 5  # the byte of the row's end: a newline, or a label's comma

_SIGN_BYTE = 7 if sys.byteorder == "little" else 0  # of a float64
_K_MIN, _K_MAX = -324, 292  # the powers 10^-k that doubles need
_EXP_OFFSET = 330  # exponent e is entry e + 330 of the exponent table


def _u(x):
    return np.array(x, dtype=np.uint64)


def _i(x):
    return np.array(x, dtype=np.int64)


_U0, _U1, _U2, _U4, _U32, _U52, _U63 = (_u(x) for x in (0, 1, 2, 4, 32, 52, 63))
_I0, _I1, _I4, _I12, _I21 = (_i(x) for x in (0, 1, 4, 12, 21))
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
    i = np.arange(10000)
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


def _mulhi(a_hi, a_lo, b_hi, b_lo, out, t1, t2, t3):
    """out = the high 64 bits of a b, from 32-bit halves, for a < 2^59; t1-t3 are scratch.

    No sum wraps: (2^32 - 1)^2 + 2^32 - 1 < 2^64, and a_hi b_lo < 2^59.
    """
    np.multiply(a_lo, b_lo, out=t1)
    t1 >>= _U32
    np.multiply(a_lo, b_hi, out=t2)
    t1 += t2
    np.multiply(a_hi, b_lo, out=t2)
    np.bitwise_and(t1, _M32, out=t3)
    t3 += t2
    np.multiply(a_hi, b_hi, out=out)
    t1 >>= _U32
    out += t1
    t3 >>= _U32
    out += t3


class _Renderer:
    """Writes the text of up to ``size`` values at a time."""

    def __init__(self, size: int):
        self.tables = _tables()
        self.pool = np.empty((26, size), dtype=np.uint64)
        self.flags = np.empty((11, size), dtype=bool)

    def __call__(self, values: np.ndarray, words: np.ndarray) -> None:
        """Write each value of a 1-D float64 array into a row of ``words`` (n x 7, '<u8')."""
        g_table, quads, pow10, frac_masks, point_words, by_point = self.tables
        n = values.size
        bits = values.view(np.uint64)
        p = self.pool[:, :n]
        c, odd, a, a_hi, a_lo = p[:5]
        k, h2, q = (r.view(np.int64) for r in p[5:8])
        g, g_hi, g_lo, t1, t2, t3 = p[8:20].reshape(6, 2, n)
        high = p[20:26].reshape(3, 2, n)  # for vb, vbl, vbr: the high words of the g1 and g0 products
        y0 = p[10:13]  # and the low words of the g1 products, once g_hi and g_lo are spent
        irregular, b1, b2, b3, b4, zero, fixed, special, other = self.flags[:9, :n]
        wrap = self.flags[9:11, :n]

        # ---- Schubfach, in the JDK's names: v = c 2^q, and vb, vbl, vbr are
        # 4 v and the ends of its rounding interval, times 10^-k, rounded to
        # odd. They are the top bits of 4 c 2^h times g = g1 2^63 + g0, and
        # the ends' products are 4 c 2^h's less or more a step g 2^s.
        np.right_shift(bits, _U52, out=a)
        a &= _u(0x7FF)  # the biased exponent
        np.subtract(a, _U1, out=a_hi)
        np.greater_equal(a_hi, _u(2046), out=special)  # 0, subnormal, inf, nan
        np.bitwise_and(bits, _FRACTION, out=c)
        np.equal(c, _U0, out=irregular)
        np.greater(a, _U1, out=b1)
        irregular &= b1  # c = 2^52: the interval below v is half as wide
        tmp = a_lo.view(np.int64)
        np.subtract(a, _u(1075), out=q, casting="unsafe")
        np.multiply(q, _i(661971961083), out=k)
        np.multiply(irregular, _i(274743187321), out=tmp)
        k -= tmp
        k >>= _i(41)
        np.multiply(k, _i(-913124641741), out=h2)
        h2 >>= _i(38)
        h2 += q
        h2 += _I4  # h + 2
        np.subtract(k, _i(_K_MIN), out=tmp)
        np.take(g_table, tmp, axis=1, out=g, mode="clip")
        c |= _HIDDEN
        np.bitwise_and(c, _U1, out=odd)  # c odd: the interval's ends are out
        np.left_shift(c, h2.view(np.uint64), out=a)
        above, below = h2, q  # the steps' shifts: 2 g 2^h above, and below g 2^h where irregular
        above -= _I1
        np.subtract(above, irregular, out=below)
        np.right_shift(a, _U32, out=a_hi)
        np.bitwise_and(a, _M32, out=a_lo)
        np.right_shift(g, _U32, out=g_hi)
        np.bitwise_and(g, _M32, out=g_lo)
        _mulhi(a_hi, a_lo, g_hi, g_lo, high[0], t1, t2, t3)
        np.multiply(a, g, out=t1)  # the low words
        np.copyto(y0[0], t1[0])
        for shift, end in ((below, 1), (above, 2)):
            # the low words of 4 c 2^h g less or more the step, then the high
            # words with the borrow or carry where the low words wrap
            np.left_shift(g, shift.view(np.uint64), out=t2)
            if end == 1:
                np.subtract(t1, t2, out=t3)
                np.less(t1, t3, out=wrap)
            else:
                np.add(t1, t2, out=t3)
                np.less(t3, t1, out=wrap)
            np.copyto(y0[end], t3[0])
            np.subtract(_i(64), shift, out=c.view(np.int64))
            np.right_shift(g, c, out=t2)
            if end == 1:
                np.subtract(high[0], t2, out=high[1])
                high[1] -= wrap
            else:
                np.add(high[0], t2, out=high[2])
                high[2] += wrap
        # round to odd as the JDK's rop: with z = (y0 >> 1) + x1, the top
        # word y1 + (z >> 63), odd unless z mod 2^63 is 0
        x1, y1 = high[:, 1], high[:, 0]
        y0 >>= _U1
        x1 += y0
        np.right_shift(x1, _U63, out=y0)
        y1 += y0
        x1 &= _M63
        x1 += _M63
        x1 >>= _U63
        y1 |= x1
        vb, vbl, vbr = y1

        # the shortest decimal d 10^k in the interval, and of those the closest
        s, x, y = a, a_hi, a_lo
        vbl += odd
        vbr -= odd
        np.right_shift(vb, _U2, out=s)
        np.floor_divide(s, _TEN, out=y)
        y *= _TEN  # s' = 10 floor(s / 10), one digit shorter than s
        np.left_shift(y, _U2, out=x)
        np.less_equal(vbl, x, out=b1)  # s' in
        x += _u(40)
        np.less_equal(x, vbr, out=b2)  # s' + 10 in
        np.not_equal(b1, b2, out=b3)  # exactly one is: it is d
        np.multiply(b2, _TEN, out=x)
        y += x
        np.left_shift(s, _U2, out=x)
        np.less_equal(vbl, x, out=b1)  # s in
        x += _U4
        np.greater(x, vbr, out=b2)  # s + 1 out
        np.bitwise_and(s, _U1, out=c)
        x -= _U1
        x -= c  # 4 s + 3 less s's parity: vb below it, s is closer, or as close and even
        np.less(vb, x, out=b4)
        b4 |= b2
        b4 &= b1  # s: in, and closer or alone
        np.subtract(s, b4, out=x)
        x += _U1
        np.copyto(x, y, where=b3)
        d = x
        np.left_shift(bits, _U1, out=y)
        np.equal(y, _U0, out=zero)
        np.copyto(d, _U0, where=zero)
        np.copyto(k, _I0, where=zero)
        np.logical_not(zero, out=other)
        special &= other

        # ---- layout: v = 0.ddd 10^point, fixed notation for -4 < point <= 16,
        # where the fraction has m = -k digits; else m = all but d's first.
        # d (row 3) and k (row 5) carry over; rows are reused once spent.
        length, point, n_int, last, m, first = (p[r].view(np.int64) for r in (0, 1, 2, 4, 6, 7))
        power, whole, top, t3 = p[14], p[8:10], p[10:12], p[12:14]
        halves, upper, digits = p[14:18].reshape(2, 2, n), p[18:22].reshape(2, 2, n), p[22:26].reshape(2, 2, n)
        exponent, frac_mask, by_point_row = p[18:20], p[14:17], p[8:11]  # all but top[1] spent by then
        np.greater_equal(d, _TEN16, out=b1)
        np.add(b1, _i(16), out=length)  # digits in d: 16 or 17, or 1 for 0
        np.copyto(length, _I1, where=zero)
        np.add(length, k, out=point)
        np.add(point, _i(3), out=m)
        np.less(m.view(np.uint64), _u(20), out=fixed)
        np.logical_not(fixed, out=other)
        np.negative(k, out=m)
        np.subtract(length, _I1, out=first)
        np.copyto(m, first, where=other)
        # the integer part and the fraction (whole), then their digits 4 at a
        # time as words: top is each one's digit 17 from the right
        np.take(pow10, m, out=power, mode="clip")
        np.floor_divide(d, power, out=whole[0])
        np.multiply(whole[0], power, out=y)
        np.subtract(d, y, out=whole[1])
        np.floor_divide(whole, _TEN16, out=top)
        np.multiply(top, _TEN16, out=t3)
        whole -= t3
        np.floor_divide(whole, _TEN8, out=halves[0])  # [top or bottom 8][integer or fraction]
        np.multiply(halves[0], _TEN8, out=halves[1])
        np.subtract(whole, halves[1], out=halves[1])
        np.floor_divide(halves, _TEN4, out=upper)
        for j in range(2):
            np.multiply(upper[j], _TEN4, out=t3)
            halves[j] -= t3  # the lower 4 digits
        np.take(quads, upper.view(np.int64), out=digits, mode="clip")
        np.take(quads, halves.view(np.int64), out=upper, mode="clip")
        upper <<= _U32
        digits |= upper
        # the fraction's last nonzero digit: a word's bytes less '0' are its
        # digits, and the word's exponent as a float gives the highest nonzero
        np.bitwise_xor(digits[:, 1], _ASCII_ZEROS, out=t3)
        np.copyto(exponent.view(np.float64), t3, casting="unsafe")
        exponent = exponent.view(np.int64)
        exponent -= _i(1023 << 52)
        exponent >>= _i(55)
        np.add(exponent[1], _I12, out=last)
        np.add(exponent[0], _I4, out=n_int)
        np.maximum(last, n_int, out=last)
        np.not_equal(top[1], _U0, out=b1)
        np.multiply(b1, _I4, out=n_int)
        n_int -= _I1
        np.maximum(last, n_int, out=last)  # fraction slot 3 is the top digit; -1 or less: none
        np.maximum(last, _i(-1), out=last)
        np.subtract(_i(20), m, out=first)
        np.maximum(first, _I0, out=first)
        np.less(last, _I0, out=b1)
        b1 &= fixed
        first *= _I21
        first += last
        first += _I1
        np.copyto(first, _i(19 * 21 + 20), where=b1)  # fixed and the fraction is 0: ".0"
        np.take(frac_masks, first, axis=1, out=frac_mask, mode="clip")
        np.add(point, _i(_EXP_OFFSET), out=n_int)
        np.take(by_point, n_int, axis=1, out=by_point_row, mode="clip")
        np.bitwise_and(digits[0, 0], by_point_row[1], out=words[:, 1])
        np.bitwise_and(digits[1, 0], by_point_row[2], out=words[:, 2])
        y = t3[0]
        np.take(point_words, top[1].view(np.int64), out=y, mode="clip")
        np.bitwise_and(y, frac_mask[0], out=words[:, 3])
        np.bitwise_and(digits[0, 1], frac_mask[1], out=words[:, 4])
        np.bitwise_and(digits[1, 1], frac_mask[2], out=words[:, 5])
        words[:, 6] = by_point_row[0]
        sign = self.flags[0, :n].view(np.uint8)  # irregular is spent
        np.right_shift(values.view(np.uint8)[_SIGN_BYTE::8], _SEVEN, out=sign)
        np.multiply(sign, _MINUS, out=words.view(np.uint8)[:, 7])

        if special.any():
            at = np.flatnonzero(special)
            texts = np.array([repr(v).encode() for v in values[at].tolist()], dtype="S24")
            row = words.view(np.uint8)[at]  # the sign byte is byte 7
            row[:, 7:_END] = 0
            row[:, 7:31] = texts.view(np.uint8).reshape(-1, 24)
            words.view(np.uint8)[at] = row


def _layout(rows: int, lead: int) -> tuple:
    """A zeroed row buffer with ``lead`` bytes before each value's text, and the text's words."""
    at = lead + (7 - lead) % 8  # the sign byte, the top byte of a word
    buf = np.zeros((rows, at + 1 + 48), dtype=np.uint8)
    return buf, buf.view("<u8")[:, at // 8:]


def _labels(axis: np.ndarray) -> np.ndarray:
    """Each point's text and a comma, NUL-padded to the widest."""
    points = np.ascontiguousarray(axis, dtype=np.float64)
    buf, words = _layout(points.size, 0)
    render = _Renderer(min(points.size, BLOCK))
    for i in range(0, points.size, BLOCK):
        render(points[i:i + BLOCK], words[i:i + BLOCK])
    buf[:, _END] = ord(",")
    return buf[:, buf.any(axis=0)]


def csv_rows(values: np.ndarray, axes: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """The CSV text "a,v\\n" (one axis) or "a,b,v\\n" (two axes) of ``values`` over the axes.

    Rows run over the product of the axes, the first slowest, and come as
    uint8 arrays of at most BLOCK rows; each axis point is formatted once.
    """
    *outer, inner = axes
    grid = np.ascontiguousarray(values, dtype=np.float64).reshape(-1, inner.size)
    labels = [_labels(axis) for axis in axes]
    inner_text, outer_width = labels[-1], sum(lab.shape[1] for lab in labels[:-1])
    lead = outer_width + inner_text.shape[1]
    # a block is whole grid rows where they fit, else part of one
    parts = -(-inner.size // BLOCK)
    span = -(-inner.size // parts)
    lines = min(max(BLOCK // inner.size, 1), grid.shape[0])
    render = _Renderer(lines * span)
    buf, words = _layout(lines * span, lead)
    # the renderer's scratch is free while a block is compacted
    nonzero = render.pool.view(bool).reshape(-1)[: buf.size].reshape(buf.shape)
    for i in range(0, grid.shape[0], lines):
        for j in range(0, inner.size, span):
            block = grid[i:i + lines, j:j + span]
            size = block.size
            tiles = buf[:size].reshape(block.shape + (-1,))
            if outer:
                tiles[:, :, :outer_width] = labels[0][i:i + lines, None]
            tiles[:, :, outer_width:lead] = inner_text[j:j + span]
            render(block.reshape(-1), words[:size])
            rows, mask = buf[:size], nonzero[:size]
            np.not_equal(rows, 0, out=mask)
            yield rows[mask]
