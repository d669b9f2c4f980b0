import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wigslits import _floattext
from wigslits._floattext import csv_rows


def _rows(values):
    # each value as both the coordinate and the value of a curve row: the
    # axis-label path and the block path
    values = np.asarray(values, dtype=np.float64)
    return b"".join(bytes(chunk) for chunk in csv_rows(values, (values,)))


def _reference(values):
    return "".join(f"{v!r},{v!r}\n" for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def _powers_and_neighbours(powers):
    powers = np.asarray(powers, dtype=np.float64)
    near = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    return np.concatenate(near + [-x for x in near])


def test_powers_of_two_and_ten_with_neighbours():
    # every power of two from 2^-1074, where the spacing below halves, and
    # every power of ten, each +-1 ulp and negated
    twos = _powers_and_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    tens = _powers_and_neighbours([float(f"1e{e}") for e in range(-323, 309)])
    for values in (twos, tens):
        assert _rows(values) == _reference(values)


def test_layout_edges_and_special_values():
    values = [
        0.0, -0.0, 9.999999999999999e-05, 1e-4, 1e-5, 1e15, 1e16, 1e17, 2.0**53, 2.0**53 - 1,
        5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, sys.float_info.max,
        -sys.float_info.max, math.inf, -math.inf, math.nan, 0.1, 0.5, 123456.789, 9999999999999998.0,
        1234567890123456.8, 0.000123, 1.5e300,
    ]
    assert _rows(values) == _reference(values)


def test_a_curve_longer_than_a_block():
    # the rows split into equal parts of one long row, the labels into
    # blocks with a short last one
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2**64, 2 * _floattext.BLOCK + 17, dtype=np.uint64).view(np.float64)
    assert _rows(values) == _reference(values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=300))
def test_raw_bit_patterns_match_repr(patterns):
    # finite, subnormal, +-0.0, +-inf and NaN alike
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _rows(values) == _reference(values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=100))
def test_float_draws_match_repr(values):
    # hypothesis favours short decimals, integers and boundary values
    assert _rows(values) == _reference(values)


def test_floor_logarithms_are_exact_over_their_range():
    # the multiply-shift floors behind k and h, against exact integer arithmetic
    def floor_log(num, den, base):  # floor(log_base(num / den)) for positive integers
        e = 0
        while num >= den * base:
            den *= base
            e += 1
        while num < den:
            num *= base
            e -= 1
        return e

    for q in range(-1075, 973):
        num, den = (2**q, 1) if q >= 0 else (1, 2**-q)
        assert _floattext._flog10pow2(q) == floor_log(num, den, 10)
        assert _floattext._flog10threequarterspow2(q) == floor_log(3 * num, 4 * den, 10)
    for e in range(-325, 326):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        assert _floattext._flog2pow10(e) == floor_log(num, den, 2)


def test_g_brackets_each_power_of_ten():
    # (g - 1) 2^r <= 10^-k < g 2^r, with g - 1 in [2^125, 2^126)
    for k in range(_floattext._K_MIN, _floattext._K_MAX + 1):
        g = _floattext._g(k)
        scale = Fraction(2) ** (_floattext._flog2pow10(-k) - 125)
        assert 2**125 <= g - 1 < 2**126
        assert (g - 1) * scale <= Fraction(10) ** -k < g * scale
