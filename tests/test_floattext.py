import itertools
import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wigslits import _floattext
from wigslits._floattext import csv_rows
from sweeps import sweep


def _repr_mismatch(values, axes=None):
    # None when csv_rows prints values over the product of axes (by default
    # each value is its own coordinate, a curve) as repr does, else the first row that differs
    values = np.asarray(values, dtype=np.float64)
    axes = (values,) if axes is None else axes
    got = b"".join(bytes(chunk) for chunk in csv_rows(values, axes)).decode().split("\n")
    rows = zip(itertools.product(*(axis.tolist() for axis in axes)), values.ravel().tolist())
    want = [",".join(map(repr, (*coords, value))) for coords, value in rows] + [""]
    row = next((i for i, (a, b) in enumerate(itertools.zip_longest(got, want)) if a != b), None)
    return None if row is None else f"row {row} is {got[row : row + 1]}, repr gives {want[row : row + 1]}"


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
        assert _repr_mismatch(values) is None


def test_layout_edges_and_special_values():
    values = [
        0.0, -0.0, 9.999999999999999e-05, 1e-4, 1e-5, 1e15, 1e16, 1e17, 2.0**53, 2.0**53 - 1,
        5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, sys.float_info.max,
        -sys.float_info.max, math.inf, -math.inf, math.nan, 0.1, 0.5, 123456.789, 9999999999999998.0,
        1234567890123456.8, 0.000123, 1.5e300,
    ]
    assert _repr_mismatch(values) is None


def test_a_curve_longer_than_a_block():
    # random bit patterns over two full blocks and a short last one
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2**64, 2 * _floattext.BLOCK + 17, dtype=np.uint64).view(np.float64)
    assert _repr_mismatch(values) is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=300))
def test_raw_bit_patterns_match_repr(patterns):
    # finite, subnormal, +-0.0, +-inf and NaN alike
    assert _repr_mismatch(np.array(patterns, dtype=np.uint64).view(np.float64)) is None


def test_random_bit_patterns_match_repr_in_field_layouts():
    # random 64-bit patterns as fields over axes drawn from them: square, then
    # with an inner axis longer than a block and no multiple of it, so blocks
    # start mid-row. CI draws 10^6, the second layout taking the first 996,057
    seed, layouts = sweep(((100, 100), (3, 4099)), ((1000, 1000), (243, 4099)))
    count = max(n_x * n_p for n_x, n_p in layouts)
    values = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64).view(np.float64)
    for n_x, n_p in layouts:
        field, axes = values[: n_x * n_p].reshape(n_x, n_p), (values[:n_x], values[-n_p:])
        assert (mismatch := _repr_mismatch(field, axes)) is None, f"seed {seed}, {n_x} x {n_p}: {mismatch}"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=100))
def test_float_draws_match_repr(values):
    # hypothesis favours short decimals, integers and boundary values
    assert _repr_mismatch(values) is None


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
    # the kernel runs them on int64 arrays: the same values
    q, e = np.arange(-1075, 973), np.arange(-325, 326)
    assert _floattext._flog10pow2(q).tolist() == [_floattext._flog10pow2(x) for x in q.tolist()]
    assert (_floattext._flog10threequarterspow2(q).tolist()
            == [_floattext._flog10threequarterspow2(x) for x in q.tolist()])
    assert _floattext._flog2pow10(e).tolist() == [_floattext._flog2pow10(x) for x in e.tolist()]


def test_g_brackets_each_power_of_ten():
    # (g - 1) 2^r <= 10^-k < g 2^r, with g - 1 in [2^125, 2^126)
    for k in range(_floattext._K_MIN, _floattext._K_MAX + 1):
        g = _floattext._g(k)
        scale = Fraction(2) ** (_floattext._flog2pow10(-k) - 125)
        assert 2**125 <= g - 1 < 2**126
        assert (g - 1) * scale <= Fraction(10) ** -k < g * scale
