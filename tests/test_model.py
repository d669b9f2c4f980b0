import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wigslits import (
    Grid1D,
    Grid2D,
    MarginalCurve,
    SampledWavefunction,
    SlitPairParams,
    WignerField,
    normalized_params,
    propagated_width,
)
from wigslits.analytic import momentum_marginal, position_marginal_propagated, wigner_two_slit


# ---------------------------------------------------------------- params


def test_normalized_params_defaults():
    p = normalized_params()
    assert (p.x0, p.hbar, p.d, p.alpha, p.delta) == (1.0, 1.0, 5.0, 0.0, 0.0)


def test_normalized_params_overrides():
    assert normalized_params(alpha=6.0).alpha == 6.0
    assert normalized_params(delta=4.0).delta == 4.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(x0=0.0, d=5.0),
        dict(x0=-1.0, d=5.0),
        dict(x0=1.0, d=0.0),
        dict(x0=1.0, d=5.0, hbar=0.0),
        dict(x0=1.0, d=5.0, alpha=-0.5),
        dict(x0=1.0, d=5.0, delta=math.nan),
        dict(x0=math.inf, d=5.0),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SlitPairParams(**kwargs)


def test_propagated_width_values():
    # alpha = 0 collapses the radical to x0
    assert propagated_width(SlitPairParams(x0=1.0, d=5.0)) == 1.0
    assert propagated_width(SlitPairParams(x0=2.0, d=5.0)) == 2.0
    # sqrt(6^2 + 1) for the standard flight distance
    assert propagated_width(normalized_params(alpha=6.0)) == pytest.approx(math.sqrt(37.0), abs=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(hbar=1e300),  # alpha^2 hbar^2 raises OverflowError
        dict(alpha=2e154),  # so does alpha^2
        dict(alpha=1e154, hbar=1e10),  # their product overflows to inf without raising
        dict(x0=1e100),  # x0^4 raises OverflowError
        dict(x0=1e-300),  # x0^4 underflows and the width is 0
        dict(x0=1e-300, hbar=1e-20, alpha=6.0),  # width 6e280 is finite, its square is not
    ],
)
def test_propagated_width_refuses_overflow_and_zero_width(kwargs):
    params = SlitPairParams(**{"x0": 1.0, "d": 5.0, **kwargs})
    with pytest.raises(ValueError, match=r"propagated width .* x0=.*, alpha=.*, hbar="):
        propagated_width(params)


def test_float_range_refuses_only_the_formula_that_leaves_it():
    # the momentum density never forms the propagated width, so hbar = 1e300
    # passes there while the position density refuses on the width; at
    # p = 1e308 both the momentum density and the field square p * x0 / hbar
    # past the float range and are refused by name with the slit pair
    huge_hbar = SlitPairParams(x0=1.0, d=5.0, hbar=1e300)
    assert np.isfinite(momentum_marginal(huge_hbar, np.array([-4e300, 0.0, 4e300]))).all()
    with pytest.raises(ValueError, match="propagated width"):
        position_marginal_propagated(huge_hbar, np.array([-12.0, 12.0]))
    comb, p = SlitPairParams(x0=1.0, d=1.0, hbar=1.0), np.array([1e308])
    for name, call in [("momentum_marginal", lambda: momentum_marginal(comb, p)),
                       ("wigner_two_slit", lambda: wigner_two_slit(comb, 0.0, p))]:
        with pytest.raises(ValueError, match=rf"^{name} leaves the float range \(overflow encountered in square\) "
                                             rf"for SlitPairParams\(x0=1.0, d=1.0, delta=0.0, hbar=1.0, alpha=0.0\)$"):
            call()


@given(
    a1=st.floats(min_value=0.0, max_value=50.0),
    a2=st.floats(min_value=0.0, max_value=50.0),
    x0=st.floats(min_value=0.05, max_value=20.0),
)
def test_propagated_width_monotone_in_alpha(a1, a2, x0):
    lo, hi = sorted((a1, a2))
    w_lo = propagated_width(SlitPairParams(x0=x0, d=1.0, alpha=lo))
    w_hi = propagated_width(SlitPairParams(x0=x0, d=1.0, alpha=hi))
    assert w_lo <= w_hi
    assert propagated_width(SlitPairParams(x0=x0, d=1.0, alpha=0.0)) == pytest.approx(x0, rel=1e-15)


# ---------------------------------------------------------------- grids


def test_grid_basics():
    g = Grid1D(min=-2.0, max=2.0, n=5)
    assert g.spacing == 1.0
    np.testing.assert_array_equal(g.points(), [-2, -1, 0, 1, 2])


def test_grid_endpoint_hits_max_within_roundoff():
    g = Grid1D(min=-12.0, max=12.0, n=511)  # spacing is not exactly representable
    assert g.points()[-1] == pytest.approx(g.max, abs=4 * np.finfo(float).eps * abs(g.max))


@pytest.mark.parametrize(
    "bad",
    [dict(min=0.0, max=0.0, n=4), dict(min=1.0, max=-1.0, n=4), dict(min=0.0, max=1.0, n=1), dict(min=0.0, max=1.0, n=2.5)],
)
def test_grid_validation(bad):
    with pytest.raises(ValueError):
        Grid1D(**bad)


def test_grid_refuses_a_width_past_the_float_range():
    # both ends are finite, but max - min, and so the spacing, is not: every
    # point past the first would be NaN
    with pytest.raises(ValueError, match=r"finite width max - min, got \[-1e\+308, 1e\+308\]"):
        Grid1D(min=-1e308, max=1e308, n=3)


# ---------------------------------------------------------------- field containers


def _small_grid2d():
    return Grid2D(Grid1D(min=-1.0, max=1.0, n=4), Grid1D(min=-2.0, max=2.0, n=3))


def test_wigner_field_accepts_negative_values():
    f = WignerField(grid=_small_grid2d(), values=np.full((4, 3), -0.5))
    assert f.values.min() == -0.5


def test_wigner_field_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        WignerField(grid=_small_grid2d(), values=np.zeros((3, 4)))


def test_wigner_field_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        vals = np.zeros((4, 3))
        vals[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            WignerField(grid=_small_grid2d(), values=vals)


@pytest.mark.parametrize("bad", [complex(0.0, np.inf), complex(0.0, -np.inf), complex(0.0, np.nan)])
def test_wavefunction_rejects_nonfinite_imaginary_part(bad):
    vals = np.ones(4, dtype=complex)
    vals[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        SampledWavefunction(grid=Grid1D(min=0.0, max=1.0, n=4), values=vals)


def test_field_values_are_read_only():
    f = WignerField(grid=_small_grid2d(), values=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_field_copies_a_writeable_array():
    arr = np.zeros((4, 3))
    f = WignerField(grid=_small_grid2d(), values=arr)
    arr[0, 0] = 1.0
    assert f.values is not arr
    assert f.values[0, 0] == 0.0


def test_field_adopts_a_frozen_array():
    arr = np.zeros((4, 3))
    arr.flags.writeable = False
    assert WignerField(grid=_small_grid2d(), values=arr).values is arr


def test_adopting_a_large_field_allocates_no_mask():
    # the finiteness check reduces in place: no n x n_p bool mask or copy
    n = 1024
    arr = _frozen(np.zeros((n, n)))
    grid = Grid2D(Grid1D(min=-1.0, max=1.0, n=n), Grid1D(min=-1.0, max=1.0, n=n))
    tracemalloc.start()
    try:
        WignerField(grid=grid, values=arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.01 * arr.nbytes


def _frozen(arr):
    arr.flags.writeable = False
    return arr


@pytest.mark.parametrize(
    "values",
    [
        _frozen(np.zeros((4, 6)))[:, ::2],  # a read-only view: its base may still be written
        _frozen(np.zeros((4, 3), dtype=np.float32)),
        _frozen(np.zeros((4, 3), dtype=np.int64)),
        [[0.0] * 3] * 4,
    ],
    ids=["view", "float32", "int64", "list"],
)
def test_field_copies_views_other_dtypes_and_lists(values):
    f = WignerField(grid=_small_grid2d(), values=values)
    assert f.values is not values
    assert f.values.dtype == float and f.values.flags.owndata and not f.values.flags.writeable


def test_wavefunction_length_must_match_grid():
    g = Grid1D(min=0.0, max=1.0, n=4)
    with pytest.raises(ValueError):
        SampledWavefunction(grid=g, values=np.zeros(5, dtype=complex))


def test_marginal_curve_rejects_negatives_and_bad_axis():
    g = Grid1D(min=0.0, max=1.0, n=3)
    with pytest.raises(ValueError):
        MarginalCurve(axis_label="position", grid=g, values=[0.0, -1e-3, 0.0])
    with pytest.raises(ValueError):
        MarginalCurve(axis_label="sideways", grid=g, values=[0.0, 0.0, 0.0])
