import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.signal import find_peaks

from wigslits import (
    AnalysisError,
    Grid1D,
    Grid2D,
    MarginalCurve,
    common_projection_interval,
    common_support_interval,
    find_fringe_maxima,
    fringe_period,
    fringe_report,
    fringe_shift,
    momentum_marginal,
    normalized_params,
    position_marginal_propagated,
    single_slit_field,
    single_slit_marginal,
)
from wigslits.analysis import _bounded_minimum, _prominent_peaks

P_AXIS = Grid1D(min=-4.0, max=4.0, n=512)
X_AXIS = Grid1D(min=-12.0, max=12.0, n=512)


def _p_curve(delta, grid=P_AXIS):
    values = momentum_marginal(normalized_params(delta=delta), grid.points())
    return MarginalCurve(axis_label="momentum", grid=grid, values=values)


def _x_curve(delta, alpha=6.0, grid=X_AXIS):
    values = position_marginal_propagated(normalized_params(alpha=alpha, delta=delta), grid.points())
    return MarginalCurve(axis_label="position", grid=grid, values=values)


# ---------------------------------------------------------------- maxima

# Raw maxima of the momentum density at delta = 0, frozen from the argmax of
# the closed form on a 4e7-point grid. The Gaussian envelope pulls each peak
# toward the center, so these sit visibly inside the bare comb at k*pi/5.
RAW_P_MAXIMA = [-1.8153032, -1.209181, -0.6042646, 0.0, 0.6042646, 1.209181, 1.8153032]


def test_find_fringe_maxima_matches_refined_argmax():
    curve = _p_curve(0.0, grid=Grid1D(min=-4.0, max=4.0, n=2001))
    found = find_fringe_maxima(curve, 0.01)
    assert len(found) == len(RAW_P_MAXIMA)
    for got, want in zip(found, RAW_P_MAXIMA):
        assert got == pytest.approx(want, abs=1e-3)


def test_find_fringe_maxima_prominence_filters_outer_fringes():
    curve = _p_curve(0.0)
    # outermost comb teeth carry ~3.3% prominence; a 5% floor drops them
    assert len(find_fringe_maxima(curve, 0.05)) == 5
    assert len(find_fringe_maxima(curve, 0.01)) == 7


def test_find_fringe_maxima_flat_curve():
    grid = Grid1D(min=0.0, max=1.0, n=64)
    flat = MarginalCurve(axis_label="position", grid=grid, values=np.ones(64))
    assert find_fringe_maxima(flat, 0.0) == []
    zero = MarginalCurve(axis_label="position", grid=grid, values=np.zeros(64))
    assert find_fringe_maxima(zero, 0.05) == []


def test_find_fringe_maxima_single_gaussian():
    grid = Grid1D(min=-4.0, max=4.0, n=257)  # center lands on the lattice
    values = np.exp(-(grid.points() ** 2) / 0.5)
    curve = MarginalCurve(axis_label="position", grid=grid, values=values)
    found = find_fringe_maxima(curve, 0.1)
    assert len(found) == 1
    assert found[0] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("prominence", [-0.1, math.nan])
def test_find_fringe_maxima_rejects_negative_prominence(prominence):
    with pytest.raises(ValueError):
        find_fringe_maxima(_p_curve(0.0), prominence)


def test_find_fringe_maxima_ascending():
    found = find_fringe_maxima(_p_curve(4.0), 0.02)
    assert found == sorted(found)


# Short runs of small integers make ties, plateaus and equal peaks common.
_PEAK_INPUTS = st.one_of(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=40),
    st.lists(st.integers(0, 3), min_size=1, max_size=12),
    st.lists(st.integers(0, 3), min_size=1, max_size=40),
)
_FLOORS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]), st.floats(0.0, 1e3))


@settings(max_examples=1000)
@given(values=_PEAK_INPUTS, floor=_FLOORS)
# Both peaks have prominence 2: each base scan must pass the other, equal peak.
@example(values=[0, 2, 1, 2, 0], floor=1.5)
def test_prominent_peaks_match_scipy_find_peaks(values, floor):
    x = np.asarray(values, dtype=float)
    assert _prominent_peaks(x, floor) == list(find_peaks(x, prominence=floor)[0])


@settings(max_examples=200)
@given(
    centre=st.floats(-2.0, 2.0),
    curvature=st.floats(0.1, 5.0),
    ripple=st.floats(0.0, 20.0),
    lo=st.floats(-3.0, 0.0),
    width=st.floats(1e-3, 5.0),
    log_xatol=st.floats(-14.0, -2.0),
)
def test_bounded_minimum_matches_scipy_bit_for_bit(centre, curvature, ripple, lo, width, log_xatol):
    def func(x):
        return curvature * (x - centre) ** 2 + np.cos(ripple * x)

    hi, xatol = lo + width, 10.0**log_xatol
    want = minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol}).x
    assert _bounded_minimum(func, lo, hi, xatol) == want


# ---------------------------------------------------------------- period


def test_fringe_period_momentum():
    # comb frequency 2 d / hbar, period pi hbar / d
    assert fringe_period(_p_curve(0.0)) == pytest.approx(math.pi / 5, abs=1e-3)
    assert fringe_period(_p_curve(4.0)) == pytest.approx(math.pi / 5, abs=1e-3)


def test_fringe_period_position_after_flight():
    # comb frequency 2 alpha d hbar / (x0^2 Delta^2) = 60/37
    assert fringe_period(_x_curve(0.0)) == pytest.approx(37 * math.pi / 30, abs=2e-2)


def test_fringe_period_needs_three_maxima():
    grid = Grid1D(min=-6.0, max=6.0, n=301)
    x = grid.points()
    two_bumps = np.exp(-((x - 2.0) ** 2)) + np.exp(-((x + 2.0) ** 2))
    curve = MarginalCurve(axis_label="position", grid=grid, values=two_bumps)
    with pytest.raises(AnalysisError):
        fringe_period(curve)


# ---------------------------------------------------------------- shift


def test_fringe_shift_self_is_zero():
    curve = _p_curve(4.0)
    assert abs(fringe_shift(curve, curve)) <= 1e-9


def test_fringe_shift_momentum_comb():
    # the comb moves by delta * hbar / (2 d)
    shift = fringe_shift(_p_curve(4.0), _p_curve(0.0))
    assert shift == pytest.approx(0.4, abs=2e-3)


def test_fringe_shift_position_comb_after_flight():
    # the comb moves by delta * x0^2 Delta^2 / (2 alpha d hbar)
    shift = fringe_shift(_x_curve(4.0), _x_curve(0.0))
    assert shift == pytest.approx(4 * 37 / 60, abs=2e-2)


def test_fringe_shift_linear_in_delta():
    ref = _p_curve(0.0)
    for delta in np.linspace(0.0, math.pi, 5):
        shift = fringe_shift(_p_curve(delta), ref)
        assert shift == pytest.approx(delta / 10, abs=2e-3)


def test_fringe_shift_periodicity():
    assert abs(fringe_shift(_p_curve(2 * math.pi), _p_curve(0.0))) <= 1e-6
    assert abs(fringe_shift(_p_curve(2 * math.pi + 4.0), _p_curve(4.0))) <= 1e-6


def test_fringe_shift_requires_matching_grids():
    other = Grid1D(min=-4.0, max=4.0, n=256)
    with pytest.raises(ValueError):
        fringe_shift(_p_curve(4.0), _p_curve(0.0, grid=other))
    # one grid is not enough: a position curve on the momentum lattice is another axis
    other_axis = MarginalCurve("position", P_AXIS, _p_curve(0.0).values)
    for measure in (fringe_shift, fringe_report):
        with pytest.raises(ValueError, match="different axes"):
            measure(_p_curve(4.0), other_axis)


def test_fringe_shift_needs_peaks():
    grid = Grid1D(min=0.0, max=1.0, n=64)
    flat = MarginalCurve(axis_label="momentum", grid=grid, values=np.ones(64))
    with pytest.raises(AnalysisError):
        fringe_shift(flat, flat)


def test_fringe_shift_single_peak_fallback():
    # too few fringes for a period: fall back to displacement of the
    # central maxima themselves
    grid = Grid1D(min=-8.0, max=8.0, n=1601)
    x = grid.points()
    ref = MarginalCurve(axis_label="position", grid=grid, values=np.exp(-(x**2)))
    cur = MarginalCurve(axis_label="position", grid=grid, values=np.exp(-((x - 1.5) ** 2)))
    assert fringe_shift(cur, ref) == pytest.approx(1.5, abs=1e-6)
    assert fringe_shift(ref, cur) == pytest.approx(-1.5, abs=1e-6)


# ---------------------------------------------------------------- report


def _bump(center):
    return MarginalCurve("momentum", P_AXIS, np.exp(-((P_AXIS.points() - center) ** 2)))


@pytest.mark.parametrize(
    "curve, reference, period_none, centroid_shift",
    [
        (_p_curve(4.0), _p_curve(0.0), False, False),
        (_x_curve(4.0), _x_curve(0.0), False, False),
        (_bump(0.5), _p_curve(0.0), True, False),  # one maximum: no period
        (_p_curve(4.0), _bump(0.0), False, True),  # one reference fringe: centroid fallback
    ],
    ids=["momentum", "position", "no-period", "centroid"],
)
def test_fringe_report_equals_the_public_functions(curve, reference, period_none, centroid_shift):
    report = fringe_report(curve, reference, (-1.0, 1.0))
    assert list(report.maxima) == find_fringe_maxima(curve, 0.05)
    if period_none:
        assert report.period_estimate is None
        with pytest.raises(AnalysisError):
            fringe_period(curve)
    else:
        assert report.period_estimate == fringe_period(curve)
    assert (len(find_fringe_maxima(reference, 0.05)) < 3) == centroid_shift
    assert report.shift_vs_reference == fringe_shift(curve, reference)
    assert report.pattern_interval == (-1.0, 1.0)
    assert fringe_report(curve, reference).pattern_interval is None


# ---------------------------------------------------------------- pattern interval

GRID_2D = Grid2D(X_AXIS, P_AXIS)
E_MINUS_9 = math.exp(-9)


def _slit_fields(alpha=0.0, delta=0.0):
    params = normalized_params(alpha=alpha, delta=delta)
    return (single_slit_field(params, GRID_2D, 1), single_slit_field(params, GRID_2D, -1))


def _slit_curves(params, axis, grid):
    return tuple(
        MarginalCurve(axis, grid, single_slit_marginal(params, axis, grid.points(), s)) for s in (1, -1)
    )


def test_pattern_interval_position_empty_before_flight():
    # slit supports e^{-(x -+ 5)^2} >= e^-9 are [2, 8] and [-8, -2]: disjoint
    f1, f2 = _slit_fields(alpha=0.0)
    assert common_projection_interval(f1, f2, "position", E_MINUS_9) is None


def test_pattern_interval_momentum_is_shared():
    # both slits project to e^{-p^2} >= e^-9 on |p| <= 3
    f1, f2 = _slit_fields(alpha=0.0)
    lo, hi = common_projection_interval(f1, f2, "momentum", E_MINUS_9)
    step = P_AXIS.spacing
    assert lo == pytest.approx(-3.0, abs=step)
    assert hi == pytest.approx(3.0, abs=step)


def test_pattern_interval_opens_along_x_after_flight():
    f1, f2 = _slit_fields(alpha=6.0)
    interval = common_projection_interval(f1, f2, "position", E_MINUS_9)
    assert interval is not None
    lo, hi = interval
    assert lo < 0 < hi


def test_pattern_interval_self_is_own_support():
    f1, _ = _slit_fields(alpha=0.0)
    lo, hi = common_projection_interval(f1, f1, "position", E_MINUS_9)
    assert lo == pytest.approx(2.0, abs=X_AXIS.spacing)
    assert hi == pytest.approx(8.0, abs=X_AXIS.spacing)


def test_pattern_interval_is_phase_independent():
    # slit fields carry no interference term, so the phase cannot matter
    a = common_projection_interval(*_slit_fields(alpha=0.0, delta=0.0), "momentum", E_MINUS_9)
    b = common_projection_interval(*_slit_fields(alpha=0.0, delta=4.0), "momentum", E_MINUS_9)
    assert a == b


def test_support_interval_of_a_zero_curve_is_none():
    c1, _ = _slit_curves(normalized_params(), "momentum", P_AXIS)
    zero = MarginalCurve("momentum", P_AXIS, np.zeros(P_AXIS.n))
    assert common_support_interval(c1, zero, 0.5) is None
    assert common_support_interval(zero, c1, 0.5) is None


def test_pattern_interval_validation():
    f1, f2 = _slit_fields()
    with pytest.raises(ValueError):
        common_projection_interval(f1, f2, "diagonal", 0.5)
    with pytest.raises(ValueError):
        common_projection_interval(f1, f2, "position", 0.0)
    with pytest.raises(ValueError):
        common_projection_interval(f1, f2, "position", 1.0)
    other = Grid2D(Grid1D(min=-1.0, max=1.0, n=512), P_AXIS)
    mismatched = single_slit_field(normalized_params(), other, 1)
    with pytest.raises(ValueError):
        common_projection_interval(f1, mismatched, "position", 0.5)

    params = normalized_params()
    c1, c2 = _slit_curves(params, "momentum", P_AXIS)
    for threshold in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            common_support_interval(c1, c2, threshold)
    other_grid = Grid1D(min=-4.0, max=4.0, n=257)
    with pytest.raises(ValueError):
        common_support_interval(c1, _slit_curves(params, "momentum", other_grid)[1], 0.5)
    same_grid_other_axis = MarginalCurve("position", P_AXIS, c2.values)
    with pytest.raises(ValueError):
        common_support_interval(c1, same_grid_other_axis, 0.5)
    with pytest.raises(ValueError):
        single_slit_marginal(params, "momentum", P_AXIS.points(), slit=0)
    with pytest.raises(ValueError):
        single_slit_marginal(params, "diagonal", P_AXIS.points())


@pytest.mark.parametrize("axis", ["position", "momentum"])
@pytest.mark.parametrize("alpha", [0.0, 3.0, 6.0, 12.0])
def test_pattern_interval_curve_route_equals_field_route(alpha, axis):
    # the x window holds the sheared slit fields at every alpha, so the
    # sampled fields project onto the closed-form single-slit curves
    wide = Grid1D(min=-64.0, max=64.0, n=2049)
    params = normalized_params(alpha=alpha)
    fields = [single_slit_field(params, Grid2D(wide, P_AXIS), s) for s in (1, -1)]
    curves = _slit_curves(params, axis, wide if axis == "position" else P_AXIS)
    assert common_support_interval(*curves, E_MINUS_9) == common_projection_interval(*fields, axis, E_MINUS_9)
