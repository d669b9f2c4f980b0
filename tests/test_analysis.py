import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from wigslits import (
    FringeReport,
    Grid1D,
    Grid2D,
    MarginalCurve,
    SlitPairParams,
    common_projection_interval,
    common_support_interval,
    field_marginal,
    find_fringe_maxima,
    fringe_report,
    fringe_shift,
    momentum_marginal,
    normalized_params,
    position_marginal_propagated,
    single_slit_field,
    single_slit_marginal,
)
import wigslits.analysis
from wigslits.analysis import _prominent_peaks
from sweeps import sweep
from test_numeric import _traced_peak_bytes

P_AXIS = Grid1D(min=-4.0, max=4.0, n=512)
X_AXIS = Grid1D(min=-12.0, max=12.0, n=512)


def _p_curve(delta, grid=P_AXIS, d=5.0):
    values = momentum_marginal(SlitPairParams(x0=1.0, d=d, delta=delta, hbar=1.0, alpha=0.0), grid.points())
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
    found = find_fringe_maxima(curve)  # the 5% floor drops the outermost pair
    assert len(found) == len(RAW_P_MAXIMA) - 2
    for got, want in zip(found, RAW_P_MAXIMA[1:-1]):
        assert got == pytest.approx(want, abs=1e-3)


def test_find_fringe_maxima_prominence_filters_outer_fringes():
    curve = _p_curve(0.0)
    # outermost comb teeth carry ~3.3% prominence; a 5% floor drops them
    assert len(find_fringe_maxima(curve)) == 5
    assert len(_prominent_peaks(curve.values, 0.01 * curve.values.max())) == 7


def test_find_fringe_maxima_flat_curve():
    grid = Grid1D(min=0.0, max=1.0, n=64)
    flat = MarginalCurve(axis_label="position", grid=grid, values=np.ones(64))
    assert find_fringe_maxima(flat) == []
    zero = MarginalCurve(axis_label="position", grid=grid, values=np.zeros(64))
    assert find_fringe_maxima(zero) == []


def test_find_fringe_maxima_single_gaussian():
    grid = Grid1D(min=-4.0, max=4.0, n=257)  # center lands on the lattice
    values = np.exp(-(grid.points() ** 2) / 0.5)
    curve = MarginalCurve(axis_label="position", grid=grid, values=values)
    found = find_fringe_maxima(curve)
    assert len(found) == 1
    assert found[0] == pytest.approx(0.0, abs=1e-6)


def test_find_fringe_maxima_ascending():
    found = find_fringe_maxima(_p_curve(4.0))
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
# Hundreds of peaks: equal peaks, bases reaching past earlier peaks, random ties.
@example(values=[0.0, 1.0] * 100 + [0.0], floor=0.5)
@example(values=[v for i in range(150) for v in (i, i + 2)], floor=1.0)
@example(values=np.random.default_rng(0).normal(size=400).round(1).tolist(), floor=1.0)
def test_prominent_peaks_match_scipy_find_peaks(values, floor):
    x = np.asarray(values, dtype=float)
    assert _prominent_peaks(x, floor) == list(find_peaks(x, prominence=floor)[0])


def test_prominent_peaks_of_a_long_comb_hold_no_peak_by_sample_matrix():
    # one search at a time holds a mask and the indices above one top, about
    # 28 bytes a sample here; masks of 48 peaks held at once would reach the bound
    t = np.linspace(-1.0, 1.0, 200_000)
    x = np.cos(20 * np.pi * t) ** 2 * np.exp(-4 * t * t)
    floor = 0.05 * x.max()
    found = []
    peak = _traced_peak_bytes(lambda: found.extend(_prominent_peaks(x, floor)))
    assert found == list(find_peaks(x, prominence=floor)[0]) and len(found) == 35
    assert peak < 48 * x.size


def _long_curve(rng):
    # a rounded random walk (ties, plateaus, equal peaks), or a noisy comb of
    # tens to hundreds of fringes under a Gaussian envelope; 200-5,000 samples
    n = int(rng.integers(200, 5001))
    if rng.random() < 0.5:
        return np.round(rng.normal(size=n).cumsum(), int(rng.integers(0, 3)))
    t = np.linspace(-1.0, 1.0, n)
    fringes = rng.uniform(10, min(300, n / 8))
    comb = np.cos(np.pi * fringes * t / 2 + rng.uniform(0, np.pi)) ** 2 * np.exp(-((t / rng.uniform(0.3, 2)) ** 2))
    return np.round(comb + rng.uniform(0, 0.1) * rng.normal(size=n), int(rng.integers(2, 5)))


def test_random_long_curves_match_scipy_find_peaks():
    # floors log-uniform over the three decades below each curve's range, rounded
    # to 2 decimals like many of the samples, so that some prominences equal
    # the floor. CI draws 2,000 curves
    seed, count = sweep(100, 2_000)
    rng = np.random.default_rng(seed)
    for i in range(count):
        x = _long_curve(rng)
        floor = round(float(np.ptp(x) * 10 ** rng.uniform(-3, 0)), 2)
        found = _prominent_peaks(x, floor)
        if found != list(find_peaks(x, prominence=floor)[0]):
            raise AssertionError(f"draw {i}, seed {seed}: {x.size} samples, floor {floor!r}")


# ---------------------------------------------------------------- period


def _period(curve):
    return fringe_report(curve, curve).period_estimate


def test_fringe_period_momentum():
    # comb frequency 2 d / hbar, period pi hbar / d
    assert _period(_p_curve(0.0)) == pytest.approx(math.pi / 5, abs=1e-3)
    assert _period(_p_curve(4.0)) == pytest.approx(math.pi / 5, abs=1e-3)


def test_fringe_period_position_after_flight():
    # comb frequency 2 alpha d hbar / (x0^2 Delta^2) = 60/37
    assert _period(_x_curve(0.0)) == pytest.approx(37 * math.pi / 30, abs=2e-2)


def test_fringe_period_needs_three_maxima():
    grid = Grid1D(min=-6.0, max=6.0, n=301)
    x = grid.points()
    two_bumps = np.exp(-((x - 2.0) ** 2)) + np.exp(-((x + 2.0) ** 2))
    curve = MarginalCurve(axis_label="position", grid=grid, values=two_bumps)
    assert _period(curve) is None


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
    # off the default scenario, delta and delta + 2 pi give the same report:
    # periods 2.1e-8 apart when the comb search stopped on the magnitude's flat top
    grid = Grid1D(min=-4.0, max=4.0, n=345)
    reference = _p_curve(0.0, grid, d=2.2)
    report, shifted = (fringe_report(_p_curve(delta, grid, d=2.2), reference) for delta in (1.46, 1.46 + 2 * math.pi))
    assert shifted.period_estimate == pytest.approx(report.period_estimate, abs=1e-12)
    assert shifted.shift_vs_reference == pytest.approx(report.shift_vs_reference, abs=1e-12)


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
    # a curve with no prominent maximum has no comb to have moved: its report
    # is empty and null, against itself or against a comb (where its phase at
    # the reference's frequency would be read from leakage alone)
    flat = MarginalCurve(axis_label="momentum", grid=P_AXIS, values=np.ones(P_AXIS.n))
    for reference in (flat, _p_curve(0.0)):
        assert fringe_shift(flat, reference) is None
        assert fringe_report(flat, reference) == FringeReport((), None, None)


# ---------------------------------------------------------------- report


def _bump(center):
    return MarginalCurve("momentum", P_AXIS, np.exp(-((P_AXIS.points() - center) ** 2)))


def _on_grid_times(scale, curve):
    # the curve's values on its grid times scale, which need not be a power of two
    grid = Grid1D(min=curve.grid.min * scale, max=curve.grid.max * scale, n=curve.grid.n)
    return MarginalCurve(curve.axis_label, grid, curve.values)


def _in_window(shift, period):
    # a comb is defined modulo its period; the report maps shifts into [-P/4, 3P/4)
    return (shift + period / 4) % period - period / 4


def _phase_shift(curve, reference, omega):
    # the comb phase difference of the Hann-windowed curves at omega, as a displacement
    def phase(c):
        return np.angle(np.sum(np.hanning(c.grid.n) * c.values * np.exp(-1j * omega * c.grid.points())))

    return _in_window((phase(reference) - phase(curve)) / omega, 2 * math.pi / omega)


@pytest.mark.parametrize(
    "curve, reference, period_none, shift, tol",
    [
        # the momentum comb moves by delta hbar / (2 d)
        (_p_curve(4.0), _p_curve(0.0), False, 4.0 / 10, 2e-3),
        # the position comb by delta x0^2 X^2 / (2 alpha d hbar), X^2 = 37 at alpha = 6
        (_x_curve(4.0), _x_curve(0.0), False, _in_window(4 * 37 / 60, 37 * math.pi / 30), 2e-2),
        # the same shift as the comb phase difference at the comb frequency 2 d / hbar
        (_p_curve(4.0), _p_curve(0.0), False, _phase_shift(_p_curve(4.0), _p_curve(0.0), 10.0), 1e-6),
        # one maximum: no period, and no comb to have moved, so no shift
        (_bump(0.5), _p_curve(0.0), True, None, 0.0),
        # one reference maximum: no comb frequency to read the shift at
        (_p_curve(4.0), _bump(0.0), False, None, 0.0),
        # subnormal spacings: the maxima, too, are found in the curve's frame
        *[
            (_on_grid_times(s, _p_curve(4.0)), _on_grid_times(s, _p_curve(0.0)), False, 0.4 * s, 2e-3 * s)
            for s in (1e-310, 1e-315)
        ],
    ],
    ids=["momentum", "position", "momentum-phase", "no-period", "no-reference-comb", "momentum-grid-1e-310",
         "momentum-grid-1e-315"],
)
def test_fringe_report_equals_the_public_functions(curve, reference, period_none, shift, tol):
    report = fringe_report(curve, reference)
    assert list(report.maxima) == find_fringe_maxima(curve)
    # the period is the curve's own: the reference does not enter it
    assert (report.period_estimate is None) == period_none
    assert report.period_estimate == _period(curve)
    # the shift, from a computation that does not go through fringe_report
    if shift is None:
        assert report.shift_vs_reference is None
    else:
        assert report.shift_vs_reference == pytest.approx(shift, rel=0, abs=tol)


def test_fringe_report_serializes():
    report = FringeReport(maxima=(0.0, 1.0), period_estimate=1.0, shift_vs_reference=0.25)
    assert dataclasses.asdict(report) == {"maxima": (0.0, 1.0), "period_estimate": 1.0, "shift_vs_reference": 0.25}
    empty = FringeReport(maxima=(), period_estimate=None, shift_vs_reference=None)
    assert dataclasses.asdict(empty) == {"maxima": (), "period_estimate": None, "shift_vs_reference": None}


def test_fringe_report_below_three_maxima_has_no_period_and_no_shift():
    # two prominent maxima per curve: too few for a comb on either, so the
    # period is None, and so is the shift, which the reference's comb
    # frequency would carry; the humps moved, but humps are no comb
    grid = Grid1D(min=-4.0, max=4.0, n=801)
    x = grid.points()

    def pair(left, right):
        return MarginalCurve("position", grid, 0.6 * np.exp(-4 * (x - left) ** 2) + np.exp(-4 * (x - right) ** 2))

    curve, reference = pair(-1.2, 1.3), pair(-1.0, 1.0)
    report = fringe_report(curve, reference)
    assert len(find_fringe_maxima(curve)) == len(find_fringe_maxima(reference)) == 2
    assert report.period_estimate is None
    assert report.shift_vs_reference is None
    # one bump against another: no comb, whatever the displacement
    grid = Grid1D(min=-8.0, max=8.0, n=1601)
    x = grid.points()
    reference, curve = (MarginalCurve("position", grid, np.exp(-((x - c) ** 2))) for c in (0.0, 1.5))
    assert fringe_shift(curve, reference) is None and fringe_shift(reference, curve) is None


def _scaled_to_float_max(curve):
    # exact power-of-two scaling that puts the peak in [2**1023, 2**1024)
    values = np.ldexp(curve.values, 1024 - math.frexp(curve.values.max())[1])
    return MarginalCurve(curve.axis_label, curve.grid, values)


@pytest.mark.parametrize("reference", [_p_curve(0.0), _bump(0.0)], ids=["fourier", "no-reference-comb"])
def test_fringe_report_holds_its_bits_up_to_the_float_maximum(reference):
    # a marginal's scale, 8 pi x0^2, can come within a factor 2 of the float
    # maximum: the vertex refinement must not form 2 y0, nor the windowed
    # component sum the raw values, with a reference comb or without one; an
    # exact scaling changes no bit of the report
    curve = _p_curve(4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = fringe_report(_scaled_to_float_max(curve), _scaled_to_float_max(reference))
    assert scaled == fringe_report(curve, reference)


_SCALE_PAIRS = {
    "momentum": (_p_curve(4.0), _p_curve(0.0)),
    "position": (_x_curve(4.0), _x_curve(0.0)),
    "no-reference-comb": (_bump(0.5), _bump(0.0)),  # one reference maximum: no period and no shift
}


def _normal_exponents(*arrays):
    # the range of integers e for which every nonzero entry times 2**e is a normal float
    entries = np.abs(np.concatenate([np.ravel(a) for a in arrays]))
    entries = entries[entries != 0]
    return -1021 - math.frexp(entries.min())[1], 1024 - math.frexp(entries.max())[1]


def _report_numbers(report):
    return [*report.maxima, *filter(None, (report.period_estimate, report.shift_vs_reference))]


_SCALE_REPORTS = {name: fringe_report(*pair) for name, pair in _SCALE_PAIRS.items()}
_VALUE_EXPONENTS = [_normal_exponents(*(c.values for c in pair)) for pair in _SCALE_PAIRS.values()]


def _coord_exponents(name):
    # the grid's points, spacing and width, and the report's lengths
    grid = _SCALE_PAIRS[name][0].grid
    lengths = _report_numbers(_SCALE_REPORTS[name])
    return _normal_exponents(grid.points(), [grid.spacing, grid.max - grid.min], lengths)


_COORD_EXPONENTS = [_coord_exponents(name) for name in _SCALE_PAIRS]


def _scaled_curve(curve, k, j):
    grid = Grid1D(min=math.ldexp(curve.grid.min, j), max=math.ldexp(curve.grid.max, j), n=curve.grid.n)
    return MarginalCurve(curve.axis_label, grid, np.ldexp(curve.values, k))


def _scaled_report_holds(name, k, j):
    # values times 2**k on coordinates times 2**j: the report is the unscaled
    # one with every length times 2**j, bit for bit, and no warning on the way
    curve, reference = (_scaled_curve(c, k, j) for c in _SCALE_PAIRS[name])
    want = _SCALE_REPORTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fringe_report(curve, reference)
    assert got.maxima == tuple(math.ldexp(m, j) for m in want.maxima)
    for got_length, want_length in ((got.period_estimate, want.period_estimate),
                                    (got.shift_vs_reference, want.shift_vs_reference)):
        assert got_length == (None if want_length is None else math.ldexp(want_length, j))


@settings(max_examples=100, deadline=None)
@example(name="momentum", k=500, j=530)  # the component's sum * spacing overflowed
@example(name="momentum", k=-600, j=-500)  # and here underflowed to 0, with no warning
@given(
    name=st.sampled_from(sorted(_SCALE_PAIRS)),
    k=st.integers(max(lo for lo, _ in _VALUE_EXPONENTS), min(hi for _, hi in _VALUE_EXPONENTS)),
    j=st.integers(max(lo for lo, _ in _COORD_EXPONENTS), min(hi for _, hi in _COORD_EXPONENTS)),
)
def test_fringe_report_scales_exactly_with_its_curves(name, k, j):
    _scaled_report_holds(name, k, j)


def test_random_scalings_give_the_scaled_report():
    # the pairs in turn, k and j uniform on the exponent ranges of the pair
    # drawn, which are wider than the ranges all pairs share. CI draws 10,000
    seed, count = sweep(200, 10_000)
    rng = np.random.default_rng(seed)
    names = list(_SCALE_PAIRS)
    for i in range(count):
        n = i % len(names)
        k, j = (int(rng.integers(lo, hi + 1)) for lo, hi in (_VALUE_EXPONENTS[n], _COORD_EXPONENTS[n]))
        try:
            _scaled_report_holds(names[n], k, j)
        except Exception as exc:
            raise AssertionError(f"draw {i}, seed {seed}: {names[n]}, k={k}, j={j}") from exc


def test_each_curve_is_framed_once_per_call(monkeypatch):
    # a report and its shift frame their two curves once each, the maxima
    # their one curve; the support interval scales only the values, with no
    # framed curve built
    framings = []

    def counted(curve):
        framings.append(curve)
        return framed(curve)

    framed = wigslits.analysis._framed
    monkeypatch.setattr(wigslits.analysis, "_framed", counted)
    curve, reference = _p_curve(4.0), _p_curve(0.0)
    for call, count in (
        (lambda: fringe_report(curve, reference), 2),
        (lambda: fringe_shift(curve, reference), 2),
        (lambda: find_fringe_maxima(curve), 1),
        (lambda: common_support_interval(curve, reference), 0),
    ):
        framings.clear()
        call()
        assert len(framings) == count


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
    assert common_projection_interval(f1, f2, "position") is None


def test_pattern_interval_momentum_is_shared():
    # both slits project to e^{-p^2} >= e^-9 on |p| <= 3
    f1, f2 = _slit_fields(alpha=0.0)
    lo, hi = common_projection_interval(f1, f2, "momentum")
    step = P_AXIS.spacing
    assert lo == pytest.approx(-3.0, abs=step)
    assert hi == pytest.approx(3.0, abs=step)


def test_pattern_interval_opens_along_x_after_flight():
    f1, f2 = _slit_fields(alpha=6.0)
    interval = common_projection_interval(f1, f2, "position")
    assert interval is not None
    lo, hi = interval
    assert lo < 0 < hi


def test_pattern_interval_self_is_own_support():
    f1, _ = _slit_fields(alpha=0.0)
    lo, hi = common_projection_interval(f1, f1, "position")
    assert lo == pytest.approx(2.0, abs=X_AXIS.spacing)
    assert hi == pytest.approx(8.0, abs=X_AXIS.spacing)


def test_pattern_interval_is_phase_independent():
    # slit fields carry no interference term, so the phase cannot matter
    a = common_projection_interval(*_slit_fields(alpha=0.0, delta=0.0), "momentum")
    b = common_projection_interval(*_slit_fields(alpha=0.0, delta=4.0), "momentum")
    assert a == b


def test_support_interval_of_a_zero_curve_is_none():
    c1, _ = _slit_curves(normalized_params(), "momentum", P_AXIS)
    zero = MarginalCurve("momentum", P_AXIS, np.zeros(P_AXIS.n))
    assert common_support_interval(c1, zero) is None
    assert common_support_interval(zero, c1) is None


def test_support_interval_of_subnormal_curves_is_found_in_their_frame():
    # e^-9 times a peak near 1e-321 underflows to 0, where every sample
    # would reach it; the framed level does not, and the disjoint slit
    # supports stay disjoint
    curves = _slit_curves(normalized_params(), "position", X_AXIS)
    assert common_support_interval(*curves) is None
    scaled = [MarginalCurve(c.axis_label, c.grid, c.values * 1e-321) for c in curves]
    assert common_support_interval(*scaled) is None


def test_pattern_level_is_e_minus_9_at_its_boundary():
    # a point at exactly e^-9 of the peak is in the support; a few ulps below, out
    grid = Grid1D(min=0.0, max=4.0, n=5)
    below = np.nextafter(np.nextafter(np.nextafter(E_MINUS_9, 0.0), 0.0), 0.0)
    for peak in (1.0, 0.25, 8.0):  # powers of two: level * peak is exact
        values = peak * np.array([below, E_MINUS_9, 1.0, E_MINUS_9, below])
        curve = MarginalCurve("momentum", grid, values)
        assert common_support_interval(curve, curve) == (1.0, 3.0)


def test_pattern_interval_projects_fields_on_their_own_windows():
    # the slit fields sit on different x windows; onto momentum they project
    # to one p grid, and the interval is the curve rule on the two projections
    grids = [Grid2D(X_AXIS, P_AXIS), Grid2D(Grid1D(min=-10.0, max=14.0, n=400), P_AXIS)]
    f1, f2 = (single_slit_field(normalized_params(), g, s) for g, s in zip(grids, (1, -1)))
    interval = common_projection_interval(f1, f2, "momentum")
    assert interval == common_support_interval(field_marginal(f1, "momentum"), field_marginal(f2, "momentum"))
    assert interval == pytest.approx((-3.0, 3.0), abs=P_AXIS.spacing)
    # the projected axes must still match
    with pytest.raises(ValueError, match="same grid"):
        common_projection_interval(f1, f2, "position")
    other_p = single_slit_field(normalized_params(), Grid2D(X_AXIS, Grid1D(min=-3.0, max=3.0, n=512)), -1)
    with pytest.raises(ValueError, match="same grid"):
        common_projection_interval(f1, other_p, "momentum")


def test_pattern_interval_validation():
    f1, f2 = _slit_fields()
    with pytest.raises(ValueError):
        common_projection_interval(f1, f2, "diagonal")
    other = Grid2D(Grid1D(min=-1.0, max=1.0, n=512), P_AXIS)
    mismatched = single_slit_field(normalized_params(), other, 1)
    with pytest.raises(ValueError):
        common_projection_interval(f1, mismatched, "position")

    params = normalized_params()
    c1, c2 = _slit_curves(params, "momentum", P_AXIS)
    other_grid = Grid1D(min=-4.0, max=4.0, n=257)
    with pytest.raises(ValueError):
        common_support_interval(c1, _slit_curves(params, "momentum", other_grid)[1])
    same_grid_other_axis = MarginalCurve("position", P_AXIS, c2.values)
    with pytest.raises(ValueError):
        common_support_interval(c1, same_grid_other_axis)
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
    assert common_support_interval(*curves) == common_projection_interval(*fields, axis)
