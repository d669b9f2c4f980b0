"""Quantitative fringe extraction from marginal curves.

Peak positions come from local maxima refined by a 3-point quadratic fit.
The maxima are selected by topographic prominence with the rules of
``scipy.signal.find_peaks``, and the comb frequency is the maximum of a
windowed Fourier magnitude found by Brent's bounded search, the iteration
of ``scipy.optimize.fminbound``. Both are reimplemented here on numpy and
the standard library, so importing the package does not import scipy.

Raw peak positions of a fringe comb under a varying envelope are biased
toward the envelope center (the multiplicative envelope pulls every local
maximum inward), so the fringe period and the fringe shift between two
curves are measured in the Fourier domain instead: a Hann-windowed inner
product at the comb frequency gives the comb phase with the envelope bias
suppressed to the level of the envelope's spectral leakage, which is
negligible for the Gaussian envelopes produced here.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import AnalysisError
from .model import FringeReport, Grid1D, MarginalCurve, WignerField
from .numeric import field_marginal

__all__ = [
    "find_fringe_maxima",
    "fringe_shift",
    "fringe_report",
    "common_support_interval",
    "common_projection_interval",
]

# Prominence floor of a fringe maximum, as a fraction of the curve max; keeps
# washed-out outer fringes from skewing the initial period estimate.
_MIN_PROMINENCE = 0.05

# Support level of the pattern interval, as a fraction of each curve's max: a
# single-slit projection exp(-(u/w)^2) counts within three widths w of its center.
_PATTERN_LEVEL = math.exp(-9)


def _unit_peak(values: np.ndarray) -> np.ndarray:
    """``values`` times the power of two that puts their peak in [0.5, 1); a zero peak stays 0."""
    return np.ldexp(values, -math.frexp(values.max())[1])


def _framed(curve: MarginalCurve) -> Tuple[MarginalCurve, int]:
    """``curve`` with its grid scaled by 2**j and its values by :func:`_unit_peak`; and j.

    The spacing lands in [0.5, 1), where every product the analysis forms is
    normal, though a marginal can peak near the float maximum (8 pi x0^2 does)
    and a curve file can carry any unit. The scaling is exact, so a measurement
    moves with the grid's scale and no bit more. A public call frames each curve once.
    """
    grid = curve.grid
    j = -math.frexp(grid.spacing)[1]
    framed = Grid1D(min=math.ldexp(grid.min, j), max=math.ldexp(grid.max, j), n=grid.n)
    return MarginalCurve(curve.axis_label, framed, _unit_peak(curve.values)), j


def find_fringe_maxima(curve: MarginalCurve) -> List[float]:
    """Positions of local maxima with prominence >= ``_MIN_PROMINENCE`` (0.05) * max(curve).

    Each discrete maximum is refined to sub-grid accuracy by the vertex of
    the parabola through it and its two neighbors. Returns an ascending
    list; empty when the curve has no prominent peaks (e.g. it is flat).
    """
    curve, j = _framed(curve)
    return [math.ldexp(m, -j) for m in _framed_maxima(curve)]


def _framed_maxima(curve: MarginalCurve) -> List[float]:
    """:func:`find_fringe_maxima` of a curve :func:`_framed` returned, in its frame."""
    values, points, spacing = curve.values, curve.grid.points(), curve.grid.spacing
    out = []
    for i in _prominent_peaks(values, _MIN_PROMINENCE * values.max()):
        ym1, y0, yp1 = values[i - 1], values[i], values[i + 1]
        denom = ym1 - 2 * y0 + yp1
        offset = 0.0 if denom == 0 else 0.5 * (ym1 - yp1) / denom
        out.append(points[i] + offset * spacing)
    return out


def _prominent_peaks(values: np.ndarray, floor: float) -> List[int]:
    """Indices of the peaks of non-empty, finite ``values`` whose prominence is >= ``floor``.

    Same result as ``scipy.signal.find_peaks(values, prominence=floor)[0]``, by
    scipy's own scan: a peak rises strictly from its left neighbour and falls
    strictly to its right one, and a flat top counts once, at its middle index
    rounded down. Its prominence is its height above the higher of the two
    minima of the stretches that reach from it, on each side, to the nearest
    sample above its top or to the curve's end. Each peak's search holds O(n)
    scratch while it runs, one peak at a time, so the time is O(peaks * n).
    """
    x = np.asarray(values, dtype=float)
    # Steps between runs of equal samples; the run [lo, hi] between two steps
    # is a peak when the step into it rises and the step out of it falls.
    step = np.diff(x)
    edges = np.flatnonzero(step)
    rises = step[edges] > 0
    peak = rises[:-1] & ~rises[1:]
    lo, hi = edges[:-1][peak] + 1, edges[1:][peak]
    # The prominence is at most top - lowest (rounding is monotone), so this
    # drops peaks that cannot reach the floor, such as roundoff ripples in
    # the tails, before their bases are sought.
    keep = x[lo] - x.min() >= floor
    out = []
    for a, b in zip(lo[keep].tolist(), hi[keep].tolist()):
        top = x[a]
        # the samples above the top, all outside [a, b]: the nearest on each
        # side ends that side's stretch, and both stretches are non-empty
        above = np.flatnonzero(x > top)
        k = np.searchsorted(above, a)
        start = above[k - 1] + 1 if k else 0
        stop = above[k] if k < above.size else x.size
        if top - max(x[start:a].min(), x[b + 1:stop].min()) >= floor:
            out.append((a + b) // 2)
    return out


def _bounded_minimum(func: Callable[[float], float], lo: float, hi: float, xatol: float) -> float:
    """Minimizer of ``func`` on [lo, hi] by Brent's bounded search.

    Golden-section steps accelerated by parabolic interpolation (Brent,
    "Algorithms for Minimization without Derivatives", 1973), stopping when
    the bracket half-width falls to 2 * tol1, with tol1 = sqrt(2.2e-16) *
    |x| + xatol / 3 at the best point x, or after 500 evaluations. This is
    the iteration of ``scipy.optimize.fminbound`` (``minimize_scalar(method=
    "bounded")``, BSD-licensed, from which it is adapted) and returns the
    same ``x`` bit for bit. Its relative stopping term matters here: the comb magnitude is
    flat to the last bit within ~1e-8 of its maximum, where a search run
    down to ``xatol`` alone would follow roundoff.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # Parabola through (xf, fx), (nfc, fnfc) and (fulc, ffulc).
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf


def _windowed_component(curve: MarginalCurve) -> Callable[[float], complex]:
    """omega -> the curve's Hann-windowed Fourier component, with window * values formed once."""
    # Hann window: zero value and slope at the edges, so grid truncation of
    # a non-decayed envelope does not leak into the comb phase.
    g = curve.grid.points()
    windowed = np.hanning(curve.grid.n) * curve.values
    spacing = curve.grid.spacing
    return lambda omega: complex(np.sum(windowed * np.exp(-1j * omega * g)) * spacing)


def _comb_frequency(component: Callable[[float], complex], maxima: List[float]) -> Optional[float]:
    """Angular frequency of the fringe comb, or None below 3 maxima.

    Seeded by the median spacing of ``maxima``, the curve's prominent maxima
    as the caller found them, then refined by maximizing the magnitude of
    ``component``, the curve's windowed Fourier component, which is immune
    to the envelope pull on individual peak positions.
    """
    if len(maxima) < 3:
        return None
    # the median gap by hand: np.median imports numpy.ma in every fresh process
    gaps = sorted(np.diff(maxima).tolist())
    mid = len(gaps) // 2
    median_gap = gaps[mid] if len(gaps) % 2 else (gaps[mid - 1] + gaps[mid]) / 2
    omega0 = 2 * np.pi / median_gap
    return _bounded_minimum(lambda om: -abs(component(om)), 0.7 * omega0, 1.3 * omega0, 1e-12 * omega0)


def _require_comparable(curve1: MarginalCurve, curve2: MarginalCurve) -> None:
    if curve1.grid != curve2.grid:
        raise ValueError("curves must share the same grid")
    if curve1.axis_label != curve2.axis_label:
        raise ValueError(f"curves lie on different axes: {curve1.axis_label!r}, {curve2.axis_label!r}")


def fringe_shift(curve: MarginalCurve, reference: MarginalCurve) -> float:
    """Signed displacement of the fringe comb of ``curve`` relative to ``reference``.

    The shift of :func:`fringe_report`; the curves must share one grid and
    one axis.
    """
    return fringe_report(curve, reference).shift_vs_reference


def fringe_report(
    curve: MarginalCurve,
    reference: MarginalCurve,
    pattern_interval: Optional[Tuple[float, float]] = None,
) -> FringeReport:
    """Report of ``curve`` against ``reference``, with each curve's maxima, component and comb found once.

    The period is the fringe spacing 2 pi / (the curve's comb frequency),
    None below 3 maxima. The shift is positive when the fringes moved toward
    the positive axis. It is the comb phase difference at the reference comb
    frequency, mapped to the displacement window [-P/4, 3P/4) of the
    reference period P: a comb is only defined modulo its period, and the
    window is biased toward positive displacements to match the sign
    convention. When the reference has too few fringes to carry a comb, the
    shift falls back to the displacement of the interpolated maximum nearest
    the reference envelope centroid. ``pattern_interval`` is passed through.
    """
    _require_comparable(curve, reference)
    (curve, j), (reference, _) = _framed(curve), _framed(reference)
    maxima, ref_maxima = _framed_maxima(curve), _framed_maxima(reference)
    if not maxima or not ref_maxima:
        raise AnalysisError("fringe shift needs at least one prominent maximum per curve")
    component, ref_component = _windowed_component(curve), _windowed_component(reference)
    omega, ref_omega = _comb_frequency(component, maxima), _comb_frequency(ref_component, ref_maxima)
    period = None if omega is None else math.ldexp(2 * np.pi / omega, -j)
    if ref_omega is None:
        # the envelope centroid: the reference has a maximum, so its mass is > 0
        centroid = (reference.values * reference.grid.points()).sum() / reference.values.sum()
        m_ref = min(ref_maxima, key=lambda m: abs(m - centroid))
        shift = min(maxima, key=lambda m: abs(m - m_ref)) - m_ref
    else:
        dphi = np.angle(ref_component(ref_omega)) - np.angle(component(ref_omega))
        shift = float(((dphi + np.pi / 2) % (2 * np.pi) - np.pi / 2) / ref_omega)
    return FringeReport(tuple(math.ldexp(m, -j) for m in maxima), period, math.ldexp(shift, -j), pattern_interval)


def common_support_interval(curve1: MarginalCurve, curve2: MarginalCurve) -> Optional[Tuple[float, float]]:
    """Interval where both curves are at or above ``_PATTERN_LEVEL`` (e^-9) * (own max).

    Keeps the grid points where each curve reaches that fraction of its own
    maximum and intersects the two supports. Returns None when the supports
    do not overlap or a curve is zero everywhere. For the single-slit
    projections of a slit pair, this is the interval where interference
    between the two beams can show up along that axis.
    """
    _require_comparable(curve1, curve2)

    coords = curve1.grid.points()
    lo, hi = coords[0], coords[-1]
    for curve in (curve1, curve2):
        values = _unit_peak(curve.values)
        peak = values.max()
        if peak <= 0:
            return None
        # never empty: the peak itself is at or above the level
        above = coords[values >= _PATTERN_LEVEL * peak]
        lo = max(lo, above[0])
        hi = min(hi, above[-1])
    if lo > hi:
        return None
    return float(lo), float(hi)


def common_projection_interval(field1: WignerField, field2: WignerField, axis: str) -> Optional[Tuple[float, float]]:
    """:func:`common_support_interval` of the projections of two fields onto ``axis``.

    ``axis`` is 'position' or 'momentum'; only the fields' grids on ``axis``
    must match. They are projected by :func:`wigslits.numeric.field_marginal`,
    whose normalization the relative level makes irrelevant.
    """
    return common_support_interval(field_marginal(field1, axis), field_marginal(field2, axis))
