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
from .model import MarginalCurve, WignerField
from .numeric import field_marginal

__all__ = [
    "DEFAULT_MIN_PROMINENCE",
    "find_fringe_maxima",
    "fringe_period",
    "fringe_shift",
    "common_support_interval",
    "common_projection_interval",
]

# Prominence floor (fraction of curve max) used when an operation has to
# extract peaks internally; keeps washed-out outer fringes from skewing the
# initial period estimate.
DEFAULT_MIN_PROMINENCE = 0.05


def find_fringe_maxima(curve: MarginalCurve, min_prominence: float) -> List[float]:
    """Positions of local maxima with prominence >= min_prominence * max(curve).

    Each discrete maximum is refined to sub-grid accuracy by the vertex of
    the parabola through it and its two neighbors. Returns an ascending
    list; empty when the curve has no prominent peaks (e.g. it is flat).
    """
    if not min_prominence >= 0:
        raise ValueError(f"min_prominence must be >= 0, got {min_prominence}")
    values = curve.values
    peak = values.max()
    if peak <= 0:
        return []
    indices = _prominent_peaks(values, min_prominence * peak)
    points = curve.grid.points()
    spacing = curve.grid.spacing
    out = []
    for i in indices:
        ym1, y0, yp1 = values[i - 1], values[i], values[i + 1]
        denom = ym1 - 2 * y0 + yp1
        offset = 0.0 if denom == 0 else 0.5 * (ym1 - yp1) / denom
        out.append(float(points[i] + offset * spacing))
    return out


def _prominent_peaks(values: np.ndarray, floor: float) -> List[int]:
    """Indices of the peaks of non-empty, finite ``values`` whose prominence is >= ``floor``.

    Same result as ``scipy.signal.find_peaks(values, prominence=floor)[0]``:
    a peak rises strictly from its left neighbour and falls strictly to its
    right one, and a flat top counts once, at its middle index rounded
    down. Prominence is the height above the higher of the two minima found
    on each side before the curve rises above the peak or ends.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    # Runs of equal samples [first, last]; a run is a peak when both
    # neighbours lie strictly below it.
    first = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    last = np.r_[first[1:] - 1, n - 1]
    inner = (first > 0) & (last < n - 1)
    first, last = first[inner], last[inner]
    rises = (x[first - 1] < x[first]) & (x[last + 1] < x[last])
    lowest = x.min()
    out = []
    for lo, hi in zip(first[rises].tolist(), last[rises].tolist()):
        top = x[lo]
        # The prominence is at most top - lowest (rounding is monotone), so
        # this skips peaks that cannot reach the floor, such as roundoff
        # ripples in the tails, without scanning for their bases.
        if top - lowest < floor:
            continue
        above_left = np.flatnonzero(x[:lo] > top)
        above_right = np.flatnonzero(x[hi + 1 :] > top)
        start = above_left[-1] + 1 if above_left.size else 0
        stop = hi + 1 + above_right[0] if above_right.size else n
        base = max(x[start:lo].min(), x[hi + 1 : stop].min())
        if top - base >= floor:
            out.append((lo + hi) // 2)
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


def _envelope_centroid(curve: MarginalCurve) -> float:
    total = curve.values.sum()
    if total <= 0:
        raise AnalysisError("curve has no mass; cannot locate the envelope")
    return float((curve.values * curve.grid.points()).sum() / total)


def _windowed_component(curve: MarginalCurve) -> Callable[[float], complex]:
    """omega -> the curve's Hann-windowed Fourier component, with window * values formed once."""
    # Hann window: zero value and slope at the edges, so grid truncation of
    # a non-decayed envelope does not leak into the comb phase.
    g = curve.grid.points()
    windowed = np.hanning(curve.grid.n) * curve.values
    spacing = curve.grid.spacing
    return lambda omega: complex(np.sum(windowed * np.exp(-1j * omega * g)) * spacing)


def _comb_frequency(component: Callable[[float], complex], maxima: List[float]) -> float:
    """Angular frequency of the fringe comb.

    Seeded by the median spacing of ``maxima``, the curve's prominent maxima
    as the caller found them, then refined by maximizing the magnitude of
    ``component``, the curve's windowed Fourier component, which is immune
    to the envelope pull on individual peak positions.
    """
    if len(maxima) < 3:
        raise AnalysisError(f"need >= 3 fringe maxima to estimate a period, found {len(maxima)}")
    # the median gap by hand: np.median imports numpy.ma in every fresh process
    gaps = sorted(np.diff(maxima).tolist())
    mid = len(gaps) // 2
    median_gap = gaps[mid] if len(gaps) % 2 else (gaps[mid - 1] + gaps[mid]) / 2
    omega0 = 2 * np.pi / median_gap
    return _bounded_minimum(lambda om: -abs(component(om)), 0.7 * omega0, 1.3 * omega0, 1e-12 * omega0)


def fringe_period(curve: MarginalCurve) -> float:
    """Spacing of consecutive fringe maxima (2 pi over the comb frequency)."""
    maxima = find_fringe_maxima(curve, DEFAULT_MIN_PROMINENCE)
    return 2 * np.pi / _comb_frequency(_windowed_component(curve), maxima)


def fringe_shift(curve: MarginalCurve, reference: MarginalCurve) -> float:
    """Signed displacement of the fringe comb of ``curve`` relative to ``reference``.

    Positive means fringes moved toward the positive axis. Measured as the
    comb phase difference at the reference comb frequency, mapped to the
    displacement window [-period/4, 3*period/4): a comb is only defined
    modulo its period, and the window is biased toward positive
    displacements to match the sign convention.

    Falls back to the displacement of the interpolated maximum nearest the
    reference envelope centroid when the reference has too few fringes to
    carry a period.
    """
    if curve.grid != reference.grid:
        raise ValueError("curve and reference must share the same grid")
    cur_maxima = find_fringe_maxima(curve, DEFAULT_MIN_PROMINENCE)
    ref_maxima = find_fringe_maxima(reference, DEFAULT_MIN_PROMINENCE)
    if not cur_maxima or not ref_maxima:
        raise AnalysisError("fringe shift needs at least one prominent maximum per curve")

    ref_component = _windowed_component(reference)
    try:
        omega = _comb_frequency(ref_component, ref_maxima)
    except AnalysisError:
        centroid = _envelope_centroid(reference)
        m_ref = min(ref_maxima, key=lambda m: abs(m - centroid))
        m_cur = min(cur_maxima, key=lambda m: abs(m - m_ref))
        return m_cur - m_ref

    dphi = np.angle(ref_component(omega)) - np.angle(_windowed_component(curve)(omega))
    dphi = (dphi + np.pi / 2) % (2 * np.pi) - np.pi / 2
    return float(dphi / omega)


def common_support_interval(
    curve1: MarginalCurve,
    curve2: MarginalCurve,
    threshold: float,
) -> Optional[Tuple[float, float]]:
    """Interval where both curves are at or above threshold * (own max).

    Keeps the grid points where each curve reaches ``threshold`` of its own
    maximum and intersects the two supports. Returns None when the supports
    do not overlap or a curve is zero everywhere. For the single-slit
    projections of a slit pair, this is the interval where interference
    between the two beams can show up along that axis.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if curve1.grid != curve2.grid:
        raise ValueError("curves must share the same grid")
    if curve1.axis_label != curve2.axis_label:
        raise ValueError(f"curves lie on different axes: {curve1.axis_label!r}, {curve2.axis_label!r}")

    coords = curve1.grid.points()
    lo, hi = coords[0], coords[-1]
    for curve in (curve1, curve2):
        peak = curve.values.max()
        if peak <= 0:
            return None
        # never empty: the peak itself is at or above threshold * peak
        above = coords[curve.values >= threshold * peak]
        lo = max(lo, above[0])
        hi = min(hi, above[-1])
    if lo > hi:
        return None
    return float(lo), float(hi)


def common_projection_interval(
    field1: WignerField,
    field2: WignerField,
    axis: str,
    threshold: float,
) -> Optional[Tuple[float, float]]:
    """:func:`common_support_interval` of the projections of two fields onto ``axis``.

    ``axis`` is 'position' or 'momentum'; the fields are projected by
    :func:`wigslits.numeric.field_marginal`, whose normalization the
    relative threshold makes irrelevant.
    """
    if field1.grid != field2.grid:
        raise ValueError("fields must share the same grid")
    curve1, curve2 = (field_marginal(f, axis) for f in (field1, field2))
    return common_support_interval(curve1, curve2, threshold)
