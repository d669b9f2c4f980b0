"""Quantitative fringe extraction from marginal curves.

Peak positions come from local maxima refined by a 3-point quadratic fit.
The maxima are selected by topographic prominence with the rules of
``scipy.signal.find_peaks``, reimplemented here on numpy, so importing the
package does not import scipy. The comb frequency is the maximum of a
windowed Fourier magnitude: a golden-section search brackets it to a
quarter of the Hann main lobe's half-width, and Newton steps on the
magnitude's derivative polish it, so that delta and delta + 2 pi, one flux
quantum apart, give the same report (see :func:`_comb_frequency`).

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
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .model import Grid1D, MarginalCurve, WignerField
from .numeric import field_marginal

__all__ = [
    "FringeReport",
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


def _windowed_component(curve: MarginalCurve) -> Callable[..., np.ndarray]:
    """(omega, k=0) -> [S_0 .. S_k], S_j = sum of w u**j exp(-i omega u), w the Hann-windowed curve.

    S_0 is the curve's windowed Fourier component F and (-i)**j S_j its j-th
    omega-derivative. u runs from the window's center, which moves neither
    |F| nor the phase difference of two curves at one omega, and keeps the
    sums small. The moments w u**j are formed once: one exp a call.
    """
    # Hann window: zero value and slope at the edges, so grid truncation of
    # a non-decayed envelope does not leak into the comb phase.
    grid = curve.grid
    u = grid.points() - (grid.min + grid.max) / 2
    windowed = np.hanning(grid.n) * curve.values
    moments = np.stack([windowed, windowed * u, windowed * u * u])
    return lambda omega, k=0: (moments[: k + 1] * np.exp(-1j * omega * u)).sum(axis=1)


def _comb_frequency(component: Callable[..., np.ndarray], maxima: List[float], length: float) -> Optional[float]:
    """Angular frequency of the fringe comb, or None below 3 maxima or at an end of its bracket.

    Seeded by the median spacing of ``maxima``, the curve's prominent maxima,
    and refined to the maximum of |F|, F the curve's windowed ``component``,
    which is immune to the envelope pull on individual peaks. A golden-section
    search on [0.7, 1.3] x seed stops at a bracket pi / ``length`` wide, a
    quarter of the Hann main lobe's half-width. Its comparisons are decided
    far above roundoff, save near-ties, after which either part still holds
    the maximum, so curves that differ by roundoff, as delta and delta + 2 pi
    do, end around the same maximum. Newton steps on d|F|**2/domega = 0 in
    that bracket, while the step shrinks, then land on the root to a few
    ulps, where |F| itself is flat to the last bit over ~1e-8 relative.
    A search that ends on 0.7 or 1.3 x seed found no maximum inside, so no comb.
    """
    if len(maxima) < 3:
        return None
    # the median gap by hand: np.median imports numpy.ma in every fresh process
    gaps = sorted(np.diff(maxima).tolist())
    mid = len(gaps) // 2
    median_gap = gaps[mid] if len(gaps) % 2 else (gaps[mid - 1] + gaps[mid]) / 2
    omega0 = 2 * np.pi / median_gap
    ends = a, b = 0.7 * omega0, 1.3 * omega0
    r = (math.sqrt(5.0) - 1) / 2
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = abs(component(c)[0]), abs(component(d)[0])
    while b - a > np.pi / length:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = abs(component(c)[0])
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = abs(component(d)[0])
    omega, last = (c if fc >= fd else d), math.inf
    while True:
        s0, s1, s2 = component(omega, 2)
        # d|F|**2/domega and its derivative, over 2
        slope, curvature = (s0.conjugate() * s1).imag, abs(s1) ** 2 - (s0.conjugate() * s2).real
        # a Newton step where |F|**2 is concave, else to the bracket's end uphill
        new = min(max(omega - slope / curvature, a), b) if curvature < 0 else (b if slope > 0 else a)
        if not 0 < abs(new - omega) < last:
            return None if omega in ends else omega
        omega, last = new, abs(new - omega)


def _require_comparable(curve1: MarginalCurve, curve2: MarginalCurve) -> None:
    if curve1.grid != curve2.grid:
        raise ValueError("curves must share the same grid")
    if curve1.axis_label != curve2.axis_label:
        raise ValueError(f"curves lie on different axes: {curve1.axis_label!r}, {curve2.axis_label!r}")


def fringe_shift(curve: MarginalCurve, reference: MarginalCurve) -> Optional[float]:
    """Signed displacement of the fringe comb of ``curve`` relative to ``reference``.

    The shift of :func:`fringe_report`, so None where either curve has no
    comb frequency; the curves must share one grid and one axis.
    """
    return fringe_report(curve, reference).shift_vs_reference


@dataclass(frozen=True)
class FringeReport:
    """Fringe structure of a marginal curve against a reference, as :func:`fringe_report` measures it."""

    maxima: Tuple[float, ...]
    period_estimate: Optional[float]
    shift_vs_reference: Optional[float]


def fringe_report(curve: MarginalCurve, reference: MarginalCurve) -> FringeReport:
    """Report of ``curve`` against ``reference``, with each curve's maxima, component and comb found once.

    The period is the fringe spacing 2 pi / (the curve's comb frequency),
    and None where the curve has no comb frequency (:func:`_comb_frequency`).
    The shift is positive when the fringes moved toward the positive axis.
    It is the comb phase difference at the reference comb frequency, mapped
    to the displacement window [-P/4, 3P/4) of the reference period P: a
    comb is only defined modulo its period, and the window is biased toward
    positive displacements to match the sign convention. It is None where
    either curve has no comb frequency: a curve without a comb has no comb
    to have moved, and its phase at the reference's frequency would be read
    from its envelope or from leakage, not from fringes.
    """
    _require_comparable(curve, reference)
    (curve, j), (reference, _) = _framed(curve), _framed(reference)
    maxima, ref_maxima = _framed_maxima(curve), _framed_maxima(reference)
    component, ref_component = _windowed_component(curve), _windowed_component(reference)
    length = curve.grid.max - curve.grid.min
    omega = _comb_frequency(component, maxima, length)
    ref_omega = _comb_frequency(ref_component, ref_maxima, length)
    period = None if omega is None else math.ldexp(2 * np.pi / omega, -j)
    shift = None
    if omega is not None and ref_omega is not None:
        dphi = np.angle(ref_component(ref_omega)[0]) - np.angle(component(ref_omega)[0])
        shift = math.ldexp(((dphi + np.pi / 2) % (2 * np.pi) - np.pi / 2) / ref_omega, -j)
    return FringeReport(tuple(math.ldexp(m, -j) for m in maxima), period, shift)


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
