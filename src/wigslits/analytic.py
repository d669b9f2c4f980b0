"""Closed-form phase-space fields, marginals, and phase-shift conversions.

Conventions (fixed throughout the package):

* The momentum transform uses the kernel exp(+i x p / hbar) with no
  normalization prefactor; the inverse then carries 1/(2 pi hbar).
* The two slit Gaussians have equal unit amplitudes and the total
  wavefunction is left unnormalized, so the Wigner field of the pair is

      W(x, p) = 2 x0 sqrt(pi) exp(-p^2 x0^2 / hbar^2)
                * { exp(-(x-d)^2/x0^2) + exp(-(x+d)^2/x0^2)
                    + 2 exp(-x^2/x0^2) cos(2 p d / hbar - delta) }

* Free flight over alpha = t/m shears the field: W -> W(x - alpha p, p).

All functions broadcast over numpy array inputs and are pure/thread-safe.
A closed form of the slit pair raises ValueError, naming itself, the
operation and the slit pair, exactly when a step of its formula leaves the
float range on the caller's coordinates (``model._float_range``). Underflow
is not trapped and Python products do not trap, so the momentum densities
also refuse a prefactor 8 pi x0^2 or 2 pi x0^2 that is 0 or inf. The
sheared closed forms fill one preallocated output a block of leading rows
at a time, so besides their output they hold O(block) scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import Grid2D, SlitPairParams, WignerField, propagated_width
from .model import _float_range, _frozen_array, _require_finite, _require_positive

# the package re-exports this list; simulate, one name for two engines, stays
# out of it and is reached as analytic.simulate
__all__ = [
    "FluxSpec",
    "PulseSeries",
    "wigner_two_slit",
    "wigner_two_slit_propagated",
    "wigner_single_slit",
    "momentum_marginal",
    "position_marginal_propagated",
    "single_slit_marginal",
    "two_slit_field",
    "single_slit_field",
    "phase_from_flux",
    "phase_from_voltage_pulses",
    "phase_from_magnetic_pulses",
]


@dataclass(frozen=True)
class FluxSpec:
    """Magnetic flux threading the two paths, with its flux quantum."""

    phi: float
    phi0: float

    def __post_init__(self):
        _require_finite("flux", self.phi)
        _require_positive("flux quantum", self.phi0)


@dataclass(frozen=True)
class PulseSeries:
    """Sampled time series of a pulse (voltage, or magnetic-moment energy).

    Both arrays are checked and frozen like every :mod:`wigslits.model`
    container's: a writeable input is copied, never frozen in place.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = np.size(self.times)
        if n < 2:
            raise ValueError(f"pulse series needs >= 2 samples, got {n}")
        t = _frozen_array(self.times, float, (n,), "pulse times")
        v = _frozen_array(self.values, float, (n,), "pulse values")
        if not np.all(t[1:] > t[:-1]):  # neighbours compared: their differences can overflow
            raise ValueError("pulse times must be strictly ascending")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        """Trapezoid integral of the sampled pulse; exact for piecewise-linear pulses.

        ``np.trapezoid(values, times)`` wherever that is finite, subnormal steps
        included. Where a step, pair sum, term or partial sum overflows, the
        same trapezoid summed exactly in integers (every float is a whole
        number of 2**-1074) and rounded once; +-inf only past the float range.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.trapezoid(self.values, self.times)
        if math.isfinite(total):
            return float(total)
        # n / d, d a power of two up to 2**1074, is n << (1074 - log2 d) units of 2**-1074
        t, v = ([n << (1075 - d.bit_length()) for n, d in map(float.as_integer_ratio, a.tolist())]
                for a in (self.times, self.values))
        units = sum((t1 - t0) * (v0 + v1) for t0, t1, v0, v1 in zip(t, t[1:], v, v[1:]))
        try:
            return units / (1 << 2149)  # the sum is in units of 2**-2148, halved; int / int rounds once
        except OverflowError:
            return math.inf if units > 0 else -math.inf


@_float_range
def wigner_two_slit(params: SlitPairParams, x, p):
    """Wigner field of the Gaussian pair immediately after the slits.

    ``params.alpha`` is ignored here; this is the unpropagated field. The
    two outer terms are the single-slit fields; the central term is the
    oscillatory interference term and carries the phase ``delta``. The sum
    is finished in the interference term's array, so for an x column and a
    p row the only n x n_p array held is the result.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    x0, d, hbar, delta = params.x0, params.d, params.hbar, params.delta
    # a numpy product, so the prefactor's overflow traps (a Python product never does)
    envelope = np.multiply(2 * math.sqrt(math.pi), x0) * np.exp(-(p * x0 / hbar) ** 2)
    slits = np.exp(-((x - d) / x0) ** 2) + np.exp(-((x + d) / x0) ** 2)
    cross = 2 * np.exp(-((x / x0) ** 2)) * np.cos(2 * p * d / hbar - delta)
    # cross alone spans the broadcast shape (slits depends on x only, the
    # envelope on p only), so finish in it; IEEE + and * commute, so this is
    # bit for bit envelope * (slits + cross)
    cross += slits
    cross *= envelope
    return cross


# Cells of a sheared closed form evaluated per block of leading rows (at
# least one row). Its temporaries are O(_BLOCK_CELLS) whatever the grid, and
# elementwise formulas give the same bits in any block.
_BLOCK_CELLS = 1 << 15


def _sheared(formula, params: SlitPairParams, x, p, *args):
    """``formula(params, x - alpha p, p, *args)`` filled into one output, by blocks of leading rows.

    Only inputs that extend along the leading axis are sliced, so factors
    that depend on p alone stay 1-D. A scalar is one block of one row.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    out = np.empty(np.broadcast_shapes(x.shape, p.shape))
    rows = np.atleast_1d(out)  # out itself, or a one-row view of a scalar out
    step = max(1, _BLOCK_CELLS // max(1, rows[0].size))

    def lead(a, block):
        return a[block] if a.ndim == out.ndim > 0 and a.shape[0] > 1 else a

    for start in range(0, rows.shape[0], step):
        block = slice(start, start + step)
        xb, pb = lead(x, block), lead(p, block)
        rows[block] = formula(params, xb - params.alpha * pb, pb, *args)
    return out if out.ndim else out[()]


@_float_range
def wigner_two_slit_propagated(params: SlitPairParams, x, p):
    """Wigner field after free flight: the unpropagated field sheared to (x - alpha p, p).

    Evaluated in blocks of leading rows into one output array; the values
    are bit for bit those of ``wigner_two_slit(params, x - alpha p, p)``.
    """
    return _sheared(wigner_two_slit, params, x, p)


@_float_range
def wigner_single_slit(params: SlitPairParams, x, p, slit: int = 1):
    """Wigner field of one slit alone (``slit`` = +1 for the slit at +d, -1 at -d)."""
    if slit not in (1, -1):
        raise ValueError(f"slit must be +1 or -1, got {slit}")
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    x0, hbar = params.x0, params.hbar
    c = slit * params.d
    return np.multiply(2 * math.sqrt(math.pi), x0) * np.exp(-(p * x0 / hbar) ** 2) * np.exp(-((x - c) / x0) ** 2)


def _momentum_prefactor(params: SlitPairParams, scale: float) -> float:
    """scale * pi * x0**2, refused unless it is > 0 and finite; neither its underflow nor its overflow traps."""
    prefactor = scale * math.pi * params.x0**2
    if not 0 < prefactor < math.inf:
        raise ValueError(f"momentum prefactor {scale:g}*pi*x0**2 = {prefactor!r} is out of range for {params!r}")
    return prefactor


@_float_range
def momentum_marginal(params: SlitPairParams, p):
    """Momentum density |phibar(p)|^2 = 8 pi x0^2 exp(-p^2 x0^2/hbar^2) cos^2(p d/hbar - delta/2).

    Invariant under free flight, so ``params.alpha`` plays no role. The
    fringe comb shifts to positive p in proportion to delta.
    """
    p = np.asarray(p, dtype=float)
    x0, d, hbar, delta = params.x0, params.d, params.hbar, params.delta
    return _momentum_prefactor(params, 8) * np.exp(-(p * x0 / hbar) ** 2) * np.cos(p * d / hbar - delta / 2) ** 2


@_float_range
def position_marginal_propagated(params: SlitPairParams, x):
    """Position density |phi(x)|^2 after free flight over ``params.alpha``.

    The slit envelopes widen from x0 to the propagated width; the fringe
    comb inside the overlap region shifts to positive x in proportion to
    delta. At alpha = 0 this reduces to the density right after the slits.
    Where a fringe is exactly dark (x = 0 at delta = pi) ``slits + cross``
    can round below 0; it is clamped there to 0, and every other value
    keeps its bits.
    """
    x = np.asarray(x, dtype=float)
    x0, d, hbar, delta, alpha = params.x0, params.d, params.hbar, params.delta, params.alpha
    big = propagated_width(params)
    slits = np.exp(-((x - d) / big) ** 2) + np.exp(-((x + d) / big) ** 2)
    phase = 2 * x * alpha * d * hbar / (x0**2 * big**2)
    cross = 2 * np.exp(-(x**2 + d**2) / big**2) * np.cos(phase - delta)
    return (x0 / big) * np.maximum(slits + cross, 0.0)


@_float_range
def single_slit_marginal(params: SlitPairParams, axis: str, coords, slit: int = 1):
    """Projection of one slit's (propagated) Wigner field onto ``axis``.

    The 1-D counterpart of :func:`single_slit_field`, on the scale of the
    two-slit marginals: averaged over delta, each of those is the sum of
    the two single-slit projections.

    * momentum: 2 pi x0^2 exp(-p^2 x0^2/hbar^2), the same for both slits
      and, since free flight only shears along x, for every alpha;
    * position: (x0/X) exp(-(x - slit d)^2/X^2), X the propagated width.
    """
    if slit not in (1, -1):
        raise ValueError(f"slit must be +1 or -1, got {slit}")
    coords = np.asarray(coords, dtype=float)
    x0 = params.x0
    if axis == "momentum":
        return _momentum_prefactor(params, 2) * np.exp(-(coords * x0 / params.hbar) ** 2)
    if axis == "position":
        big = propagated_width(params)
        return (x0 / big) * np.exp(-((coords - slit * params.d) / big) ** 2)
    raise ValueError(f"axis must be 'position' or 'momentum', got {axis!r}")


def _sheared_field(formula, params: SlitPairParams, grid: Grid2D, *args) -> WignerField:
    """:func:`_sheared` over the grid's x column and p row, as a field that adopts the one output."""
    x, p = grid.x_axis.points()[:, None], grid.p_axis.points()[None, :]
    values = _sheared(formula, params, x, p, *args)
    values.flags.writeable = False  # fresh and unshared: WignerField adopts it uncopied
    return WignerField(grid=grid, values=values)


@_float_range
def two_slit_field(params: SlitPairParams, grid: Grid2D) -> WignerField:
    """Sample the (propagated) two-slit Wigner field on a phase-space grid.

    Bit for bit :func:`wigner_two_slit_propagated` on the grid's points.
    """
    return _sheared_field(wigner_two_slit, params, grid)


@_float_range
def single_slit_field(params: SlitPairParams, grid: Grid2D, slit: int = 1) -> WignerField:
    """Sample one sheared single-slit Wigner field on a phase-space grid.

    Bit for bit ``wigner_single_slit(params, x - alpha p, p, slit)``.
    """
    return _sheared_field(wigner_single_slit, params, grid, slit)


def simulate(params: SlitPairParams, grid: Grid2D) -> Tuple[WignerField, np.ndarray, np.ndarray]:
    """(field after flight, position density, momentum density) on ``grid`` in raw units."""
    x_density = position_marginal_propagated(params, grid.x_axis.points())
    return two_slit_field(params, grid), x_density, momentum_marginal(params, grid.p_axis.points())


def phase_from_flux(flux: FluxSpec) -> float:
    """Aharonov-Bohm phase of a charge e encircling magnetic flux: 2 pi (phi / phi0).

    The ratio is taken first, so a subnormal or huge flux keeps its phase.
    """
    delta = 2 * math.pi * (flux.phi / flux.phi0)
    if not math.isfinite(delta):
        raise ValueError(f"phase overflows for flux {flux.phi!r} and flux quantum {flux.phi0!r}")
    return delta


def _pulse_phase(path1: PulseSeries, path2: PulseSeries, scale: float) -> float:
    scale = _require_finite("scale", scale)
    integral1, integral2 = path1.integral(), path2.integral()
    difference = integral1 - integral2
    # two finite integrals can differ by more than the float range while the
    # phase does not: then each integral is scaled before the difference
    delta = scale * difference if math.isfinite(difference) else scale * integral1 - scale * integral2
    if not math.isfinite(delta):
        raise ValueError(f"phase overflows for scale {scale!r} and pulse integrals {integral1!r}, {integral2!r}")
    return delta


def phase_from_voltage_pulses(path1: PulseSeries, path2: PulseSeries, e_over_hbar: float) -> float:
    """Scalar AB phase for electrons in pulsed Faraday cages.

    delta = (e/hbar) * (integral of U(t) on path 1 - integral on path 2);
    pass the charge-to-action ratio explicitly to fix the unit system.
    """
    return _pulse_phase(path1, path2, e_over_hbar)


def phase_from_magnetic_pulses(path1: PulseSeries, path2: PulseSeries, inv_hbar: float) -> float:
    """Scalar AB phase for polarized neutrons in pulsed magnetic fields.

    Same integral contract as the electric case with samples interpreted as
    the magnetic-moment energy mu*B(t) and the overall 1/hbar scale.
    """
    return _pulse_phase(path1, path2, inv_hbar)
