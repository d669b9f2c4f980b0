"""Core value types: slit-pair parameters, sampling grids, and field containers.

All types are immutable after construction (frozen dataclasses; array payloads
are marked read-only), so instances can be shared freely across threads.
A container copies the array it is given, unless that array is already
frozen: a read-only ndarray of the right dtype that owns its data is adopted
as is, so a producer that marks its fresh output read-only hands it over
without a second n x n_p copy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "SlitPairParams",
    "Grid1D",
    "Grid2D",
    "WignerField",
    "SampledWavefunction",
    "MarginalCurve",
    "FringeReport",
    "normalized_params",
    "propagated_width",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SlitPairParams:
    """Physical scenario of the two-slit Gaussian pair.

    Slits of width ``x0`` sit at ``+d`` and ``-d``; the relative phase
    ``delta`` (radians) is the Aharonov-Bohm phase split evenly between the
    two beams; ``alpha`` is the free-flight parameter (time over mass) that
    shears the phase-space distribution.
    """

    x0: float
    d: float
    delta: float = 0.0
    hbar: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        for name in ("x0", "d", "delta", "hbar", "alpha"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.x0 <= 0:
            raise ValueError(f"x0 must be > 0, got {self.x0}")
        if self.d <= 0:
            raise ValueError(f"d must be > 0, got {self.d}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be > 0, got {self.hbar}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


def normalized_params(alpha: float = 0.0, delta: float = 0.0) -> SlitPairParams:
    """Standard scenario in normalized units: x0 = 1, hbar = 1, slits at +-5."""
    return SlitPairParams(x0=1.0, d=5.0, delta=delta, hbar=1.0, alpha=alpha)


def propagated_width(params: SlitPairParams) -> float:
    """Width of each slit envelope after free flight.

    Equals sqrt(alpha^2 hbar^2 + x0^4) / x0; reduces to x0 at alpha = 0 and
    grows monotonically with alpha. Raises ValueError where the formula
    overflows or gives a width that is zero or whose square overflows (the
    closed forms divide by that square), as extreme finite params can.
    """
    try:
        width = math.sqrt(params.alpha**2 * params.hbar**2 + params.x0**4) / params.x0
    except OverflowError:
        width = math.inf
    if not 0 < width * width < math.inf:
        raise ValueError(
            f"propagated width {width!r} must be > 0 with a finite square, for "
            f"x0={params.x0!r}, alpha={params.alpha!r}, hbar={params.hbar!r}"
        )
    return width


def _position_width(params: SlitPairParams) -> float:
    """:func:`propagated_width` for the position closed forms, which also square d and d / width.

    Raises ValueError, naming d, where either square overflows.
    """
    width = propagated_width(params)
    ratio = params.d / width
    if not (math.isfinite(params.d * params.d) and math.isfinite(ratio * ratio)):
        raise ValueError(
            f"slit offset d={params.d!r} is out of range: d**2 or (d / width)**2 overflows, for "
            f"propagated width {width!r} (x0={params.x0!r}, alpha={params.alpha!r}, hbar={params.hbar!r})"
        )
    return width


def _require_sheared_arguments(params: SlitPairParams, grid: Grid2D) -> None:
    """Refuse a grid on which the sheared Gaussian arguments square past the float range.

    The two-slit closed form sheared by alpha squares (x - alpha p -+ d) / x0
    and (x - alpha p) / x0, all at most (max|x| + alpha max|p| + d) / x0 on
    the grid. Raises ValueError, naming x0, d, alpha and hbar, where that
    bound squared overflows.
    """
    x_reach, p_reach = (max(abs(axis.min), abs(axis.max)) for axis in (grid.x_axis, grid.p_axis))
    bound = (x_reach + params.alpha * p_reach + params.d) / params.x0
    if not math.isfinite(bound * bound):
        raise ValueError(
            f"sheared Gaussian argument (max|x| + alpha max|p| + d) / x0 = {bound!r} squares past the "
            f"float range, for x0={params.x0!r}, d={params.d!r}, alpha={params.alpha!r}, hbar={params.hbar!r}"
        )


@dataclass(frozen=True)
class Grid1D:
    """Uniform sampling lattice, inclusive of both endpoints."""

    min: float
    max: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "min", _require_finite("min", self.min))
        object.__setattr__(self, "max", _require_finite("max", self.max))
        try:
            object.__setattr__(self, "n", operator.index(self.n))  # numpy ints pass, 2.5 does not
        except TypeError:
            raise ValueError(f"grid needs an integral n, got {self.n!r}") from None
        if self.n < 2:
            raise ValueError(f"grid needs n >= 2 points, got {self.n}")
        if not self.min < self.max:
            raise ValueError(f"grid needs min < max, got [{self.min}, {self.max}]")

    @property
    def spacing(self) -> float:
        return (self.max - self.min) / (self.n - 1)

    def points(self) -> np.ndarray:
        # min + i*spacing rather than linspace: the CSV coordinates are these exact floats
        return self.min + np.arange(self.n) * self.spacing


@dataclass(frozen=True)
class Grid2D:
    """Product lattice for the (x, p) phase-space plane."""

    x_axis: Grid1D
    p_axis: Grid1D


def _frozen_array(values, dtype, shape, what: str) -> np.ndarray:
    """``values`` as a validated read-only array, adopted without a copy when already frozen.

    A plain ndarray of ``dtype`` that is read-only and owns its data is kept
    as is: no other array can write to it, so a producer that marks its
    fresh output read-only hands it over without a second copy. Anything
    else (a writeable array, a view, another dtype, a list) is copied, so
    later writes to the caller's object cannot reach the container.
    """
    if (
        type(values) is np.ndarray
        and not values.flags.writeable
        and values.flags.owndata
        and values.dtype == dtype
    ):
        arr = values
    else:
        arr = np.array(values, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"{what} shape {arr.shape} does not match expected shape {shape}")
    # min and max propagate NaN and expose +-inf without an n x n_p isfinite mask
    parts = (arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,)
    if not all(math.isfinite(part.min()) and math.isfinite(part.max()) for part in parts):
        raise ValueError(f"{what} contains non-finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class WignerField:
    """Real phase-space field over a Grid2D, indexed [x_index, p_index].

    Values may be negative: the interference term of a superposition is
    oscillatory and dips below zero.
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        shape = (self.grid.x_axis.n, self.grid.p_axis.n)
        object.__setattr__(self, "values", _frozen_array(self.values, float, shape, "Wigner field"))


@dataclass(frozen=True)
class SampledWavefunction:
    """Complex wavefunction samples on a Grid1D."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _frozen_array(self.values, complex, (self.grid.n,), "wavefunction")
        )


@dataclass(frozen=True)
class MarginalCurve:
    """Probability-density samples along one axis; non-negative everywhere."""

    axis_label: str
    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        if self.axis_label not in ("position", "momentum"):
            raise ValueError(f"axis_label must be 'position' or 'momentum', got {self.axis_label!r}")
        arr = _frozen_array(self.values, float, (self.grid.n,), "marginal")
        if arr.min() < 0:
            raise ValueError(f"marginal has negative values (min {arr.min():g})")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class FringeReport:
    """Extracted fringe structure of a marginal curve."""

    maxima: Tuple[float, ...] = ()
    period_estimate: Optional[float] = None
    shift_vs_reference: Optional[float] = None
    pattern_interval: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        maxima = tuple(float(m) for m in self.maxima)
        if any(b <= a for a, b in zip(maxima, maxima[1:])):
            raise ValueError("maxima must be strictly ascending")
        object.__setattr__(self, "maxima", maxima)
        if self.period_estimate is not None and not self.period_estimate > 0:
            raise ValueError(f"period_estimate must be > 0, got {self.period_estimate}")
        if self.pattern_interval is not None:
            lo, hi = self.pattern_interval
            object.__setattr__(self, "pattern_interval", (float(lo), float(hi)))
