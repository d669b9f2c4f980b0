"""Core value types: slit-pair parameters, sampling grids, and field containers.

This module also owns the float-range rule of the slit pair's formulas: the
private decorator ``_float_range`` refuses a call to a closed form of
:mod:`wigslits.analytic` or to the numeric sampler exactly when a step of
its formula leaves the float range.

All types are immutable after construction (frozen dataclasses; array payloads
are marked read-only), so instances can be shared freely across threads.
A container copies the array it is given, unless that array is already
frozen: a read-only ndarray of the right dtype that owns its data is adopted
as is, so a producer that marks its fresh output read-only hands it over
without a second n x n_p copy.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SlitPairParams",
    "Grid1D",
    "Grid2D",
    "WignerField",
    "SampledWavefunction",
    "MarginalCurve",
    "normalized_params",
    "propagated_width",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
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
            require = _require_positive if name in ("x0", "d", "hbar") else _require_finite
            object.__setattr__(self, name, require(name, getattr(self, name)))
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


def normalized_params(alpha: float = 0.0, delta: float = 0.0) -> SlitPairParams:
    """Standard scenario in normalized units: x0 = 1, hbar = 1, slits at +-5."""
    return SlitPairParams(x0=1.0, d=5.0, delta=delta, hbar=1.0, alpha=alpha)


def _unit_scenario(params: SlitPairParams) -> SlitPairParams:
    """The slit pair in the paper's units: x0 = hbar = 1, d = D = d/x0 and alpha = A = alpha*hbar/x0**2.

    On X = x/x0 and P = p*x0/hbar its Wigner field and momentum density are
    the raw ones over x0 and x0**2, and its position density the raw one. D
    is one quotient and A is formed from mantissas and exponents, so neither
    leaves the float range part-way. Raises ValueError unless both are finite, with D > 0.
    """
    (m_x0, e_x0), (m_h, e_h), (m_a, e_a) = map(math.frexp, (params.x0, params.hbar, params.alpha))
    d = params.d / params.x0
    with np.errstate(over="ignore"):  # past the float range is inf, refused below
        alpha = float(np.ldexp(m_a * m_h / m_x0 / m_x0, e_a + e_h - 2 * e_x0))
    if not (0 < d < math.inf and alpha < math.inf):
        raise ValueError(f"D = d/x0 = {d!r} and A = alpha*hbar/x0**2 = {alpha!r} must be finite, with D > 0, "
                         f"for x0={params.x0!r}, d={params.d!r}, alpha={params.alpha!r}, hbar={params.hbar!r}")
    return SlitPairParams(x0=1.0, d=d, delta=params.delta, hbar=1.0, alpha=alpha)


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


def _float_range(formula):
    """Decorate a formula of the slit pair so that a step leaving the float range refuses the call.

    The formula runs with numpy trapping overflow, invalid operations and
    division by zero; such a trap, or Python's OverflowError from a float
    power such as ``x0**2``, becomes a ValueError that names the formula,
    the operation and the slit pair. Underflow is not trapped: the Gaussian
    tails underflow to 0 by design. Traps leave every value as it was.
    """

    @functools.wraps(formula)
    def guarded(params: SlitPairParams, *args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return formula(params, *args, **kwargs)
        except (FloatingPointError, OverflowError) as exc:
            raise ValueError(f"{formula.__name__} leaves the float range ({exc.args[-1]}) for {params!r}") from exc

    return guarded


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
        if not math.isfinite(self.max - self.min):  # the spacing, and so every point, would not be finite
            raise ValueError(f"grid needs a finite width max - min, got [{self.min}, {self.max}]")

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
