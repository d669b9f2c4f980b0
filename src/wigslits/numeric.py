"""Discrete engine for sampled wavefunctions: Wigner transform, momentum
transform, free propagation, phase-space shear, and field marginals.

These routines are the independent counterpart of the closed forms in
:mod:`wigslits.analytic`; each side cross-checks the other in the test
suite. All transforms use the exp(+i x p / hbar) kernel convention.

A producer of an n x n_p field allocates the field before its block-sized
scratch: the scratch then lies above the field on the heap and, once freed,
returns to the heap top for the next array instead of staying a hole under
the live field.
"""

from __future__ import annotations

import math
import warnings
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConventionViolationError, TruncationError
from .model import Grid1D, Grid2D, MarginalCurve, SampledWavefunction, SlitPairParams, WignerField
from .model import _float_range, _require_finite, _require_positive, propagated_width

__all__ = [
    "DEFAULT_EDGE_DECAY_TOL",
    "sample_wavefunction",
    "momentum_wavefunction",
    "wigner_transform",
    "propagate_free",
    "shear_field",
    "field_marginal",
    "field_marginals",
    "simulate",
]

# Endpoint amplitude allowed relative to the wavefunction peak before a
# transform is considered truncated; every edge guard uses it. 1e-10 admits
# the standard plotting window [-12, 12] for slits at +-5 (edge ratio
# ~2.3e-11) with the window truncation still far below every advertised
# tolerance, and sits five decades above the FFT roundoff free flight
# leaves at the edges (under 2e-15 of peak up to 16384 points, alpha <= 12).
DEFAULT_EDGE_DECAY_TOL = 1e-10

# Allowed gap between the x-integral of a field and |phibar(p)|^2, relative to
# its peak. Correct fields on the standard window read ~1e-12 at n >= 256; a
# flipped kernel sign reads >= 0.7 unless delta is a multiple of pi, and an x
# grid too coarse for psi (dx ~ x0) reads 1e-3 to 1e-2, about as far as its
# field is off the closed form.
_MARGINAL_TOL = 1e-6

# Negative dip a field marginal may show, relative to its peak, before the
# field counts as invalid. It absorbs the ~1e-8 artifact of truncating the
# oscillatory interference term at a window edge (about exp(-16) of peak on
# the standard P window).
_NEG_TOL = 1e-7

# Momentum columns the transforms evaluate per block. Their scratch is
# O(n * _P_BLOCK) whatever n_p is, and a fixed block keeps reruns bit-identical.
_P_BLOCK = 256

# Scratch a step of the numeric engine may take, sized before it is allocated: the
# Wigner transform's lag band and kernel, and the position density's free flight at
# 80 bytes a widened-grid point (its traced peak is 72-75). 1 GiB admits a transform
# of n <= 31,756 and ~13 million flight points (the default grid widens to 2,288 at alpha = 6).
_SCRATCH_BUDGET = 2**30

# Row split of the transforms' phase tables: index j = J * _TABLE_SPLIT + r,
# and exp(i j phi) = exp(i J * _TABLE_SPLIT * phi) * exp(i r phi), so a block
# evaluates (n / _TABLE_SPLIT + _TABLE_SPLIT) phases per column instead of n.
_TABLE_SPLIT = 32

# x bands of the Wigner transform's matrix product: each band multiplies only
# the lags its rows reach, and a fixed count keeps reruns bit-identical.
_ROW_BANDS = 8

# Distance, in ulps of the largest shift, within which shear_field takes a
# column's shift for the integer it rounds to. alpha * p_j / dx on a
# lattice-aligned grid misses its integer by at most 1 ulp.
_SHEAR_SNAP_ULPS = 4


def _trapezoid_weights(grid: Grid1D) -> np.ndarray:
    weights = np.full(grid.n, grid.spacing)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return weights


def _check_edge_decay(values: np.ndarray, what: str, action: str = "error") -> None:
    if action not in ("error", "warn"):
        raise ValueError(f"on_truncation must be 'error' or 'warn', got {action!r}")
    peak = np.abs(values).max()
    if peak == 0.0:
        return
    edge = max(abs(values[0]), abs(values[-1])) / peak
    if edge >= DEFAULT_EDGE_DECAY_TOL:
        msg = (
            f"{what}: wavefunction endpoint amplitude is {edge:.3e} of peak "
            f"(allowed < {DEFAULT_EDGE_DECAY_TOL:.1e}); widen the grid"
        )
        if action == "warn":
            warnings.warn(msg, RuntimeWarning, stacklevel=3)
        else:
            raise TruncationError(msg)


@_float_range
def sample_wavefunction(params: SlitPairParams, grid: Grid1D) -> SampledWavefunction:
    """Sample the two-slit wavefunction on a grid.

    psi(x) = exp(-(x-d)^2 / 2 x0^2) e^{-i delta/2}
           + exp(-(x+d)^2 / 2 x0^2) e^{+i delta/2}

    Raises ValueError where a step of the formula leaves the float range.
    """
    x = grid.points()
    x0, d, delta = params.x0, params.d, params.delta
    values = (
        np.exp(-((x - d) ** 2) / (2 * x0**2)) * np.exp(-1j * delta / 2)
        + np.exp(-((x + d) ** 2) / (2 * x0**2)) * np.exp(1j * delta / 2)
    )
    return SampledWavefunction(grid=grid, values=values)


def momentum_wavefunction(psi: SampledWavefunction, p_grid: Grid1D, hbar: float = 1.0) -> np.ndarray:
    """Momentum wavefunction phibar(p) = integral of psi(x) exp(+i x p/hbar) dx.

    Direct trapezoid quadrature on the sampling grid, evaluated at every
    point of ``p_grid`` in fixed-size blocks of p. The kernel is never
    formed: writing the sample index as j = J s + r (s = ``_TABLE_SPLIT``),
    exp(i x_j p/hbar) = exp(i x_{J s} p/hbar) exp(i r dx p/hbar), so a block
    needs a coarse table of ceil(n/s) rows and a fine table of s rows, and
    phibar = sum over J of coarse * (Psi @ fine), with Psi the weighted
    samples zero-padded to ceil(n/s) x s. The scratch is O((n/s + s) *
    block) and repeated runs are bit-identical. Returns a complex array of
    length ``p_grid.n``.
    """
    _require_positive("hbar", hbar)
    _check_edge_decay(psi.values, "momentum transform")
    x = psi.grid.points()
    p = p_grid.points()
    rows = -(-x.size // _TABLE_SPLIT)
    weighted = np.zeros(rows * _TABLE_SPLIT, dtype=complex)
    weighted[: x.size] = psi.values * _trapezoid_weights(psi.grid)
    weighted = weighted.reshape(rows, _TABLE_SPLIT)
    coarse_x = x[::_TABLE_SPLIT]
    fine_x = np.arange(_TABLE_SPLIT) * psi.grid.spacing
    phibar = np.empty(p.size, dtype=complex)
    for start in range(0, p.size, _P_BLOCK):
        block = slice(start, start + _P_BLOCK)
        coarse, fine = (_phase_table(offsets, p[block], hbar) for offsets in (coarse_x, fine_x))
        coarse *= weighted @ fine
        phibar[block] = coarse.sum(axis=0)
    return phibar


def _phase_table(offsets: np.ndarray, p: np.ndarray, hbar: float) -> np.ndarray:
    """exp(i * outer(offsets, p) / hbar), rounded as the dense kernel is."""
    table = np.multiply.outer(offsets, p).astype(complex)
    table *= 1j  # in two steps: the rounding of exp(1j * outer(x, p) / hbar)
    table /= hbar
    return np.exp(table, out=table)


def wigner_transform(psi: SampledWavefunction, p_grid: Grid1D, hbar: float = 1.0) -> WignerField:
    """Discrete Wigner transform of a sampled wavefunction.

    For each grid point x the lag product g(x') = conj(psi(x - x'/2)) *
    psi(x + x'/2) is formed on the lag lattice x' = 2 k dx, so both
    arguments land exactly on sample points, then transformed with kernel
    exp(+i p x'/hbar) and quadrature weight 2 dx. As g(-x') = conj(g(x')),
    only lags k >= 0 are formed and the result is real by construction.

    The lag lattice halves the usable bandwidth: every requested momentum
    must satisfy |p| <= pi hbar / (2 dx). At every p, the x-integral of W
    must match |phibar(p)|^2 from the independent momentum transform (which
    applies the same edge check) to 1e-6 of its peak; otherwise the kernel
    sign is wrong or the x grid too coarse, and ConventionViolationError is
    raised.

    Lags run to L = ceil(n/2), rounded up to whole ``_TABLE_SPLIT`` rows
    (the padded lags zero), and are read from two sliding windows of the
    zero-padded samples. The field is formed for one fixed-size block of p
    at a time; no dense n x n_p kernel is built. With k = K s + r (s =
    ``_TABLE_SPLIT``) and theta = 2 dx p/hbar, the block's kernel exp(i k theta) is the product
    of a coarse phase table (K s, L/s rows) and a fine one (r, s rows),
    written into one complex buffer allocated once per call, after the
    field itself (result first, then scratch; see the module docstring). Viewed as
    floats, the lag products (scaled by 4 dx) hold (Re g, -Im g) pairs and
    the kernel (cos, sin) pairs, so the block of W is a real matrix
    product. Row i reaches only lags k <= min(i, n - 1 - i), so x is cut
    into ``_ROW_BANDS`` row bands. For each block, each band's conjugate lag
    products, up to the largest lag its rows reach, are formed in one buffer
    of the largest band's size and multiplied by the matching columns of the
    kernel's float view; bands without rows are skipped. No n x L array of
    lag products is held: the band buffer and the kernel, 16 bytes a cell,
    are sized first and refused with a ValueError stating the bytes above
    ``_SCRATCH_BUDGET``. Fixed-order matrix products over fixed bands and
    blocks make repeated runs bit-identical.

    Returns a WignerField on ``psi.grid`` x ``p_grid``.
    """
    _require_positive("hbar", hbar)
    _check_edge_decay(psi.values, "Wigner transform")
    n = psi.grid.n
    dx = psi.grid.spacing
    p = p_grid.points()
    p_bound = math.pi * hbar / (2 * dx)
    p_max = np.abs(p).max()
    if p_max > p_bound:
        raise ValueError(
            f"momentum grid reaches |p| = {p_max:g}, beyond the lag-lattice "
            f"bandwidth pi*hbar/(2*dx) = {p_bound:g}; refine the x grid"
        )

    rows = -(-((n + 1) // 2) // _TABLE_SPLIT)  # lags k >= n/2 leave the grid on every row
    n_lags = rows * _TABLE_SPLIT
    # row i reaches lags k <= min(i, n - 1 - i): each band's lags up to its reach
    edges = [b * n // _ROW_BANDS for b in range(_ROW_BANDS + 1)]
    bands = [
        (slice(lo, hi), min(hi - 1, n - 1 - lo, (n - 1) // 2) + 1)
        for lo, hi in zip(edges, edges[1:])
        if lo < hi
    ]
    # one band's lag products at a time, in a buffer of the largest band's size,
    # and a flat kernel viewed per block at its width so every view is contiguous
    band_cells = max((band.stop - band.start) * reach for band, reach in bands)
    kernel_cells = min(p.size, _P_BLOCK) * n_lags
    if 16 * (band_cells + kernel_cells) > _SCRATCH_BUDGET:
        raise ValueError(f"Wigner transform needs {16 * (band_cells + kernel_cells)} bytes for its lag band and "
                         f"kernel on {n} x points and {p.size} momenta, against a budget of {_SCRATCH_BUDGET}")

    # the guard's reference first, while no n x n_p array is held yet
    phibar = momentum_wavefunction(psi, p_grid, hbar)

    w = np.empty((n, p.size))  # before the scratch, which is then freed above it
    padded = np.zeros(n + 2 * n_lags, dtype=complex)
    padded[n_lags : n_lags + n] = psi.values
    behind = sliding_window_view(padded, n_lags)[1 : n + 1, ::-1]  # psi(x_i - k dx)
    scaled = (4 * dx) * padded.conj()  # W = 4 dx (g_0/2 + sum_k Re g_k e^{i k theta})
    ahead = sliding_window_view(scaled, n_lags)[n_lags : n_lags + n]  # 4 dx conj(psi(x_i + k dx))
    lag_buffer = np.empty(band_cells, dtype=complex)

    coarse_lags = 2 * dx * np.arange(0, n_lags, _TABLE_SPLIT)
    fine_lags = 2 * dx * np.arange(_TABLE_SPLIT)
    kernel = np.empty(kernel_cells, dtype=complex)
    for start in range(0, p.size, _P_BLOCK):
        block = slice(start, start + _P_BLOCK)
        b = p[block].size
        coarse, fine = (_phase_table(offsets, p[block], hbar).T for offsets in (coarse_lags, fine_lags))
        kernel_b = kernel[: b * n_lags].reshape(b, rows, _TABLE_SPLIT)
        np.multiply(coarse[:, :, None], fine[:, None, :], out=kernel_b)
        kernel_floats = kernel_b.reshape(b, n_lags).view(float)
        for band, reach in bands:  # BLAS writes each strided view of w in place
            # conj(g), so that its float view pairs (Re g, -Im g)
            lag_products = lag_buffer[: (band.stop - band.start) * reach].reshape(-1, reach)
            np.multiply(behind[band, :reach], ahead[band, :reach], out=lag_products)
            lag_products[:, 0] *= 0.5
            np.matmul(lag_products.view(float), kernel_floats[:, : 2 * reach].T, out=w[band, block])

    density = np.abs(phibar) ** 2
    peak = density.max()
    mismatch = np.abs(_trapezoid_weights(psi.grid) @ w - density).max()
    if mismatch > _MARGINAL_TOL * peak:
        raise ConventionViolationError(
            f"Wigner transform: x-integral differs from |phibar(p)|^2 by {mismatch:.3e}, "
            f"beyond {_MARGINAL_TOL:.0e} of peak {peak:.3e} (kernel sign, or x grid too coarse)"
        )
    w.flags.writeable = False  # fresh and unshared: WignerField adopts it uncopied
    return WignerField(grid=Grid2D(psi.grid, p_grid), values=w)


def propagate_free(
    psi: SampledWavefunction,
    alpha: float,
    hbar: float = 1.0,
    *,
    on_truncation: str = "error",
) -> SampledWavefunction:
    """Free flight of a sampled wavefunction over alpha = t/m.

    Applies a quadratic momentum-space phase to phibar(p) via FFT and
    returns the evolved wavefunction on the same grid. The phase sign is
    fixed by the package's phase-space convention: the Wigner field of the
    result equals the input field sheared to (x - alpha p, p), which is
    this module's central cross-check.

    The grid must hold the packet both before and after flight (the
    envelope widens to roughly the propagated width); either failure
    raises TruncationError. A phase alpha p^2 / (2 hbar) that is not finite
    at the largest FFT momentum raises ValueError before any transform.
    """
    if _require_finite("alpha", alpha) < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    _require_positive("hbar", hbar)
    _check_edge_decay(psi.values, "free propagation (input)", on_truncation)
    p = 2 * math.pi * hbar * np.fft.fftfreq(psi.grid.n, d=psi.grid.spacing)
    p_max = float(max(p.max(), -p.min()))
    if not math.isfinite(alpha * (p_max * p_max) / (2 * hbar)):
        raise ValueError(
            f"free-flight phase alpha*p**2/(2*hbar) is not finite at the largest FFT momentum "
            f"p = {p_max!r}, for hbar={hbar!r}, spacing {psi.grid.spacing!r}, alpha={alpha!r}"
        )
    evolved = np.fft.fft(np.fft.ifft(psi.values) * np.exp(1j * alpha * p**2 / (2 * hbar)))
    _check_edge_decay(evolved, "free propagation (output)", on_truncation)
    return SampledWavefunction(grid=psi.grid, values=evolved)


def _widened_grid(params: SlitPairParams, x_grid: Grid1D) -> Tuple[Grid1D, int]:
    """The grid on which psi flies for the position density, and the index of x_grid.min on it.

    The window usually cannot hold the spread packet, so it is extended by
    whole steps (the requested points stay on the lattice) to d + 8 max(X,
    x0), X the propagated width, on both sides. A widened grid over
    ``_SCRATCH_BUDGET`` bytes, at 80 a point, is refused with a ValueError;
    a step count past the float range counts as over budget.
    """
    h = x_grid.spacing
    width = propagated_width(params)
    reach = params.d + 8.0 * max(width, params.x0)
    m_lo, m_hi = (max(0.0, float(np.ceil(m))) for m in ((reach + x_grid.min) / h, (reach - x_grid.max) / h))
    points = x_grid.n + m_lo + m_hi  # a float: a count past its range prints as inf
    if 80 * points > _SCRATCH_BUDGET:
        raise ValueError(
            f"free flight of the position density needs {points:.4g} points on a grid widened to reach "
            f"{reach!r} on each side (propagated width {width!r}, hbar={params.hbar!r}), "
            f"~{80 * points:.3g} bytes against a budget of {_SCRATCH_BUDGET}, "
            f"for d={params.d!r}, x0={params.x0!r}, alpha={params.alpha!r}"
        )
    n_wide, m_lo = int(points), int(m_lo)
    return Grid1D(min=x_grid.min - m_lo * h, max=x_grid.min + (n_wide - 1 - m_lo) * h, n=n_wide), m_lo


def shear_field(field: WignerField, alpha: float) -> WignerField:
    """Shear a phase-space field: output(x, p) = input(x - alpha p, p).

    Column p_j moves by s_j = alpha p_j / dx samples, written m_j + t_j
    with m_j an integer and 0 <= t_j < 1. Each column is copied m_j rows
    down with slices, and a fraction t_j > 0 mixes two such shifted slices
    with weights 1 - t_j and t_j, which is linear interpolation along x.
    An s_j within ``_SHEAR_SNAP_ULPS`` ulps of max|s| of an integer is
    snapped to it, so where alpha dp / dx is integral (the default grid at
    alpha = 6) every column is an exact copy. Points pulled from outside the
    grid are set to zero, which is exact whenever the producer guaranteed
    edge decay; a column with |s_j| >= n is all zeros. The p = 0 row is
    always left unchanged. A non-finite alpha raises ValueError.
    """
    _require_finite("alpha", alpha)
    values = field.values
    n = field.grid.x_axis.n
    shift = alpha * field.grid.p_axis.points() / field.grid.x_axis.spacing
    shift = np.clip(shift, -n, n)  # |s| >= n empties the column; the cast cannot overflow
    nearest = np.rint(shift)
    snap = _SHEAR_SNAP_ULPS * np.spacing(np.abs(shift).max())
    shift = np.where(np.abs(shift - nearest) <= snap, nearest, shift)
    whole = np.floor(shift)
    out = np.zeros_like(values)
    for j, (m, t) in enumerate(zip(whole.astype(int).tolist(), (shift - whole).tolist())):
        # out[i] = (1 - t) v[i - m] + t v[i - m - 1] wherever both samples lie on the grid
        lo, hi = max(m if t == 0.0 else m + 1, 0), min(n + m, n)
        if lo >= hi:
            continue
        if t == 0.0:
            out[lo:hi, j] = values[lo - m : hi - m, j]
        else:
            column = out[lo:hi, j]
            np.multiply(values[lo - m : hi - m, j], 1.0 - t, out=column)
            column += t * values[lo - m - 1 : hi - m - 1, j]
    out.flags.writeable = False  # fresh and unshared: WignerField adopts it uncopied
    return WignerField(grid=field.grid, values=out)


def field_marginal(field: WignerField, axis: str, hbar: float = 1.0) -> MarginalCurve:
    """Project a Wigner field onto one axis, 'position' or 'momentum'.

    position density = (1 / 2 pi hbar) * integral over p,
    momentum density = integral over x,
    by trapezoid quadrature. Negatives within ``_NEG_TOL`` of the curve peak
    (window-edge truncation of the interference term) are clamped to zero;
    anything more negative raises ConventionViolationError (the field is not
    a valid Wigner function on this grid). Only the requested projection is
    formed and checked, so a truncated window on the other axis does no harm.
    A kernel-sign error need not drive a marginal negative; wigner_transform
    checks for it instead.
    """
    _require_positive("hbar", hbar)
    if axis == "position":
        grid = field.grid.x_axis
        values = field.values @ _trapezoid_weights(field.grid.p_axis) / (2 * math.pi * hbar)
    elif axis == "momentum":
        grid = field.grid.p_axis
        values = _trapezoid_weights(field.grid.x_axis) @ field.values
    else:
        raise ValueError(f"axis must be 'position' or 'momentum', got {axis!r}")
    peak = values.max()
    floor = values.min()
    if floor < 0:
        if peak <= 0 or floor < -_NEG_TOL * peak:
            raise ConventionViolationError(
                f"{axis} marginal dips to {floor:.3e} "
                f"(beyond -{_NEG_TOL:.0e} of peak {peak:.3e})"
            )
        values = np.clip(values, 0.0, None)
    return MarginalCurve(axis_label=axis, grid=grid, values=values)


def field_marginals(field: WignerField, hbar: float = 1.0) -> Tuple[MarginalCurve, MarginalCurve]:
    """The position and momentum marginals of a Wigner field; see :func:`field_marginal`."""
    return field_marginal(field, "position", hbar), field_marginal(field, "momentum", hbar)


def simulate(params: SlitPairParams, grid: Grid2D) -> Tuple[WignerField, np.ndarray, np.ndarray]:
    """(field after flight, position density, momentum density) of the discrete engine on ``grid``.

    Sizes the position density's widened grid, refused over budget before
    any sample; transforms psi, whose edge, bandwidth and x-integral checks
    come before any flight; flies psi on the widened grid and crops it back;
    and shears the transform by alpha. The momentum density is the unsheared
    field's projection, which free flight leaves invariant. ``grid`` is in
    raw units; every edge guard applies ``DEFAULT_EDGE_DECAY_TOL``.
    """
    wide, offset = _widened_grid(params, grid.x_axis)
    base = wigner_transform(sample_wavefunction(params, grid.x_axis), grid.p_axis, params.hbar)
    evolved = propagate_free(sample_wavefunction(params, wide), params.alpha, params.hbar)
    x_density = np.abs(evolved.values[offset : offset + grid.x_axis.n]) ** 2
    return shear_field(base, params.alpha), x_density, field_marginal(base, "momentum", params.hbar).values
