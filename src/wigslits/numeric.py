"""Discrete engine for sampled wavefunctions: Wigner transform, momentum
transform, free propagation, phase-space shear, and field marginals.

These routines are the independent counterpart of the closed forms in
:mod:`wigslits.analytic`; each side cross-checks the other in the test
suite. All transforms use the exp(+i x p / hbar) kernel convention.
"""

from __future__ import annotations

import math
import warnings
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConventionViolationError, TruncationError
from .model import Grid1D, Grid2D, MarginalCurve, SampledWavefunction, SlitPairParams, WignerField
from .model import _require_finite, propagated_width

__all__ = [
    "DEFAULT_EDGE_DECAY_TOL",
    "validate_edge_tol",
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
# transform is considered truncated. 1e-10 admits the standard plotting
# window [-12, 12] for slits at +-5 (edge ratio ~2.3e-11) with the window
# truncation still far below every advertised tolerance.
DEFAULT_EDGE_DECAY_TOL = 1e-10

# Allowed gap between the x-integral of a field and |phibar(p)|^2, relative to
# its peak. Correct fields on the standard window read ~1e-12 at n >= 256; a
# flipped kernel sign reads >= 0.7 unless delta is a multiple of pi.
_MARGINAL_TOL = 1e-2

# Negative dip a field marginal may show, relative to its peak, before the
# field counts as invalid. It absorbs the ~1e-8 artifact of truncating the
# oscillatory interference term at a window edge (about exp(-16) of peak on
# the standard P window).
_NEG_TOL = 1e-7

# Momentum columns the transforms evaluate per block. Their scratch is
# O(n * _P_BLOCK) whatever n_p is, and a fixed block keeps reruns bit-identical.
_P_BLOCK = 256

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


def _fft_roundoff_floor(n: int) -> float:
    """Smallest edge_tol free propagation on n points accepts.

    An FFT round trip leaves roundoff at the edges however wide the window,
    and it grows with n: for slits at +-5 it reads 1e-17 to 6e-16 of peak on
    1024 to 4096 points (alpha <= 6) and 1.8e-15 on 16384 points (alpha = 6),
    so a tolerance below the floor fails on roundoff alone.
    """
    return 1e-15 * max(1.0, n / 4096)


def validate_edge_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` is a usable edge_tol: finite and in (0, 1]."""
    if not (math.isfinite(tol) and 0.0 < tol <= 1.0):
        raise ValueError(f"edge_tol must be finite and in (0, 1], got {tol!r}")


def _trapezoid_weights(grid: Grid1D) -> np.ndarray:
    weights = np.full(grid.n, grid.spacing)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return weights


def _check_edge_decay(values: np.ndarray, tol: float, what: str, action: str = "error") -> None:
    if action not in ("error", "warn"):
        raise ValueError(f"on_truncation must be 'error' or 'warn', got {action!r}")
    validate_edge_tol(tol)
    peak = np.abs(values).max()
    if peak == 0.0:
        return
    edge = max(abs(values[0]), abs(values[-1])) / peak
    if edge >= tol:
        msg = (
            f"{what}: wavefunction endpoint amplitude is {edge:.3e} of peak "
            f"(allowed < {tol:.1e}); widen the grid or relax edge_tol"
        )
        if action == "warn":
            warnings.warn(msg, RuntimeWarning, stacklevel=3)
        else:
            raise TruncationError(msg)


def sample_wavefunction(params: SlitPairParams, grid: Grid1D) -> SampledWavefunction:
    """Sample the two-slit wavefunction on a grid.

    psi(x) = exp(-(x-d)^2 / 2 x0^2) e^{-i delta/2}
           + exp(-(x+d)^2 / 2 x0^2) e^{+i delta/2}
    """
    x = grid.points()
    x0, d, delta = params.x0, params.d, params.delta
    values = (
        np.exp(-((x - d) ** 2) / (2 * x0**2)) * np.exp(-1j * delta / 2)
        + np.exp(-((x + d) ** 2) / (2 * x0**2)) * np.exp(1j * delta / 2)
    )
    return SampledWavefunction(grid=grid, values=values)


def momentum_wavefunction(
    psi: SampledWavefunction,
    p_grid: Grid1D,
    hbar: float = 1.0,
    *,
    edge_tol: float = DEFAULT_EDGE_DECAY_TOL,
) -> np.ndarray:
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
    _check_edge_decay(psi.values, edge_tol, "momentum transform")
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


def wigner_transform(
    psi: SampledWavefunction,
    p_grid: Grid1D,
    hbar: float = 1.0,
    *,
    edge_tol: float = DEFAULT_EDGE_DECAY_TOL,
) -> WignerField:
    """Discrete Wigner transform of a sampled wavefunction.

    For each grid point x the lag product g(x') = conj(psi(x - x'/2)) *
    psi(x + x'/2) is formed on the lag lattice x' = 2 k dx, so both
    arguments land exactly on sample points, then transformed with kernel
    exp(+i p x'/hbar) and quadrature weight 2 dx. As g(-x') = conj(g(x')),
    only lags k >= 0 are formed and the result is real by construction.

    The lag lattice halves the usable bandwidth: every requested momentum
    must satisfy |p| <= pi hbar / (2 dx). At every p, the x-integral of W
    must match |phibar(p)|^2 from the independent momentum transform (which
    also applies ``edge_tol``) to 1e-2 of its peak; otherwise the kernel
    sign is wrong or the x grid too coarse, and ConventionViolationError is
    raised.

    The conjugate lag products are kept x-major, as one complex n x L array
    (L = ceil(n/2) rounded up to whole ``_TABLE_SPLIT`` rows, the padded
    lags zero), read from two sliding windows of the zero-padded samples.
    The field is formed for one fixed-size block of p at a time; no dense
    n x n_p kernel is built. With k = K s + r (s = ``_TABLE_SPLIT``) and
    theta = 2 dx p/hbar, the block's kernel exp(i k theta) is the product
    of a coarse phase table (K s, L/s rows) and a fine one (r, s rows),
    written into one complex buffer allocated once per call. Viewed as
    floats, the lag products (scaled by 4 dx) hold (Re g, -Im g) pairs and
    the kernel (cos, sin) pairs, so the block of W is a real matrix
    product. Row i reaches only lags k <= min(i, n - 1 - i), so x is cut
    into ``_ROW_BANDS`` row bands, and each band multiplies a row-slice
    view of the one lag-product array, up to the largest lag its rows
    reach, by the matching columns of the kernel's float view; nothing is
    copied per band, and bands without rows are skipped. Besides the
    returned field and the lag products the scratch is O(n * block).
    Fixed-order matrix products over fixed bands and blocks make repeated
    runs bit-identical.

    Returns a WignerField on ``psi.grid`` x ``p_grid``.
    """
    _check_edge_decay(psi.values, edge_tol, "Wigner transform")
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

    # the guard's reference first, while no n x n_p array is held yet
    phibar = momentum_wavefunction(psi, p_grid, hbar, edge_tol=edge_tol)

    rows = -(-((n + 1) // 2) // _TABLE_SPLIT)  # lags k >= n/2 leave the grid on every row
    n_lags = rows * _TABLE_SPLIT
    padded = np.zeros(n + 2 * n_lags, dtype=complex)
    padded[n_lags : n_lags + n] = psi.values
    behind = sliding_window_view(padded, n_lags)[1 : n + 1, ::-1]  # psi(x_i - k dx)
    scaled = (4 * dx) * padded.conj()  # W = 4 dx (g_0/2 + sum_k Re g_k e^{i k theta})
    ahead = sliding_window_view(scaled, n_lags)[n_lags : n_lags + n]  # 4 dx conj(psi(x_i + k dx))
    lag_products = behind * ahead  # conj(g), so that its float view pairs (Re g, -Im g)
    lag_products[:, 0] *= 0.5
    lag_floats = lag_products.view(float)
    # row i reaches lags k <= min(i, n - 1 - i): each band's float columns up to its reach
    edges = [b * n // _ROW_BANDS for b in range(_ROW_BANDS + 1)]
    bands = [
        (slice(lo, hi), 2 * (min(hi - 1, n - 1 - lo, (n - 1) // 2) + 1))
        for lo, hi in zip(edges, edges[1:])
        if lo < hi
    ]

    coarse_lags = 2 * dx * np.arange(0, n_lags, _TABLE_SPLIT)
    fine_lags = 2 * dx * np.arange(_TABLE_SPLIT)
    # flat scratch, viewed per block at its width so every view is contiguous
    kernel = np.empty(min(p.size, _P_BLOCK) * n_lags, dtype=complex)
    w = np.empty((n, p.size))
    for start in range(0, p.size, _P_BLOCK):
        block = slice(start, start + _P_BLOCK)
        b = p[block].size
        coarse, fine = (_phase_table(offsets, p[block], hbar).T for offsets in (coarse_lags, fine_lags))
        kernel_b = kernel[: b * n_lags].reshape(b, rows, _TABLE_SPLIT)
        np.multiply(coarse[:, :, None], fine[:, None, :], out=kernel_b)
        kernel_floats = kernel_b.reshape(b, n_lags).view(float)
        for band, reach in bands:  # BLAS writes each strided view of w in place
            np.matmul(lag_floats[band, :reach], kernel_floats[:, :reach].T, out=w[band, block])

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
    edge_tol: float = DEFAULT_EDGE_DECAY_TOL,
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
    raises TruncationError. An ``edge_tol`` below the FFT roundoff floor,
    which no window could meet, raises ValueError. The floor is 1e-15 of
    peak up to 4096 points and grows in proportion to n beyond.
    """
    if _require_finite("alpha", alpha) < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    n = psi.grid.n
    floor = _fft_roundoff_floor(n)
    if edge_tol < floor:
        raise ValueError(
            f"edge_tol {edge_tol:.1e} is below the FFT roundoff floor {floor:.3g} "
            f"of free propagation on {n} points; its output edge check could not pass"
        )
    _check_edge_decay(psi.values, edge_tol, "free propagation (input)", on_truncation)
    p = 2 * math.pi * hbar * np.fft.fftfreq(n, d=psi.grid.spacing)
    evolved = np.fft.fft(np.fft.ifft(psi.values) * np.exp(1j * alpha * p**2 / (2 * hbar)))
    _check_edge_decay(evolved, edge_tol, "free propagation (output)", on_truncation)
    return SampledWavefunction(grid=psi.grid, values=evolved)


def _propagated_density(params: SlitPairParams, x_grid: Grid1D, edge_tol: float) -> np.ndarray:
    """|psi(x)|^2 after free flight on x_grid, exact to roundoff at every alpha, zero included.

    The window usually cannot hold the spread packet, so it is extended by
    whole steps (the requested points stay on the lattice) to d + 8 max(X,
    x0), X the propagated width, on both sides, propagated and cropped back.
    """
    h = x_grid.spacing
    reach = params.d + 8.0 * max(propagated_width(params), params.x0)
    m_lo = max(0, math.ceil((reach + x_grid.min) / h))
    m_hi = max(0, math.ceil((reach - x_grid.max) / h))
    n_wide = x_grid.n + m_lo + m_hi
    wide = Grid1D(min=x_grid.min - m_lo * h, max=x_grid.min + (n_wide - 1 - m_lo) * h, n=n_wide)
    evolved = propagate_free(sample_wavefunction(params, wide), params.alpha, params.hbar, edge_tol=edge_tol)
    return np.abs(evolved.values[m_lo : m_lo + x_grid.n]) ** 2


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


def simulate(
    params: SlitPairParams, grid: Grid2D, edge_tol: float = DEFAULT_EDGE_DECAY_TOL
) -> Tuple[WignerField, np.ndarray, np.ndarray]:
    """(field after flight, position density, momentum density) of the discrete engine on ``grid``.

    The field is psi's transform sheared by alpha. The position density is
    psi propagated on a widened grid, the momentum density the projection
    of the unsheared field, which free flight leaves invariant. ``grid`` is
    in raw units; every guard applies ``edge_tol``.
    """
    psi = sample_wavefunction(params, grid.x_axis)
    base = wigner_transform(psi, grid.p_axis, params.hbar, edge_tol=edge_tol)
    field = shear_field(base, params.alpha)
    x_density = _propagated_density(params, grid.x_axis, edge_tol)
    return field, x_density, field_marginal(base, "momentum", params.hbar).values
