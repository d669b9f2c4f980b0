import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wigslits.analytic
import wigslits.numeric
from wigslits import (
    ConventionViolationError,
    Grid1D,
    Grid2D,
    MarginalCurve,
    SampledWavefunction,
    SlitPairParams,
    TruncationError,
    WignerField,
    common_support_interval,
    field_marginal,
    field_marginals,
    fringe_shift,
    momentum_marginal,
    momentum_wavefunction,
    normalized_params,
    position_marginal_propagated,
    propagate_free,
    propagated_width,
    sample_wavefunction,
    shear_field,
    single_slit_field,
    single_slit_marginal,
    two_slit_field,
    wigner_single_slit,
    wigner_transform,
    wigner_two_slit,
    wigner_two_slit_propagated,
)

X_GRID = Grid1D(min=-12.0, max=12.0, n=512)
P_GRID = Grid1D(min=-4.0, max=4.0, n=512)
# lattices that contain 0 and +-5 exactly, for point probes
PROBE_X = Grid1D(min=-12.0, max=12.0, n=481)
PROBE_P = Grid1D(min=-4.0, max=4.0, n=161)


def _at(grid, value):
    """Index of the lattice point of ``grid`` nearest ``value``."""
    return int(np.argmin(np.abs(grid.points() - value)))


def _field_value_at(field, x, p):
    return field.values[_at(field.grid.x_axis, x), _at(field.grid.p_axis, p)]


# ---------------------------------------------------------------- sampling


def test_sample_wavefunction_values():
    psi = sample_wavefunction(normalized_params(), PROBE_X)
    i5 = _at(PROBE_X, 5.0)
    assert PROBE_X.points()[i5] == pytest.approx(5.0, abs=1e-12)  # 5 is on this lattice
    assert psi.values[i5] == pytest.approx(1.0 + math.exp(-50), abs=1e-12)
    i0 = _at(PROBE_X, 0.0)
    assert psi.values[i0] == pytest.approx(7.453306344157342e-06, abs=1e-18)


def test_sample_wavefunction_destructive_point():
    # at delta = pi the two phase factors are -i and +i: exact cancellation at x = 0
    psi = sample_wavefunction(normalized_params(delta=math.pi), PROBE_X)
    assert abs(psi.values[_at(PROBE_X, 0.0)]) < 1e-15


def test_sample_wavefunction_formula():
    params = normalized_params(delta=4.0)
    psi = sample_wavefunction(params, X_GRID)
    x = X_GRID.points()
    expect = (np.exp(-((x - 5.0) ** 2) / 2) * np.exp(-2j)
              + np.exp(-((x + 5.0) ** 2) / 2) * np.exp(2j))
    np.testing.assert_allclose(psi.values, expect, rtol=0, atol=1e-15)


# ---------------------------------------------------------------- momentum transform


def test_momentum_wavefunction_frozen_values():
    # oracle: Gaussian integral, phibar(p) = 2 x0 sqrt(2 pi) e^{-p^2 x0^2/2 hbar^2} cos(p d/hbar - delta/2)
    psi = sample_wavefunction(normalized_params(), X_GRID)
    small_p = Grid1D(min=-1.0, max=1.0, n=21)
    phibar = momentum_wavefunction(psi, small_p, 1.0)
    assert phibar[_at(small_p, 0.0)] == pytest.approx(5.0132565492620005, abs=1e-10)

    zero_grid = Grid1D(min=-math.pi / 10, max=math.pi / 10, n=3)
    phibar = momentum_wavefunction(psi, zero_grid, 1.0)
    assert abs(phibar[2]) < 1e-10

    psi4 = sample_wavefunction(normalized_params(delta=4.0), X_GRID)
    phibar4 = momentum_wavefunction(psi4, small_p, 1.0)
    assert phibar4[_at(small_p, 0.0)] == pytest.approx(-2.086250853774625, abs=1e-10)


def test_momentum_wavefunction_matches_slow_quadrature():
    psi = sample_wavefunction(normalized_params(delta=4.0), X_GRID)
    p_grid = Grid1D(min=-2.0, max=2.0, n=5)
    fast = momentum_wavefunction(psi, p_grid, 1.0)
    x = X_GRID.points()
    w = np.full(x.size, X_GRID.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    for j, p in enumerate(p_grid.points()):
        slow = np.sum(psi.values * np.exp(1j * x * p) * w)
        assert abs(fast[j] - slow) <= 1e-10 * max(abs(slow), 1.0)


def test_momentum_wavefunction_truncation_guard():
    narrow = Grid1D(min=-7.5, max=7.5, n=128)  # endpoint amplitude ~4.4e-2 of peak
    psi = sample_wavefunction(normalized_params(), narrow)
    with pytest.raises(TruncationError):
        momentum_wavefunction(psi, P_GRID, 1.0)


@pytest.mark.parametrize(
    "what, transform",
    [
        ("momentum transform", lambda psi: momentum_wavefunction(psi, P_GRID, 1.0)),
        ("Wigner transform", lambda psi: wigner_transform(psi, P_GRID, 1.0)),
        ("free propagation (input)", lambda psi: propagate_free(psi, 0.0, 1.0)),
    ],
    ids=["momentum", "wigner", "propagate-input"],
)
def test_edge_guard_tolerance_is_fixed_at_1e_10(what, transform):
    # a centred Gaussian (peak exactly 1 at x = 0) whose last sample is set
    # to the endpoint ratio: just below 1e-10 passes, 1e-10 itself is refused
    x = PROBE_X.points()

    def psi(edge):
        values = np.exp(-(x**2) / 2) + 0j
        values[-1] = edge
        assert np.abs(values).max() == 1.0
        return SampledWavefunction(grid=PROBE_X, values=values)

    transform(psi(0.99e-10))
    with pytest.raises(TruncationError, match=rf"^{re.escape(what)}: .* \(allowed < 1\.0e-10\); widen the grid$"):
        transform(psi(1e-10))


# ---------------------------------------------------------------- Wigner transform


@pytest.mark.parametrize("delta", [0.0, 4.0, 2 * math.pi + 4.0])
def test_wigner_transform_matches_closed_form(delta):
    params = normalized_params(delta=delta)
    psi = sample_wavefunction(params, X_GRID)
    field = wigner_transform(psi, P_GRID, 1.0)
    closed = wigner_two_slit(params, X_GRID.points()[:, None], P_GRID.points()[None, :])
    peak = np.abs(closed).max()
    assert np.max(np.abs(field.values - closed)) <= 1e-6 * peak


def test_wigner_transform_frozen_center_values():
    psi0 = sample_wavefunction(normalized_params(), PROBE_X)
    f0 = wigner_transform(psi0, PROBE_P, 1.0)
    assert _field_value_at(f0, 0.0, 0.0) == pytest.approx(7.089815403720527, abs=1e-9)

    psi4 = sample_wavefunction(normalized_params(delta=4.0), PROBE_X)
    f4 = wigner_transform(psi4, PROBE_P, 1.0)
    assert _field_value_at(f4, 0.0, 0.0) == pytest.approx(-4.634212611579674, abs=1e-9)
    assert f4.values.min() < 0  # interference term drives the field negative


def test_wigner_transform_single_gaussian_is_nonnegative():
    x = X_GRID.points()
    psi = SampledWavefunction(grid=X_GRID, values=np.exp(-((x - 5.0) ** 2) / 2) + 0j)
    field = wigner_transform(psi, P_GRID, 1.0)
    closed = (2 * math.sqrt(math.pi)
              * np.exp(-((x[:, None] - 5.0) ** 2)) * np.exp(-(P_GRID.points()[None, :] ** 2)))
    assert np.max(np.abs(field.values - closed)) <= 1e-9
    assert field.values.min() >= -1e-9 * field.values.max()


def test_wigner_transform_in_raw_units():
    # unit handling: slits at +-10 with x0 = 2 and hbar = 1/2
    params = SlitPairParams(x0=2.0, d=10.0, delta=1.0, hbar=0.5)
    x_grid = Grid1D(min=-24.0, max=24.0, n=512)
    p_grid = Grid1D(min=-1.0, max=1.0, n=128)
    psi = sample_wavefunction(params, x_grid)
    field = wigner_transform(psi, p_grid, params.hbar)
    closed = wigner_two_slit(params, x_grid.points()[:, None], p_grid.points()[None, :])
    assert np.max(np.abs(field.values - closed)) <= 1e-6 * np.abs(closed).max()


def test_wigner_transform_enforces_momentum_bandwidth():
    psi = sample_wavefunction(normalized_params(), X_GRID)
    too_wide = Grid1D(min=-40.0, max=40.0, n=64)  # beyond pi*hbar/(2 dx) ~ 33.4
    with pytest.raises(ValueError, match="bandwidth"):
        wigner_transform(psi, too_wide, 1.0)


def test_wigner_transform_catches_kernel_sign_flip(monkeypatch):
    # checking the field against phibar(-p) (the reference evaluated on the
    # mirrored momentum grid, read backwards) is the same comparison as
    # checking a flipped-kernel field against phibar(p); at delta = 4 the two
    # momentum densities differ
    original = wigslits.numeric.momentum_wavefunction

    def mirrored(psi, p_grid, hbar=1.0):
        return original(psi, Grid1D(min=-p_grid.max, max=-p_grid.min, n=p_grid.n), hbar)[::-1]

    monkeypatch.setattr(wigslits.numeric, "momentum_wavefunction", mirrored)
    psi = sample_wavefunction(normalized_params(delta=4.0), X_GRID)
    with pytest.raises(ConventionViolationError, match="phibar"):
        wigner_transform(psi, P_GRID, 1.0)


def test_wigner_transform_total_mass():
    # (1/2 pi hbar) * double integral of W equals the wavefunction norm
    x_grid = Grid1D(min=-14.0, max=14.0, n=700)
    p_grid = Grid1D(min=-5.0, max=5.0, n=640)
    psi = sample_wavefunction(normalized_params(delta=4.0), x_grid)
    field = wigner_transform(psi, p_grid, 1.0)
    mass = np.trapezoid(np.trapezoid(field.values, p_grid.points(), axis=1), x_grid.points())
    mass /= 2 * math.pi
    norm = np.trapezoid(np.abs(psi.values) ** 2, x_grid.points())
    assert mass == pytest.approx(norm, rel=1e-8)


def _dense_transforms(psi, p_grid, hbar):
    # the unblocked formulas, one n x n_p kernel each: the reference for p
    # blocks and phase tables. The kernels and sums are taken in long double,
    # since angles x p / hbar and 2 dx k p / hbar of hundreds of radians
    # rounded to double alone are off by ~1e-14 of peak at n ~ 500.
    ld = np.longdouble
    n, dx = psi.grid.n, ld(psi.grid.spacing)
    x, p = psi.grid.points().astype(ld), p_grid.points().astype(ld)
    weights = np.full(n, dx)
    weights[[0, -1]] *= 0.5
    phibar = (psi.values.astype(np.clongdouble) * weights) @ np.exp(1j * np.outer(x, p) / ld(hbar))
    half = (n + 1) // 2
    g = np.zeros((n, half), dtype=np.clongdouble)
    values = psi.values.astype(np.clongdouble)
    for k in range(half):
        g[k : n - k, k] = np.conj(values[: n - 2 * k]) * values[2 * k :]
    g[:, 0] *= 0.5
    theta = (2 * dx / ld(hbar)) * np.outer(np.arange(half, dtype=ld), p)
    return 4 * dx * (g.real @ np.cos(theta) - g.imag @ np.sin(theta)), phibar


def _assert_transforms_match_dense_formula(psi, p_grid, hbar):
    # within 1e-14 of peak of the dense formulas, and bit-identical on a rerun
    dense_w, dense_phibar = _dense_transforms(psi, p_grid, hbar)
    field = wigner_transform(psi, p_grid, hbar)
    phibar = momentum_wavefunction(psi, p_grid, hbar)
    assert np.max(np.abs(field.values - dense_w)) <= 1e-14 * np.abs(dense_w).max()
    assert np.max(np.abs(phibar - dense_phibar)) <= 1e-14 * np.abs(dense_phibar).max()

    assert np.array_equal(wigner_transform(psi, p_grid, hbar).values, field.values)
    assert np.array_equal(momentum_wavefunction(psi, p_grid, hbar), phibar)


BLOCK = wigslits.numeric._P_BLOCK


@pytest.mark.parametrize("n_p", [BLOCK // 2, BLOCK, BLOCK + 1, 2 * BLOCK + BLOCK // 3])
def test_blocked_transforms_match_dense_formula(n_p):
    # below, at, one past and not a multiple of the block size
    params = SlitPairParams(x0=1.0, d=5.0, delta=4.0, hbar=0.5)
    x_grid = Grid1D(min=-12.0, max=12.0, n=300)
    p_grid = Grid1D(min=-2.0, max=2.0, n=n_p)
    psi = sample_wavefunction(params, x_grid)
    _assert_transforms_match_dense_formula(psi, p_grid, params.hbar)


SPLIT = wigslits.numeric._TABLE_SPLIT


@pytest.mark.parametrize(
    "n",
    [SPLIT - 1, SPLIT, SPLIT + 1, 2 * SPLIT - 1, 2 * SPLIT + 1, 4 * SPLIT + 1, 12 * SPLIT + 3, 16 * SPLIT + 3],
)
def test_phase_tables_match_dense_formula(n):
    # sample counts (momentum tables) and lag counts ceil(n/2) (Wigner
    # tables) below, at and past the table split, and one past a multiple;
    # the last two are no multiple of the row bands, so their reaches
    # differ, and the largest reaches angles of ~700 rad. About the split
    # x0 = 1 aliases the lag lattice (5e-3 to 9e-3 of peak) and is refused;
    # wide slits (x0 = 1.6) and p to 0.6 of the bandwidth are resolved there
    x_grid = Grid1D(min=-12.0, max=12.0, n=n)
    bandwidth = math.pi / (2 * x_grid.spacing)
    p_grid = Grid1D(min=-0.9 * bandwidth, max=0.9 * bandwidth, n=97)
    psi = sample_wavefunction(normalized_params(delta=4.0), x_grid)
    if n <= SPLIT + 1:
        with pytest.raises(ConventionViolationError, match="x grid too coarse"):
            wigner_transform(psi, p_grid, 1.0)
        p_grid = Grid1D(min=-0.6 * bandwidth, max=0.6 * bandwidth, n=97)
        psi = sample_wavefunction(SlitPairParams(x0=1.6, d=1.0, delta=4.0), x_grid)
    _assert_transforms_match_dense_formula(psi, p_grid, 1.0)


def test_row_bands_outnumbering_rows_are_skipped(monkeypatch):
    # with more bands than rows most bands are empty; the rest still give the dense field
    monkeypatch.setattr(wigslits.numeric, "_ROW_BANDS", 3 * SPLIT)
    test_phase_tables_match_dense_formula(SPLIT + 1)


def test_momentum_wavefunction_matches_gaussian_integral_across_the_band():
    # phibar(p) = 2 x0 sqrt(2 pi) e^{-p^2 x0^2/2 hbar^2} cos(p d/hbar - delta/2) on a
    # wide window, out to 0.9 of the lag-lattice bandwidth, where the phases are largest
    x_grid = Grid1D(min=-40.0, max=40.0, n=1024)
    p_max = 0.9 * math.pi / (2 * x_grid.spacing)
    p_grid = Grid1D(min=-p_max, max=p_max, n=1024)
    phibar = momentum_wavefunction(sample_wavefunction(normalized_params(delta=4.0), x_grid), p_grid, 1.0)
    p = p_grid.points()
    closed = 2 * math.sqrt(2 * math.pi) * np.exp(-(p**2) / 2) * np.cos(5.0 * p - 2.0)
    assert np.max(np.abs(phibar - closed)) <= 1e-14 * np.abs(closed).max()


def _traced_peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transforms_hold_no_dense_kernel():
    # dense n x n_p kernels peak at 4x the field in the momentum transform
    # (complex exp and its argument) and 6.5x in the Wigner transform; p
    # blocks and phase tables leave 0.08x (two short tables per block) and
    # 1.44x (the field, one complex kernel block, one row band's lag products)
    n = 1024
    grid = Grid1D(min=-12.0, max=12.0, n=n)
    p_grid = Grid1D(min=-4.0, max=4.0, n=n)
    psi = sample_wavefunction(normalized_params(delta=4.0), grid)
    field_bytes = n * n * np.dtype(float).itemsize
    assert _traced_peak_bytes(lambda: wigner_transform(psi, p_grid, 1.0)) <= 1.6 * field_bytes
    assert _traced_peak_bytes(lambda: momentum_wavefunction(psi, p_grid, 1.0)) <= 0.75 * field_bytes


# In a fresh interpreter: a first 1024² transform, dropped, lifts glibc's mmap
# threshold past one field, so the next fields come from the heap; then a
# transform and its shear are held and the heap's free bytes printed. The
# transform's field allocated after its 3 MiB of kernel and lag band leaves
# them as a hole under it (3.8 MiB free); allocated first, 0.8 MiB.
_HEAP_SCRIPT = """
import ctypes
from wigslits import Grid1D, normalized_params, sample_wavefunction, shear_field, wigner_transform

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
grid, p_grid = Grid1D(min=-12.0, max=12.0, n=1024), Grid1D(min=-4.0, max=4.0, n=1024)
wigner_transform(sample_wavefunction(normalized_params(), grid), p_grid)
field = wigner_transform(sample_wavefunction(normalized_params(delta=4.0), grid), p_grid)
sheared = shear_field(field, 6.0)
print(mallinfo2().fordblks)
"""


_LIBC, _LIBC_VERSION = platform.libc_ver()


@pytest.mark.skipif(
    _LIBC != "glibc" or tuple(map(int, _LIBC_VERSION.split(".")[:2])) < (2, 33),
    reason="mallinfo2 is glibc's, from 2.33",
)
def test_transform_scratch_leaves_no_hole_under_its_field():
    src = str(Path(wigslits.numeric.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _HEAP_SCRIPT], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2 * 2**20


FLIGHT = normalized_params(alpha=6.0, delta=4.0)


@pytest.mark.parametrize(
    "bound, produce",
    [
        (1.25, lambda base, x, p: wigner_two_slit(FLIGHT, x, p)),
        (1.5, lambda base, x, p: wigner_two_slit_propagated(FLIGHT, x, p)),
        (1.5, lambda base, x, p: two_slit_field(FLIGHT, base.grid)),
        (1.5, lambda base, x, p: single_slit_field(FLIGHT, base.grid, -1)),
        (1.25, lambda base, x, p: shear_field(base, 6.0)),
    ],
    ids=["wigner_two_slit", "wigner_two_slit_propagated", "two_slit_field", "single_slit_field", "shear_field"],
)
def test_phase_space_producer_holds_one_field(bound, produce):
    # each producer holds its output plus O(block) scratch, and WignerField
    # adopts that output uncopied
    n = 1024
    grid = Grid2D(Grid1D(min=-12.0, max=12.0, n=n), Grid1D(min=-4.0, max=4.0, n=n))
    base = two_slit_field(normalized_params(delta=4.0), grid)
    x = grid.x_axis.points()[:, None]
    p = grid.p_axis.points()[None, :]
    field_bytes = n * n * np.dtype(float).itemsize
    assert _traced_peak_bytes(lambda: produce(base, x, p)) <= bound * field_bytes


def test_interference_term_is_localized_between_the_slits():
    # pair field minus the two single-slit fields leaves only the
    # oscillatory midpoint term; beyond |x| >= 5 x0 it is negligible
    x = X_GRID.points()
    pair = wigner_transform(sample_wavefunction(normalized_params(), X_GRID), P_GRID, 1.0)
    g1 = SampledWavefunction(grid=X_GRID, values=np.exp(-((x - 5.0) ** 2) / 2) + 0j)
    g2 = SampledWavefunction(grid=X_GRID, values=np.exp(-((x + 5.0) ** 2) / 2) + 0j)
    w1 = wigner_transform(g1, P_GRID, 1.0)
    w2 = wigner_transform(g2, P_GRID, 1.0)
    cross = pair.values - w1.values - w2.values
    peak = np.abs(pair.values).max()
    outer = np.abs(x) >= 5.0
    assert np.max(np.abs(cross[outer, :])) <= 1e-9 * peak
    # and it is genuinely present at the midpoint
    assert np.max(np.abs(cross[~outer, :])) > 0.1 * peak


def _beam(params, slit, grid=X_GRID):
    # one slit's term of sample_wavefunction, with its e^{-+i delta/2} factor
    x = grid.points()
    values = np.exp(-((x - slit * params.d) ** 2) / (2 * params.x0**2)) * np.exp(-slit * 1j * params.delta / 2)
    return SampledWavefunction(grid=grid, values=values)


@pytest.mark.parametrize("delta", [0.0, 1.3, 4.0])
def test_discrete_field_splits_into_beams_and_interference_term(delta):
    # The lag product is bilinear, so W(psi) - W(psi+) - W(psi-) is exactly
    # the cross-Wigner term 2 Re W12 (Hillery, O'Connell, Scully & Wigner,
    # Phys. Rep. 106, 121 (1984)): the fringe shift lives there, while each
    # beam's field carries no trace of delta.
    params = normalized_params(delta=delta)
    x, p = X_GRID.points()[:, None], P_GRID.points()[None, :]
    peak = np.abs(wigner_two_slit(params, x, p)).max()
    pair = wigner_transform(sample_wavefunction(params, X_GRID), P_GRID, params.hbar).values
    beams = {s: wigner_transform(_beam(params, s), P_GRID, params.hbar).values for s in (1, -1)}

    x0, d, hbar = params.x0, params.d, params.hbar
    cross = (
        2 * x0 * math.sqrt(math.pi) * np.exp(-((p * x0 / hbar) ** 2))
        * 2 * np.exp(-((x / x0) ** 2)) * np.cos(2 * p * d / hbar - delta)
    )
    assert np.max(np.abs(pair - beams[1] - beams[-1] - cross)) <= 1e-6 * peak
    for slit, beam in beams.items():
        assert np.max(np.abs(beam - wigner_single_slit(params, x, p, slit))) <= 1e-6 * peak
        unphased = wigner_transform(_beam(normalized_params(), slit), P_GRID, params.hbar).values
        assert np.max(np.abs(beam - unphased)) <= 1e-12 * peak


@pytest.mark.parametrize("delta", [1.3, 4.0])
def test_fringe_shift_lives_in_the_discrete_interference_term(delta):
    # The abstract's first claim on the discrete engine: the momentum
    # projection of the interference term W(psi) - W(psi+) - W(psi-) moves
    # by delta hbar / (2 d) (criterion 03), while the beam projections do
    # not move at all. The term's projection is signed, so the delta-free
    # beam projections are added back to make a density curve.
    weights = wigslits.numeric._trapezoid_weights(X_GRID)

    def projections(phase):
        params = normalized_params(delta=phase)
        pair = wigner_transform(sample_wavefunction(params, X_GRID), P_GRID, params.hbar).values
        beams = [wigner_transform(_beam(params, s), P_GRID, params.hbar).values for s in (1, -1)]
        return weights @ (pair - beams[0] - beams[1]), [weights @ beam for beam in beams]

    cross, beams = projections(delta)
    cross_ref, beams_ref = projections(0.0)
    for beam, beam_ref in zip(beams, beams_ref):
        assert np.max(np.abs(beam - beam_ref)) <= 1e-12 * beam_ref.max()
    curve, reference = (MarginalCurve("momentum", P_GRID, c + sum(beams_ref)) for c in (cross, cross_ref))
    assert fringe_shift(curve, reference) == pytest.approx(delta * 1.0 / (2 * 5.0), abs=2e-3)


def test_sheared_interference_term_moves_the_position_comb():
    # The abstract's first claim after flight, on the discrete engine: the
    # interference term W(psi) - W(psi+) - W(psi-), sheared by alpha = 6 and
    # projected on x, moves by delta x0^2 X^2 / (2 alpha d hbar) (criterion
    # 04), while the sheared beam projections do not move. The window holds
    # the sheared field (|x - alpha p| <= 8 for |p| <= 4), alpha dp / dx = 1
    # makes the shear whole-row copies, and the comb is read on |x| <= 12.
    alpha, delta = 6.0, 4.0
    x_grid = Grid1D(min=-40.0, max=40.0, n=1001)
    p_grid = Grid1D(min=-4.0, max=4.0, n=601)
    weights = wigslits.numeric._trapezoid_weights(p_grid) / (2 * math.pi)

    def projection(values):
        return shear_field(WignerField(Grid2D(x_grid, p_grid), values), alpha).values @ weights

    def projections(phase):
        params = normalized_params(delta=phase)
        pair = wigner_transform(sample_wavefunction(params, x_grid), p_grid, params.hbar).values
        beams = [wigner_transform(_beam(params, s, x_grid), p_grid, params.hbar).values for s in (1, -1)]
        return projection(pair - beams[0] - beams[1]), [projection(beam) for beam in beams]

    cross, beams = projections(delta)
    cross_ref, beams_ref = projections(0.0)
    for beam, beam_ref in zip(beams, beams_ref):
        assert np.max(np.abs(beam - beam_ref)) <= 1e-12 * beam_ref.max()
    lo, hi = _at(x_grid, -12.0), _at(x_grid, 12.0)
    window = Grid1D(min=x_grid.points()[lo], max=x_grid.points()[hi], n=hi - lo + 1)
    curve, reference = (
        MarginalCurve("position", window, (c + sum(beams_ref))[lo : hi + 1]) for c in (cross, cross_ref)
    )
    x0, d, hbar, big = 1.0, 5.0, 1.0, math.sqrt(37.0)
    expected = delta * x0**2 * big**2 / (2 * alpha * d * hbar)  # 4 * 37 / 60
    assert fringe_shift(curve, reference) == pytest.approx(expected, abs=2e-2)


@pytest.mark.parametrize("n", [385, 512])
@pytest.mark.parametrize("axis", ["position", "momentum"])
@pytest.mark.parametrize("alpha", [0.0, 3.0])
def test_pattern_interval_from_the_discrete_beams(alpha, axis, n):
    # The abstract's second claim on the discrete engine: the pattern is
    # fixed by the two beams' common projections. The delta-free beams' own
    # densities, |psi_s|^2 after flight and |phibar_s|^2, give the interval
    # of the closed-form single-slit projections bit for bit.
    params = normalized_params(alpha=alpha)
    x_grid = Grid1D(min=-12.0, max=12.0, n=n)
    grid = x_grid if axis == "position" else Grid1D(min=-4.0, max=4.0, n=n)
    if axis == "position":
        # widened by whole steps to hold the spread packets (5 + 8 X ~ 30.3
        # at alpha = 3), propagated, then cropped back to the window
        h = x_grid.spacing
        pad = math.ceil(24.0 / h)
        wide = Grid1D(min=x_grid.min - pad * h, max=x_grid.max + pad * h, n=n + 2 * pad)
        beams = (propagate_free(_beam(normalized_params(), s, wide), alpha, 1.0) for s in (1, -1))
        densities = [np.abs(beam.values[pad : pad + n]) ** 2 for beam in beams]
    else:
        beams = (_beam(normalized_params(), s, x_grid) for s in (1, -1))
        densities = [np.abs(momentum_wavefunction(beam, grid, 1.0)) ** 2 for beam in beams]
    discrete = [MarginalCurve(axis, grid, v) for v in densities]
    closed = [MarginalCurve(axis, grid, single_slit_marginal(params, axis, grid.points(), s)) for s in (1, -1)]

    interval = common_support_interval(*discrete)
    assert interval == common_support_interval(*closed)
    # e^{-(u/w)^2} >= e^-9 for |u| <= 3w: |p| <= 3 hbar/x0, and |x -+ d| <= 3 X
    reach = 3.0 if axis == "momentum" else 3 * propagated_width(params) - params.d
    if reach < 0:
        assert interval is None
    else:
        assert interval == pytest.approx((-reach, reach), abs=grid.spacing)


# ---------------------------------------------------------------- propagation

WIDE_GRID = Grid1D(min=-64.0, max=64.0, n=2049)  # odd count keeps 0 on the lattice


def test_propagate_identity_at_alpha_zero():
    psi = sample_wavefunction(normalized_params(), X_GRID)
    out = propagate_free(psi, 0.0, 1.0)
    np.testing.assert_allclose(out.values, psi.values, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "delta, expected",
    [(0.0, 0.3345930469341815), (4.0, 0.057944218110167325)],
)
def test_propagate_frozen_center_density(delta, expected):
    # oracle: closed-form propagated marginal, itself checked by quadrature
    psi = sample_wavefunction(normalized_params(delta=delta), WIDE_GRID)
    out = propagate_free(psi, 6.0, 1.0)
    i0 = _at(WIDE_GRID, 0.0)
    assert abs(out.values[i0]) ** 2 == pytest.approx(expected, abs=1e-10)


def test_propagate_matches_closed_marginal_everywhere():
    params = normalized_params(alpha=6.0, delta=4.0)
    psi = sample_wavefunction(params, WIDE_GRID)
    out = propagate_free(psi, 6.0, 1.0)
    closed = position_marginal_propagated(params, WIDE_GRID.points())
    assert np.max(np.abs(np.abs(out.values) ** 2 - closed)) <= 1e-10 * closed.max()


def test_propagate_truncation_guard():
    psi = sample_wavefunction(normalized_params(), X_GRID)
    # the packet spreads far beyond [-12, 12] at alpha = 6
    with pytest.raises(TruncationError):
        propagate_free(psi, 6.0, 1.0)
    with pytest.raises(ValueError):
        propagate_free(psi, -1.0, 1.0)
    with pytest.warns(RuntimeWarning):
        propagate_free(psi, 6.0, 1.0, on_truncation="warn")


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_propagate_free_refuses_non_finite_alpha(alpha):
    # nan and inf pass an alpha < 0 test; without a finite check they would
    # end as a non-finite wavefunction rather than a named refusal
    psi = sample_wavefunction(normalized_params(), WIDE_GRID)
    with pytest.raises(ValueError, match="alpha must be finite"):
        propagate_free(psi, alpha, 1.0)


def test_propagate_free_refuses_a_phase_past_the_float_range():
    # alpha * p_max**2 overflows although alpha is finite; the refusal comes
    # before any transform
    psi = sample_wavefunction(normalized_params(), Grid1D(-12.0, 12.0, 64))
    with pytest.raises(ValueError, match=r"^free-flight phase alpha\*p\*\*2/\(2\*hbar\) is not finite"):
        propagate_free(psi, 1e308)


_HBAR_CALLS = {
    "momentum_wavefunction": lambda psi, field, hbar: momentum_wavefunction(psi, P_GRID, hbar),
    "wigner_transform": lambda psi, field, hbar: wigner_transform(psi, P_GRID, hbar),
    "propagate_free": lambda psi, field, hbar: propagate_free(psi, 1.0, hbar),
    "field_marginal": lambda psi, field, hbar: field_marginal(field, "momentum", hbar),
    "field_marginals": lambda psi, field, hbar: field_marginals(field, hbar),
}


@pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", list(_HBAR_CALLS))
def test_numeric_functions_refuse_an_hbar_that_is_not_finite_and_positive(call, hbar):
    # unchecked, hbar = 0 divided by zero, -1 gave phibar(-p) or a negative
    # marginal, and nan or inf ended in a numpy warning or a refusal naming the
    # x grid; the momentum marginal, which does not use hbar, took any value
    psi = sample_wavefunction(normalized_params(), X_GRID)
    field = WignerField(Grid2D(X_GRID, P_GRID), np.ones((X_GRID.n, P_GRID.n)))
    with pytest.raises(ValueError, match=r"^hbar must be (finite|> 0), got"):
        _HBAR_CALLS[call](psi, field, hbar)


def test_all_zero_wavefunction_passes_the_edge_check():
    # no peak to measure the edges against: the guard lets it through
    psi = SampledWavefunction(grid=X_GRID, values=np.zeros(X_GRID.n))
    assert not momentum_wavefunction(psi, P_GRID, 1.0).any()


def test_propagate_free_rejects_unknown_truncation_action():
    # the action is validated even when the window has decayed and no guard trips
    psi = sample_wavefunction(normalized_params(), WIDE_GRID)
    with pytest.raises(ValueError, match="on_truncation"):
        propagate_free(psi, 6.0, 1.0, on_truncation="raise")


def test_momentum_density_is_flight_invariant():
    p_grid = Grid1D(min=-4.0, max=4.0, n=129)
    psi = sample_wavefunction(normalized_params(delta=4.0), WIDE_GRID)
    before = field_marginals(wigner_transform(psi, p_grid, 1.0), 1.0)[1]
    after = field_marginals(wigner_transform(propagate_free(psi, 6.0, 1.0), p_grid, 1.0), 1.0)[1]
    assert np.max(np.abs(after.values - before.values)) <= 1e-8 * before.values.max()


# ---------------------------------------------------------------- shear


def test_shear_identity_and_fixed_row():
    params = normalized_params(delta=4.0)
    field = two_slit_field(params, Grid2D(PROBE_X, PROBE_P))
    same = shear_field(field, 0.0)
    np.testing.assert_array_equal(same.values, field.values)
    sheared = shear_field(field, 6.0)
    j0 = _at(PROBE_P, 0.0)
    assert abs(PROBE_P.points()[j0]) < 1e-12
    np.testing.assert_allclose(sheared.values[:, j0], field.values[:, j0], rtol=0, atol=1e-12)


def test_shear_zero_fills_outside_the_grid():
    grid = Grid2D(Grid1D(min=-1.0, max=1.0, n=5), Grid1D(min=-1.0, max=1.0, n=3))
    field = WignerField(grid=grid, values=np.ones((5, 3)))
    sheared = shear_field(field, 10.0)
    assert sheared.values[0, 0] == 0.0  # pulled from x + 10, far outside
    np.testing.assert_array_equal(sheared.values[:, 1], np.ones(5))  # p = 0 row


def _interp_shear(field, alpha):
    # the reference: one np.interp per p column
    x, p = field.grid.x_axis.points(), field.grid.p_axis.points()
    columns = [np.interp(x - alpha * pj, x, field.values[:, j], left=0.0, right=0.0) for j, pj in enumerate(p)]
    return np.stack(columns, axis=1)


def test_shear_refuses_non_finite_alpha_and_empties_far_columns():
    grid = Grid2D(Grid1D(min=-1.0, max=1.0, n=5), Grid1D(min=-1.0, max=1.0, n=3))
    field = WignerField(grid=grid, values=np.arange(1.0, 16.0).reshape(5, 3))
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            shear_field(field, alpha)
    far = shear_field(field, 1e300)  # shifts of 2e300 rows: every column but p = 0 leaves the grid
    expected = np.zeros((5, 3))
    expected[:, 1] = field.values[:, 1]
    np.testing.assert_array_equal(far.values, expected)
    # backwards and off the lattice (alpha dp / dx = 8.11...), the same linear interpolation
    closed = two_slit_field(normalized_params(delta=4.0), Grid2D(X_GRID, Grid1D(min=-4.0, max=4.0, n=127)))
    back = shear_field(closed, -6.0).values
    assert np.max(np.abs(back - _interp_shear(closed, -6.0))) <= 1e-14 * np.abs(closed.values).max()


def test_aligned_shear_is_an_exact_lattice_shift():
    # on the default window alpha dp / dx = 2 at alpha = 6, so column j moves by
    # m_j = 2 j - (n - 1) whole rows and is copied bit for bit, zero-filled
    base = two_slit_field(normalized_params(delta=4.0), Grid2D(X_GRID, P_GRID))
    n = X_GRID.n
    shifts = 2 * np.arange(P_GRID.n) - (n - 1)
    sheared = shear_field(base, 6.0).values
    for j, m in enumerate(shifts):
        padded = np.concatenate([np.zeros(n), base.values[:, j], np.zeros(n)])
        np.testing.assert_array_equal(sheared[:, j], padded[n - m : 2 * n - m])
    # shearing back restores every sample that stayed on the grid, bit for bit
    restored = shear_field(WignerField(grid=base.grid, values=sheared), -6.0).values
    stayed = (0 <= np.arange(n)[:, None] + shifts) & (np.arange(n)[:, None] + shifts < n)
    np.testing.assert_array_equal(restored[stayed], base.values[stayed])
    np.testing.assert_array_equal(restored[~stayed], 0.0)


def test_shear_of_initial_field_matches_wigner_of_propagated_wavefunction():
    # the central cross-check: shear after transform == transform after flight,
    # to within the linear-interpolation error of the shear (127 p-points keep
    # alpha*p off the x lattice, so interpolation really happens)
    params = normalized_params()
    p_grid = Grid1D(min=-4.0, max=4.0, n=127)
    psi = sample_wavefunction(params, WIDE_GRID)
    base = wigner_transform(psi, p_grid, 1.0)
    sheared = shear_field(base, 6.0)
    direct = wigner_transform(propagate_free(psi, 6.0, 1.0), p_grid, 1.0)
    peak = np.abs(base.values).max()
    assert np.max(np.abs(sheared.values - direct.values)) <= 1e-3 * peak


def test_sheared_closed_form_matches_propagated_transform():
    # same comparison, seeded from the closed-form field
    params = normalized_params()
    p_grid = Grid1D(min=-4.0, max=4.0, n=127)
    closed = two_slit_field(params, Grid2D(WIDE_GRID, p_grid))
    sheared = shear_field(closed, 6.0)
    psi = sample_wavefunction(params, WIDE_GRID)
    direct = wigner_transform(propagate_free(psi, 6.0, 1.0), p_grid, 1.0)
    peak = np.abs(closed.values).max()
    assert np.max(np.abs(sheared.values - direct.values)) <= 1e-3 * peak


# ---------------------------------------------------------------- engines

# criterion 07's x spacing and off-lattice p count, so that at alpha = 6 the
# numeric engine's shear really interpolates
ENGINE_GRID = Grid2D(Grid1D(min=-12.0, max=12.0, n=385), Grid1D(min=-4.0, max=4.0, n=127))


@pytest.mark.parametrize("alpha", [0.0, 6.0])
@pytest.mark.parametrize("engine", [wigslits.analytic, wigslits.numeric], ids=["analytic", "numeric"])
def test_engine_simulate_contract(engine, alpha):
    # both engines return the field after flight on the grid passed in and
    # the two densities on its axes, within the CLI tests' bounds (1e-8 of
    # peak in x, 1e-10 in p) and criterion 07's shear bound of the closed forms
    params = normalized_params(alpha=alpha, delta=4.0)
    field, x_density, p_density = engine.simulate(params, ENGINE_GRID)
    assert field.grid == ENGINE_GRID
    assert x_density.shape == (ENGINE_GRID.x_axis.n,) and p_density.shape == (ENGINE_GRID.p_axis.n,)
    x, p = ENGINE_GRID.x_axis.points(), ENGINE_GRID.p_axis.points()
    closed = wigner_two_slit_propagated(params, x[:, None], p[None, :])
    assert np.max(np.abs(field.values - closed)) <= 1e-3 * np.abs(closed).max()
    x_closed, p_closed = position_marginal_propagated(params, x), momentum_marginal(params, p)
    assert np.max(np.abs(x_density - x_closed)) <= 1e-8 * x_closed.max()
    assert np.max(np.abs(p_density - p_closed)) <= 1e-10 * p_closed.max()


@pytest.mark.xfail(strict=True, reason="ROADMAP direction 1: the shear interpolates off-lattice columns linearly")
@pytest.mark.parametrize("nx, n_p", [(97, 101), (128, 64)])
def test_numeric_field_after_flight_is_the_closed_form_off_the_lattice(nx, n_p):
    # alpha dp / dx is not an integer on these grids; the gate is 1e-11 of the closed form's peak
    params = normalized_params(alpha=6.0, delta=4.0)
    grid = Grid2D(Grid1D(min=-12.0, max=12.0, n=nx), Grid1D(min=-4.0, max=4.0, n=n_p))
    closed = wigslits.analytic.simulate(params, grid)[0].values
    field = wigslits.numeric.simulate(params, grid)[0].values
    assert np.max(np.abs(field - closed)) <= 1e-11 * np.abs(closed).max()


def test_widened_grid_budget_counts_80_bytes_a_point(monkeypatch):
    # the default alpha = 6 x window widens to 2,288 points for the position
    # density: admitted at a budget of exactly 80 bytes a point, refused one
    # byte below it before psi is sampled
    params, x_grid = normalized_params(alpha=6.0), Grid1D(min=-12.0, max=12.0, n=512)
    monkeypatch.setattr(wigslits.numeric, "_SCRATCH_BUDGET", 80 * 2288)
    assert wigslits.numeric._widened_grid(params, x_grid)[0].n == 2288
    monkeypatch.setattr(wigslits.numeric, "_SCRATCH_BUDGET", 80 * 2288 - 1)
    monkeypatch.setattr(wigslits.numeric, "sample_wavefunction", None)  # a call would raise TypeError
    with pytest.raises(ValueError, match=r"needs 2288 points .* for d=5\.0, x0=1\.0, alpha=6\.0$"):
        wigslits.numeric._widened_grid(params, x_grid)


def test_wigner_transform_sizes_its_scratch_before_allocating(monkeypatch):
    # at n = 64 the lags run to L = 32 and the largest of the 8 row bands is 8
    # rows reaching 32 lags: 16 * (8 * 32 + 64 * 32) = 36,864 bytes of lag
    # band and kernel for 64 momenta. Admitted at exactly that budget, refused
    # one byte below it before the momentum transform runs
    psi = sample_wavefunction(normalized_params(delta=4.0), Grid1D(min=-12.0, max=12.0, n=64))
    p_grid = Grid1D(min=-4.0, max=4.0, n=64)
    monkeypatch.setattr(wigslits.numeric, "_SCRATCH_BUDGET", 36_864)
    field = wigner_transform(psi, p_grid, 1.0)
    monkeypatch.setattr(wigslits.numeric, "_SCRATCH_BUDGET", 36_863)
    monkeypatch.setattr(wigslits.numeric, "momentum_wavefunction", None)  # a call would raise TypeError
    with pytest.raises(ValueError, match=r"^Wigner transform needs 36864 bytes .* against a budget of 36863$"):
        wigner_transform(psi, p_grid, 1.0)
    assert field.values.shape == (64, 64)


# ---------------------------------------------------------------- marginals


def test_field_marginals_match_direct_densities():
    params = normalized_params(delta=4.0)
    psi = sample_wavefunction(params, PROBE_X)
    field = wigner_transform(psi, PROBE_P, 1.0)
    pos, mom = field_marginals(field, 1.0)
    np.testing.assert_allclose(
        pos.values, np.abs(psi.values) ** 2, rtol=0, atol=1e-6 * np.abs(psi.values).max() ** 2
    )
    closed = momentum_marginal(params, PROBE_P.points())
    np.testing.assert_allclose(mom.values, closed, rtol=0, atol=1e-6 * closed.max())
    j0 = _at(PROBE_P, 0.0)
    assert mom.values[j0] == pytest.approx(momentum_marginal(params, PROBE_P.points()[j0]), rel=1e-7)
    i5 = _at(PROBE_X, 5.0)
    assert pos.values[i5] == pytest.approx(1.0, abs=1e-6)


def test_field_marginals_zero_field():
    grid = Grid2D(Grid1D(min=-1.0, max=1.0, n=8), Grid1D(min=-1.0, max=1.0, n=8))
    pos, mom = field_marginals(WignerField(grid=grid, values=np.zeros((8, 8))), 1.0)
    assert not pos.values.any()
    assert not mom.values.any()


def test_field_marginals_reject_significant_negatives():
    grid = Grid2D(Grid1D(min=-1.0, max=1.0, n=8), Grid1D(min=-1.0, max=1.0, n=8))
    values = np.ones((8, 8))
    values[:, 3] = -2.0  # drives the momentum marginal negative
    with pytest.raises(ConventionViolationError):
        field_marginals(WignerField(grid=grid, values=values), 1.0)


def test_field_marginals_clamp_roundoff_negatives():
    grid = Grid2D(Grid1D(min=-1.0, max=1.0, n=4), Grid1D(min=-1.0, max=1.0, n=4))
    values = np.full((4, 4), 1.0)
    values[0, :] = -1e-13  # one slightly negative x row
    pos, _ = field_marginals(WignerField(grid=grid, values=values), 1.0)
    assert pos.values[0] == 0.0
