"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.signal import find_peaks

from wigslits import (
    Grid1D,
    Grid2D,
    MarginalCurve,
    common_projection_interval,
    field_marginals,
    fringe_shift,
    momentum_marginal,
    momentum_wavefunction,
    normalized_params,
    position_marginal_propagated,
    propagate_free,
    sample_wavefunction,
    shear_field,
    single_slit_field,
    two_slit_field,
    wigner_transform,
    wigner_two_slit,
)
from wigslits.cli import main as cli_main

X_GRID = Grid1D(min=-12.0, max=12.0, n=512)
P_GRID = Grid1D(min=-4.0, max=4.0, n=512)
GRID = Grid2D(X_GRID, P_GRID)

WIDE_X = Grid1D(min=-64.0, max=64.0, n=2049)
# 127 p-points keep alpha*p off the x lattice, so the shear comparison
# exercises genuine linear interpolation rather than an exact resample
WIDE_P = Grid1D(min=-4.0, max=4.0, n=127)


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def standard_fields():
    """Numeric and closed-form fields for delta in {0, 4} on the 512x512 grid."""
    out = {}
    elapsed = 0.0
    for delta in (0.0, 4.0):
        params = normalized_params(delta=delta)
        psi = sample_wavefunction(params, X_GRID)
        t0 = time.perf_counter()
        numeric = wigner_transform(psi, P_GRID, 1.0)
        elapsed += time.perf_counter() - t0
        closed = wigner_two_slit(params, X_GRID.points()[:, None], P_GRID.points()[None, :])
        out[delta] = (psi, numeric, closed)
    out["elapsed"] = elapsed
    return out


@pytest.fixture(scope="module")
def flight_fields():
    """Wide-window fields before/after free flight at alpha = 6."""
    psi = sample_wavefunction(normalized_params(), WIDE_X)
    base = wigner_transform(psi, WIDE_P, 1.0)
    moved = propagate_free(psi, 6.0, 1.0)
    after = wigner_transform(moved, WIDE_P, 1.0)
    return psi, base, moved, after


def test_criterion_01_oracle_equivalence(standard_fields):
    worst = 0.0
    for delta in (0.0, 4.0):
        _, numeric, closed = standard_fields[delta]
        peak = np.abs(closed).max()
        worst = max(worst, np.max(np.abs(numeric.values - closed)) / peak)
    elapsed = standard_fields["elapsed"]
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(1, "oracle equivalence", ok, f"max err {worst:.2e} of peak, transforms took {elapsed:.2f}s")


def test_criterion_02_marginal_identities(standard_fields):
    worst = 0.0
    for delta in (0.0, 4.0):
        params = normalized_params(delta=delta)
        psi, numeric, closed_vals = standard_fields[delta]
        x_direct = np.abs(psi.values) ** 2
        p_direct = np.abs(momentum_wavefunction(psi, P_GRID, 1.0)) ** 2
        for field in (numeric, two_slit_field(params, GRID)):
            pos, mom = field_marginals(field, 1.0)
            worst = max(worst, np.max(np.abs(pos.values - x_direct)) / x_direct.max())
            worst = max(worst, np.max(np.abs(mom.values - p_direct)) / p_direct.max())
    ok = worst <= 1e-6
    _report(2, "marginal identities", ok, f"max err {worst:.2e} of peak, both engines")


def test_criterion_03_momentum_fringe_shift(standard_fields):
    expected = 4.0 * 1.0 / (2 * 5.0)  # delta hbar / (2 d)
    curves = {}
    for delta in (0.0, 4.0):
        params = normalized_params(delta=delta)
        closed = MarginalCurve("momentum", P_GRID, momentum_marginal(params, P_GRID.points()))
        derived = field_marginals(standard_fields[delta][1], 1.0)[1]
        curves[delta] = (closed, derived)
    shift_closed = fringe_shift(curves[4.0][0], curves[0.0][0])
    shift_derived = fringe_shift(curves[4.0][1], curves[0.0][1])
    err = max(abs(shift_closed - expected), abs(shift_derived - expected))
    ok = err <= 2e-3
    _report(3, "momentum AB shift", ok,
            f"closed {shift_closed:.6f}, field-derived {shift_derived:.6f}, expected {expected}")


def test_criterion_04_position_fringe_shift_after_flight():
    expected = 4.0 * 37.0 / 60.0  # delta x0^2 Delta^2 / (2 alpha d hbar)
    curves = {}
    for delta in (0.0, 4.0):
        params = normalized_params(alpha=6.0, delta=delta)
        closed = MarginalCurve(
            "position", X_GRID, position_marginal_propagated(params, X_GRID.points())
        )
        psi = sample_wavefunction(params, WIDE_X)
        moved = propagate_free(psi, 6.0, 1.0)
        numeric = MarginalCurve("position", WIDE_X, np.abs(moved.values) ** 2)
        curves[delta] = (closed, numeric)
    shift_closed = fringe_shift(curves[4.0][0], curves[0.0][0])
    shift_numeric = fringe_shift(curves[4.0][1], curves[0.0][1])
    err = max(abs(shift_closed - expected), abs(shift_numeric - expected))
    ok = err <= 2e-2
    _report(4, "position AB shift after flight", ok,
            f"closed {shift_closed:.5f}, propagated {shift_numeric:.5f}, expected {expected:.5f}")


def test_criterion_05_flux_periodicity():
    eps = 0.3
    x = X_GRID.points()[:, None]
    p = P_GRID.points()[None, :]
    lo = wigner_two_slit(normalized_params(delta=eps), x, p)
    hi = wigner_two_slit(normalized_params(delta=2 * math.pi + eps), x, p)
    analytic_diff = np.max(np.abs(hi - lo))

    f_lo = wigner_transform(sample_wavefunction(normalized_params(delta=eps), X_GRID), P_GRID, 1.0)
    f_hi = wigner_transform(
        sample_wavefunction(normalized_params(delta=2 * math.pi + eps), X_GRID), P_GRID, 1.0
    )
    numeric_diff = np.max(np.abs(f_hi.values - f_lo.values))
    ok = analytic_diff <= 1e-12 and numeric_diff <= 1e-9
    _report(5, "flux periodicity", ok,
            f"analytic diff {analytic_diff:.2e} (<=1e-12), numeric diff {numeric_diff:.2e} (<=1e-9)")


def test_criterion_06_momentum_density_flight_invariance(flight_fields):
    _, base, _, after = flight_fields
    before_curve = field_marginals(base, 1.0)[1]
    after_curve = field_marginals(after, 1.0)[1]
    err = np.max(np.abs(after_curve.values - before_curve.values)) / before_curve.values.max()
    ok = err <= 1e-8
    _report(6, "momentum density flight invariance", ok, f"max rel err {err:.2e}")


def test_criterion_07_shear_flight_commutation(flight_fields):
    _, base, _, after = flight_fields
    sheared = shear_field(base, 6.0)
    peak = np.abs(base.values).max()
    err = np.max(np.abs(sheared.values - after.values)) / peak
    ok = err <= 1e-3
    _report(7, "shear/flight commutation", ok, f"max err {err:.2e} of peak (interpolation bound 1e-3)")


def test_criterion_08_pattern_vs_fringes():
    at_rest = [single_slit_field(normalized_params(), GRID, s) for s in (1, -1)]
    in_flight = [single_slit_field(normalized_params(alpha=6.0), GRID, s) for s in (1, -1)]
    x_rest = common_projection_interval(*at_rest, "position")
    x_flight = common_projection_interval(*in_flight, "position")
    p_zero = common_projection_interval(*at_rest, "momentum")
    shifted = [single_slit_field(normalized_params(delta=4.0), GRID, s) for s in (1, -1)]
    p_four = common_projection_interval(*shifted, "momentum")
    ok = x_rest is None and x_flight is not None and p_zero == p_four and p_zero is not None
    _report(8, "pattern vs fringes separation", ok,
            f"x-interval at rest {x_rest}, in flight {x_flight}; p-interval phase-independent {p_zero == p_four}")


def test_criterion_09_resting_field_structure():
    params = normalized_params()
    field = two_slit_field(params, GRID)
    values = field.values
    peak = values.max()
    xs, ps = X_GRID.points(), P_GRID.points()

    # slit lobes: away from the oscillatory center, the profile along the
    # p ~ 0 row (P_GRID.n // 2, nearest p = 0) must carry exactly two
    # positive bumps, one per slit
    row = values[:, P_GRID.n // 2]
    peak_idx, _ = find_peaks(row, prominence=0.05 * row.max())
    lobe_x = [xs[i] for i in peak_idx if abs(xs[i]) > 2.5]
    lobes_ok = (
        len(lobe_x) == 2
        and lobe_x[0] == pytest.approx(-5.0, abs=0.1)
        and lobe_x[1] == pytest.approx(5.0, abs=0.1)
        and all(row[i] > 0 for i in peak_idx)
    )

    # interference term: strong negativity confined to the central region
    i_min, j_min = np.unravel_index(np.argmin(values), values.shape)
    min_ok = values.min() < -0.5 * peak and abs(xs[i_min]) < 2.5

    curve = momentum_marginal(params, ps)
    step = P_GRID.spacing
    zeros_ok = True
    for target in (math.pi / 10, -math.pi / 10):
        local = np.where(np.abs(ps - target) <= 0.25)[0]
        at = ps[local[np.argmin(curve[local])]]
        zeros_ok &= abs(at - target) <= step
    ok = lobes_ok and min_ok and zeros_ok
    _report(9, "resting field structure", ok,
            f"slit lobes at {[f'{v:.3f}' for v in lobe_x]}, field min {values.min()/peak:.3f} of peak "
            f"at X={xs[i_min]:.2f}, marginal zeros near +-pi/10: {zeros_ok}")


def test_criterion_10_cli_determinism_and_roundtrip(tmp_path, capsys):
    flags = ["--d", "5", "--nx", "64", "--np", "256"]
    runs = {}
    for delta in ("0", "4"):
        for attempt in ("a", "b"):
            out = tmp_path / f"d{delta}{attempt}"
            assert cli_main(["simulate", *flags, "--delta", delta, "--out", str(out)]) == 0
            runs[(delta, attempt)] = out
    identical = all(
        (runs[(d, "a")] / name).read_bytes() == (runs[(d, "b")] / name).read_bytes()
        for d in ("0", "4")
        for name in ("wigner.csv", "xmarginal.csv", "pmarginal.csv")
    )

    assert cli_main([
        "fringes",
        "--curve", str(runs[("4", "a")] / "pmarginal.csv"),
        "--reference", str(runs[("0", "a")] / "pmarginal.csv"),
    ]) == 0
    report = json.loads(capsys.readouterr().out)

    grid = Grid1D(min=-4.0, max=4.0, n=256)
    curve = MarginalCurve("momentum", grid, momentum_marginal(normalized_params(delta=4.0), grid.points()))
    ref = MarginalCurve("momentum", grid, momentum_marginal(normalized_params(), grid.points()))
    roundtrip = report["shift_vs_reference"] == fringe_shift(curve, ref)
    ok = identical and roundtrip
    _report(10, "CLI determinism and round-trip", ok,
            f"byte-identical reruns: {identical}; file/in-process shift match: {roundtrip}")
