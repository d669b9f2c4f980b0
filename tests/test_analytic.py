import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

import wigslits.analytic
from wigslits import (
    FluxSpec,
    Grid1D,
    Grid2D,
    PulseSeries,
    SlitPairParams,
    momentum_marginal,
    normalized_params,
    phase_from_flux,
    phase_from_magnetic_pulses,
    phase_from_voltage_pulses,
    position_marginal_propagated,
    propagated_width,
    single_slit_field,
    single_slit_marginal,
    two_slit_field,
    wigner_single_slit,
    wigner_two_slit,
    wigner_two_slit_propagated,
)


def _psi(x, params):
    # two-slit wavefunction written out locally so the oracle side does not
    # depend on the code under test
    return (np.exp(-((x - params.d) ** 2) / (2 * params.x0**2)) * np.exp(-1j * params.delta / 2)
            + np.exp(-((x + params.d) ** 2) / (2 * params.x0**2)) * np.exp(1j * params.delta / 2))


def _wigner_lag_quadrature(params, x, p):
    """Brute-force lag integral of conj(psi(x-u/2)) psi(x+u/2) exp(i p u / hbar)."""
    def integrand_re(u):
        g = np.conj(_psi(x - u / 2, params)) * _psi(x + u / 2, params)
        return (g * np.exp(1j * p * u / params.hbar)).real

    val, err = quad(integrand_re, -40, 40, limit=400, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    return val


# ---------------------------------------------------------------- Wigner closed form

# frozen from the lag-integral quadrature oracle above (see also the direct
# cross-check test); the delta=4 value shows the interference term driving
# the field negative
WIGNER_CASES = [
    (0.0, 0.0, 0.0, 7.089815403720527),
    (5.0, 0.0, 0.0, 3.5449077019094943),
    (0.0, 0.0, 4.0, -4.634212611579674),
    (0.0, 1.0, 0.0, -2.188464120683473),
]


@pytest.mark.parametrize("x, p, delta, expected", WIGNER_CASES)
def test_wigner_two_slit_frozen_values(x, p, delta, expected):
    params = normalized_params(delta=delta)
    assert wigner_two_slit(params, x, p) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("x, p, delta", [(0.0, 0.0, 0.0), (0.0, 0.0, 4.0), (1.3, 0.7, 4.0)])
def test_wigner_two_slit_matches_lag_quadrature(x, p, delta):
    params = normalized_params(delta=delta)
    oracle = _wigner_lag_quadrature(params, x, p)
    assert wigner_two_slit(params, x, p) == pytest.approx(oracle, abs=1e-9)


def test_wigner_two_slit_ignores_alpha():
    with_alpha = SlitPairParams(x0=1.0, d=5.0, delta=1.0, alpha=6.0)
    without = SlitPairParams(x0=1.0, d=5.0, delta=1.0, alpha=0.0)
    assert wigner_two_slit(with_alpha, 1.0, 0.5) == wigner_two_slit(without, 1.0, 0.5)


def test_propagated_is_identity_at_alpha_zero():
    params = normalized_params(delta=4.0)
    x = np.linspace(-10, 10, 41)
    p = np.linspace(-3, 3, 17)
    np.testing.assert_array_equal(
        wigner_two_slit_propagated(params, x[:, None], p[None, :]),
        wigner_two_slit(params, x[:, None], p[None, :]),
    )


def test_propagated_evaluates_at_sheared_point():
    params = normalized_params(alpha=6.0)
    # (x, p) = (6, 1) maps back to (0, 1)
    assert wigner_two_slit_propagated(params, 6.0, 1.0) == pytest.approx(-2.188464120683473, abs=1e-12)


def test_propagation_fixes_the_p_zero_line():
    params = normalized_params(alpha=6.0, delta=4.0)
    assert wigner_two_slit_propagated(params, 0.0, 0.0) == pytest.approx(-4.634212611579674, abs=1e-12)


def test_single_slit_is_positive_and_sums_against_pair():
    params = normalized_params()
    x = np.linspace(-9, 9, 61)[:, None]
    p = np.linspace(-3, 3, 31)[None, :]
    w1 = wigner_single_slit(params, x, p, 1)
    w2 = wigner_single_slit(params, x, p, -1)
    assert w1.min() >= 0 and w2.min() >= 0
    # away from the midpoint the pair field is just the two slit fields
    pair = wigner_two_slit(params, x, p)
    outer = np.abs(x) >= 5.0
    np.testing.assert_allclose((pair - w1 - w2)[np.broadcast_to(outer, pair.shape)], 0.0, atol=1e-9)
    with pytest.raises(ValueError):
        wigner_single_slit(params, 0.0, 0.0, slit=2)


def _dense_two_slit(params, x, p):
    # reference: every term broadcast over the whole grid, nothing in place
    x0, d, hbar, delta = params.x0, params.d, params.hbar, params.delta
    envelope = 2 * x0 * math.sqrt(math.pi) * np.exp(-(p * x0 / hbar) ** 2)
    slits = np.exp(-((x - d) / x0) ** 2) + np.exp(-((x + d) / x0) ** 2)
    cross = 2 * np.exp(-((x / x0) ** 2)) * np.cos(2 * p * d / hbar - delta)
    return envelope * (slits + cross)


def _dense_single_slit(params, x, p, slit):
    x0, hbar = params.x0, params.hbar
    c = slit * params.d
    return 2 * x0 * math.sqrt(math.pi) * np.exp(-(p * x0 / hbar) ** 2) * np.exp(-((x - c) / x0) ** 2)


BLOCK_CELLS = wigslits.analytic._BLOCK_CELLS
SHORT_ROW = 3
LONG_CURVE = 3 * BLOCK_CELLS + 17


def _closed_form_cases():
    # (x, p) pairs: grids whose last block of rows is partial, a column
    # against a short row, scalars, and a 1-D curve longer than one block
    cases = []
    for n_x, n_p in [(97, 103), (3 * (BLOCK_CELLS // 103) + 5, 103), (300, 7)]:
        cases.append((np.linspace(-12.0, 12.0, n_x)[:, None], np.linspace(-4.0, 4.0, n_p)[None, :]))
    cases.append((np.linspace(-12.0, 12.0, 2 * BLOCK_CELLS // SHORT_ROW + 1)[:, None],
                  np.linspace(-4.0, 4.0, SHORT_ROW)[None, :]))
    cases.append((0.7, -0.3))
    cases.append((np.linspace(-30.0, 30.0, LONG_CURVE), 0.4))
    cases.append((np.linspace(-30.0, 30.0, LONG_CURVE), np.linspace(-4.0, 4.0, LONG_CURVE)))
    return cases


@pytest.mark.parametrize("alpha", [0.0, 6.0])
def test_closed_forms_match_dense_formulas_bit_for_bit(alpha):
    params = SlitPairParams(x0=1.0, d=5.0, delta=4.0, alpha=alpha)
    for x, p in _closed_form_cases():
        xs = np.asarray(x, dtype=float) - alpha * np.asarray(p, dtype=float)
        for got, want in [
            (wigner_two_slit(params, x, p), _dense_two_slit(params, np.asarray(x), np.asarray(p))),
            (wigner_two_slit_propagated(params, x, p), _dense_two_slit(params, xs, np.asarray(p))),
        ]:
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("alpha", [0.0, 6.0])
@pytest.mark.parametrize("n_x, n_p", [(97, 101), (3 * (BLOCK_CELLS // 101) + 5, 101), (512, 512)])
def test_sampled_fields_match_dense_formulas_bit_for_bit(alpha, n_x, n_p):
    params = SlitPairParams(x0=1.0, d=5.0, delta=4.0, alpha=alpha)
    grid = Grid2D(Grid1D(min=-12.0, max=12.0, n=n_x), Grid1D(min=-4.0, max=4.0, n=n_p))
    x = grid.x_axis.points()[:, None]
    p = grid.p_axis.points()[None, :]
    assert np.array_equal(two_slit_field(params, grid).values, _dense_two_slit(params, x - alpha * p, p))
    for slit in (1, -1):
        want = _dense_single_slit(params, x - alpha * p, p, slit)
        assert np.array_equal(single_slit_field(params, grid, slit).values, want)
    with pytest.raises(ValueError):
        single_slit_field(params, grid, slit=2)


# ---------------------------------------------------------------- invariants


@given(
    x=st.floats(min_value=-15, max_value=15),
    p=st.floats(min_value=-6, max_value=6),
    delta=st.floats(min_value=-10, max_value=10),
)
@settings(max_examples=150)
def test_phase_periodicity(x, p, delta):
    a = wigner_two_slit(normalized_params(delta=delta), x, p)
    b = wigner_two_slit(normalized_params(delta=delta + 2 * math.pi), x, p)
    assert abs(a - b) <= 1e-12


@given(
    x=st.floats(min_value=-15, max_value=15),
    p=st.floats(min_value=-6, max_value=6),
    delta=st.floats(min_value=-10, max_value=10),
)
@settings(max_examples=150)
def test_parity_in_x(x, p, delta):
    params = normalized_params(delta=delta)
    assert abs(wigner_two_slit(params, -x, p) - wigner_two_slit(params, x, p)) <= 1e-12


@given(
    x=st.floats(min_value=-12, max_value=12),
    p=st.floats(min_value=-4, max_value=4),
    delta=st.floats(min_value=-10, max_value=10),
)
@settings(max_examples=150)
def test_only_interference_term_carries_delta(x, p, delta):
    params = normalized_params(delta=delta)
    base = normalized_params(delta=0.0)
    diff = wigner_two_slit(params, x, p) - wigner_two_slit(base, x, p)
    expected = (4 * math.sqrt(math.pi) * math.exp(-(p**2)) * math.exp(-(x**2))
                * (math.cos(2 * p * 5 - delta) - math.cos(2 * p * 5)))
    assert abs(diff - expected) <= 1e-12


@pytest.mark.parametrize("delta", [0.0, 4.0])
def test_momentum_marginal_identity(delta):
    # integral of W over x (composite Simpson, spacing x0/128 on [-20, 20])
    # must reproduce the momentum marginal to 1e-8 of its peak
    params = normalized_params(delta=delta)
    x = np.linspace(-20.0, 20.0, 20 * 2 * 128 + 1)
    p_values = np.linspace(-3.0, 3.0, 25)
    closed = momentum_marginal(params, p_values)
    scale = np.abs(closed).max()
    for p, expect in zip(p_values, closed):
        integral = simpson(wigner_two_slit(params, x, p), x=x)
        assert abs(integral - expect) <= 1e-8 * scale


@pytest.mark.parametrize("delta", [0.0, 4.0])
def test_position_marginal_identity_after_propagation(delta):
    # (1/2 pi hbar) integral of the sheared W over p vs the closed form
    params = normalized_params(alpha=6.0, delta=delta)
    p = np.linspace(-10.0, 10.0, 10 * 2 * 128 + 1)
    x_values = np.linspace(-10.0, 10.0, 21)
    closed = position_marginal_propagated(params, x_values)
    scale = np.abs(closed).max()
    for x, expect in zip(x_values, closed):
        integral = simpson(wigner_two_slit_propagated(params, x, p), x=p) / (2 * math.pi)
        assert abs(integral - expect) <= 1e-8 * scale


def test_momentum_marginal_is_flight_invariant():
    # integral of the sheared W over x does not depend on alpha
    params0 = normalized_params(delta=4.0)
    x = np.linspace(-60.0, 60.0, 60 * 2 * 32 + 1)
    p_values = np.linspace(-2.5, 2.5, 11)
    reference = np.array([simpson(wigner_two_slit_propagated(params0, x, p), x=x) for p in p_values])
    for alpha in (2.0, 6.0):
        params = normalized_params(alpha=alpha, delta=4.0)
        moved = np.array([simpson(wigner_two_slit_propagated(params, x, p), x=x) for p in p_values])
        np.testing.assert_allclose(moved, reference, rtol=0, atol=1e-8 * np.abs(reference).max())


# ---------------------------------------------------------------- marginals


def test_momentum_marginal_frozen_values():
    # oracle: |direct quadrature of psi(x) exp(i x p)|^2
    assert momentum_marginal(normalized_params(), 0.0) == pytest.approx(25.132741228718345, abs=1e-12)
    assert momentum_marginal(normalized_params(), math.pi / 10) == pytest.approx(0.0, abs=1e-30)
    assert momentum_marginal(normalized_params(delta=4.0), 0.4) == pytest.approx(
        21.416709337747363, abs=1e-12
    )


def test_momentum_marginal_zeros_are_envelope_free():
    # zeros of the cos^2 comb sit exactly at (delta/2 + pi/2 + k pi) hbar/d,
    # untouched by the Gaussian envelope
    params = normalized_params(delta=4.0)
    peak = momentum_marginal(params, 2 / 5)
    for k in range(-3, 4):
        p_zero = (params.delta / 2 + math.pi / 2 + k * math.pi) * params.hbar / params.d
        assert momentum_marginal(params, p_zero) <= 1e-28 * peak


def test_position_marginal_reduces_at_alpha_zero():
    params = normalized_params(delta=1.3)
    x = np.linspace(-8, 8, 33)
    direct = np.abs(_psi(x, params)) ** 2
    np.testing.assert_allclose(position_marginal_propagated(params, x), direct, rtol=0, atol=1e-13)


def test_position_marginal_frozen_values_after_flight():
    # oracle: FFT free flight of the sampled wavefunction, |psi(0)|^2
    assert position_marginal_propagated(normalized_params(alpha=6.0), 0.0) == pytest.approx(
        0.3345930469341815, abs=1e-12
    )
    assert position_marginal_propagated(normalized_params(alpha=6.0, delta=4.0), 0.0) == pytest.approx(
        0.057944218110167325, abs=1e-12
    )


def test_position_marginal_identity_cross_check_by_quadrature():
    # independent check of the closed form at an asymmetric point
    params = normalized_params(alpha=6.0, delta=4.0)
    x = 2.0

    def integrand(p):
        return wigner_two_slit(params, x - params.alpha * p, p) / (2 * math.pi)

    val, err = quad(integrand, -8, 8, limit=800, epsabs=1e-12)
    assert val == pytest.approx(position_marginal_propagated(params, x), abs=1e-9)


@pytest.mark.parametrize("alpha", [0.0, 6.0])
@pytest.mark.parametrize(
    "axis, marginal, coords",
    [
        pytest.param("momentum", momentum_marginal, np.linspace(-4.0, 4.0, 257), id="momentum"),
        pytest.param("position", position_marginal_propagated, np.linspace(-24.0, 24.0, 257), id="position"),
    ],
)
def test_pattern_comes_from_the_single_slits(alpha, axis, marginal, coords):
    # averaged over the phase, the interference term drops out of either
    # marginal and the single-slit projections alone remain
    for delta in (0.0, 1.3, 4.0):
        params = normalized_params(alpha=alpha, delta=delta)
        opposite = normalized_params(alpha=alpha, delta=delta + math.pi)
        averaged = marginal(params, coords) + marginal(opposite, coords)
        slits = 2 * sum(single_slit_marginal(params, axis, coords, s) for s in (1, -1))
        np.testing.assert_allclose(averaged, slits, rtol=0, atol=1e-14 * slits.max())


def test_closed_forms_in_raw_units():
    # unit handling: same checks away from x0 = hbar = 1
    params = SlitPairParams(x0=2.0, d=10.0, delta=1.0, hbar=0.5)
    assert wigner_two_slit(params, 1.0, 0.1) == pytest.approx(
        _wigner_lag_quadrature(params, 1.0, 0.1), abs=1e-9
    )

    def phibar(p):
        re, _ = quad(lambda x: (_psi(x, params) * np.exp(1j * x * p / params.hbar)).real,
                     -40, 40, limit=400, epsabs=1e-12)
        im, _ = quad(lambda x: (_psi(x, params) * np.exp(1j * x * p / params.hbar)).imag,
                     -40, 40, limit=400, epsabs=1e-12)
        return complex(re, im)

    for p in (0.0, 0.11, -0.3):
        assert momentum_marginal(params, p) == pytest.approx(abs(phibar(p)) ** 2, rel=1e-9)


# ---------------------------------------------------------------- phase conversions


def test_phase_from_flux():
    assert phase_from_flux(FluxSpec(phi=0.0, phi0=1.0)) == 0.0
    assert phase_from_flux(FluxSpec(phi=1.0, phi0=1.0)) == pytest.approx(2 * math.pi, rel=1e-15)
    assert phase_from_flux(FluxSpec(phi=0.5, phi0=1.0)) == pytest.approx(math.pi, rel=1e-15)


@pytest.mark.parametrize("phi0", [0.0, -1.0, math.inf, math.nan])
def test_flux_quantum_must_be_positive(phi0):
    with pytest.raises(ValueError):
        FluxSpec(phi=1.0, phi0=phi0)


def _const_pulse(level, t0=0.0, t1=1.0):
    return PulseSeries(times=np.array([t0, t1]), values=np.array([level, level]))


def test_voltage_pulse_phase():
    assert phase_from_voltage_pulses(_const_pulse(1.0), _const_pulse(0.0), 1.0) == pytest.approx(1.0, abs=1e-15)
    same = _const_pulse(0.7)
    assert phase_from_voltage_pulses(same, same, 2.5) == 0.0


def test_pulse_phase_antisymmetry():
    a, b = _const_pulse(1.0), _const_pulse(0.25)
    fwd = phase_from_voltage_pulses(a, b, 2.0)
    assert phase_from_voltage_pulses(b, a, 2.0) == pytest.approx(-fwd, rel=1e-15)


def test_magnetic_pulse_phase():
    assert phase_from_magnetic_pulses(_const_pulse(2.0), _const_pulse(0.0), 1.0) == pytest.approx(2.0, abs=1e-15)
    same = _const_pulse(1.0)
    assert phase_from_magnetic_pulses(same, same, 1.0) == 0.0
    a, b = _const_pulse(2.0), _const_pulse(0.0)
    assert phase_from_magnetic_pulses(b, a, 1.0) == pytest.approx(-2.0, abs=1e-15)


def test_pulse_series_validation():
    with pytest.raises(ValueError):
        PulseSeries(times=np.array([0.0]), values=np.array([1.0]))
    with pytest.raises(ValueError):
        PulseSeries(times=np.array([0.0, 0.0]), values=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PulseSeries(times=np.array([0.0, 1.0]), values=np.array([1.0]))
    for times, values in (([0, 1], [math.nan, 1]), ([0, 1], [1, -math.inf]), ([0, math.inf], [1, 1])):
        with pytest.raises(ValueError, match="non-finite"):
            PulseSeries(times=times, values=values)


def test_pulse_series_leaves_the_callers_arrays_alone():
    # like every model container: a writeable input is copied, never frozen in place
    t, v = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 0.5])
    series = PulseSeries(times=t, values=v)
    assert t.flags.writeable and v.flags.writeable
    assert not (np.shares_memory(series.times, t) or np.shares_memory(series.values, v))
    assert not (series.times.flags.writeable or series.values.flags.writeable)
    before = series.integral()
    t[1], v[1] = 0.5, -7.0
    assert series.integral() == before == 2.75


def test_pulse_trapezoid_matches_numpy_reference():
    t = np.array([0.0, 0.5, 2.0, 3.0])
    v = np.array([1.0, -2.0, 0.5, 4.0])
    series = PulseSeries(times=t, values=v)
    assert series.integral() == pytest.approx(np.trapezoid(v, t), rel=1e-15)
