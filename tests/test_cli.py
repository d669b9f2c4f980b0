import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import wigslits
from wigslits import (
    Grid1D,
    MarginalCurve,
    SlitPairParams,
    find_fringe_maxima,
    fringe_report,
    fringe_shift,
    momentum_marginal,
    normalized_params,
    position_marginal_propagated,
    sample_wavefunction,
    wigner_transform,
    wigner_two_slit_propagated,
)
import wigslits.analysis
import wigslits.cli
from wigslits import _floattext
from wigslits.cli import _write_atomic, _write_csv, main
from test_numeric import _traced_peak_bytes

SMALL = ["--nx", "64", "--np", "64"]
# a propagated width of 6e280: finite, but its square, which the closed forms divide by, is not
WIDTH_SQUARE_OVERFLOWS = ["--x0", "1e-300", "--d", "1e-300", "--hbar", "1e-20", "--alpha", "6", "--nx", "33", "--np", "17"]


def run(*args):
    return main(list(args))


def test_console_entry_points():
    for cmd in (["wigslits", "--help"], [sys.executable, "-m", "wigslits", "--help"]):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "simulate" in proc.stdout


def _fresh_process_modules(calls, prefix):
    # run cli.main on each argv in a fresh interpreter; the loaded modules under prefix
    script = (
        "import sys\n"
        "import wigslits\n"
        "from wigslits import cli\n"
        + "".join(f"assert cli.main({argv!r}) == 0\n" for argv in calls)
        + f"print(sorted(m for m in sys.modules if m == {prefix!r} or m.startswith({prefix + '.'!r})))\n"
    )
    src = str(Path(wigslits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_commands_do_not_import_scipy():
    # scipy is only the tests' reference; importing it costs ~1 s and ~75 MB
    calls = [["fringes", "--axis", "momentum"], ["phase", "--flux", "1", "--flux-quantum", "2"]]
    assert _fresh_process_modules(calls, "scipy") == "[]"


def test_fringes_does_not_import_numpy_ma():
    # np.median imports numpy.ma (~15 ms) in every fresh process that finds a fringe period
    assert _fresh_process_modules([["fringes", "--axis", "momentum"]], "numpy.ma") == "[]"


def test_package_exports_every_public_name_once():
    # the package re-exports each module's __all__, less the two engine
    # simulates (one name, two meanings) and the numeric engine's constant
    from wigslits import analysis, analytic, model, numeric

    errors = {"AnalysisError", "ConventionViolationError", "TruncationError"}
    expected = set().union(*(m.__all__ for m in (analysis, analytic, model, numeric))) | {"__version__", *errors}
    expected -= {"simulate", "DEFAULT_EDGE_DECAY_TOL"}
    assert len(wigslits.__all__) == len(set(wigslits.__all__))
    assert set(wigslits.__all__) == expected
    assert all(hasattr(wigslits, name) for name in wigslits.__all__)
    assert not hasattr(wigslits, "simulate")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run("simulate")  # missing required --d
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("nonsense")
    assert exc.value.code == 2


def test_calls_share_one_parser_and_carry_no_state(tmp_path, capsys):
    # main() parses every argv with the one parser build_parser() makes;
    # nothing a call sets, or a usage error in between, reaches the next call
    assert wigslits.cli.build_parser() is wigslits.cli.build_parser()
    usage_error = ["phase", "--flux", "1", "--flux-quantum", "1", "--electric", "p1", "p2", "--scale", "1"]
    fringes = ["fringes", "--axis", "momentum", "--delta", "4"]
    report = tmp_path / "r.json"
    assert run(*fringes, "--out", str(report)) == 0
    assert run(*usage_error) == 2
    capsys.readouterr()
    assert run(*fringes) == 0
    assert capsys.readouterr().out == report.read_text(encoding="utf-8")

    grid = ["--d", "5", "--nx", "64", "--np", "64"]
    assert run("simulate", *grid, "--engine", "numeric", "--out", str(tmp_path / "a")) == 0
    assert run(*usage_error) == 2
    assert run("simulate", *grid, "--out", str(tmp_path / "b")) == 0
    assert json.loads((tmp_path / "b" / "manifest.json").read_text())["engine"] == "analytic"


# ---------------------------------------------------------------- simulate


def test_simulate_writes_schema_and_manifest(tmp_path):
    assert run("simulate", "--d", "5", "--out", str(tmp_path), *SMALL) == 0
    for name in ("wigner.csv", "xmarginal.csv", "pmarginal.csv", "manifest.json"):
        assert (tmp_path / name).exists()

    wigner_lines = (tmp_path / "wigner.csv").read_text().splitlines()
    assert wigner_lines[0] == "x,p,w"
    assert len(wigner_lines) == 1 + 64 * 64
    assert (tmp_path / "xmarginal.csv").read_text().splitlines()[0] == "coord,value"

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["engine"] == "analytic"
    assert manifest["params"] == {"x0": 1.0, "d": 5.0, "hbar": 1.0, "alpha": 0.0, "delta": 0.0}
    assert manifest["grid"]["nx"] == 64 and manifest["grid"]["np"] == 64
    for entry in manifest["files"].values():
        body = (tmp_path / entry["path"]).read_bytes()
        assert hashlib.sha256(body).hexdigest() == entry["sha256"]


def test_simulate_rows_are_row_major_over_x_then_p(tmp_path):
    assert run("simulate", "--d", "5", "--out", str(tmp_path), *SMALL) == 0
    rows = (tmp_path / "wigner.csv").read_text().splitlines()[1:]
    first_x = [float(r.split(",")[0]) for r in rows[:65]]
    assert first_x[:64] == [first_x[0]] * 64  # x constant over a p sweep
    assert first_x[64] > first_x[0]


@pytest.mark.parametrize("engine", ["analytic", "numeric"])
def test_simulate_determinism(tmp_path, engine):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("simulate", "--d", "5", "--alpha", "6", "--delta", "4", "--engine", engine,
                   "--out", str(out), *SMALL) == 0
    for name in ("wigner.csv", "xmarginal.csv", "pmarginal.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_csv_bytes_match_row_by_row_reference(tmp_path):
    # 97 * 101 rows span several blocks of whole grid rows; the reference is the
    # plain per-row loop over the closed form
    assert run("simulate", "--d", "5", "--alpha", "6", "--delta", "4", "--nx", "97", "--np", "101",
               "--out", str(tmp_path)) == 0
    xs = Grid1D(min=-12.0, max=12.0, n=97).points()
    ps = Grid1D(min=-4.0, max=4.0, n=101).points()
    w = wigner_two_slit_propagated(normalized_params(alpha=6.0, delta=4.0), xs[:, None], ps[None, :])
    expected = "x,p,w\n" + "".join(
        f"{float(x)!r},{float(p)!r},{float(w[i, j])!r}\n" for i, x in enumerate(xs) for j, p in enumerate(ps)
    )
    assert (tmp_path / "wigner.csv").read_bytes() == expected.encode()


def test_simulate_marginal_csv_bytes_match_row_by_row_reference(tmp_path):
    # the writer's one-axis path: a curve is written as one chunk
    assert run("simulate", "--d", "5", "--alpha", "6", "--delta", "4", "--nx", "97", "--np", "101",
               "--out", str(tmp_path)) == 0
    params = normalized_params(alpha=6.0, delta=4.0)
    for name, coords, density in (
        ("xmarginal.csv", Grid1D(min=-12.0, max=12.0, n=97).points(), position_marginal_propagated),
        ("pmarginal.csv", Grid1D(min=-4.0, max=4.0, n=101).points(), momentum_marginal),
    ):
        values = density(params, coords)
        expected = "coord,value\n" + "".join(f"{float(c)!r},{float(v)!r}\n" for c, v in zip(coords, values))
        assert (tmp_path / name).read_bytes() == expected.encode()


AWKWARD = [0.0, -0.0, 5e-324, -2.225073858507201e-308, 2.2250738585072014e-308, 9.999999999999999e-05,
           1e-4, -1e-5, 1e15, 1e16, 1e17, 2.0**53, 2.0**-1074 * 3, 2.0**-30, -(2.0**60), 0.5,
           1.7976931348623157e308]


def test_write_csv_bytes_on_awkward_values(tmp_path):
    # signed zeros, subnormals (repr's path), the fixed/exponent layout edges
    # and powers of two, as a field over two axes and as a curve
    xs = np.array(AWKWARD[:7])
    ps = np.array(AWKWARD[7:])
    field = np.array(AWKWARD[::-1] * 7)[: xs.size * ps.size].reshape(xs.size, ps.size)
    _write_csv(tmp_path / "field.csv", "x,p,w", field, xs, ps)
    expected = "x,p,w\n" + "".join(
        f"{x!r},{p!r},{w!r}\n" for x, row in zip(xs.tolist(), field.tolist()) for p, w in zip(ps.tolist(), row)
    )
    assert (tmp_path / "field.csv").read_bytes() == expected.encode()

    curve = np.array(AWKWARD)
    _write_csv(tmp_path / "curve.csv", "coord,value", curve[::-1], curve)
    expected = "coord,value\n" + "".join(f"{c!r},{v!r}\n" for c, v in zip(curve.tolist(), curve[::-1].tolist()))
    assert (tmp_path / "curve.csv").read_bytes() == expected.encode()


def test_write_csv_bytes_on_rows_longer_than_a_block(tmp_path):
    # an inner axis longer than a block: each grid row is cut into equal parts
    # of at most BLOCK cells, and the rows still come out whole and in order
    n_p = 2 * _floattext.BLOCK + 5
    rng = np.random.default_rng(11)
    xs = np.array(AWKWARD[-3:])
    ps = rng.integers(0, 2**64, n_p, dtype=np.uint64).view(np.float64)
    ps[: len(AWKWARD)] = AWKWARD
    field = rng.integers(0, 2**64, (3, n_p), dtype=np.uint64).view(np.float64)
    field[0, : len(AWKWARD)] = AWKWARD
    field[2, -len(AWKWARD):] = AWKWARD
    _write_csv(tmp_path / "field.csv", "x,p,w", field, xs, ps)
    expected = "x,p,w\n" + "".join(
        f"{x!r},{p!r},{w!r}\n" for x, row in zip(xs.tolist(), field.tolist()) for p, w in zip(ps.tolist(), row)
    )
    assert (tmp_path / "field.csv").read_bytes() == expected.encode()


def test_write_csv_holds_no_coordinate_columns(tmp_path):
    # half of one 512 x 512 float array: the writer formats a fixed block of
    # cells at a time and never expands the axes into n_x * n_p coordinate columns
    n = 512
    xs = Grid1D(min=-12.0, max=12.0, n=n).points()
    ps = Grid1D(min=-4.0, max=4.0, n=n).points()
    field = wigner_two_slit_propagated(normalized_params(alpha=6.0, delta=4.0), xs[:, None], ps[None, :])
    tracemalloc.start()
    try:
        entry = _write_csv(tmp_path / "wigner.csv", "x,p,w", field, xs, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entry["rows"] == n * n
    assert peak < n * n * 8 / 2


def test_failed_write_leaves_target_and_no_temp_file(tmp_path):
    target = tmp_path / "wigner.csv"
    target.write_bytes(b"old\n")

    def chunks():
        yield b"new\n"
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        _write_atomic(target, chunks())
    assert target.read_bytes() == b"old\n"
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert run("simulate", "--d", "5", "--out", str(tmp_path), *SMALL) == 0
        assert run("fringes", "--axis", "momentum", "--out", str(tmp_path / "report.json")) == 0
    finally:
        os.umask(old)
    modes = {f.name: f.stat().st_mode & 0o777 for f in tmp_path.iterdir()}
    names = ["manifest.json", "pmarginal.csv", "report.json", "wigner.csv", "xmarginal.csv"]
    assert modes == dict.fromkeys(names, mode)


def test_simulate_analytic_holds_about_one_field(tmp_path):
    # the closed form fills one 512 x 512 array in row blocks, WignerField
    # adopts it, and the writer holds one block of cells and their text
    argv = ["simulate", "--d", "5", "--delta", "4", "--alpha", "6", "--out", str(tmp_path)]
    assert run(*argv) == 0  # first call outside the trace: lazy imports and caches
    codes = []
    peak = _traced_peak_bytes(lambda: codes.append(run(*argv)))
    assert codes == [0]
    assert peak <= 2 * 512 * 512 * 8


def test_simulate_analytic_values_match_closed_form(tmp_path):
    assert run("simulate", "--d", "5", "--delta", "4", "--out", str(tmp_path), *SMALL) == 0
    rows = (tmp_path / "wigner.csv").read_text().splitlines()[1:]
    params = normalized_params(delta=4.0)
    for line in rows[:: 257]:
        x, p, w = (float(v) for v in line.split(","))
        assert w == pytest.approx(float(wigner_two_slit_propagated(params, x, p)), rel=1e-12, abs=1e-300)


def test_simulate_normalized_coordinates(tmp_path):
    # raw units x0=2: file coordinates stay in X = x/x0, values use raw x
    assert run("simulate", "--d", "10", "--x0", "2", "--out", str(tmp_path), *SMALL) == 0
    rows = (tmp_path / "wigner.csv").read_text().splitlines()[1:]
    params = SlitPairParams(x0=2.0, d=10.0)
    xs = {float(r.split(",")[0]) for r in rows}
    assert min(xs) == -12.0 and max(xs) == 12.0
    x, p, w = (float(v) for v in rows[len(rows) // 2].split(","))
    assert w == pytest.approx(
        float(wigner_two_slit_propagated(params, x * 2.0, p * 1.0 / 2.0)), rel=1e-12
    )


def test_simulate_numeric_engine_matches_transform(tmp_path):
    assert run("simulate", "--d", "5", "--delta", "4", "--engine", "numeric",
               "--out", str(tmp_path), *SMALL) == 0
    rows = (tmp_path / "wigner.csv").read_text().splitlines()[1:]
    x_grid = Grid1D(min=-12.0, max=12.0, n=64)
    p_grid = Grid1D(min=-4.0, max=4.0, n=64)
    psi = sample_wavefunction(normalized_params(delta=4.0), x_grid)
    field = wigner_transform(psi, p_grid, 1.0)
    flat = field.values.ravel()
    got = np.array([float(r.split(",")[2]) for r in rows])
    np.testing.assert_array_equal(got, flat)


@pytest.mark.parametrize("alpha", ["0", "6"])
def test_simulate_numeric_with_flight(tmp_path, alpha):
    assert run("simulate", "--d", "5", "--alpha", alpha, "--delta", "4", "--engine", "numeric",
               "--out", str(tmp_path), "--nx", "128", "--np", "64") == 0
    coords, values = np.loadtxt(tmp_path / "xmarginal.csv", delimiter=",", skiprows=1, unpack=True)
    params = normalized_params(alpha=float(alpha), delta=4.0)
    closed = position_marginal_propagated(params, coords)
    assert np.max(np.abs(values - closed)) <= 1e-8 * closed.max()


@pytest.mark.parametrize("alpha", ["0", "6"])
def test_simulate_numeric_accepts_narrow_momentum_window(tmp_path, alpha):
    # integrated over |P| <= 1 only, the field's position projection dips to
    # -3.6e-2 of peak; the position marginal comes from the propagated psi, so
    # only the momentum projection is formed and checked
    assert run("simulate", "--d", "5", "--alpha", alpha, "--delta", "4", "--engine", "numeric",
               "--pmin", "-1", "--pmax", "1", "--out", str(tmp_path), "--nx", "128", "--np", "64") == 0
    coords, values = np.loadtxt(tmp_path / "pmarginal.csv", delimiter=",", skiprows=1, unpack=True)
    closed = momentum_marginal(normalized_params(alpha=float(alpha), delta=4.0), coords)
    assert np.max(np.abs(values - closed)) <= 1e-10 * closed.max()


def test_simulate_numeric_truncation_exit_code(tmp_path, capsys):
    code = run("simulate", "--d", "5", "--engine", "numeric", "--xmin", "-7", "--xmax", "7",
               "--out", str(tmp_path), *SMALL)
    assert code == 3
    err = capsys.readouterr().err
    assert "guard" in err
    # the tolerance is fixed, so the only remedy named is the grid
    assert err.rstrip().endswith("widen the grid") and "edge_tol" not in err


@pytest.mark.parametrize("engine", ["analytic", "numeric"])
def test_simulate_manifest_records_the_fixed_edge_tolerance(tmp_path, engine):
    assert run("simulate", "--d", "5", "--engine", engine, "--out", str(tmp_path), *SMALL) == 0
    text = (tmp_path / "manifest.json").read_text()
    assert '\n  "edge_tol": 1e-10,\n' in text and json.loads(text)["edge_tol"] == 1e-10


def test_simulate_numeric_undersampled_grid_exit_code(tmp_path, capsys):
    # dx ~ 1.39 x0 is inside the lag-lattice bandwidth for |P| <= 1.1 but too
    # coarse for the field: its x-integral misses |phibar(p)|^2 by ~0.2 of peak
    code = run("simulate", "--d", "5", "--engine", "numeric", "--delta", "4",
               "--nx", "24", "--np", "24", "--xmin", "-16", "--xmax", "16",
               "--pmin", "-1.1", "--pmax", "1.1", "--out", str(tmp_path))
    assert code == 3
    assert "phibar" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--d", "5", "--hbar", "1e300"],
        ["simulate", "--d", "5", "--alpha", "2e154"],
        ["simulate", "--d", "5", "--x0", "1e-300"],
        ["simulate", "--d", "5", "--engine", "numeric", "--x0", "1e-300"],
        ["simulate", "--d", "5", "--engine", "numeric", "--x0", "1e160"],
        ["simulate", "--d", "5", "--engine", "numeric", "--x0", "1e-300", "--hbar", "1e-20", "--alpha", "6"],
        ["fringes", "--axis", "position", "--alpha", "1e300"],
        ["simulate", *WIDTH_SQUARE_OVERFLOWS],
        ["fringes", "--axis", "position", *WIDTH_SQUARE_OVERFLOWS],
        ["simulate", "--d", "5", "--engine", "numeric", "--x0", "1e-300", "--hbar", "1e-150", "--alpha", "6"],
    ],
    ids=["simulate-hbar", "simulate-alpha", "simulate-x0", "simulate-numeric-x0-tiny",
         "simulate-numeric-x0-huge", "simulate-numeric-widening", "fringes-position-alpha",
         "simulate-width-square", "fringes-position-width-square", "simulate-numeric-step-count"],
)
def test_extreme_slit_pair_width_is_a_usage_error(tmp_path, capsys, argv):
    # finite parameters whose propagated width overflows or vanishes, whose
    # finite width has a square that overflows (6e280 for the widening and
    # width-square cases), or (step-count) whose width of 6e150 is too many
    # grid steps wide: refused by name, not an OverflowError or
    # ZeroDivisionError traceback; the numeric engine refuses before psi is
    # sampled, where x0**2 would under- or overflow
    assert run(*argv, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "propagated width" in err and all(name in err for name in ("x0=", "alpha=", "hbar="))
    assert not (tmp_path / "out").exists()


def test_fringes_momentum_axis_needs_no_propagated_width(capsys):
    assert run("fringes", "--axis", "momentum", "--hbar", "1e300") == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["--x0", "1e160"],
        ["--x0", "1e160", "--d", "1e-300", "--hbar", "1e-20"],
        ["--x0", "1e-300"],
        ["--x0", "3e153"],
    ],
    ids=["x0-huge", "x0-huge-hbar-tiny", "x0-tiny", "pair-prefactor"],
)
def test_fringes_momentum_prefactor_out_of_range_is_a_usage_error(capsys, argv):
    # x0^2 overflows or underflows to 0, or (pair-prefactor) the single slit's
    # 2 pi x0^2 is finite but the pair's 8 pi x0^2 is not: refused by name, not
    # an OverflowError traceback, a non-finite marginal or an analysis failure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("fringes", "--axis", "momentum", *argv) == 2
    err = capsys.readouterr().err
    assert "momentum prefactor" in err and "x0=" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--d", "2e154"],
        ["simulate", "--x0", "1e-160", "--d", "1e300", "--hbar", "1e-20", "--alpha", "1e-20"],
        ["simulate", "--x0", "1e-50", "--d", "1e110"],
        ["fringes", "--axis", "position", "--d", "2e154"],
        ["fringes", "--axis", "position", "--alpha", "6", "--d", "2e154"],
        ["fringes", "--axis", "position", "--x0", "1e-50", "--d", "1e110"],
    ],
    ids=["simulate", "simulate-wide-slits", "simulate-ratio", "fringes", "fringes-alpha", "fringes-ratio"],
)
def test_large_slit_offset_is_a_usage_error(tmp_path, capsys, argv):
    # the position closed forms square d and d / width: where d**2 overflows,
    # or (ratio) d / width does with d**2 finite, the request is refused by
    # name before they square, not an OverflowError traceback or a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--nx", "33", "--np", "17", "--out", str(tmp_path / "out")) == 2
    assert "slit offset d=" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["simulate"], ["fringes", "--axis", "position"]])
def test_cross_term_phase_overflow_is_a_usage_error(tmp_path, capsys, command):
    # d**2, (d / width)**2 and width**2 are finite, but 2 x alpha d hbar
    # overflows left to right: refused by name, not NaN rows with exit 0
    # (simulate) or a warning before "non-finite values" (fringes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["--alpha", "1e153", "--hbar", "1e-153", "--d", "1e154", "--nx", "33", "--np", "17"]
        assert run(*command, *argv, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "cross-term phase" in err and all(name in err for name in ("alpha=", "d=", "hbar="))
    assert not (tmp_path / "out").exists()


def test_sheared_gaussian_argument_overflow_is_a_usage_error(tmp_path, capsys):
    # the propagated width and d pass their rules, but x - alpha p reaches
    # 2.4e141 against x0 = 1e-160, whose ratio squares past the float range
    # in the sheared field: refused by name, not overflow warnings with exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["--x0", "1e-160", "--d", "1e-300", "--hbar", "1e-20", "--alpha", "6", "--nx", "33", "--np", "17"]
        assert run("simulate", *argv, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "sheared Gaussian argument" in err and all(name in err for name in ("x0=", "d=", "alpha=", "hbar="))
    assert not (tmp_path / "out").exists()


def test_simulate_numeric_widened_grid_over_budget_is_a_usage_error(tmp_path, capsys):
    # d = 2e154 widens the window to 5.3e154 points for the position density:
    # sized and refused by name before any sample is taken, not left to
    # numpy's "Maximum allowed size exceeded" (test_numeric checks the budget)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["--d", "2e154", "--nx", "33", "--np", "17", "--out", str(tmp_path / "out")]
        assert run("simulate", "--engine", "numeric", *argv) == 2
    err = capsys.readouterr().err
    assert "needs 5.333e+154 points on a grid widened to reach" in err
    assert all(name in err for name in ("d=2e+154", "x0=1.0", "alpha=0.0"))
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- fringes


def test_fringes_parameter_mode(capsys):
    assert run("fringes", "--axis", "momentum", "--delta", "4", "--ref-delta", "0") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["shift_vs_reference"] == pytest.approx(0.4, abs=2e-3)
    assert report["period_estimate"] == pytest.approx(math.pi / 5, abs=1e-3)
    lo, hi = report["pattern_interval"]
    assert lo == pytest.approx(-3.0, abs=0.05) and hi == pytest.approx(3.0, abs=0.05)
    assert report["maxima"] == sorted(report["maxima"])


def test_fringes_position_pattern_closed_before_flight(capsys):
    assert run("fringes", "--axis", "position", "--delta", "4", "--ref-delta", "0") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pattern_interval"] is None


def test_fringes_position_axis_after_flight(capsys):
    assert run("fringes", "--axis", "position", "--alpha", "6",
               "--delta", "4", "--ref-delta", "0") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["shift_vs_reference"] == pytest.approx(4 * 37 / 60, abs=2e-2)
    assert report["period_estimate"] == pytest.approx(37 * math.pi / 30, abs=2e-2)
    assert report["pattern_interval"] is not None  # flight opens the x pattern


def test_fringes_momentum_pattern_is_flight_invariant(capsys):
    # the momentum density does not change in free flight, so neither does its pattern
    intervals = []
    for alpha in ("0", "3", "6", "12"):
        assert run("fringes", "--axis", "momentum", "--delta", "4", "--alpha", alpha) == 0
        intervals.append(json.loads(capsys.readouterr().out)["pattern_interval"])
    assert intervals == [intervals[0]] * 4
    assert intervals[0][1] == pytest.approx(3.0, abs=2 * 8 / 511)


def test_fringes_builds_no_phase_space_field(capsys):
    # a 512 x 512 float array alone would take 2 MiB
    argv = ["fringes", "--axis", "momentum"]
    assert run(*argv) == 0  # first call outside the trace: lazy imports and caches
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 512 * 512 * 8


def test_fringes_finds_each_curves_maxima_once(monkeypatch, capsys):
    # the curve's maxima and windowed component serve the printed maxima, the
    # period and the shift; the reference's serve its comb frequency
    maxima_calls, components = [], []

    def counted(curve):
        maxima_calls.append(curve)
        return find_fringe_maxima(curve)

    def counted_component(curve):
        components.append(curve)
        return windowed_component(curve)

    windowed_component = wigslits.analysis._windowed_component
    monkeypatch.setattr(wigslits.analysis, "find_fringe_maxima", counted)
    monkeypatch.setattr(wigslits.analysis, "_windowed_component", counted_component)
    assert run("fringes", "--axis", "momentum", "--delta", "4") == 0
    capsys.readouterr()
    assert len(maxima_calls) == 2
    assert len(components) == 2


@pytest.mark.parametrize("flag", ["--min-prominence", "--pattern-threshold"])
def test_fringes_levels_are_fixed(flag):
    # the maxima's prominence (0.05) and the pattern's threshold (e^-9) are not options
    with pytest.raises(SystemExit) as exc:
        run("fringes", "--axis", "momentum", flag, "0.1")
    assert exc.value.code == 2


def test_fringes_identical_inputs(capsys):
    assert run("fringes", "--axis", "momentum", "--delta", "4", "--ref-delta", "4") == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["shift_vs_reference"]) <= 1e-9


def test_fringes_full_turn_gives_zero_shift(capsys):
    assert run("fringes", "--axis", "momentum", "--delta", repr(2 * math.pi), "--ref-delta", "0") == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["shift_vs_reference"]) <= 1e-6


def _assert_report_layout(text):
    # the report's fields in declaration order, 2-space indent, one trailing newline
    report = json.loads(text)
    assert tuple(report) == ("maxima", "period_estimate", "shift_vs_reference", "pattern_interval")
    assert text == json.dumps(report, indent=2) + "\n"
    return report


def test_fringes_roundtrip_through_files(tmp_path, capsys):
    out4, out0 = tmp_path / "d4", tmp_path / "d0"
    common = ["--d", "5", "--nx", "64", "--np", "256"]
    assert run("simulate", *common, "--delta", "4", "--out", str(out4)) == 0
    assert run("simulate", *common, "--delta", "0", "--out", str(out0)) == 0
    assert run("fringes", "--curve", str(out4 / "pmarginal.csv"),
               "--reference", str(out0 / "pmarginal.csv")) == 0
    text = capsys.readouterr().out
    report = _assert_report_layout(text)
    assert text.endswith('\n  "pattern_interval": null\n}\n')  # file mode has no pattern interval

    grid = Grid1D(min=-4.0, max=4.0, n=256)
    curve = MarginalCurve("momentum", grid, momentum_marginal(normalized_params(delta=4.0), grid.points()))
    reference = MarginalCurve("momentum", grid, momentum_marginal(normalized_params(), grid.points()))
    assert report["shift_vs_reference"] == fringe_shift(curve, reference)
    assert report["period_estimate"] == fringe_report(curve, reference).period_estimate
    assert report["maxima"] == find_fringe_maxima(curve)
    assert report["pattern_interval"] is None


def test_fringes_to_file(tmp_path, capsys):
    # --out writes the bytes stdout would get
    argv = ["fringes", "--axis", "momentum", "--delta", "4"]
    assert run(*argv) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "report.json"
    assert run(*argv, "--out", str(target)) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == printed
    report = _assert_report_layout(printed)
    assert report["shift_vs_reference"] == pytest.approx(0.4, abs=2e-3)


def test_fringes_flat_curve_exit_code(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("coord,value\n" + "".join(f"{i * 0.1},1.0\n" for i in range(32)))
    code = run("fringes", "--curve", str(flat), "--reference", str(flat))
    assert code == 4
    assert "analysis" in capsys.readouterr().err


@pytest.mark.parametrize(
    "coords, message",
    [((0.0,), "at least 2 data rows"), ((0.0, 0.1, 0.3, 0.4), "ascending uniform grid")],
)
def test_fringes_rejects_short_or_uneven_curve_files(tmp_path, capsys, coords, message):
    path = tmp_path / "curve.csv"
    path.write_text("coord,value\n" + "".join(f"{c},1.0\n" for c in coords))
    assert run("fringes", "--curve", str(path), "--reference", str(path)) == 2
    assert message in capsys.readouterr().err


def test_fringes_requires_both_files(capsys):
    assert run("fringes", "--curve", "only.csv") == 2
    assert run("fringes") == 2  # neither files nor --axis


# ---------------------------------------------------------------- phase


def test_phase_flux(capsys):
    assert run("phase", "--flux", "1", "--flux-quantum", "1") == 0
    assert capsys.readouterr().out.strip() == "6.28318530718"
    assert run("phase", "--flux", "0", "--flux-quantum", "1") == 0
    assert capsys.readouterr().out.strip() == "0"


def _pulse_file(path, rows):
    path.write_text("t,value\n" + "".join(f"{t},{v}\n" for t, v in rows))
    return str(path)


def test_phase_electric(tmp_path, capsys):
    one = _pulse_file(tmp_path / "one.csv", [(0.0, 1.0), (1.0, 1.0)])
    zero = _pulse_file(tmp_path / "zero.csv", [(0.0, 0.0), (1.0, 0.0)])
    assert run("phase", "--electric", one, zero, "--scale", "1") == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run("phase", "--electric", zero, one, "--scale", "1") == 0
    assert capsys.readouterr().out.strip() == "-1"


def test_phase_neutron(tmp_path, capsys):
    two = _pulse_file(tmp_path / "two.csv", [(0.0, 2.0), (1.0, 2.0)])
    zero = _pulse_file(tmp_path / "zero.csv", [(0.0, 0.0), (1.0, 0.0)])
    assert run("phase", "--neutron", two, zero, "--scale", "1") == 0
    assert capsys.readouterr().out.strip() == "2"


def test_phase_malformed_pulse_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,volts\n0,1\n")
    assert run("phase", "--electric", str(bad), str(bad), "--scale", "1") == 2
    bad.write_text("t,value\n0,1\nnot,a,row\n")
    assert run("phase", "--electric", str(bad), str(bad), "--scale", "1") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--flux", "nan", "--flux-quantum", "1"],
        ["--flux", "1", "--flux-quantum", "inf"],
        ["--electric", "{pulse}", "{pulse}", "--scale", "nan"],
        # finite inputs whose phase overflows
        ["--flux", "1e308", "--flux-quantum", "1e-10"],
        ["--electric", "{huge}", "{zero}", "--scale", "1e10"],
        ["--neutron", "{huge}", "{zero}", "--scale", "1e10"],
    ],
    ids=["flux-nan", "flux-quantum-inf", "scale-nan", "flux-overflow", "electric-overflow", "neutron-overflow"],
)
def test_phase_rejects_non_finite_input(tmp_path, capsys, argv):
    files = {
        "pulse": _pulse_file(tmp_path / "pulse.csv", [(0.0, 1.0), (1.0, 1.0)]),
        "huge": _pulse_file(tmp_path / "huge.csv", [(0.0, 1e300), (1.0, 1e300)]),
        "zero": _pulse_file(tmp_path / "zero.csv", [(0.0, 0.0), (1.0, 0.0)]),
    }
    assert run("phase", *(a.format(**files) for a in argv)) == 2
    assert capsys.readouterr().out == ""


def test_phase_flag_validation(tmp_path, capsys):
    assert run("phase") == 2
    assert run("phase", "--flux", "1") == 2  # missing quantum
    assert run("phase", "--flux", "1", "--flux-quantum", "1", "--electric", "a", "b") == 2
    pulse = _pulse_file(tmp_path / "pulse.csv", [(0.0, 1.0), (1.0, 1.0)])
    for mode in ("--electric", "--neutron"):
        capsys.readouterr()
        assert run("phase", mode, pulse, pulse) == 2
        assert "require --scale" in capsys.readouterr().err
