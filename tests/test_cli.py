import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
import wigslits.numeric
from wigslits import _floattext
from wigslits.cli import _write_atomic, _write_csv, main
import probes
from sweeps import sweep
from test_numeric import _traced_peak_bytes

SMALL = ["--nx", "64", "--np", "64"]
TINY = ["--nx", "33", "--np", "17"]
# A = alpha*hbar/x0**2 = 6e580 is past the float range: refused as A = inf
WIDTH_SQUARE_OVERFLOWS = ["--x0", "1e-300", "--d", "1e-300", "--hbar", "1e-20", "--alpha", "6", "--nx", "33", "--np", "17"]


def run(*args):
    return main(list(args))


def test_console_entry_points():
    for cmd in (["wigslits", "--help"], [sys.executable, "-m", "wigslits", "--help"]):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "simulate" in proc.stdout


def _fresh_process_modules(calls, *prefixes):
    # run cli.main on each argv in a fresh interpreter; the loaded modules under any of prefixes
    script = (
        "import sys\n"
        "import wigslits\n"
        "from wigslits import cli\n"
        + "".join(f"assert cli.main({argv!r}) == 0\n" for argv in calls)
        + f"print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in {prefixes!r})))\n"
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


def test_commands_writing_to_stdout_do_not_load_openssl():
    # hashlib loads OpenSSL's _hashlib (~3.6 MiB); only written files are hashed
    calls = [["phase", "--flux", "1", "--flux-quantum", "2"], ["fringes", "--axis", "momentum"],
             ["fringes", "--axis", "position"]]
    assert _fresh_process_modules(calls, "hashlib", "_hashlib") == "[]"


def test_commands_do_not_import_fractions(tmp_path):
    # only a pulse integral past the float range sums in fractions.Fraction,
    # which imports decimal (~2.3 ms and ~0.4 MB in a fresh process)
    paths = [tmp_path / "path1.csv", tmp_path / "path2.csv"]
    for path, level in zip(paths, ("1", "0.5")):
        path.write_text(f"t,value\n0,{level}\n1,{level}\n")
    calls = [["phase", "--flux", "1", "--flux-quantum", "2"], ["fringes", "--axis", "momentum"],
             ["phase", "--electric", *map(str, paths), "--scale", "2"]]
    assert _fresh_process_modules(calls, "fractions", "decimal", "_decimal", "_pydecimal") == "[]"


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
BLOCK = _floattext.BLOCK


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


@pytest.mark.parametrize(
    "shape",
    [(3, BLOCK - 1), (3, BLOCK), (3, BLOCK + 1), (3, 2 * BLOCK + 5), (BLOCK + 1,)],
    ids=lambda shape: "x".join(map(str, shape)),
)
def test_write_csv_bytes_on_rows_longer_than_a_block(tmp_path, shape):
    # blocks are BLOCK consecutive cells of the flattened grid, so unless the
    # inner axis divides BLOCK a block starts or ends mid-row: AWKWARD values
    # sit on both sides of every block edge, and the rows still come out whole
    # and in order with their coordinates
    rng = np.random.default_rng(11)
    axes = [rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64) for n in shape]
    axes[0][: len(AWKWARD[-3:])] = AWKWARD[-3:]
    axes[-1][: len(AWKWARD)] = AWKWARD
    axes[-1][-len(AWKWARD):] = AWKWARD
    values = rng.integers(0, 2**64, shape, dtype=np.uint64).view(np.float64)
    cells = values.reshape(-1)
    for edge in range(BLOCK, cells.size, BLOCK):
        window = cells[edge - len(AWKWARD):edge + len(AWKWARD)]
        window[:] = (AWKWARD + AWKWARD[::-1])[: window.size]
    header = "x,p,w" if len(shape) == 2 else "coord,value"
    _write_csv(tmp_path / "out.csv", header, values, *axes)
    rows = itertools.product(*(axis.tolist() for axis in axes))
    expected = header + "\n" + "".join(
        ",".join(repr(v) for v in (*coords, w)) + "\n" for coords, w in zip(rows, cells.tolist())
    )
    assert (tmp_path / "out.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("shape", [(512, 512), (3, 2 * BLOCK + 5)], ids=lambda shape: "x".join(map(str, shape)))
def test_write_csv_holds_no_coordinate_columns(tmp_path, shape):
    # at most half of one 512 x 512 float array, whatever the grid's shape: the
    # writer formats a fixed block of cells at a time and never expands the
    # axes into n_x * n_p coordinate columns
    xs = Grid1D(min=-12.0, max=12.0, n=shape[0]).points()
    ps = Grid1D(min=-4.0, max=4.0, n=shape[1]).points()
    field = wigner_two_slit_propagated(normalized_params(alpha=6.0, delta=4.0), xs[:, None], ps[None, :])
    tracemalloc.start()
    try:
        entry = _write_csv(tmp_path / "wigner.csv", "x,p,w", field, xs, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entry["rows"] == field.size
    assert peak < 512 * 512 * 8 / 2


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


def test_simulate_scales_the_field_as_it_writes(tmp_path):
    # at x0 = 2 the field written is x0 times the unit scenario's, scaled a
    # block of cells at a time by the writer: still about one field held
    argv = ["simulate", "--d", "10", "--x0", "2", "--delta", "4", "--alpha", "24", "--out", str(tmp_path)]
    assert run(*argv) == 0
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


@pytest.mark.parametrize("x0, width, nx", [("0.3", "40", "64"), ("0.5", "24", "48")])
def test_simulate_numeric_field_off_the_closed_form_exit_code(tmp_path, capsys, x0, width, nx):
    # dx = 1.27 x0 and 1.02 x0: the x-integrals miss |phibar(p)|^2 by 6.5e-3 and
    # 1.0e-3 of peak, past 1e-6; the first field is 8.4e-3 off the closed form
    window = ["--xmin", f"-{width}", "--xmax", width, "--nx", nx, "--pmin", f"-{x0}", "--pmax", x0, "--np", "33"]
    argv = ["--engine", "numeric", "--x0", x0, "--d", "5", "--delta", "4", *window, "--out", str(tmp_path)]
    assert run("simulate", *argv) == 3 and "phibar" in capsys.readouterr().err


def _captured(argv):
    # (exit code, stdout, stderr) of one call, with floating-point warnings as errors
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("error")
        code = run(*argv)
    return code, out.getvalue(), err.getvalue()


def _csv_floats(path):
    # a written CSV's rows as floats: shortest round-trip text parses back to the exact values
    return np.array([[float(v) for v in row.split(",")] for row in path.read_text().splitlines()[1:]])


def _matches_unit_scenario(argv, tmp, d=None, alpha=None):
    """Exit code of ``argv``, a simulate or parameter-mode fringes request, which must match the unit scenario's.

    The unit scenario is the request at x0 = hbar = 1 with d = D and alpha = A,
    by default d/x0 and alpha*hbar/x0**2 of the request's flags. Both give the
    same exit code, stdout and stderr; simulate writes the same coordinates and
    position density, and exactly x0 and x0**2 times the unit field and
    momentum density.
    """
    args = wigslits.cli.build_parser().parse_args(argv)
    d = args.d / args.x0 if d is None else d
    alpha = args.alpha * args.hbar / args.x0 / args.x0 if alpha is None else alpha
    unit = [*argv, "--x0", "1", "--hbar", "1", "--d", repr(d), "--alpha", repr(alpha)]
    dirs = [Path(tmp, "raw"), Path(tmp, "unit")]
    if argv[0] == "simulate":
        argv, unit = ([*request, "--out", str(out)] for request, out in zip((argv, unit), dirs))
    result = _captured(argv)
    assert result == _captured(unit), f"wigslits {' '.join(argv)}"
    if argv[0] == "simulate" and result[0] == 0:
        for name, scale in (("wigner.csv", args.x0), ("xmarginal.csv", 1.0), ("pmarginal.csv", args.x0 * args.x0)):
            raw, unit_rows = (_csv_floats(out / name) for out in dirs)
            np.testing.assert_array_equal(raw[:, :-1], unit_rows[:, :-1])
            np.testing.assert_array_equal(raw[:, -1], unit_rows[:, -1] * scale)
    return result[0]


@pytest.mark.parametrize(
    "argv, scale",
    [
        (["simulate", "--d", "5", "--alpha", "2e154"], "propagated width inf"),
        (["simulate", "--d", "5", "--x0", "1e-300"], "x0**2 = 0.0"),
        (["simulate", "--d", "5", "--engine", "numeric", "--x0", "1e-300"], "x0**2 = 0.0"),
        (["simulate", "--d", "5", "--engine", "numeric", "--x0", "1e160"], "x0**2 = inf"),
        (["simulate", "--d", "5", "--engine", "numeric", "--x0", "1e-300", "--hbar", "1e-20", "--alpha", "6"],
         "A = alpha*hbar/x0**2 = inf"),
        (["fringes", "--axis", "position", "--alpha", "1e300"], "propagated width inf"),
        (["simulate", *WIDTH_SQUARE_OVERFLOWS], "A = alpha*hbar/x0**2 = inf"),
        (["fringes", "--axis", "position", *WIDTH_SQUARE_OVERFLOWS], "A = alpha*hbar/x0**2 = inf"),
        (["simulate", "--d", "5", "--engine", "numeric", "--x0", "1e-300", "--hbar", "1e-150", "--alpha", "6"],
         "A = alpha*hbar/x0**2 = inf"),
        (["fringes", "--axis", "momentum", "--x0", "1e160", "--d", "1e-300", "--hbar", "1e-20"], "D = d/x0 = 0.0"),
        (["simulate", "--x0", "1e-160", "--d", "1e-300", "--hbar", "1e-20", "--alpha", "6", *TINY],
         "x0**2 = 1e-320 and 8*pi*x0**2 must be normal floats, for x0=1e-160"),
    ],
    ids=["simulate-alpha", "simulate-x0", "simulate-numeric-x0-tiny",
         "simulate-numeric-x0-huge", "simulate-numeric-widening", "fringes-position-alpha",
         "simulate-width-square", "fringes-position-width-square", "simulate-numeric-step-count",
         "fringes-momentum-x0-huge-hbar-tiny", "simulate-x0-subnormal-square"],
)
def test_extreme_slit_pair_width_is_a_usage_error(tmp_path, capsys, argv, scale):
    # slit pairs whose width x0, or propagated width, is extreme. On the unit
    # scenario a request is refused by name for the dimensionless scale out of
    # range: A itself, the propagated width sqrt(A**2 + 1) of a finite A, or
    # (x0-huge-hbar-tiny) D = 1e-300/1e160, which underflows to 0. simulate
    # also refuses an x0 whose prefactors x0**2 and 8 pi x0**2 leave the
    # normal floats, before psi is sampled: in x0-subnormal-square the unit
    # scenario's sheared Gaussian is finite, but the field written is x0 times
    # its, and x0**2 = 1e-320 is not a normal float
    assert run(*argv, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert scale in err and "x0=" in err
    assert not (tmp_path / "out").exists()


_CROSS_TERM_OVERFLOWS = ["--alpha", "1e153", "--hbar", "1e-153", "--d", "1e154", *TINY]


@pytest.mark.parametrize(
    "argv, code",
    [
        # hbar = 1e300 alone leaves D = 5 and A = 0; the momentum axis needs no
        # propagated width either
        (["simulate", "--d", "5", "--hbar", "1e300", *TINY], 0),
        (["fringes", "--axis", "momentum", "--hbar", "1e300"], 0),
        # x0**2 overflows or underflows to 0, or (pair-prefactor) the pair's
        # raw prefactor 8 pi x0**2 does; a report reads the unit scenario's
        # curves, which need no prefactor
        (["fringes", "--axis", "momentum", "--x0", "1e160"], 0),
        (["fringes", "--axis", "momentum", "--x0", "1e-300"], 0),
        (["fringes", "--axis", "momentum", "--x0", "3e153"], 0),
        # the raw cross-term phase 2 x alpha d hbar overflows left to right, but
        # the unit scenario's, with D = 1e154 and A = 1, is finite: simulate
        # exits 0, fringes with the analysis failure of slits far outside the window
        (["simulate", *_CROSS_TERM_OVERFLOWS], 0),
        (["fringes", "--axis", "position", *_CROSS_TERM_OVERFLOWS], 4),
        # the raw widened grid's largest FFT momentum, 6.4e183, would square past
        # the float range; the unit scenario's (D = 3.5e-34, A = 0) is ordinary,
        # with the field scaled by x0 = 3.2e-43
        (["simulate", "--engine", "numeric", "--x0", "3.1960429258303572e-43", "--d", "1.1233295459727828e-76",
          "--hbar", "2.4690348613560333e+140", "--alpha", "0", "--nx", "65", "--np", "17"], 0),
        # valid normalized windows whose raw images would overflow (hbar/x0 or
        # x0 past the float range, or a width of 1.9e308) or collapse (hbar/x0 = 0)
        (["fringes", "--axis", "momentum", "--x0", "1e-200", "--hbar", "1e200"], 0),
        (["fringes", "--axis", "momentum", "--x0", "1e200", "--hbar", "1e-200"], 0),
        (["fringes", "--axis", "momentum", "--x0", "1e308"], 0),
        (["fringes", "--axis", "momentum", "--x0", "1.7527204992081068e-190", "--hbar", "4.127428451816447e+117"], 0),
    ],
    ids=["simulate-hbar", "fringes-momentum-hbar", "fringes-momentum-x0-huge", "fringes-momentum-x0-tiny",
         "fringes-momentum-pair-prefactor", "simulate-cross-term-phase", "fringes-position-cross-term-phase",
         "simulate-numeric-free-flight-phase", "fringes-momentum-p-scale-overflows",
         "fringes-momentum-p-scale-underflows", "fringes-momentum-x-scale-overflows",
         "fringes-momentum-p-width-overflows"],
)
def test_raw_scales_are_answered_as_the_unit_scenario(tmp_path, argv, code):
    # slit pairs whose raw scales, products or windows leave the float range
    # although the paper's dimensionless scenario (D = d/x0, A = alpha*hbar/x0**2)
    # is ordinary: the CLI runs that scenario and forms no raw window, so each
    # request is answered as it, with its exit code, output and scaled files
    assert _matches_unit_scenario(argv, tmp_path) == code


_POSITION_OVERFLOW = "leaves the float range (overflow encountered in square) for SlitPairParams(x0=1.0, d="


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["simulate", "--d", "2e154"], f"position_marginal_propagated {_POSITION_OVERFLOW}2e+154,"),
        (["simulate", "--x0", "1e-160", "--d", "1e300", "--hbar", "1e-20", "--alpha", "1e-20"], "D = d/x0 = inf"),
        (["simulate", "--x0", "1e-50", "--d", "1e110"], f"position_marginal_propagated {_POSITION_OVERFLOW}1e+160,"),
        (["fringes", "--axis", "position", "--d", "2e154"], f"single_slit_marginal {_POSITION_OVERFLOW}2e+154,"),
        (["fringes", "--axis", "position", "--alpha", "6", "--d", "2e154"],  # (x - D)/W squares in range, d**2 not
         "position_marginal_propagated leaves the float range (Numerical result out of range) for "
         "SlitPairParams(x0=1.0, d=2e+154, delta=0.0, hbar=1.0, alpha=6.0)"),
        (["fringes", "--axis", "position", "--x0", "1e-50", "--d", "1e110"],
         f"single_slit_marginal {_POSITION_OVERFLOW}1e+160,"),
    ],
    ids=["simulate", "simulate-wide-slits", "simulate-ratio", "fringes", "fringes-alpha", "fringes-ratio"],
)
def test_large_slit_offset_is_a_usage_error(tmp_path, capsys, argv, refusal):
    # the position closed forms square x - D: where that leaves the float
    # range for the unit scenario's D (1e160 in the ratio cases, whose raw
    # d / width once overflowed instead), the first formula to square it is
    # named, or (wide-slits) D = 1e300/1e-160 is not a finite float; either
    # is refused, not an OverflowError traceback or a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--nx", "33", "--np", "17", "--out", str(tmp_path / "out")) == 2
    assert refusal in capsys.readouterr().err
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


_NUMPY_OUT_OF_MEMORY = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64"


def _out_of_memory(*args):
    raise MemoryError(_NUMPY_OUT_OF_MEMORY)


def _rows_then_out_of_memory(*args):
    yield b"-12.0,-4.0,0.0\n"
    _out_of_memory()


@pytest.mark.parametrize("module, name, patch", [
    (wigslits.analytic, "simulate", _out_of_memory),
    (_floattext, "csv_rows", _rows_then_out_of_memory),
], ids=["engine", "writer"])
def test_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch, module, name, patch):
    # numpy's MemoryError states the size it could not allocate: exit 2 with
    # that message, not a traceback, and no output or temp file left behind
    # whether the engine or the CSV writer runs out
    monkeypatch.setattr(module, name, patch)
    out = tmp_path / "out"
    assert run("simulate", "--d", "5", *SMALL, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"wigslits: {_NUMPY_OUT_OF_MEMORY}\n"
    assert not out.exists() or list(out.iterdir()) == []


def test_simulate_numeric_refuses_transform_scratch_over_budget(tmp_path, capsys, monkeypatch):
    # the 64-point transform needs 36,864 bytes of lag band and kernel, the
    # position density's flight 80 * 70 on its widened grid: one byte under the
    # first is refused by name after the flight is sized, with nothing written
    monkeypatch.setattr(wigslits.numeric, "_SCRATCH_BUDGET", 36_863)
    assert run("simulate", "--engine", "numeric", "--d", "5", *SMALL, "--out", str(tmp_path / "out")) == 2
    assert "Wigner transform needs 36864 bytes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_numeric_checks_the_bandwidth_before_any_flight(tmp_path, capsys, monkeypatch):
    # 33 points on the default window leave a lag-lattice bandwidth of 2.09
    # against |p| = 4: refused before psi flies on a widened grid of 106,689
    # points, since the transform's checks need no flight
    flights = []
    fly = wigslits.numeric.propagate_free
    monkeypatch.setattr(wigslits.numeric, "propagate_free", lambda *a, **k: flights.append(a) or fly(*a, **k))
    argv = ["--d", "4e4", "--nx", "33", "--np", "17", "--out", str(tmp_path / "out")]
    assert run("simulate", "--engine", "numeric", *argv) == 2
    assert "lag-lattice bandwidth" in capsys.readouterr().err
    assert flights == []


_LOG_UNIFORM = st.floats(-300, 300).map(lambda exponent: 10.0**exponent)
_COMMANDS = [
    ["simulate", "--engine", "analytic"],
    ["simulate", "--engine", "numeric"],
    ["fringes", "--axis", "momentum"],
    ["fringes", "--axis", "position"],
]


def _exits_cleanly(argv, codes, draw=""):
    # cli.main returns one of codes, with no exception and no floating-point
    # warning on the way; its output is discarded. draw names a sweep's draw
    try:
        code = _captured(argv)[0]
    except (Exception, SystemExit) as exc:
        raise AssertionError(f"{draw}wigslits {' '.join(argv)} raised {exc!r}") from exc
    assert code in codes, f"{draw}wigslits {' '.join(argv)} gave {code!r}"


_DEFAULT_WINDOW = (-12.0, 12.0, -4.0, 4.0)


def _slit_pair_exits_cleanly(command, x0, d, hbar, alpha, delta, window, budget=80 * 2**16, draw=""):
    # any finite slit pair on any finite window (xmin, xmax, pmin, pmax) is
    # computed or refused with exit 2, 3 or 4; the numeric engine's scratch
    # budget is 5 MiB, so no tier-1 draw allocates much memory. The window
    # ends are passed as --xmin=<value>, since argparse reads -1e-05 as a flag
    argv = [*command, "--x0", repr(x0), "--d", repr(d), "--hbar", repr(hbar), "--alpha", repr(alpha),
            "--delta", repr(delta), "--nx", "33", "--np", "17",
            *(f"--{flag}={end!r}" for flag, end in zip(("xmin", "xmax", "pmin", "pmax"), window))]
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
        mp.setattr(wigslits.numeric, "_SCRATCH_BUDGET", budget)
        _exits_cleanly(argv + (["--out", out] if command[0] == "simulate" else []), (0, 2, 3, 4), draw)


@settings(max_examples=200, deadline=None)
@example(  # the comb phase p * d / hbar overflowed in momentum_marginal
    command=_COMMANDS[2], x0=2.215340208846029e-33, d=1.1821988896555594e220, hbar=3.692833194127074e92,
    alpha=0.0, delta=0.0, window=_DEFAULT_WINDOW,
)
@example(  # a maximum's parabola vertex formed 2 y0 of a density peaking at 9.5e307
    command=_COMMANDS[2], x0=1.9463169741479125e153, d=7.276844326829853e164, hbar=1.6696991699065184e54,
    alpha=1.3978807150738937e-131, delta=1.3086636502491344, window=_DEFAULT_WINDOW,
)
# (p * x0 / hbar)**2 overflowed in the field's envelope and both momentum forms,
# ((x - d) / W)**2 in the position forms, each with a warning and exit 0
@example(command=_COMMANDS[0], x0=1.0, d=5.0, hbar=1.0, alpha=0.0, delta=0.0, window=(-12.0, 12.0, -1e200, 1e200))
@example(command=_COMMANDS[2], x0=1.0, d=5.0, hbar=1.0, alpha=0.0, delta=0.0, window=(-12.0, 12.0, -1e200, 1e200))
@example(command=_COMMANDS[3], x0=1.0, d=5.0, hbar=1.0, alpha=0.0, delta=0.0, window=(-1e200, 1e200, -4.0, 4.0))
@given(
    command=st.sampled_from(_COMMANDS),
    x0=_LOG_UNIFORM,
    d=_LOG_UNIFORM,
    hbar=_LOG_UNIFORM,
    alpha=st.tuples(st.integers(0, 4), _LOG_UNIFORM).map(lambda pick: 0.0 if pick[0] == 0 else pick[1]),
    delta=st.floats(0, 2 * math.pi),
    window=st.tuples(_LOG_UNIFORM, _LOG_UNIFORM, _LOG_UNIFORM, _LOG_UNIFORM).map(
        lambda ends: (-ends[0], ends[1], -ends[2], ends[3])),
)
def test_every_finite_request_exits_cleanly(command, x0, d, hbar, alpha, delta, window):
    _slit_pair_exits_cleanly(command, x0, d, hbar, alpha, delta, window)


def test_random_finite_requests_exit_cleanly():
    # x0, d and hbar log-uniform on [1e-300, 1e300], alpha 0 in 20 % of draws
    # and log-uniform otherwise, delta uniform on [0, 2 pi), and the window
    # [-a, b] x [-c, e] with a, b, c, e log-uniform like x0; the commands
    # cycle. CI draws 20,000 at the real budget
    seed, (count, budget) = sweep((200, 80 * 2**16), (20_000, wigslits.numeric._SCRATCH_BUDGET))
    rng = np.random.default_rng(seed)
    for i in range(count):
        x0, d, hbar, alpha = (10.0 ** rng.uniform(-300, 300, 4)).tolist()
        alpha = 0.0 if rng.random() < 0.2 else alpha
        delta = float(rng.uniform(0, 2 * math.pi))
        window = (10.0 ** rng.uniform(-300, 300, 4) * [-1, 1, -1, 1]).tolist()
        _slit_pair_exits_cleanly(_COMMANDS[i % 4], x0, d, hbar, alpha, delta, window, budget,
                                 f"draw {i}, seed {seed}: ")


def test_random_unit_scale_problems_match_the_unit_scenario():
    # the paper's problems at any unit scale: D = d/x0 uniform on [2, 6], A =
    # alpha*hbar/x0**2 on [0, 8] (0 in 20 %), x0 and hbar log-uniform on
    # [1e-300, 1e300], delta on [0, 2 pi), the commands in turn on a 129**2
    # grid. Every draw exits cleanly; simulate refuses only an x0 whose
    # prefactors leave the normal floats, and a draw whose raw d and alpha are
    # finite is otherwise answered. Every other cycle takes x0 = 2**i and
    # hbar = 2**j, which scale every value without rounding: there each draw
    # matches the unit scenario exactly. CI draws 2,000
    seed, count = sweep(240, 2_000)
    rng = np.random.default_rng(seed)
    for i in range(count):
        big_d, big_a = float(rng.uniform(2, 6)), (0.0 if rng.random() < 0.2 else float(rng.uniform(0, 8)))
        x0, hbar = (10.0 ** rng.uniform(-300, 300, 2)).tolist()
        delta = float(rng.uniform(0, 2 * math.pi))
        if i // 4 % 2:
            x0, hbar = (2.0 ** np.rint(np.log2([x0, hbar]))).tolist()
        (m_x0, e_x0), (m_h, e_h) = math.frexp(x0), math.frexp(hbar)
        with np.errstate(over="ignore"):
            d, alpha = big_d * x0, float(np.ldexp(big_a * m_x0 * m_x0 / m_h, 2 * e_x0 - e_h))
        argv = [*_COMMANDS[i % 4], "--x0", repr(x0), "--d", repr(d), "--hbar", repr(hbar), "--alpha", repr(alpha),
                "--delta", repr(delta), "--nx", "129", "--np", "129"]
        prefactors_normal = sys.float_info.min <= x0 * x0 and 8 * math.pi * x0 * x0 < math.inf
        try:
            with tempfile.TemporaryDirectory() as tmp:
                if argv[0] == "simulate" and not prefactors_normal:
                    code, _, err = _captured([*argv, "--out", tmp])
                    assert code == 2 and ("8*pi*x0**2" in err or not math.isfinite(d * alpha))
                elif i // 4 % 2:
                    _matches_unit_scenario(argv, tmp, d / x0, math.ldexp(alpha, e_h - 2 * e_x0 + 1))
                else:
                    code = _captured([*argv, "--out", tmp] if argv[0] == "simulate" else argv)[0]
                    assert code in (0, 3, 4) or (code == 2 and not math.isfinite(d * alpha))
        except (Exception, SystemExit) as exc:
            raise AssertionError(f"draw {i}, seed {seed}: wigslits {' '.join(argv)}") from exc


def _file_input_exits_cleanly(request, draw=""):
    # pulse files, flux pairs and curve files of finite numbers are computed
    # or refused with exit 2 or 4; the scale is passed as --scale=<value>,
    # since argparse reads -1e-05 as a flag
    with tempfile.TemporaryDirectory() as tmp:
        def csv(name, header, rows):
            Path(tmp, name).write_text(header + "".join(f"\n{a!r},{b!r}" for a, b in rows) + "\n")
            return str(Path(tmp, name))

        mode = request[0]
        if mode == "--flux":
            argv = ["phase", f"--flux={request[1]!r}", f"--flux-quantum={request[2]!r}"]
        elif mode == "--curve":
            argv = ["fringes", "--curve", csv("c.csv", "coord,value", request[1]),
                    "--reference", csv("r.csv", "coord,value", request[2])]
        else:
            paths = [csv(f"{i}.csv", "t,value", rows) for i, rows in enumerate(request[1:3])]
            argv = ["phase", mode, *paths, f"--scale={request[3]!r}"]
        _exits_cleanly(argv, (0, 2, 4), draw)


_SIGNED_LOG_UNIFORM = st.tuples(st.booleans(), _LOG_UNIFORM).map(lambda pick: -pick[1] if pick[0] else pick[1])
_PULSE_ROWS = st.lists(st.tuples(_SIGNED_LOG_UNIFORM, _SIGNED_LOG_UNIFORM), min_size=2, max_size=6).map(sorted)
_CURVE_ROWS = st.builds(
    lambda lo, step, values: [(lo + i * step, v) for i, v in enumerate(values)],
    _SIGNED_LOG_UNIFORM,
    _LOG_UNIFORM,
    st.lists(st.one_of(st.just(0.0), _LOG_UNIFORM), min_size=3, max_size=12),
)
_FILE_REQUESTS = st.one_of(
    st.tuples(st.sampled_from(["--electric", "--neutron"]), _PULSE_ROWS, _PULSE_ROWS, _SIGNED_LOG_UNIFORM),
    st.tuples(st.just("--flux"), _SIGNED_LOG_UNIFORM, _SIGNED_LOG_UNIFORM),
    st.tuples(st.just("--curve"), _CURVE_ROWS, _CURVE_ROWS),
)


@settings(max_examples=100, deadline=None)
@example(request=("--electric", [(0.0, 1e308), (1e-10, 1e308)], [(0.0, 0.0), (1e-10, 0.0)], 1e-300))
@example(request=("--neutron", [(-1e308, 1e-300), (1e308, 1e-300)], [(-1e308, 0.0), (1e308, 0.0)], 1.0))
@example(request=("--curve", [(-1e308, 1.0), (1e308, 2.0)], [(-1e308, 1.0), (1e308, 2.0)]))
@given(request=_FILE_REQUESTS)
def test_every_finite_file_input_exits_cleanly(request):
    _file_input_exits_cleanly(request)


def test_random_finite_file_inputs_exit_cleanly():
    # the modes cycle. Pulse files: 2-6 rows of ascending signed times and
    # signed values, log-uniform in magnitude on [1e-300, 1e300] like the flux,
    # its quantum and the scale. Curve files: 3-12 rows at lo + i*step, lo
    # signed and step > 0 log-uniform, values log-uniform or (20 %) zero
    seed, count = sweep(100, 5_000)  # CI draws 5,000
    rng = np.random.default_rng(seed)

    def log_uniform(size=None, signed=True):
        values = 10.0 ** rng.uniform(-300, 300, size) * (rng.choice([-1.0, 1.0], size) if signed else 1.0)
        return values.tolist() if size else float(values)

    def pulse(n):
        return list(zip(sorted(log_uniform(n)), log_uniform(n)))

    def curve(lo, step, n):
        values = np.where(rng.random(n) < 0.2, 0.0, log_uniform(n, signed=False))
        return list(zip((lo + np.arange(n) * step).tolist(), values.tolist()))

    for i in range(count):
        mode = ["--electric", "--neutron", "--flux", "--curve"][i % 4]
        if mode == "--flux":
            request = (mode, log_uniform(), log_uniform())
        elif mode == "--curve":
            lo, step = log_uniform(), log_uniform(signed=False)
            request = (mode, *[curve(lo, step, int(rng.integers(3, 13))) for _ in range(2)])
        else:
            request = (mode, *[pulse(int(rng.integers(2, 7))) for _ in range(2)], log_uniform())
        _file_input_exits_cleanly(request, f"draw {i}, seed {seed}: ")


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


@pytest.mark.xfail(strict=True, reason="ROADMAP direction 2: the comb is fitted to the total curve, slit humps included")
def test_fringes_position_period_of_the_interference_comb(capsys):
    # the comb period on the normalized X axis is 2 pi (A**2 + 1) / (2 A D),
    # with D = d / x0 and A = alpha hbar / x0**2: 1.960 here
    x0, d, hbar, alpha = 0.456, 2.95, 0.56, 1.40
    assert run("fringes", "--axis", "position", f"--x0={x0}", f"--d={d}", f"--hbar={hbar}",
               f"--alpha={alpha}", "--nx", "245", "--np", "245") == 0
    big_d, big_a = d / x0, alpha * hbar / x0**2
    period = 2 * math.pi * (big_a**2 + 1) / (2 * big_a * big_d)
    assert json.loads(capsys.readouterr().out)["period_estimate"] == pytest.approx(period, rel=1e-2)


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
    # period and the shift; the reference's serve its comb frequency. The
    # report finds the maxima of its framed curves, not through the public
    # find_fringe_maxima, which would frame each curve again
    maxima_calls, components = [], []

    def counted(curve):
        maxima_calls.append(curve)
        return framed_maxima(curve)

    def counted_component(curve):
        components.append(curve)
        return windowed_component(curve)

    framed_maxima, windowed_component = wigslits.analysis._framed_maxima, wigslits.analysis._windowed_component
    monkeypatch.setattr(wigslits.analysis, "_framed_maxima", counted)
    monkeypatch.setattr(wigslits.analysis, "_windowed_component", counted_component)
    monkeypatch.setattr(wigslits.analysis, "find_fringe_maxima", None)
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


def test_fringes_centroid_fallback_at_extreme_scale(capsys):
    # a reference with one maximum takes the shift from the maximum nearest
    # its envelope centroid; the raw curve would peak at 8 pi x0**2 ~ 5e307,
    # but the report reads the unit scenario's, which peaks at 8 pi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["--x0", "1.46e153", "--d", "3.62e43", "--hbar", "6.96e-62", "--nx", "33", "--np", "17"]
        assert run("fringes", "--axis", "momentum", *argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"maxima": [0.0], "period_estimate": None, "shift_vs_reference": 0.0,
                      "pattern_interval": [-3.0, 3.0]}


def test_fringes_identical_inputs(capsys):
    assert run("fringes", "--axis", "momentum", "--delta", "4", "--ref-delta", "4") == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["shift_vs_reference"]) <= 1e-9


def test_fringes_full_turn_gives_zero_shift(capsys):
    assert run("fringes", "--axis", "momentum", "--delta", repr(2 * math.pi), "--ref-delta", "0") == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["shift_vs_reference"]) <= 1e-6


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_fringes_non_finite_ref_delta_names_its_flag(capsys, value):
    assert run("fringes", "--axis", "momentum", "--ref-delta", value) == 2
    assert f"--ref-delta must be finite, got {value}" in capsys.readouterr().err


def _report_numbers(report):
    return [*report["maxima"], report["period_estimate"], report["shift_vs_reference"],
            *(report["pattern_interval"] or [None])]


def _flux_periodic(axis, alpha, d, n, delta, draw=""):
    # a parameter-mode report at delta and one flux quantum on, delta + 2 pi:
    # both exit alike, and the reports agree number by number within 1e-12
    # (the benchmark's PERIODIC_TOL)
    argv = ["fringes", "--axis", axis, "--alpha", repr(alpha), "--d", repr(d), "--nx", str(n), "--np", str(n)]
    request = f"{draw}wigslits {' '.join(argv)} --delta={delta!r} and {delta + 2 * math.pi!r}"
    (code, out, _), (shifted_code, shifted_out, _) = (_captured([*argv, f"--delta={x!r}"])
                                                      for x in (delta, delta + 2 * math.pi))
    assert code == shifted_code, f"{request}: exit {code} and {shifted_code}"
    if code == 0:
        a, b = (_report_numbers(json.loads(text)) for text in (out, shifted_out))
        assert [x is None for x in a] == [y is None for y in b], request
        worst = max((abs(x - y) for x, y in zip(a, b) if x is not None), default=0.0)
        assert worst <= 1e-12, f"{request}: reports differ by {worst:.2e}"


@settings(max_examples=50, deadline=None)
# periods 7.258979040508206 and 7.258979148180867 when the comb search stopped on |F|'s flat top
@example(axis="position", alpha=8.542933818246997, d=3.7792952204595185, n=330, delta=2.775729406866822)
@given(
    axis=st.sampled_from(["momentum", "position"]),
    alpha=st.one_of(st.just(0.0), st.floats(0.5, 10)),
    d=st.floats(2, 7),
    n=st.integers(64, 699),
    delta=st.floats(-math.pi, math.pi),
)
def test_fringe_reports_are_flux_periodic(axis, alpha, d, n, delta):
    _flux_periodic(axis, alpha, d, n, delta)


def test_random_fringe_reports_are_flux_periodic():
    # the axes alternate; alpha 0 in half the draws and uniform on [0.5, 10]
    # otherwise, d uniform on [2, 7], nx = np on [64, 700) and delta uniform
    # on [-pi, pi). CI draws 5,000
    seed, count = sweep(200, 5_000)
    rng = np.random.default_rng(seed)
    for i in range(count):
        alpha = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.5, 10))
        d, n, delta = float(rng.uniform(2, 7)), int(rng.integers(64, 700)), float(rng.uniform(-math.pi, math.pi))
        _flux_periodic(("momentum", "position")[i % 2], alpha, d, n, delta, f"draw {i}, seed {seed}: ")


@pytest.mark.parametrize(
    "argv",
    [
        # the comb search ends on 1.3 x its median-gap seed: the period would print as 2.456, not 2.236
        ["--axis", "position", "--x0=0.6100676698408208", "--d=3.949893503799175", "--hbar=0.7063211386460541",
         "--alpha=2.30745802168986", "--delta=4.925505584218196", "--nx", "232", "--np", "232"],
        # the search ends on 0.7 x its seed: the period would print as 1.921, not pi / D = 1.677
        ["--axis", "momentum", "--x0=2.049559197851855", "--d=3.8397690081086586", "--hbar=0.378990945600473",
         "--alpha=122.97364672050637", "--delta=5.873129971450596", "--nx", "512", "--np", "512"],
    ],
    ids=["position", "momentum"],
)
def test_fringes_period_is_null_where_the_comb_search_ends_on_its_bracket(argv, capsys):
    assert run("fringes", *argv) == 0
    report = json.loads(capsys.readouterr().out)
    # the references' searches, at delta = 0, end on their brackets too: no shift is measured
    assert report["period_estimate"] is None and report["shift_vs_reference"] is None


def test_fringes_shift_is_null_where_the_reference_comb_search_ends_on_its_bracket(capsys):
    # the reference's search ends on its bracket: the shift would print as
    # 1.442, where the closed form gives 1.223 on a period of 1.851
    argv = ["--axis", "momentum", "--x0=0.8880367114742463", "--d=1.5072194647425654", "--hbar=1.7799109070752803",
            "--alpha=0.0", "--delta=4.150044319054075", "--nx", "225", "--np", "225"]
    assert run("fringes", *argv) == 0
    assert json.loads(capsys.readouterr().out)["shift_vs_reference"] is None


def test_random_fringe_reports_print_no_bracket_end_period():
    # P2's draws (tests/probes.py): a period within 1e-9 relative of 0.7 or
    # 1.3 x the comb search's seed is an end of its bracket, not a
    # measurement, and is reported as null; so is the shift exactly where
    # the reference's own search, which its report against itself shows,
    # ended on its bracket. Every report's maxima ascend strictly and every
    # printed period is > 0. CI draws 5,000
    seed, count = sweep(600, 5_000)
    for i, draw in enumerate(probes.p2_draws(seed, count)):
        request = f"draw {i}, seed {seed}: {' '.join(draw.argv)}"
        curve, reference = probes.curves(draw)
        try:
            report = fringe_report(curve, reference)
        except wigslits.AnalysisError:
            continue
        assert not probes.at_bracket_end(report), request
        assert all(a < b for a, b in zip(report.maxima, report.maxima[1:])), request
        assert report.period_estimate is None or report.period_estimate > 0, request
        ref_ends = len(find_fringe_maxima(reference)) >= 3 and fringe_report(reference, reference).period_estimate is None
        assert (report.shift_vs_reference is None) == ref_ends, request


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


def _add_byte_order_mark(path):
    # as spreadsheet "CSV UTF-8" exports begin
    path = Path(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return str(path)


def test_fringes_reads_curve_files_with_a_byte_order_mark(tmp_path, capsys):
    common = ["--d", "5", "--nx", "64", "--np", "256"]
    assert run("simulate", *common, "--delta", "4", "--out", str(tmp_path / "d4")) == 0
    assert run("simulate", *common, "--delta", "0", "--out", str(tmp_path / "d0")) == 0
    curve, reference = (tmp_path / d / "pmarginal.csv" for d in ("d4", "d0"))
    assert run("fringes", "--curve", str(curve), "--reference", str(reference)) == 0
    plain = capsys.readouterr().out
    assert run("fringes", "--curve", _add_byte_order_mark(curve), "--reference", _add_byte_order_mark(reference)) == 0
    assert capsys.readouterr() == (plain, "")


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
    # the ratio first: 2 pi * 1e-320 is subnormal, and 2 pi * 1e308 overflows
    assert run("phase", "--flux", "1e-320", "--flux-quantum", "1e-320") == 0
    assert capsys.readouterr() == ("6.28318530718\n", "")
    assert run("phase", "--flux", "1e308", "--flux-quantum", "1e10") == 0
    assert capsys.readouterr() == ("6.28318530718e+298\n", "")


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


def test_phase_electric_reads_pulse_files_with_a_byte_order_mark(tmp_path, capsys):
    one = _add_byte_order_mark(_pulse_file(tmp_path / "one.csv", [(0.0, 1.0), (1.0, 1.0)]))
    zero = _add_byte_order_mark(_pulse_file(tmp_path / "zero.csv", [(0.0, 0.0), (1.0, 0.0)]))
    assert run("phase", "--electric", one, zero, "--scale", "1") == 0
    assert capsys.readouterr() == ("1\n", "")


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


@pytest.mark.parametrize("mode", ["--electric", "--neutron"])
def test_phase_from_integrals_whose_difference_overflows(tmp_path, capsys, mode):
    # 1e308 - (-1e308) is past the float range, the phase 1e-300 * 2e308 is not
    high = _pulse_file(tmp_path / "high.csv", [(0.0, 1e308), (1.0, 1e308)])
    low = _pulse_file(tmp_path / "low.csv", [(0.0, -1e308), (1.0, -1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for first, second, phase in ((high, low, "200000000"), (low, high, "-200000000")):
            assert run("phase", mode, first, second, "--scale=1e-300") == 0
            assert capsys.readouterr() == (phase + "\n", "")


def test_phase_flag_validation(tmp_path, capsys):
    assert run("phase") == 2
    assert run("phase", "--flux", "1") == 2  # missing quantum
    assert run("phase", "--flux", "1", "--flux-quantum", "1", "--electric", "a", "b") == 2
    pulse = _pulse_file(tmp_path / "pulse.csv", [(0.0, 1.0), (1.0, 1.0)])
    for mode in ("--electric", "--neutron"):
        capsys.readouterr()
        assert run("phase", mode, pulse, pulse) == 2
        assert "require --scale" in capsys.readouterr().err
