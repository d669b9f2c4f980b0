import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from wigslits import (
    Grid1D,
    MarginalCurve,
    SlitPairParams,
    find_fringe_maxima,
    fringe_period,
    fringe_shift,
    momentum_marginal,
    normalized_params,
    sample_wavefunction,
    wigner_transform,
    wigner_two_slit_propagated,
)
from wigslits.cli import _CSV_BLOCK_ROWS, _write_atomic, main

SMALL = ["--nx", "64", "--np", "64"]


def run(*args):
    return main(list(args))


def test_console_entry_points():
    for cmd in (["wigslits", "--help"], [sys.executable, "-m", "wigslits", "--help"]):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "simulate" in proc.stdout


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run("simulate")  # missing required --d
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("nonsense")
    assert exc.value.code == 2


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
    # 97 * 101 rows span more than one formatting block; the reference is the
    # plain per-row loop over the closed form
    assert 97 * 101 > _CSV_BLOCK_ROWS
    assert run("simulate", "--d", "5", "--alpha", "6", "--delta", "4", "--nx", "97", "--np", "101",
               "--out", str(tmp_path)) == 0
    xs = Grid1D(min=-12.0, max=12.0, n=97).points()
    ps = Grid1D(min=-4.0, max=4.0, n=101).points()
    w = wigner_two_slit_propagated(normalized_params(alpha=6.0, delta=4.0), xs[:, None], ps[None, :])
    expected = "x,p,w\n" + "".join(
        f"{float(x)!r},{float(p)!r},{float(w[i, j])!r}\n" for i, x in enumerate(xs) for j, p in enumerate(ps)
    )
    assert (tmp_path / "wigner.csv").read_bytes() == expected.encode()


def test_failed_write_leaves_target_and_no_temp_file(tmp_path):
    target = tmp_path / "wigner.csv"
    target.write_bytes(b"old\n")

    def chunks():
        yield "new\n"
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        _write_atomic(target, chunks())
    assert target.read_bytes() == b"old\n"
    assert list(tmp_path.glob("*.tmp")) == []


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
    from wigslits import position_marginal_propagated

    closed = position_marginal_propagated(params, coords)
    assert np.max(np.abs(values - closed)) <= 1e-8 * closed.max()


def test_simulate_numeric_truncation_exit_code(tmp_path, capsys):
    code = run("simulate", "--d", "5", "--engine", "numeric", "--xmin", "-7", "--xmax", "7",
               "--out", str(tmp_path), *SMALL)
    assert code == 3
    assert "guard" in capsys.readouterr().err


def test_simulate_numeric_undersampled_grid_exit_code(tmp_path, capsys):
    # dx ~ 1.39 x0 is inside the lag-lattice bandwidth for |P| <= 1.1 but too
    # coarse for the field: its x-integral misses |phibar(p)|^2 by ~0.2 of peak
    code = run("simulate", "--d", "5", "--engine", "numeric", "--delta", "4",
               "--nx", "24", "--np", "24", "--xmin", "-16", "--xmax", "16",
               "--pmin", "-1.1", "--pmax", "1.1", "--out", str(tmp_path))
    assert code == 3
    assert "phibar" in capsys.readouterr().err


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


def test_fringes_identical_inputs(capsys):
    assert run("fringes", "--axis", "momentum", "--delta", "4", "--ref-delta", "4") == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["shift_vs_reference"]) <= 1e-9


def test_fringes_full_turn_gives_zero_shift(capsys):
    assert run("fringes", "--axis", "momentum", "--delta", repr(2 * math.pi), "--ref-delta", "0") == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["shift_vs_reference"]) <= 1e-6


def test_fringes_roundtrip_through_files(tmp_path, capsys):
    out4, out0 = tmp_path / "d4", tmp_path / "d0"
    common = ["--d", "5", "--nx", "64", "--np", "256"]
    assert run("simulate", *common, "--delta", "4", "--out", str(out4)) == 0
    assert run("simulate", *common, "--delta", "0", "--out", str(out0)) == 0
    assert run("fringes", "--curve", str(out4 / "pmarginal.csv"),
               "--reference", str(out0 / "pmarginal.csv")) == 0
    report = json.loads(capsys.readouterr().out)

    grid = Grid1D(min=-4.0, max=4.0, n=256)
    curve = MarginalCurve("momentum", grid, momentum_marginal(normalized_params(delta=4.0), grid.points()))
    reference = MarginalCurve("momentum", grid, momentum_marginal(normalized_params(), grid.points()))
    assert report["shift_vs_reference"] == fringe_shift(curve, reference)
    assert report["period_estimate"] == fringe_period(curve)
    assert report["maxima"] == find_fringe_maxima(curve, 0.05)
    assert report["pattern_interval"] is None


def test_fringes_to_file(tmp_path):
    target = tmp_path / "report.json"
    assert run("fringes", "--axis", "momentum", "--delta", "4", "--out", str(target)) == 0
    assert json.loads(target.read_text())["shift_vs_reference"] == pytest.approx(0.4, abs=2e-3)


def test_fringes_flat_curve_exit_code(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("coord,value\n" + "".join(f"{i * 0.1},1.0\n" for i in range(32)))
    code = run("fringes", "--curve", str(flat), "--reference", str(flat))
    assert code == 4
    assert "analysis" in capsys.readouterr().err


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


def test_phase_flag_validation(capsys):
    assert run("phase") == 2
    assert run("phase", "--flux", "1") == 2  # missing quantum
    assert run("phase", "--flux", "1", "--flux-quantum", "1", "--electric", "a", "b") == 2
