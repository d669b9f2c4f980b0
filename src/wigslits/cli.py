"""Command-line front end: simulate fields/marginals to CSV, report fringes, convert phases.

All file coordinates are normalized (X = x/x0, P = p*x0/hbar), so the output
axes match the dimensionless plotting convention regardless of the unit
system; physics is computed in raw units internally.

Exit codes: 0 ok, 2 usage/parse error, 3 numerical guard tripped,
4 fringe analysis failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_MIN_PROMINENCE,
    common_projection_interval,
    find_fringe_maxima,
    fringe_period,
    fringe_shift,
)
from .analytic import (
    FluxSpec,
    PulseSeries,
    momentum_marginal,
    phase_from_flux,
    phase_from_magnetic_pulses,
    phase_from_voltage_pulses,
    position_marginal_propagated,
    single_slit_field,
    two_slit_field,
)
from .errors import AnalysisError, ConventionViolationError, TruncationError
from .model import (
    FringeReport,
    Grid1D,
    Grid2D,
    MarginalCurve,
    SlitPairParams,
    WignerField,
    propagated_width,
)
from .numeric import (
    DEFAULT_EDGE_DECAY_TOL,
    field_marginals,
    propagate_free,
    sample_wavefunction,
    shear_field,
    wigner_transform,
)

_EXIT_USAGE = 2
_EXIT_GUARD = 3
_EXIT_ANALYSIS = 4


# ---------------------------------------------------------------- helpers


# rows formatted per write: bounds the text held in memory at any grid size
_CSV_BLOCK_ROWS = 8192


def _write_atomic(path: Path, chunks: Iterable[str]) -> str:
    """Stream chunks to a temp file, rename it over ``path``; return the sha256 of the bytes."""
    digest = hashlib.sha256()
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def _write_csv(path: Path, header: str, *columns: np.ndarray) -> dict:
    # shortest round-trip decimals keep files byte-reproducible and let a
    # reader recover the exact floats; returns the file's manifest entry
    rows = max(map(len, columns))  # a shorter column makes zip(strict=True) raise

    def chunks():
        yield header + "\n"
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            cells = [map(repr, col[start : start + _CSV_BLOCK_ROWS].tolist()) for col in columns]
            yield "\n".join(map(",".join, zip(*cells, strict=True))) + "\n"

    return {"path": path.name, "sha256": _write_atomic(path, chunks()), "rows": rows}


def _read_two_column_csv(path: str, expected_header: str) -> Tuple[np.ndarray, np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0].strip() != expected_header:
        raise ValueError(f"{path}: expected header {expected_header!r}")
    first, second = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed row {ln!r}")
        first.append(float(parts[0]))
        second.append(float(parts[1]))
    if len(first) < 2:
        raise ValueError(f"{path}: needs at least 2 data rows")
    return np.asarray(first), np.asarray(second)


def _curve_from_csv(path: str, axis_label: str) -> MarginalCurve:
    coords, values = _read_two_column_csv(path, "coord,value")
    steps = np.diff(coords)
    if not np.all(steps > 0) or np.ptp(steps) > 1e-9 * steps[0]:
        raise ValueError(f"{path}: coordinates must form an ascending uniform grid")
    grid = Grid1D(min=coords[0], max=coords[-1], n=coords.size)
    return MarginalCurve(axis_label=axis_label, grid=grid, values=values)


def _params_from_args(args) -> SlitPairParams:
    return SlitPairParams(x0=args.x0, d=args.d, delta=args.delta, hbar=args.hbar, alpha=args.alpha)


def _norm_grids(args) -> Tuple[Grid1D, Grid1D]:
    return (
        Grid1D(min=args.xmin, max=args.xmax, n=args.nx),
        Grid1D(min=args.pmin, max=args.pmax, n=args.n_p),
    )


def _raw_axes(params: SlitPairParams, x_norm: Grid1D, p_norm: Grid1D) -> Tuple[Grid1D, Grid1D]:
    sx = params.x0
    sp = params.hbar / params.x0
    return (
        Grid1D(min=x_norm.min * sx, max=x_norm.max * sx, n=x_norm.n),
        Grid1D(min=p_norm.min * sp, max=p_norm.max * sp, n=p_norm.n),
    )


# ---------------------------------------------------------------- simulate


def _numeric_position_marginal(params: SlitPairParams, x_raw: Grid1D, edge_tol: float) -> np.ndarray:
    """|psi(x)|^2 after free flight, on x_raw, via propagation on a widened grid.

    The numeric engine's position marginal at every alpha, zero included:
    it is exact to roundoff, unlike the p-quadrature of the sampled field.
    The requested window usually cannot hold the spread packet, so the grid
    is extended by whole steps (the requested points stay on the lattice),
    propagated, and cropped back.
    """
    h = x_raw.spacing
    reach = params.d + 8.0 * max(propagated_width(params), params.x0)
    m_lo = max(0, math.ceil((reach + x_raw.min) / h))
    m_hi = max(0, math.ceil((reach - x_raw.max) / h))
    n_wide = x_raw.n + m_lo + m_hi
    wide = Grid1D(min=x_raw.min - m_lo * h, max=x_raw.min + (n_wide - 1 - m_lo) * h, n=n_wide)
    psi = sample_wavefunction(params, wide)
    evolved = propagate_free(psi, params.alpha, params.hbar, edge_tol=edge_tol)
    density = np.abs(evolved.values[m_lo : m_lo + x_raw.n]) ** 2
    return density


def cmd_simulate(args) -> int:
    params = _params_from_args(args)
    x_norm, p_norm = _norm_grids(args)
    x_raw, p_raw = _raw_axes(params, x_norm, p_norm)

    if args.engine == "analytic":
        field_values = two_slit_field(params, Grid2D(x_raw, p_raw)).values
        x_density = position_marginal_propagated(params, x_raw.points())
        p_density = momentum_marginal(params, p_raw.points())
    else:
        psi = sample_wavefunction(params, x_raw)
        base = wigner_transform(psi, p_raw, params.hbar, edge_tol=args.edge_tol)
        field_values = shear_field(base, params.alpha).values
        x_density = _numeric_position_marginal(params, x_raw, args.edge_tol)
        p_density = field_marginals(base, params.hbar)[1].values  # invariant under free flight

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    xs = x_norm.points()
    ps = p_norm.points()
    files = {
        "wigner": _write_csv(
            out / "wigner.csv", "x,p,w", np.repeat(xs, ps.size), np.tile(ps, xs.size), field_values.ravel()
        ),
        "xmarginal": _write_csv(out / "xmarginal.csv", "coord,value", xs, x_density),
        "pmarginal": _write_csv(out / "pmarginal.csv", "coord,value", ps, p_density),
    }

    manifest = {
        "command": "simulate",
        "version": __version__,
        "engine": args.engine,
        "params": {
            "x0": params.x0,
            "d": params.d,
            "hbar": params.hbar,
            "alpha": params.alpha,
            "delta": params.delta,
        },
        "grid": {
            "coordinates": "normalized: X = x/x0, P = p*x0/hbar",
            "xmin": x_norm.min,
            "xmax": x_norm.max,
            "nx": x_norm.n,
            "pmin": p_norm.min,
            "pmax": p_norm.max,
            "np": p_norm.n,
        },
        "edge_tol": args.edge_tol,
        "files": files,
    }
    _write_atomic(out / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])
    return 0


# ---------------------------------------------------------------- fringes


def _fringes_curves_from_params(args) -> Tuple[MarginalCurve, MarginalCurve, Optional[Tuple[float, float]]]:
    params = _params_from_args(args)
    reference_params = dataclasses.replace(params, delta=args.ref_delta)
    x_norm, p_norm = _norm_grids(args)
    x_raw, p_raw = _raw_axes(params, x_norm, p_norm)

    # curves carry normalized coordinates so reports match the CSV files
    if args.axis == "momentum":
        norm_axis, raw_pts = p_norm, p_raw.points()
        cur = momentum_marginal(params, raw_pts)
        ref = momentum_marginal(reference_params, raw_pts)
    else:
        norm_axis, raw_pts = x_norm, x_raw.points()
        cur = position_marginal_propagated(params, raw_pts)
        ref = position_marginal_propagated(reference_params, raw_pts)
    curve = MarginalCurve(axis_label=args.axis, grid=norm_axis, values=cur)
    reference = MarginalCurve(axis_label=args.axis, grid=norm_axis, values=ref)

    raw_grid2d, norm_grid2d = Grid2D(x_raw, p_raw), Grid2D(x_norm, p_norm)
    slit_fields = [
        WignerField(grid=norm_grid2d, values=single_slit_field(params, raw_grid2d, s).values)
        for s in (1, -1)
    ]
    interval = common_projection_interval(
        slit_fields[0], slit_fields[1], args.axis, args.pattern_threshold
    )
    return curve, reference, interval


def cmd_fringes(args) -> int:
    if args.curve_file or args.reference_file:
        if not (args.curve_file and args.reference_file):
            raise ValueError("--curve and --reference must be given together")
        axis = args.axis or "momentum"
        curve = _curve_from_csv(args.curve_file, axis)
        reference = _curve_from_csv(args.reference_file, axis)
        interval = None
    else:
        if args.axis is None:
            raise ValueError("parameter mode needs --axis (or pass --curve/--reference files)")
        curve, reference, interval = _fringes_curves_from_params(args)

    maxima = find_fringe_maxima(curve, args.min_prominence)
    try:
        period = fringe_period(curve)
    except AnalysisError:
        period = None
    shift = fringe_shift(curve, reference)

    report = FringeReport(
        maxima=tuple(maxima),
        period_estimate=period,
        shift_vs_reference=shift,
        pattern_interval=interval,
    )
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.out:
        _write_atomic(Path(args.out), [text])
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- phase


def _pulse_from_csv(path: str) -> PulseSeries:
    times, values = _read_two_column_csv(path, "t,value")
    return PulseSeries(times=times, values=values)


def cmd_phase(args) -> int:
    modes = [args.flux is not None, args.electric is not None, args.neutron is not None]
    if sum(modes) != 1:
        raise ValueError("pass exactly one of --flux, --electric, --neutron")
    if args.flux is not None:
        if args.flux_quantum is None:
            raise ValueError("--flux requires --flux-quantum")
        delta = phase_from_flux(FluxSpec(phi=args.flux, phi0=args.flux_quantum))
    else:
        if args.scale is None:
            raise ValueError("pulse modes require --scale")
        paths = args.electric if args.electric is not None else args.neutron
        path1, path2 = (_pulse_from_csv(p) for p in paths)
        convert = phase_from_voltage_pulses if args.electric is not None else phase_from_magnetic_pulses
        delta = convert(path1, path2, args.scale)
    sys.stdout.write(f"{delta:.12g}\n")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wigslits",
        description="Two-slit interference in quantum phase space: Wigner fields, "
        "marginals, and Aharonov-Bohm fringe shifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--d", type=float, required=True, help="half slit separation (raw units)")
        p.add_argument("--x0", type=float, default=1.0, help="slit Gaussian width")
        p.add_argument("--hbar", type=float, default=1.0, help="action constant")
        p.add_argument("--alpha", type=float, default=0.0, help="free-flight parameter t/m")
        p.add_argument("--delta", type=float, default=0.0, help="relative phase (radians)")

    def add_grid(p):
        p.add_argument("--xmin", type=float, default=-12.0, help="normalized X window start")
        p.add_argument("--xmax", type=float, default=12.0, help="normalized X window end")
        p.add_argument("--nx", type=int, default=512, help="x sample count")
        p.add_argument("--pmin", type=float, default=-4.0, help="normalized P window start")
        p.add_argument("--pmax", type=float, default=4.0, help="normalized P window end")
        p.add_argument("--np", dest="n_p", type=int, default=512, help="p sample count")

    sim = sub.add_parser("simulate", help="write Wigner field and marginal CSVs plus a run manifest")
    add_params(sim)
    add_grid(sim)
    sim.add_argument("--engine", choices=("analytic", "numeric"), default="analytic")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument(
        "--edge-tol",
        type=float,
        default=DEFAULT_EDGE_DECAY_TOL,
        help="truncation guard: max endpoint amplitude relative to peak (numeric engine)",
    )
    sim.set_defaults(func=cmd_simulate)

    fr = sub.add_parser("fringes", help="emit a fringe report (JSON) for a curve vs a reference")
    fr.add_argument("--curve", dest="curve_file", help="marginal CSV to analyze")
    fr.add_argument("--reference", dest="reference_file", help="reference marginal CSV")
    fr.add_argument("--axis", choices=("position", "momentum"), help="axis (parameter mode)")
    fr.add_argument("--d", type=float, default=5.0)
    fr.add_argument("--x0", type=float, default=1.0)
    fr.add_argument("--hbar", type=float, default=1.0)
    fr.add_argument("--alpha", type=float, default=0.0)
    fr.add_argument("--delta", type=float, default=0.0, help="phase of the analyzed curve")
    fr.add_argument("--ref-delta", type=float, default=0.0, help="phase of the reference curve")
    add_grid(fr)
    fr.add_argument("--min-prominence", type=float, default=DEFAULT_MIN_PROMINENCE)
    fr.add_argument(
        "--pattern-threshold",
        type=float,
        default=math.exp(-9),
        help="relative support threshold for the common-projection interval",
    )
    fr.add_argument("--out", help="write the JSON report here instead of stdout")
    fr.set_defaults(func=cmd_fringes)

    ph = sub.add_parser("phase", help="convert flux or pulse series to a phase shift (radians)")
    ph.add_argument("--flux", type=float, help="magnetic flux")
    ph.add_argument("--flux-quantum", type=float, help="flux quantum, same units as --flux")
    ph.add_argument("--electric", nargs=2, metavar=("PATH1", "PATH2"), help="voltage pulse CSVs")
    ph.add_argument("--neutron", nargs=2, metavar=("PATH1", "PATH2"), help="mu*B pulse CSVs")
    ph.add_argument("--scale", type=float, help="e/hbar (electric) or 1/hbar (neutron)")
    ph.set_defaults(func=cmd_phase)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TruncationError, ConventionViolationError) as exc:
        print(f"wigslits: numerical guard: {exc}", file=sys.stderr)
        return _EXIT_GUARD
    except AnalysisError as exc:
        print(f"wigslits: analysis failure: {exc}", file=sys.stderr)
        return _EXIT_ANALYSIS
    except (ValueError, OSError) as exc:
        print(f"wigslits: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
