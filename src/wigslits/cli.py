"""Command-line front end: simulate fields/marginals to CSV, report fringes, convert phases.

The CLI parses arguments, writes files and maps errors to exit codes:
``simulate`` makes one call, :func:`wigslits.analytic.simulate` or
:func:`wigslits.numeric.simulate`, and writes what it returns; ``fringes``
loads or samples two curves and writes :func:`wigslits.analysis.fringe_report`.

Every request runs on the paper's dimensionless scenario (x0 = hbar = 1,
D = d/x0, A = alpha*hbar/x0**2) on the file coordinates X = x/x0 and P =
p*x0/hbar. Raw units enter only as prefactors: ``simulate`` writes the field
times x0 and the momentum density times x0**2; ``fringes`` needs none.

Exit codes: 0 ok, 2 usage/parse error, 3 numerical guard tripped,
4 fringe analysis failure.

:func:`main` may be called any number of times in one process, as the
workloads in ``perfbench/`` do. The parser is built on first use and then
shared, so callers must not mutate what :func:`build_parser` returns.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from . import __version__, _floattext, analytic, numeric
from .analysis import common_support_interval, fringe_report
from .analytic import (
    FluxSpec,
    PulseSeries,
    momentum_marginal,
    phase_from_flux,
    phase_from_magnetic_pulses,
    phase_from_voltage_pulses,
    position_marginal_propagated,
    single_slit_marginal,
)
from .errors import AnalysisError, ConventionViolationError, TruncationError
from .model import Grid1D, Grid2D, MarginalCurve, SlitPairParams, _require_finite, _unit_scenario
from .numeric import DEFAULT_EDGE_DECAY_TOL

# not called here: perfbench/selftest.py checks that the benchmark's tracer
# rebinds this name too (numeric.simulate calls the module's own binding)
from .numeric import wigner_transform  # noqa: F401

_EXIT_USAGE = 2
_EXIT_GUARD = 3
_EXIT_ANALYSIS = 4


# ---------------------------------------------------------------- helpers


def _write_atomic(path: Path, chunks: Iterable[bytes]) -> str:
    """Stream bytes-like chunks to a temp file, rename it over ``path``; return their sha256.

    The temp file is created with mode 0666 under a random name beside
    ``path``, so the result gets the permissions the umask gives a plain
    ``open()`` (0644 under umask 022).
    """
    # imported here: hashlib loads OpenSSL (~3.6 MiB, 3-5 ms in a fresh
    # process), and only simulate and fringes --out write files
    import hashlib

    digest = hashlib.sha256()
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
                del chunk  # so the next chunk is built without this one held
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest.hexdigest()


def _write_csv(path: Path, header: str, values: np.ndarray, *axes: np.ndarray, scale: float = 1.0) -> dict:
    # one row per sample of scale * values over the product of axes (a curve's axis, or x then p),
    # coordinates first, the first axis slowest; shortest round-trip decimals keep files
    # byte-reproducible and give a reader the exact floats. Returns the manifest entry.
    values = values.reshape(tuple(axis.size for axis in axes))  # raises unless the axes span values
    chunks = itertools.chain([f"{header}\n".encode()], _floattext.csv_rows(values, axes, scale))
    return {"path": path.name, "sha256": _write_atomic(path, chunks), "rows": values.size}


def _read_two_column_csv(path: str, expected_header: str) -> Tuple[np.ndarray, np.ndarray]:
    # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8" exports begin with
    lines = Path(path).read_text(encoding="utf-8-sig").strip().splitlines()
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
    message = f"{path}: coordinates must form an ascending uniform grid"
    if not np.all(coords[1:] > coords[:-1]):  # neighbours compared: their differences can overflow
        raise ValueError(message)
    grid = Grid1D(min=coords[0], max=coords[-1], n=coords.size)  # refuses a width past the float range
    steps = np.diff(coords)
    if np.ptp(steps) > 1e-9 * steps[0]:
        raise ValueError(message)
    return MarginalCurve(axis_label=axis_label, grid=grid, values=values)


def _params_from_args(args) -> SlitPairParams:
    return SlitPairParams(x0=args.x0, d=args.d, delta=args.delta, hbar=args.hbar, alpha=args.alpha)


def _grids(args) -> Tuple[Grid1D, Grid1D]:  # the flags' normalized x and p axes
    return Grid1D(min=args.xmin, max=args.xmax, n=args.nx), Grid1D(min=args.pmin, max=args.pmax, n=args.n_p)


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    params = _params_from_args(args)
    unit, square = _unit_scenario(params), params.x0 * params.x0
    # the written momentum density is x0**2 times the unit one, which peaks at 8 pi
    if not (sys.float_info.min <= square and 8 * math.pi * square < math.inf):
        raise ValueError(f"x0**2 = {square!r} and 8*pi*x0**2 must be normal floats, for x0={params.x0!r}")
    x_axis, p_axis = _grids(args)
    engine = analytic if args.engine == "analytic" else numeric
    field, x_density, p_density = engine.simulate(unit, Grid2D(x_axis, p_axis))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    xs, ps = x_axis.points(), p_axis.points()
    files = {
        "wigner": _write_csv(out / "wigner.csv", "x,p,w", field.values, xs, ps, scale=params.x0),
        "xmarginal": _write_csv(out / "xmarginal.csv", "coord,value", x_density, xs),
        "pmarginal": _write_csv(out / "pmarginal.csv", "coord,value", p_density, ps, scale=square),
    }

    manifest = {
        "command": "simulate",
        "version": __version__,
        "engine": args.engine,
        "params": dataclasses.asdict(params),
        "grid": {"coordinates": "normalized: X = x/x0, P = p*x0/hbar", "xmin": x_axis.min, "xmax": x_axis.max,
                 "nx": x_axis.n, "pmin": p_axis.min, "pmax": p_axis.max, "np": p_axis.n},
        "edge_tol": DEFAULT_EDGE_DECAY_TOL,
        "files": files,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_atomic(out / "manifest.json", [text.encode()])
    return 0


# ---------------------------------------------------------------- fringes


def _fringes_curves_from_params(args) -> Tuple[MarginalCurve, MarginalCurve, Optional[Tuple[float, float]]]:
    params = _unit_scenario(_params_from_args(args))
    reference_params = dataclasses.replace(params, delta=_require_finite("--ref-delta", args.ref_delta))
    x_axis, p_axis = _grids(args)
    # a report reads levels relative to each curve's peak: the unit curves need no prefactor
    axis, density = (p_axis, momentum_marginal) if args.axis == "momentum" else (x_axis, position_marginal_propagated)
    coords = axis.points()

    def curve(values: np.ndarray) -> MarginalCurve:
        return MarginalCurve(axis_label=args.axis, grid=axis, values=values)

    # the pattern lies where both single-slit projections carry weight
    slit1, slit2 = (curve(single_slit_marginal(params, args.axis, coords, s)) for s in (1, -1))
    interval = common_support_interval(slit1, slit2)
    return curve(density(params, coords)), curve(density(reference_params, coords)), interval


def cmd_fringes(args) -> int:
    if args.curve_file or args.reference_file:
        if not (args.curve_file and args.reference_file):
            raise ValueError("--curve and --reference must be given together")
        paths = (args.curve_file, args.reference_file)
        curve, reference = (_curve_from_csv(path, args.axis or "momentum") for path in paths)
        interval = None
    else:
        if args.axis is None:
            raise ValueError("parameter mode needs --axis (or pass --curve/--reference files)")
        curve, reference, interval = _fringes_curves_from_params(args)

    report = {**dataclasses.asdict(fringe_report(curve, reference)), "pattern_interval": interval}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        _write_atomic(Path(args.out), [text.encode()])
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- phase


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
        path1, path2 = (PulseSeries(*_read_two_column_csv(p, "t,value")) for p in paths)
        convert = phase_from_voltage_pulses if args.electric is not None else phase_from_magnetic_pulses
        delta = convert(path1, path2, args.scale)
    sys.stdout.write(f"{delta:.12g}\n")
    return 0


# ---------------------------------------------------------------- parser


# One parser per process: building the three-subcommand tree costs far more
# than parsing one argv with it. parse_args makes a fresh namespace each
# call and changes nothing in the parser, so sharing it carries no state
# between calls; callers must not mutate it. The cmd_* functions are bound
# as defaults when it is first built.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wigslits",
        description="Two-slit interference in quantum phase space: Wigner fields, "
        "marginals, and Aharonov-Bohm fringe shifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, d=None):
        p.add_argument("--d", type=float, default=d, required=d is None, help="half slit separation (raw units)")
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
    sim.set_defaults(func=cmd_simulate)

    fr = sub.add_parser("fringes", help="emit a fringe report (JSON) for a curve vs a reference")
    fr.add_argument("--curve", dest="curve_file", help="marginal CSV to analyze")
    fr.add_argument("--reference", dest="reference_file", help="reference marginal CSV")
    fr.add_argument("--axis", choices=("position", "momentum"), help="axis (parameter mode)")
    add_params(fr, d=5.0)
    fr.add_argument("--ref-delta", type=float, default=0.0, help="phase of the reference curve")
    add_grid(fr)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TruncationError, ConventionViolationError) as exc:
        print(f"wigslits: numerical guard: {exc}", file=sys.stderr)
        return _EXIT_GUARD
    except AnalysisError as exc:
        print(f"wigslits: analysis failure: {exc}", file=sys.stderr)
        return _EXIT_ANALYSIS
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: numpy's message sizes the array
        print(f"wigslits: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
