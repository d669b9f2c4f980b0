"""The benchmark's workloads: seeded request streams, the timed call, and its checks.

Every workload is a closed loop with one client: the runner sends the next
request only after the previous one has returned and been verified. The
seed fixes every physical input (delta, flux values, pulse shapes); the
program sees only the generated argv, files and arrays.

A workload object offers:

* ``requests()``: an endless, seed-determined iterator of requests;
* ``execute(request)``: the timed part, calling the package only through
  its public functions, looked up on the module at call time so that the
  traced run's wrappers see them;
* ``verify(request, output)``: the untimed part, returning a digest of the
  outputs and a list of problems (empty when correct).

Requests repeat: an output is checked in full the first time its request
is seen, and a repeat must reproduce that output's digest exactly (the
package promises bit-identical reruns) and inherits its verdict. That keeps
verification cheap, so more of a run's time goes to requests.

Physical scenario throughout: x0 = 1, d = 5, hbar = 1 (normalized units),
so the CLI's normalized coordinates equal the raw ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from wigslits import analysis, analytic, cli, model, numeric

from . import checks

X0, D, HBAR = 1.0, 5.0, 1.0
FLIGHT_ALPHA = 6.0
X_WINDOW = (-12.0, 12.0)  # the CLI's default normalized windows
P_WINDOW = (-4.0, 4.0)
CLI_N = 512  # the CLI's default grid size
MOMENTUM_PERIOD = 2 * math.pi * HBAR / (2 * D)


def flight_width_sq(alpha: float) -> float:
    """Squared slit width after free flight, (alpha^2 hbar^2 + x0^4) / x0^2."""
    return (alpha**2 * HBAR**2 + X0**4) / X0**2


def momentum_shift(delta: float) -> float:
    """Fringe shift of the momentum marginal: delta hbar / (2 d)."""
    return delta * HBAR / (2 * D)


def position_shift(delta: float, alpha: float) -> Tuple[float, float]:
    """Fringe shift after flight, delta x0^2 Delta^2 / (2 alpha d hbar), and the comb period."""
    scale = X0**2 * flight_width_sq(alpha) / (2 * alpha * D * HBAR)
    return delta * scale, 2 * math.pi * scale


def params(delta: float, alpha: float = 0.0) -> model.SlitPairParams:
    return model.SlitPairParams(x0=X0, d=D, delta=delta, hbar=HBAR, alpha=alpha)


def cli_grid(n: int = CLI_N) -> Tuple[model.Grid1D, model.Grid1D]:
    return model.Grid1D(*X_WINDOW, n), model.Grid1D(*P_WINDOW, n)


def arg(value: float) -> str:
    """A float as one argv token that round-trips exactly (the = form admits a leading minus)."""
    return repr(float(value))


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: List[str]) -> CliResult:
    """``wigslits.cli.main`` in-process, with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def write_two_column_csv(path: Path, header: str, first, second) -> None:
    """A two-column input CSV in the CLI's own format (shortest round-trip decimals)."""
    lines = [header, *(f"{float(a)!r},{float(b)!r}" for a, b in zip(first, second))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Verdicts:
    """Verdict of each request's first output, checked in full; repeats are compared by digest."""

    def __init__(self):
        self._first: Dict[object, Tuple[str, List[str]]] = {}

    def __call__(self, key, digest: str, full_check: Callable[[], List[str]]) -> List[str]:
        if key not in self._first:
            self._first[key] = (digest, full_check())
        first_digest, problems = self._first[key]
        if digest != first_digest:
            return ["a repeated request gave different output (reruns must be bit-identical)"]
        return list(problems)


def digest_of(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- simulate-csv


@dataclass(frozen=True)
class SimulateRequest:
    index: int
    engine: str
    alpha: float
    argv: Tuple[str, ...]
    out: Path


class SimulateCsv:
    """`wigslits simulate` at the default 512 x 512 grid, one fresh output directory per request."""

    name = "simulate-csv"
    cycle = 4  # one request per (engine, alpha) kind; the runner stops only at cycle ends

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.delta = rng.uniform(-math.pi, math.pi)
        self.kinds = [(e, a) for e in ("analytic", "numeric") for a in (0.0, FLIGHT_ALPHA)]
        rng.shuffle(self.kinds)
        self.workdir = workdir
        self.x_grid, self.p_grid = cli_grid()
        xs, ps = self.x_grid.points(), self.p_grid.points()
        self.closed = {}
        for alpha in (0.0, FLIGHT_ALPHA):
            p = params(self.delta, alpha)
            self.closed[alpha] = (
                analytic.wigner_two_slit_propagated(p, xs[:, None], ps[None, :]),
                analytic.position_marginal_propagated(p, xs),
                analytic.momentum_marginal(p, ps),
            )
        self.verdicts = Verdicts()

    def grid(self) -> dict:
        return {"nx": self.x_grid.n, "np": self.p_grid.n, "x": X_WINDOW, "p": P_WINDOW}

    def requests(self) -> Iterator[SimulateRequest]:
        for i in itertools.count():
            engine, alpha = self.kinds[i % len(self.kinds)]
            out = self.workdir / f"simulate-{i}"
            argv = ("simulate", "--d", arg(D), f"--delta={arg(self.delta)}", "--alpha", arg(alpha),
                    "--engine", engine, "--out", str(out))
            yield SimulateRequest(i, engine, alpha, argv, out)

    def execute(self, req: SimulateRequest) -> CliResult:
        return run_cli(list(req.argv))

    def verify(self, req: SimulateRequest, result: CliResult) -> Tuple[str, List[str]]:
        try:
            return self._verify(req, result)
        finally:
            shutil.rmtree(req.out, ignore_errors=True)

    def _verify(self, req: SimulateRequest, result: CliResult) -> Tuple[str, List[str]]:
        if result.code != 0:
            return "", [f"exit code {result.code}: {result.stderr.strip()}"]
        n = self.x_grid.n
        problems = checks.manifest_problems(req.out, {"wigner": n * n, "xmarginal": n, "pmarginal": n})
        if problems:
            return "", problems
        manifest = json.loads((req.out / "manifest.json").read_text(encoding="utf-8"))
        digest = digest_of(*(manifest["files"][k]["sha256"] for k in sorted(manifest["files"])))
        return digest, self.verdicts((req.engine, req.alpha), digest, lambda: self._check_values(req))

    def _check_values(self, req: SimulateRequest) -> List[str]:
        n = self.x_grid.n
        rows = checks.load_csv(req.out / "wigner.csv")
        problems = checks.grid_column_problems(rows, self.x_grid.points(), self.p_grid.points())
        field_w, x_density, p_density = self.closed[req.alpha]
        x_rows = checks.load_csv(req.out / "xmarginal.csv")
        p_rows = checks.load_csv(req.out / "pmarginal.csv")
        if req.engine == "analytic":
            field_tol, marginal_tol = 0.0, 0.0
        else:
            field_tol = checks.SHEAR_TOL if req.alpha > 0 else checks.FIELD_TOL
            marginal_tol = checks.MARGINAL_TOL
        if not problems:
            problems += checks.field_problems(rows[:, 2].reshape(n, n), field_w, field_tol, "wigner.csv")
        problems += checks.field_problems(x_rows[:, 1], x_density, marginal_tol, "xmarginal.csv")
        problems += checks.field_problems(p_rows[:, 1], p_density, marginal_tol, "pmarginal.csv")
        return problems


# ---------------------------------------------------------------- numeric-pipeline


@dataclass
class PipelineOutput:
    psi: model.SampledWavefunction
    field: model.WignerField
    position: model.MarginalCurve
    momentum: model.MarginalCurve
    phibar: np.ndarray
    moved: model.SampledWavefunction
    sheared: model.WignerField
    shift: float


class NumericPipeline:
    """The discrete engine end to end at n = 1024, by library calls only; no files."""

    name = "numeric-pipeline"
    cycle = 1
    n = 1024
    distinct = 4  # seeded delta values the requests cycle through

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.deltas = [rng.uniform(-math.pi, math.pi) for _ in range(self.distinct)]
        self.verdicts = Verdicts()
        self.x_grid, self.p_grid = cli_grid(self.n)
        # widened window that holds the packet after flight, on the same lattice
        h = self.x_grid.spacing
        reach = D + 8.0 * max(math.sqrt(flight_width_sq(FLIGHT_ALPHA)), X0)
        self.pad = math.ceil((reach - X_WINDOW[1]) / h)
        self.wide = model.Grid1D(X_WINDOW[0] - self.pad * h, X_WINDOW[1] + self.pad * h, self.n + 2 * self.pad)
        zero = params(0.0, FLIGHT_ALPHA)
        field = numeric.wigner_transform(numeric.sample_wavefunction(zero, self.x_grid), self.p_grid, HBAR)
        xs, ps = self.x_grid.points(), self.p_grid.points()
        problems = checks.field_problems(
            field.values, analytic.wigner_two_slit(zero, xs[:, None], ps[None, :]), checks.FIELD_TOL, "reference"
        )
        if problems:
            raise RuntimeError(f"delta = 0 reference field failed its check: {problems}")
        self.reference = numeric.field_marginals(field, HBAR)[1]

    def grid(self) -> dict:
        return {"nx": self.n, "np": self.n, "x": X_WINDOW, "p": P_WINDOW, "wide_nx": self.wide.n}

    def requests(self) -> Iterator[float]:
        return itertools.cycle(self.deltas)

    def execute(self, delta: float) -> PipelineOutput:
        p = params(delta, FLIGHT_ALPHA)
        psi = numeric.sample_wavefunction(p, self.x_grid)
        field = numeric.wigner_transform(psi, self.p_grid, HBAR)
        position, momentum = numeric.field_marginals(field, HBAR)
        phibar = numeric.momentum_wavefunction(psi, self.p_grid, HBAR)
        moved = numeric.propagate_free(numeric.sample_wavefunction(p, self.wide), FLIGHT_ALPHA, HBAR)
        sheared = numeric.shear_field(field, FLIGHT_ALPHA)
        shift = analysis.fringe_shift(momentum, self.reference)
        return PipelineOutput(psi, field, position, momentum, phibar, moved, sheared, shift)

    def verify(self, delta: float, out: PipelineOutput) -> Tuple[str, List[str]]:
        digest = digest_of(out.psi.values, out.field.values, out.position.values, out.momentum.values,
                           out.phibar, out.moved.values, out.sheared.values, out.shift)
        return digest, self.verdicts(delta, digest, lambda: self._check(delta, out))

    def _check(self, delta: float, out: PipelineOutput) -> List[str]:
        p = params(delta, FLIGHT_ALPHA)
        xs, ps = self.x_grid.points(), self.p_grid.points()
        problems = checks.field_problems(
            out.field.values, analytic.wigner_two_slit(p, xs[:, None], ps[None, :]), checks.FIELD_TOL, "field"
        )
        problems += checks.field_problems(
            out.sheared.values, analytic.wigner_two_slit_propagated(p, xs[:, None], ps[None, :]),
            checks.SHEAR_TOL, "sheared field",
        )
        problems += checks.field_problems(
            out.position.values, np.abs(out.psi.values) ** 2, checks.MARGINAL_TOL, "position marginal"
        )
        problems += checks.field_problems(
            out.momentum.values, np.abs(out.phibar) ** 2, checks.MARGINAL_TOL, "momentum marginal"
        )
        inner = np.abs(out.moved.values[self.pad : self.pad + self.n]) ** 2
        problems += checks.field_problems(
            inner, analytic.position_marginal_propagated(p, xs), checks.MARGINAL_TOL, "propagated density"
        )
        problems += checks.shift_problems(
            out.shift, momentum_shift(delta), MOMENTUM_PERIOD, checks.MOMENTUM_SHIFT_TOL, "momentum shift"
        )
        return problems


# ---------------------------------------------------------------- phase-scan


@dataclass(frozen=True)
class PhaseRequest:
    index: int
    phase_argv: Tuple[str, ...]
    expected_delta: float
    curve_file: Path
    curve_delta: float


@dataclass
class PhaseOutput:
    results: List[CliResult] = field(default_factory=list)
    delta: Optional[float] = None


class PhaseScan:
    """Many small CLI calls: phase conversions feeding fringe reports, and file-mode fringes."""

    name = "phase-scan"
    cycle = 3  # one request per phase mode (flux, electric, neutron)
    pulse_pairs = 4  # seeded pulse pairs per mode
    curves = 4  # seeded momentum-marginal files
    pulse_samples = 129

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.x_grid, self.p_grid = cli_grid()
        workdir.mkdir(parents=True, exist_ok=True)
        self.pulses = {mode: [self._pulse_pair(mode, k) for k in range(self.pulse_pairs)]
                       for mode in ("electric", "neutron")}
        ps = self.p_grid.points()
        self.reference = workdir / "pmarginal-ref.csv"
        write_two_column_csv(self.reference, "coord,value", ps, analytic.momentum_marginal(params(0.0), ps))
        self.curve_files = []
        for k in range(self.curves):
            delta = self.rng.uniform(-math.pi, math.pi)
            path = workdir / f"pmarginal-{k}.csv"
            write_two_column_csv(path, "coord,value", ps, analytic.momentum_marginal(params(delta), ps))
            self.curve_files.append((path, delta))

    def grid(self) -> dict:
        return {"nx": self.x_grid.n, "np": self.p_grid.n, "x": X_WINDOW, "p": P_WINDOW,
                "pulse_samples": self.pulse_samples}

    def _pulse(self, path: Path) -> float:
        """Write one seeded pulse (a Gaussian bump on jittered times); return its trapezoid integral."""
        m = self.pulse_samples
        times = [(k + 0.4 * self.rng.random()) / m for k in range(m)]
        amp, centre, width = self.rng.uniform(-4, 4), self.rng.uniform(0.3, 0.7), self.rng.uniform(0.05, 0.2)
        values = [amp * math.exp(-(((t - centre) / width) ** 2)) for t in times]
        write_two_column_csv(path, "t,value", times, values)
        return checks.trapezoid(times, values)

    def _pulse_pair(self, mode: str, k: int) -> Tuple[Path, Path, float, float]:
        """Two pulse files, a seeded scale, and the phase they must convert to."""
        paths = [self.workdir / f"{mode}-{k}-path{j}.csv" for j in (1, 2)]
        scale = self.rng.uniform(0.5, 2.0)
        integral = self._pulse(paths[0]) - self._pulse(paths[1])
        return paths[0], paths[1], scale, scale * integral

    def requests(self) -> Iterator[PhaseRequest]:
        for i in itertools.count():
            mode = ("flux", "electric", "neutron")[i % 3]
            if mode == "flux":
                phi, phi0 = self.rng.uniform(-1.5, 1.5), self.rng.uniform(0.5, 2.0)
                argv = ("phase", f"--flux={arg(phi)}", "--flux-quantum", arg(phi0))
                expected = 2 * math.pi * phi / phi0
            else:
                path1, path2, scale, expected = self.pulses[mode][self.rng.randrange(self.pulse_pairs)]
                argv = ("phase", f"--{mode}", str(path1), str(path2), "--scale", arg(scale))
            curve, curve_delta = self.curve_files[self.rng.randrange(self.curves)]
            yield PhaseRequest(i, argv, expected, curve, curve_delta)

    def execute(self, req: PhaseRequest) -> PhaseOutput:
        out = PhaseOutput()
        phase = run_cli(list(req.phase_argv))
        out.results.append(phase)
        if phase.code != 0:
            return out
        out.delta = float(phase.stdout)
        for argv in (
            ["fringes", "--axis", "momentum", f"--delta={arg(out.delta)}"],
            ["fringes", "--axis", "momentum", f"--delta={arg(out.delta + 2 * math.pi)}"],
            ["fringes", "--axis", "position", "--alpha", arg(FLIGHT_ALPHA), f"--delta={arg(out.delta)}"],
            ["fringes", "--curve", str(req.curve_file), "--reference", str(self.reference)],
        ):
            out.results.append(run_cli(argv))
        return out

    def verify(self, req: PhaseRequest, out: PhaseOutput) -> Tuple[str, List[str]]:
        failed = [f"{r.code}: {r.stderr.strip()}" for r in out.results if r.code != 0]
        if failed or len(out.results) != 5:
            return "", [f"CLI call failed with exit code {f}" for f in failed] or ["request incomplete"]
        digest = digest_of(*(r.stdout for r in out.results))
        problems = checks.phase_problems(out.results[0].stdout, req.expected_delta, " ".join(req.phase_argv[:2]))
        try:
            momentum, periodic, position, from_file = (json.loads(r.stdout) for r in out.results[1:])
        except ValueError as exc:
            return digest, problems + [f"fringe report is not JSON: {exc}"]
        problems += checks.shift_problems(momentum["shift_vs_reference"], momentum_shift(out.delta),
                                          MOMENTUM_PERIOD, checks.MOMENTUM_SHIFT_TOL, "momentum shift")
        problems += checks.periodic_problems(momentum, periodic)
        expected, period = position_shift(out.delta, FLIGHT_ALPHA)
        problems += checks.shift_problems(position["shift_vs_reference"], expected, period,
                                          checks.POSITION_SHIFT_TOL, "position shift")
        problems += checks.shift_problems(from_file["shift_vs_reference"], momentum_shift(req.curve_delta),
                                          MOMENTUM_PERIOD, checks.MOMENTUM_SHIFT_TOL, "file-mode momentum shift")
        return digest, problems


WORKLOADS = {w.name: w for w in (SimulateCsv, NumericPipeline, PhaseScan)}
