"""Seeded accuracy probes, each defined once.

P2: parameter-mode ``fringes`` reports against the closed-form shift and
period. P6: the numeric engine's distance from the closed form on four
grids. P8: the comb frequency that reports fit to momentum curves, against
the closed form's. P9: printed periods that are an end of the comb search's
bracket, 0.7 or 1.3 times the frequency of the curve's median maximum
spacing.

``python tests/probes.py [COUNT [SEED]]`` prints P2 and P9 for COUNT draws
(default 1200) from SEED (default 3), then P6, then P8 at its own size (300
curves from seed 5); two runs print the same bytes. It needs ``wigslits`` on
the import path (an install, or ``PYTHONPATH=src``). pytest does not collect
this module; the sweeps that draw through it import it.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from wigslits import analytic, numeric
from wigslits.analysis import FringeReport, fringe_report
from wigslits.cli import _fringes_curves_from_params, build_parser
from wigslits.errors import AnalysisError
from wigslits.model import Grid1D, Grid2D, MarginalCurve, SlitPairParams, normalized_params


class Draw(NamedTuple):
    axis: str
    argv: list
    shift: float  # the closed-form shift and period, in the report's normalized coordinates
    period: float
    window: float  # the length of the axis' default window


def p2_draws(seed: int, count: int) -> Iterator[Draw]:
    """P2's draws. The axes alternate, momentum first. x0 and hbar are
    log-uniform on [0.3, 3], D = d/x0 uniform on [1.5, 8], and
    A = alpha hbar / x0**2 log-uniform on [0.5, 40], or 0 in half of the
    momentum draws. nx = np is uniform on [64, 700), on the default windows,
    and delta uniform on [0, 2 pi), against a reference at 0.

    The comb is cos(2 D P - delta) on the momentum axis and, after flight,
    cos(2 A D X / (1 + A**2) - delta) on the position axis.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        axis = ("momentum", "position")[i % 2]
        x0, hbar = np.exp(rng.uniform(math.log(0.3), math.log(3.0), 2)).tolist()
        big_d = float(rng.uniform(1.5, 8.0))
        big_a = math.exp(rng.uniform(math.log(0.5), math.log(40.0)))
        if rng.random() < 0.5 and axis == "momentum":
            big_a = 0.0
        n, delta = int(rng.integers(64, 700)), float(rng.uniform(0.0, 2 * math.pi))
        k, window = (2 * big_d, 8.0) if axis == "momentum" else (2 * big_a * big_d / (1 + big_a**2), 24.0)
        argv = ["fringes", "--axis", axis, f"--x0={x0!r}", f"--d={big_d * x0!r}", f"--hbar={hbar!r}",
                f"--alpha={big_a * x0 * x0 / hbar!r}", f"--delta={delta!r}", "--nx", str(n), "--np", str(n)]
        yield Draw(axis, argv, delta / k, 2 * math.pi / k, window)


def curves(draw: Draw) -> Tuple[MarginalCurve, MarginalCurve]:
    """The curve and the reference that ``wigslits`` samples for the draw."""
    curve, reference, _ = _fringes_curves_from_params(build_parser().parse_args(draw.argv))
    return curve, reference


def report(draw: Draw) -> Optional[FringeReport]:
    """The report ``wigslits`` prints for the draw, or None where it exits 4."""
    try:
        return fringe_report(*curves(draw))
    except AnalysisError:
        return None


def at_bracket_end(result: Optional[FringeReport]) -> bool:
    """Whether the printed period lies within 1e-9 relative of an end of its search bracket."""
    if result is None or result.period_estimate is None:
        return False
    median_gap = float(np.median(np.diff(result.maxima)))
    return any(abs(result.period_estimate * factor / median_gap - 1) <= 1e-9 for factor in (0.7, 1.3))


def _cyclic_error(got: float, want: float, period: float) -> float:
    """|got - want| modulo the period, over the period."""
    error = ((got - want) / period) % 1.0
    return min(error, 1.0 - error)


def p2_p9_table(seed: int, count: int) -> str:
    """P2's table on the draws with at least 2 periods on the window, and P9's count on all draws.

    An exit 4 and a null shift count as an error of 1 period; the null shifts,
    where the reference's comb search ended on its bracket, are also counted
    on their own.
    """
    p2 = {axis: [0, 0, 0, 0, 0] for axis in ("momentum", "position")}
    p9 = {axis: [0, 0] for axis in ("momentum", "position")}
    for draw in p2_draws(seed, count):
        got = report(draw)
        if got is not None and got.period_estimate is not None:
            p9[draw.axis][0] += at_bracket_end(got)
            p9[draw.axis][1] += 1
        if draw.window < 2 * draw.period:
            continue
        null_shift = got is not None and got.shift_vs_reference is None
        error = 1.0 if got is None or null_shift else _cyclic_error(got.shift_vs_reference, draw.shift, draw.period)
        bad_period = got is None or got.period_estimate is None or abs(got.period_estimate / draw.period - 1) > 0.01
        row = p2[draw.axis]
        row[0] += 1
        row[1] += error > 2e-3
        row[2] += error > 0.1
        row[3] += null_shift
        row[4] += bad_period
    lines = [f"P2, seed {seed}, {count} draws: the draws with >= 2 periods on the window",
             f"{'axis':<10}{'draws':>7}{'error > 2e-3':>14}{'error > 0.1':>13}{'shift null':>12}"
             f"{'period null or > 1 % off':>26}"]
    lines += [f"{axis:<10}{row[0]:>7}{row[1]:>14}{row[2]:>13}{row[3]:>12}{row[4]:>26}" for axis, row in p2.items()]
    lines.append("P9, all draws: printed periods at an end of the comb search's bracket")
    lines += [f"{axis:<10}{ends} of {printed}" for axis, (ends, printed) in p9.items()]
    return "\n".join(lines) + "\n"


def _distance(got: np.ndarray, want: np.ndarray) -> float:
    """max|got - want| / max|want|."""
    return float(np.abs(got - want).max() / np.abs(want).max())


def p6_table() -> str:
    """P6: ``numeric.simulate`` against ``analytic.simulate`` at d = 5, delta = 4 on [-12, 12] x [-4, 4].

    Each column is :func:`_distance` of one output, the largest over the
    row's alphas. 1000 x 1024 has alpha dp / dx = 1.95, off the lattice.
    """
    lines = ["P6: numeric against closed form, max|numeric - analytic| / max|analytic|, d = 5, delta = 4",
             f"{'nx x np':<12}{'alpha':>8}{'field':>10}{'x density':>11}{'p density':>11}"]
    for nx, n_p, alphas in ((512, 512, (0.0, 6.0)), (1000, 1024, (6.0,)), (97, 101, (6.0,)), (64, 65, (6.0,))):
        grid = Grid2D(Grid1D(-12.0, 12.0, nx), Grid1D(-4.0, 4.0, n_p))
        worst = [0.0, 0.0, 0.0]
        for alpha in alphas:
            params = normalized_params(alpha=alpha, delta=4.0)
            got, want = numeric.simulate(params, grid), analytic.simulate(params, grid)
            pairs = [(got[0].values, want[0].values), *zip(got[1:], want[1:])]  # the field, then the densities
            worst = [max(w, _distance(a, b)) for w, (a, b) in zip(worst, pairs)]
        label = " or ".join(f"{alpha:g}" for alpha in alphas)
        lines.append(f"{f'{nx} x {n_p}':<12}{label:>8}" + "".join(f"{x:>{w}.1e}" for x, w in zip(worst, (10, 11, 11))))
    return "\n".join(lines) + "\n"


def p8_table(seed: int, count: int) -> str:
    """P8: the comb frequency 2 pi / period of ``fringe_report(curve, curve)`` against the closed form's 2D.

    The curves are momentum densities at x0 = hbar = 1 on [-4, 4], with D
    uniform on [2, 6], delta on [0, 2 pi) and n on [128, 1024), drawn in that
    order. A curve has a comb at 3 maxima or more; the error is
    |frequency / 2D - 1| over the printed periods, and the periods that are
    null because the search ended on its bracket are counted on their own.
    """
    rng = np.random.default_rng(seed)
    combs, nulls, errors = 0, 0, []
    for _ in range(count):
        big_d, delta = float(rng.uniform(2.0, 6.0)), float(rng.uniform(0.0, 2 * math.pi))
        n = int(rng.integers(128, 1024))
        grid = Grid1D(-4.0, 4.0, n)
        values = analytic.momentum_marginal(SlitPairParams(x0=1.0, d=big_d, delta=delta), grid.points())
        curve = MarginalCurve("momentum", grid, values)
        got = fringe_report(curve, curve)
        if len(got.maxima) < 3:
            continue
        combs += 1
        if got.period_estimate is None:
            nulls += 1
        else:
            errors.append(abs(2 * math.pi / got.period_estimate / (2 * big_d) - 1))
    errors = np.array(errors)
    return (f"P8, seed {seed}, {count} momentum curves: the comb frequency against 2D\n"
            f"{combs} with a comb, {nulls} null at a bracket end; of the {errors.size} printed: "
            f"median error {np.median(errors):.1e}, {np.count_nonzero(errors > 1e-3)} above 1e-3, "
            f"worst {errors.max():.1e}\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the P2, P9, P6 and P8 accuracy probes.")
    parser.add_argument("count", type=int, nargs="?", default=1200, help="number of P2 draws")
    parser.add_argument("seed", type=int, nargs="?", default=3, help="seed of the P2 draws")
    args = parser.parse_args()
    sys.stdout.write(p2_p9_table(args.seed, args.count) + p6_table() + p8_table(5, 300))
