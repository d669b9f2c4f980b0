"""Seeded accuracy probes of the fringe report, each defined once.

P2: parameter-mode ``fringes`` reports against the closed-form shift and
period. P9: printed periods that are an end of the comb search's bracket,
0.7 or 1.3 times the frequency of the curve's median maximum spacing.

``python tests/probes.py [COUNT [SEED]]`` prints both for COUNT draws
(default 1200) from SEED (default 3); two runs print the same bytes. It needs
``wigslits`` on the import path (an install, or ``PYTHONPATH=src``). pytest
does not collect this module; the sweeps that draw through it import it.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterator, NamedTuple, Optional

import numpy as np

from wigslits.analysis import fringe_report
from wigslits.cli import _fringes_curves_from_params, build_parser
from wigslits.errors import AnalysisError
from wigslits.model import FringeReport


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


def report(draw: Draw) -> Optional[FringeReport]:
    """The report ``wigslits`` prints for the draw, or None where it exits 4."""
    curve, reference, interval = _fringes_curves_from_params(build_parser().parse_args(draw.argv))
    try:
        return fringe_report(curve, reference, interval)
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
    """P2's table on the draws with at least 2 periods on the window, and P9's count on all draws."""
    p2 = {axis: [0, 0, 0, 0] for axis in ("momentum", "position")}
    p9 = {axis: [0, 0] for axis in ("momentum", "position")}
    for draw in p2_draws(seed, count):
        got = report(draw)
        if got is not None and got.period_estimate is not None:
            p9[draw.axis][0] += at_bracket_end(got)
            p9[draw.axis][1] += 1
        if draw.window < 2 * draw.period:
            continue
        error = 1.0 if got is None else _cyclic_error(got.shift_vs_reference, draw.shift, draw.period)
        bad_period = got is None or got.period_estimate is None or abs(got.period_estimate / draw.period - 1) > 0.01
        row = p2[draw.axis]
        row[0] += 1
        row[1] += error > 2e-3
        row[2] += error > 0.1
        row[3] += bad_period
    lines = [f"P2, seed {seed}, {count} draws: the draws with >= 2 periods on the window",
             f"{'axis':<10}{'draws':>7}{'error > 2e-3':>14}{'error > 0.1':>13}{'period null or > 1 % off':>26}"]
    lines += [f"{axis:<10}{row[0]:>7}{row[1]:>14}{row[2]:>13}{row[3]:>26}" for axis, row in p2.items()]
    lines.append("P9, all draws: printed periods at an end of the comb search's bracket")
    lines += [f"{axis:<10}{ends} of {printed}" for axis, (ends, printed) in p9.items()]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the P2 and P9 fringe-report probes.")
    parser.add_argument("count", type=int, nargs="?", default=1200, help="number of draws")
    parser.add_argument("seed", type=int, nargs="?", default=3, help="seed of the draws")
    args = parser.parse_args()
    sys.stdout.write(p2_p9_table(args.seed, args.count))
