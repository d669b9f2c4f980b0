"""Correctness checks applied to every benchmark request.

Each check is a pure function that returns a list of problems (empty when
the output is correct), so the self-tests can feed it a deliberately broken
output and require a non-empty list. Bounds are the repository's own
acceptance bounds (tests/test_acceptance.py); criterion numbers are given
beside each one.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

FIELD_TOL = 1e-6  # criterion 01: numeric field vs closed form, share of peak
SHEAR_TOL = 1e-3  # criterion 07: sheared field vs propagated field, share of peak
MARGINAL_TOL = 1e-6  # criterion 02: marginals vs |psi|^2 and |phibar|^2, share of peak
MOMENTUM_SHIFT_TOL = 2e-3  # criterion 03
POSITION_SHIFT_TOL = 2e-2  # criterion 04
PERIODIC_TOL = 1e-12  # criterion 05: delta and delta + 2 pi give the same report
# `wigslits phase` prints 12 significant digits
PHASE_REL_TOL = 1e-11


def manifest_problems(out_dir: Path, expected_rows: Dict[str, int]) -> List[str]:
    """The manifest's sha256 and row count match every file as it lies on disk."""
    problems = []
    try:
        manifest = json.loads((Path(out_dir) / "manifest.json").read_text(encoding="utf-8"))
        files = manifest["files"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest unreadable: {exc}"]
    if sorted(files) != sorted(expected_rows):
        return [f"manifest lists {sorted(files)}, expected {sorted(expected_rows)}"]
    for key, rows in expected_rows.items():
        entry = files[key]
        try:
            body = (Path(out_dir) / entry["path"]).read_bytes()
        except OSError as exc:
            problems.append(f"{key}: {exc}")
            continue
        if hashlib.sha256(body).hexdigest() != entry["sha256"]:
            problems.append(f"{key}: sha256 on disk differs from the manifest")
        on_disk = body.count(b"\n") - 1  # minus the header line
        if entry["rows"] != rows or on_disk != rows:
            problems.append(f"{key}: {entry['rows']} rows in manifest, {on_disk} on disk, expected {rows}")
    return problems


def load_csv(path: Path) -> np.ndarray:
    """Numeric body of a CSV written by the CLI (header dropped), one row per line."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def field_problems(actual: np.ndarray, expected: np.ndarray, tol: float, what: str) -> List[str]:
    """Max |actual - expected| within ``tol`` of the expected peak; tol 0 means bit-exact."""
    if actual.shape != expected.shape:
        return [f"{what}: shape {actual.shape}, expected {expected.shape}"]
    if tol == 0:
        if np.array_equal(actual, expected):
            return []
        bad = int(np.count_nonzero(actual != expected))
        return [f"{what}: {bad} values differ from the closed form (bit-exact required)"]
    peak = np.abs(expected).max()
    err = np.abs(actual - expected).max() / peak
    if not err <= tol:
        return [f"{what}: max error {err:.3e} of peak exceeds {tol:.0e}"]
    return []


def grid_column_problems(rows: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> List[str]:
    """The x and p columns of a field CSV enumerate the grid x-major, bit-exact."""
    if rows.shape != (xs.size * ps.size, 3):
        return [f"field CSV has shape {rows.shape}, expected {(xs.size * ps.size, 3)}"]
    if not (np.array_equal(rows[:, 0], np.repeat(xs, ps.size)) and np.array_equal(rows[:, 1], np.tile(ps, xs.size))):
        return ["field CSV coordinates do not match the grid"]
    return []


def wrap_to_period(value: float, period: float) -> float:
    """Representative of ``value`` modulo ``period`` in [-period/2, period/2)."""
    return (value + period / 2) % period - period / 2


def shift_problems(measured: Optional[float], expected: float, period: float, tol: float, what: str) -> List[str]:
    """Fringe shift equals ``expected`` modulo the comb period, within ``tol``."""
    if measured is None or not math.isfinite(measured):
        return [f"{what}: no shift reported"]
    err = abs(wrap_to_period(measured - expected, period))
    if not err <= tol:
        return [f"{what}: shift {measured:.6f}, expected {expected:.6f} mod {period:.6f} (error {err:.2e} > {tol:.0e})"]
    return []


def phase_problems(printed: str, expected: float, what: str) -> List[str]:
    """The phase printed by `wigslits phase` equals ``expected`` to its printed precision."""
    try:
        value = float(printed)
    except ValueError:
        return [f"{what}: unparseable phase {printed!r}"]
    if not abs(value - expected) <= PHASE_REL_TOL * max(1.0, abs(expected)):
        return [f"{what}: phase {value!r}, expected {expected!r}"]
    return []


def periodic_problems(report: dict, shifted: dict) -> List[str]:
    """Reports for delta and delta + 2 pi agree number by number (criterion 05)."""

    def numbers(r):
        return [*r["maxima"], r["period_estimate"], r["shift_vs_reference"], *(r["pattern_interval"] or [None])]

    a, b = numbers(report), numbers(shifted)
    if len(a) != len(b) or [x is None for x in a] != [y is None for y in b]:
        return ["delta and delta + 2 pi give reports of different shape"]
    worst = max((abs(x - y) for x, y in zip(a, b) if x is not None), default=0.0)
    if not worst <= PERIODIC_TOL:
        return [f"delta and delta + 2 pi reports differ by {worst:.2e} (> {PERIODIC_TOL:.0e})"]
    return []


def trapezoid(times: Sequence[float], values: Sequence[float]) -> float:
    """Trapezoid integral by exactly rounded summation, independent of numpy."""
    return math.fsum((t1 - t0) * (v0 + v1) / 2 for t0, t1, v0, v1 in zip(times, times[1:], values, values[1:]))
