"""Span recorder for the traced run.

The recorder wraps each traced public function of the package and records
one span per call made inside a request: name, start, end, parent span and
request id. A recorder made with ``track_memory`` also records the
tracemalloc peak above the allocation level at span start (numpy registers
its buffers with tracemalloc, so array memory counts); tracemalloc slows
allocation-heavy code several times over, so memory is recorded in requests
of its own and self times come from requests without it. Spans are kept in
memory and written out when the run ends.

A function is rebound in every ``wigslits`` module that holds it, so
``wigslits.cli.wigner_transform`` is traced as well as
``wigslits.numeric.wigner_transform``. Only ``cli.main`` is traced in
``cli``, so its self time is argument parsing, CSV formatting, hashing and
file I/O. Calls made outside a request (the benchmark's own checks) pass
straight through.

Nothing here is installed in an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT_SPAN = "bench.request"

# (module, attribute) of every traced layer; a class entry traces its
# validating __post_init__, whose self time is reported as ``init_ms``.
LAYERS = [
    ("model", "WignerField"),
    ("model", "MarginalCurve"),
    ("analytic", "wigner_two_slit"),
    ("analytic", "wigner_two_slit_propagated"),
    ("analytic", "wigner_single_slit"),
    ("analytic", "momentum_marginal"),
    ("analytic", "position_marginal_propagated"),
    ("analytic", "phase_from_flux"),
    ("analytic", "phase_from_voltage_pulses"),
    ("analytic", "phase_from_magnetic_pulses"),
    ("numeric", "sample_wavefunction"),
    ("numeric", "wigner_transform"),
    ("numeric", "field_marginals"),
    ("numeric", "momentum_wavefunction"),
    ("numeric", "propagate_free"),
    ("numeric", "shear_field"),
    ("analysis", "find_fringe_maxima"),
    ("analysis", "fringe_period"),
    ("analysis", "fringe_shift"),
    ("analysis", "common_projection_interval"),
    ("cli", "main"),
]
CLASS_LAYERS = {"model.WignerField", "model.MarginalCurve"}
PEAK_ALLOC_LAYERS = [
    "cli.main",
    "numeric.wigner_transform",
    "numeric.momentum_wavefunction",
    "numeric.shear_field",
    "numeric.propagate_free",
]
ERROR_LAYERS = ["analysis.fringe_period", "analysis.fringe_shift"]
_MB = 1e6


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    request: int
    name: str
    start: float
    end: float = 0.0
    peak_alloc: int = 0  # bytes above the traced level at span start
    error: Optional[str] = None
    cells: int = 0  # phase-space cells produced (Wigner fields)
    bytes_read: int = 0  # CLI input files named in argv
    bytes_written: int = 0  # CLI output left on disk under --out


class _Open:
    __slots__ = ("span", "floor", "seen")

    def __init__(self, span: Span, floor: int):
        self.span, self.floor, self.seen = span, floor, floor


class Recorder:
    def __init__(self, track_memory: bool):
        self.track_memory = track_memory
        self.spans: List[Span] = []
        self._stack: List[_Open] = []

    @contextlib.contextmanager
    def request(self, rid: int):
        """Root span of one request; tracemalloc runs only while it is open."""
        if self.track_memory:
            tracemalloc.start()
        root = self._open(ROOT_SPAN, rid)
        try:
            yield
        finally:
            self._close(root)
            if self.track_memory:
                tracemalloc.stop()

    def _open(self, name: str, rid: int) -> _Open:
        parent = self._stack[-1] if self._stack else None
        current = 0
        if self.track_memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.seen = max(parent.seen, peak)
            tracemalloc.reset_peak()
        span = Span(len(self.spans), parent.span.sid if parent else None, rid, name, 0.0)
        self.spans.append(span)
        frame = _Open(span, current)
        self._stack.append(frame)
        span.start = time.perf_counter()
        return frame

    def _close(self, frame: _Open) -> None:
        frame.span.end = time.perf_counter()
        self._stack.pop()
        if self.track_memory:
            frame.seen = max(frame.seen, tracemalloc.get_traced_memory()[1])
            frame.span.peak_alloc = frame.seen - frame.floor
            if self._stack:
                self._stack[-1].seen = max(self._stack[-1].seen, frame.seen)
            tracemalloc.reset_peak()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call made inside a request.

        ``count(span, args, result)`` fills the span's counters; it runs
        after the span has closed, so its cost is not charged to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            frame = self._open(name, self._stack[0].span.request)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                frame.span.error = type(exc).__name__
                raise
            finally:
                self._close(frame)
            if count is not None:
                count(frame.span, args, result)
            return result

        return traced


def _count_cells(span: Span, args, result) -> None:
    span.cells = result.values.size


def _count_cli_bytes(span: Span, args, result) -> None:
    argv = list(args[0] or [])
    out = argv[argv.index("--out") + 1] if "--out" in argv[:-1] else None
    span.bytes_read = sum(os.path.getsize(a) for a in argv if a != out and os.path.isfile(a))
    if out is not None and os.path.isfile(out):
        span.bytes_written = os.path.getsize(out)
    elif out is not None and os.path.isdir(out):
        span.bytes_written = sum(p.stat().st_size for p in Path(out).rglob("*") if p.is_file())


COUNTERS = {"numeric.wigner_transform": _count_cells, "cli.main": _count_cli_bytes}


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer in every ``wigslits`` module that holds it; return the undo."""
    import wigslits.cli  # noqa: F401  (imports every traced module)

    undo = []
    modules = [m for n, m in list(sys.modules.items()) if n == "wigslits" or n.startswith("wigslits.")]
    for module_name, attr in LAYERS:
        owner = sys.modules[f"wigslits.{module_name}"]
        name = f"{module_name}.{attr}"
        original = getattr(owner, attr, None)
        if original is None:
            continue  # a layer that no longer exists reports zero calls
        if name in CLASS_LAYERS:
            init = original.__post_init__
            original.__post_init__ = recorder.wrap(name, init)
            undo.append((original, "__post_init__", init))
            continue
        wrapped = recorder.wrap(name, original, COUNTERS.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))

    def uninstall():
        for target, key, value in reversed(undo):
            setattr(target, key, value)

    return uninstall


def unit_of(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_mb_per_s", "MB/s"), ("cells_per_s", "1/s"),
                         ("bytes_written", "bytes"), ("bytes_read", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of each span: its duration minus the time its children cover.

    Within one thread children are disjoint and nested in their parent, so
    no self time is negative and per request the self times add up to the
    root span's duration; both are checked here.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    own = {s.sid: (s.end - s.start) - child_time[s.sid] for s in spans}
    for s in spans:
        if own[s.sid] < -1e-9:
            raise RuntimeError(f"span {s.sid} ({s.name}): children cover more than its duration")
    total: Dict[int, float] = defaultdict(float)
    roots: Dict[int, float] = {}
    for s in spans:
        total[s.request] += own[s.sid]
        if s.name == ROOT_SPAN:
            roots[s.request] = s.end - s.start
    for rid, duration in roots.items():
        if abs(total[rid] - duration) > 1e-9 * max(1.0, duration):
            raise RuntimeError(f"request {rid}: self times sum to {total[rid]!r}, root span lasted {duration!r}")
    return own


def layer_metrics(spans: List[Span], memory_spans: List[Span]) -> Dict[str, float]:
    """Per-request means of each layer's self time, calls and counters; peak memory per layer.

    ``spans`` come from requests traced without tracemalloc, ``memory_spans``
    from requests traced with it; only their peaks are used.
    """
    own = self_times(spans)
    self_times(memory_spans)
    requests = max(1, len({s.request for s in spans}))
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(name):
        return sum(own[s.sid] for s in by_name[name])

    out: Dict[str, float] = {f"{ROOT_SPAN}.self_ms": 1e3 * self_s(ROOT_SPAN) / requests}
    for module_name, attr in LAYERS:
        name = f"{module_name}.{attr}"
        suffix = "init_ms" if name in CLASS_LAYERS else "self_ms"
        out[f"{name}.{suffix}"] = 1e3 * self_s(name) / requests
        out[f"{name}.calls"] = len(by_name[name]) / requests
    for name in PEAK_ALLOC_LAYERS:
        peaks = [s.peak_alloc for s in memory_spans if s.name == name]
        out[f"{name}.peak_alloc_mb"] = max(peaks, default=0) / _MB
    for name in ERROR_LAYERS:
        out[f"{name}.errors"] = sum(s.error is not None for s in by_name[name]) / requests
    cells = sum(s.cells for s in by_name["numeric.wigner_transform"])
    wt = self_s("numeric.wigner_transform")
    out["numeric.wigner_transform.cells_per_s"] = cells / wt if wt > 0 else 0.0
    written = sum(s.bytes_written for s in by_name["cli.main"])
    out["cli.bytes_written"] = written / requests
    out["cli.bytes_read"] = sum(s.bytes_read for s in by_name["cli.main"]) / requests
    cli_s = self_s("cli.main")
    out["cli.write_mb_per_s"] = written / _MB / cli_s if cli_s > 0 else 0.0
    return out
