"""Benchmark of the wigslits workflow: one closed-loop workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload simulate-csv --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each run builds its inputs from ``--seed``, sets up, then sends requests one
at a time for ``--seconds``, verifying every output before the next request
(a closed loop with one client). It prints a human-readable report and, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with no tracing
installed: set-up time and peak RSS in the result line; throughput, the
median and tail request times and the failed fraction in the printed report. ``--trace 1`` spends half the time untraced and half with the
span recorder installed, and reports the per-layer metrics: per-request
self time and calls of every traced layer, memory and I/O counters, and the
tracing overhead (traced minus untraced median request time).

Set-up time is measured in fresh processes that import, build the seeded
inputs and serve one warm-up request; the median of at least three is
reported.
Result files (with provenance, and the spans of a traced run) go to
``.perfbench/results`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("simulate-csv", "numeric-pipeline", "phase-scan")
# Set up at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS have gone
# into it, so a cheap set-up is sampled as often as an expensive one.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 8.0
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it

# Fixed BLAS thread count, no higher than the CPUs this process may use.
# Set before numpy is first imported (the workload modules import it).
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}
# Printed beside the end-to-end metrics but kept out of the result line, so
# no regression gate rests on them: on a shared 2-vCPU VM (Xeon, numpy 2.4,
# OpenBLAS 0.3.31) identical simulate requests take 0.9-2.2 s, and across
# ten seeded 25 s runs throughput spreads by up to 27 % of its median and
# the median and tail request times by up to 26 %, more than the 25 % a
# bound may be. failed_frac is 0 whenever the result is correct and is
# carried by the result's "failed" count.
REPORTED_UNITS = {
    "throughput_rps": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "failed_frac": "ratio",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """The workload module, importing wigslits from this checkout's ``src`` only."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import wigslits

    if not Path(wigslits.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"wigslits was imported from {wigslits.__file__}, not from {SRC}")
    from perfbench import workloads

    return workloads


# ---------------------------------------------------------------- set-up


def set_up(workloads, name: str, seed: int, workdir: Path):
    """Build the seeded workload and serve one verified warm-up request."""
    workload = workloads.WORKLOADS[name](seed, workdir)
    stream = workload.requests()
    warm = next(stream)
    _, problems = workload.verify(warm, workload.execute(warm))
    return workload, stream, problems


def setup_probe(args) -> int:
    """Child process of ``measure_setup``: set up, say so, clean up."""
    workdir = new_workdir()
    try:
        set_up(import_workloads(), args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> List[float]:
    """Seconds from process start to the first timed request, in fresh processes."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def new_workdir() -> Path:
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


# ---------------------------------------------------------------- the loop


@dataclass
class Loop:
    latencies: List[float] = field(default_factory=list)  # seconds per request
    failed: int = 0

    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.latencies)


def closed_loop(workload, stream, seconds: float, recorder=None, first_id: int = 0) -> Loop:
    """Send requests one at a time until ``seconds`` have passed, ending on a whole cycle.

    Only the call into the program is timed; verification runs between
    requests with the clock stopped.
    """
    loop = Loop()
    start = time.perf_counter()
    while True:
        req = next(stream)
        rid = first_id + len(loop.latencies)
        error = None
        t0 = time.perf_counter()
        try:
            if recorder is None:
                out = workload.execute(req)
            else:
                with recorder.request(rid):
                    out = workload.execute(req)
        except Exception:  # a request that raises is a failed request, not a crashed benchmark
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        try:
            problems = [error] if error else workload.verify(req, out)[1]
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        loop.latencies.append(t1 - t0)
        if problems:
            loop.failed += 1
            print(f"request {rid} failed: " + "; ".join(problems), file=sys.stderr)
        if len(loop.latencies) % workload.cycle == 0 and time.perf_counter() - start >= seconds:
            return loop


def tail(latencies_ms: List[float]):
    """(percentile, value, samples beyond) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies_ms)
    k = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return 100.0 * (k + 1) / len(ordered), ordered[k], len(ordered) - 1 - k


# ---------------------------------------------------------------- provenance


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> Optional[str]:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, workload) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "grid": workload.grid(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------- runs


def run_untraced(args, workload, stream) -> tuple:
    loop = closed_loop(workload, stream, args.seconds)
    ms = [1e3 * t for t in loop.latencies]
    q, tail_ms, beyond = tail(ms)
    ok = len(ms) - loop.failed
    metrics = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    reported = {
        "throughput_rps": ok / sum(loop.latencies),
        "request_p50_ms": statistics.median(ms),
        "request_tail_ms": tail_ms,
        "failed_frac": loop.failed / len(ms),
    }
    notes = {
        "throughput_rps": f"{ok} verified requests / {sum(loop.latencies):.3f} s in the program",
        "request_p50_ms": f"median of {len(ms)} requests",
        "request_tail_ms": f"p{q:.1f} of {len(ms)} requests, {beyond} beyond it",
        "failed_frac": f"{loop.failed} of {len(ms)} requests",
    }
    return loop, metrics, END_TO_END_UNITS, reported, notes


def run_traced(args, workload, stream, results: Path) -> tuple:
    """Thirds of the time: untraced, traced with spans only, traced with spans and tracemalloc."""
    from perfbench import tracing

    third = args.seconds / 3
    passes = [closed_loop(workload, stream, third)]
    recorders = [tracing.Recorder(track_memory=False), tracing.Recorder(track_memory=True)]
    for recorder in recorders:
        uninstall = tracing.install(recorder)
        try:
            first_id = sum(len(p.latencies) for p in passes)
            passes.append(closed_loop(workload, stream, third, recorder, first_id))
        finally:
            uninstall()
    base, traced, _ = passes
    metrics = tracing.layer_metrics(recorders[0].spans, recorders[1].spans)
    metrics["bench.trace_overhead_ms"] = traced.p50_ms() - base.p50_ms()
    spans = [{**asdict(s), "memory_pass": r.track_memory} for r in recorders for s in r.spans]
    results.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")
    shares = sorted(((v, k) for k, v in metrics.items() if k.endswith(("self_ms", "init_ms"))), reverse=True)
    total = sum(v for v, _ in shares) or 1.0
    notes = {
        "largest self-time shares": ", ".join(f"{k} {100 * v / total:.1f}%" for v, k in shares[:4]),
        "bench.trace_overhead_ms": f"traced p50 {traced.p50_ms():.3f} ms ({len(traced.latencies)} requests) - "
        f"untraced p50 {base.p50_ms():.3f} ms ({len(base.latencies)} requests); "
        f"peaks from {len(passes[2].latencies)} requests under tracemalloc",
    }
    loop = Loop([t for p in passes for t in p.latencies], sum(p.failed for p in passes))
    return loop, metrics, {k: tracing.unit_of(k) for k in metrics}, {}, notes


def run_one(args) -> int:
    setup_times = [] if args.trace else measure_setup(args)
    workloads = import_workloads()
    workdir = new_workdir()
    try:
        workload, stream, warm_problems = set_up(workloads, args.workload, args.seed, workdir)
        for problem in warm_problems:
            print(f"warm-up request failed: {problem}", file=sys.stderr)
        results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        results.parent.mkdir(parents=True, exist_ok=True)
        if args.trace:
            loop, metrics, units, reported, notes = run_traced(args, workload, stream, results)
        else:
            loop, metrics, units, reported, notes = run_untraced(args, workload, stream)
            metrics["setup_s"] = statistics.median(setup_times)
            notes["setup_s"] = "median of " + ", ".join(f"{t:.3f}" for t in setup_times)
        prov = provenance(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": loop.failed == 0 and not warm_problems,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    results.write_text(json.dumps({**result, "reported": reported, "notes": notes, "provenance": prov}, indent=2) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {len(loop.latencies)}  failed {loop.failed}")
    values = {**metrics, **reported}
    for key in sorted(values):
        note = f"  ({notes[key]})" if key in notes else ""
        unit = units.get(key) or REPORTED_UNITS[key]
        print(f"  {key:48s} {values[key]:14.6g} {unit}{note}")
    for key in sorted(set(notes) - set(values)):
        print(f"  {key}: {notes[key]}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "wigslits" / "__init__.py").is_file():
        print(f"perfbench: no wigslits sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
