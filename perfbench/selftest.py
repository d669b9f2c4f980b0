"""Self-tests of the benchmark's own code.

Run from the root of a checkout:

    python3 -m pytest perfbench/selftest.py -q

The same seed must give the same requests and the same output digests, and
every correctness check must fire on an injected fault: a check that cannot
fail measures nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run, tracing, workloads  # noqa: E402
from wigslits import cli, numeric  # noqa: E402


def first(workload, k):
    stream = workload.requests()
    return [next(stream) for _ in range(k)]


def normalized(request, workdir: Path) -> str:
    return repr(request).replace(str(workdir), "<work>")


@pytest.mark.parametrize("name,k", [("simulate-csv", 2), ("numeric-pipeline", 2), ("phase-scan", 3)])
def test_same_seed_same_requests_and_digests(tmp_path, name, k):
    cls = workloads.WORKLOADS[name]
    a, b = cls(7, tmp_path / "a"), cls(7, tmp_path / "b")
    ra, rb = first(a, k), first(b, k)
    assert [normalized(r, tmp_path / "a") for r in ra] == [normalized(r, tmp_path / "b") for r in rb]
    da = [a.verify(r, a.execute(r)) for r in ra]
    db = [b.verify(r, b.execute(r)) for r in rb]
    assert all(problems == [] for _, problems in da + db)
    assert [d for d, _ in da] == [d for d, _ in db]
    other = cls(8, tmp_path / "c")
    assert [normalized(r, tmp_path / "c") for r in first(other, k)] != [normalized(r, tmp_path / "a") for r in ra]


# ---------------------------------------------------------------- simulate-csv faults


@pytest.fixture(scope="module")
def small_simulation(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert cli.main(["simulate", "--d", "5", "--nx", "32", "--np", "16", "--out", str(out)]) == 0
    return out


ROWS = {"wigner": 32 * 16, "xmarginal": 32, "pmarginal": 16}


def test_manifest_check_fires_on_flipped_byte(small_simulation, tmp_path):
    assert checks.manifest_problems(small_simulation, ROWS) == []
    broken = tmp_path / "flipped"
    broken.mkdir()
    for f in small_simulation.iterdir():
        (broken / f.name).write_bytes(f.read_bytes())
    body = bytearray((broken / "wigner.csv").read_bytes())
    body[-3] ^= 0x01
    (broken / "wigner.csv").write_bytes(bytes(body))
    assert any("sha256" in p for p in checks.manifest_problems(broken, ROWS))


def test_manifest_check_fires_on_wrong_row_count(small_simulation):
    assert checks.manifest_problems(small_simulation, {**ROWS, "pmarginal": 17})


def test_simulate_checks_fire_on_wrong_alpha_and_changed_bytes(tmp_path):
    workload = workloads.SimulateCsv(3, tmp_path)
    numeric_flight = next(r for r in first(workload, 4) if r.engine == "numeric" and r.alpha > 0)
    workload.closed[numeric_flight.alpha] = workload.closed[0.0]  # compare the alpha=6 field against alpha=0
    _, problems = workload.verify(numeric_flight, workload.execute(numeric_flight))
    assert any("wigner.csv" in p for p in problems)

    workload = workloads.SimulateCsv(3, tmp_path)
    request = first(workload, 1)[0]
    assert workload.verify(request, workload.execute(request))[1] == []
    result = workload.execute(request)  # the same request again, then one byte changed consistently
    xmarginal = request.out / "xmarginal.csv"
    body = bytearray(xmarginal.read_bytes())
    body[-3] ^= 0x01
    xmarginal.write_bytes(bytes(body))
    manifest = json.loads((request.out / "manifest.json").read_text())
    manifest["files"]["xmarginal"]["sha256"] = hashlib.sha256(bytes(body)).hexdigest()
    (request.out / "manifest.json").write_text(json.dumps(manifest))
    _, problems = workload.verify(request, result)
    assert any("bit-identical" in p for p in problems)


def test_simulate_check_fires_on_exit_code(tmp_path):
    workload = workloads.SimulateCsv(3, tmp_path)
    request = first(workload, 1)[0]
    _, problems = workload.verify(request, workloads.CliResult(3, "", "numerical guard"))
    assert problems


# ---------------------------------------------------------------- numeric-pipeline faults


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    workload = workloads.NumericPipeline(5, tmp_path_factory.mktemp("pipe"))
    delta = first(workload, 1)[0]
    return workload, delta, workload.execute(delta)


def verify_afresh(workload, request, out):
    """Problems found by a full check, not by comparison with an earlier verdict."""
    workload.verdicts = workloads.Verdicts()
    return workload.verify(request, out)[1]


def test_pipeline_output_passes_and_repeats_must_match(pipeline):
    workload, delta, out = pipeline
    assert verify_afresh(workload, delta, out) == []
    assert workload.verify(delta, out)[1] == []
    changed = workloads.PipelineOutput(**{**vars(out), "shift": out.shift + 1e-12})
    assert any("bit-identical" in p for p in workload.verify(delta, changed)[1])


def test_pipeline_check_fires_on_unsheared_field(pipeline):
    workload, delta, out = pipeline
    wrong = workloads.PipelineOutput(**{**vars(out), "sheared": out.field})
    assert any("sheared field" in p for p in verify_afresh(workload, delta, wrong))


def test_pipeline_check_fires_on_wrong_delta(pipeline):
    workload, delta, out = pipeline
    problems = verify_afresh(workload, delta + 0.1, out)
    assert any("momentum shift" in p for p in problems)
    assert any(p.startswith("field") for p in problems)


def test_pipeline_check_fires_on_marginal_error(pipeline):
    workload, delta, out = pipeline
    wrong = workloads.PipelineOutput(**{**vars(out), "phibar": out.phibar * (1 + 1e-5)})
    assert any("momentum marginal" in p for p in verify_afresh(workload, delta, wrong))


def test_pipeline_check_fires_on_truncated_flight(pipeline):
    workload, delta, out = pipeline
    short = numeric.propagate_free(out.moved, 1.0, on_truncation="warn")
    wrong = workloads.PipelineOutput(**{**vars(out), "moved": short})
    assert any("propagated density" in p for p in verify_afresh(workload, delta, wrong))


# ---------------------------------------------------------------- phase-scan faults


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    workload = workloads.PhaseScan(9, tmp_path_factory.mktemp("scan"))
    requests = first(workload, 3)
    return workload, [(r, workload.execute(r)) for r in requests]


def test_scan_outputs_pass(scan):
    workload, done = scan
    for request, out in done:
        assert workload.verify(request, out)[1] == []


def rerun(out, index, argv):
    results = list(out.results)
    results[index] = workloads.run_cli(argv)
    return workloads.PhaseOutput(results, out.delta)


def test_scan_check_fires_on_delta_off_by_a_tenth(scan):
    workload, done = scan
    request, out = done[0]
    off = workloads.arg(out.delta + 0.1)
    momentum = rerun(out, 1, ["fringes", "--axis", "momentum", f"--delta={off}"])
    assert any(p.startswith("momentum shift") for p in workload.verify(request, momentum)[1])
    position = rerun(out, 3, ["fringes", "--axis", "position", "--alpha", "6", f"--delta={off}"])
    assert any(p.startswith("position shift") for p in workload.verify(request, position)[1])


def test_scan_check_fires_on_broken_periodicity(scan):
    workload, done = scan
    request, out = done[0]
    report = json.loads(out.results[2].stdout)
    report["maxima"][0] += 1e-9
    results = list(out.results)
    results[2] = workloads.CliResult(0, json.dumps(report), "")
    assert any("2 pi" in p for p in workload.verify(request, workloads.PhaseOutput(results, out.delta))[1])


def test_scan_check_fires_on_wrong_phase_and_wrong_curve(scan):
    workload, done = scan
    for request, out in done:  # flux, electric and neutron
        wrong = workloads.PhaseRequest(request.index, request.phase_argv, request.expected_delta + 1e-6,
                                       request.curve_file, request.curve_delta)
        assert any(p.startswith("phase") for p in workload.verify(wrong, out)[1])
    request, out = done[0]
    moved = workloads.PhaseRequest(request.index, request.phase_argv, request.expected_delta,
                                   request.curve_file, request.curve_delta + 0.1)
    assert any("file-mode" in p for p in workload.verify(moved, out)[1])


def test_shift_check_compares_modulo_the_period():
    period = math.pi / 5
    assert checks.shift_problems(0.1 + period, 0.1, period, 2e-3, "s") == []
    assert checks.shift_problems(0.1 + 0.5 * period, 0.1, period, 2e-3, "s")


# ---------------------------------------------------------------- runner and tracer


class Faulty:
    """Three requests per cycle: the second raises, the third fails its check."""

    cycle = 3

    def requests(self):
        return iter(range(3))

    def execute(self, i):
        if i == 1:
            raise RuntimeError("boom")
        return i

    def verify(self, i, out):
        return str(out), ["wrong"] if i == 2 else []


def test_loop_counts_raised_and_failed_requests():
    workload = Faulty()
    loop = run.closed_loop(workload, workload.requests(), seconds=0.0)
    assert len(loop.latencies) == 3  # always at least one whole cycle
    assert loop.failed == 2


def test_tail_has_ten_samples_beyond_it():
    q, value, beyond = run.tail([float(i) for i in range(100)])
    assert (q, value, beyond) == (90.0, 89.0, 10)


def test_tracer_patches_every_importer_and_self_times_add_up(tmp_path):
    originals = (numeric.wigner_transform, cli.wigner_transform, cli.main)
    recorder = tracing.Recorder(track_memory=True)
    uninstall = tracing.install(recorder)
    try:
        assert cli.wigner_transform is numeric.wigner_transform is not originals[0]
        workloads.run_cli(["phase", "--flux", "1", "--flux-quantum", "2"])  # outside a request: not recorded
        assert recorder.spans == []
        with recorder.request(0):
            result = workloads.run_cli(["simulate", "--d", "5", "--nx", "256", "--np", "32", "--engine", "numeric",
                                        "--out", str(tmp_path)])
    finally:
        uninstall()
    assert result.code == 0
    assert (numeric.wigner_transform, cli.wigner_transform, cli.main) == originals
    names = [s.name for s in recorder.spans]
    assert names[:2] == [tracing.ROOT_SPAN, "cli.main"] and "numeric.wigner_transform" in names
    own = tracing.self_times(recorder.spans)
    root = recorder.spans[0]
    assert math.isclose(sum(own.values()), root.end - root.start, rel_tol=1e-9)
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["numeric.wigner_transform"].cells == 256 * 32
    assert by_name["numeric.wigner_transform"].peak_alloc > 0
    assert by_name["cli.main"].bytes_written > 0
    metrics = tracing.layer_metrics(recorder.spans, recorder.spans)
    assert metrics["cli.main.calls"] == 1 and metrics["cli.bytes_written"] == by_name["cli.main"].bytes_written


def test_self_time_check_fires_on_children_outside_their_parent():
    spans = [
        tracing.Span(0, None, 0, tracing.ROOT_SPAN, 0.0, 1.0),
        tracing.Span(1, 0, 0, "a", 0.0, 0.8),
        tracing.Span(2, 0, 0, "b", 0.5, 1.0),  # overlaps its sibling
    ]
    with pytest.raises(RuntimeError, match="children"):
        tracing.self_times(spans)
    spans[2] = tracing.Span(2, None, 1, tracing.ROOT_SPAN, 1.0, 2.0)
    spans.append(tracing.Span(3, 0, 1, "c", 1.2, 1.4))  # its parent belongs to another request
    with pytest.raises(RuntimeError, match="self times sum"):
        tracing.self_times(spans)
