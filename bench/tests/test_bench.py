"""Tests of the benchmark's own logic.

    python3 -m pytest bench/tests

Covers the self-time arithmetic of nested spans, the accounting of failed
operations (a perturbed output must count as failed), the time scaling of
run.Clock, and the seeded input generation.
"""

import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import memdiff  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, per_op_metrics, self_times  # noqa: E402


def test_self_time_subtracts_direct_children():
    spans = [
        Span("root", "asymptotics", 0.0, 10.0),
        Span("a", "volterra.smooth", 1.0, 4.0, parent=0),
        Span("a.inner", "kernels", 2.0, 3.0, parent=1),
        Span("b", "spectral", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        Span("root", "cli", 0.0, 10.0),
        Span("x", "spectral", 1.0, 4.0, parent=0),
        Span("y", "spectral", 3.0, 6.0, parent=0),
        Span("z", "spectral", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_per_op_metrics_sum_layers_and_rates():
    spans = [
        Span("asymptotics.converge_to_limit", "asymptotics", 0.0, 8.0),
        Span("volterra.relaxation_values", "volterra.smooth", 1.0, 5.0, parent=0,
             counts={"lambda_steps": 200}),
        Span("kernels.MemoryKernel.moment_cells", "kernels", 1.0, 2.0, parent=1,
             counts={"calls": 1}),
        Span("volterra.relaxation_values", "volterra.singular", 5.0, 6.0, parent=0,
             counts={"lambda_steps": 50}, error=True),
    ]
    m = per_op_metrics(spans, csv_bytes=123)
    assert set(m) == set(tracing.PER_LAYER) - {"trace.overhead_s"}
    assert m["asymptotics.self_s"] == 3.0
    assert m["volterra.smooth.self_s"] == 3.0
    assert m["volterra.smooth.lambda_steps_per_s"] == pytest.approx(200 / 3.0)
    assert m["volterra.singular.lambda_steps_per_s"] == 50.0
    assert m["kernels.calls"] == 1 and m["kernels.self_s"] == 1.0
    assert m["volterra.errors"] == 1 and m["specfun.errors"] == 0
    assert m["specfun.self_s"] == 0.0 and m["cli.csv_bytes"] == 123


def test_tracer_wraps_every_alias_and_restores_them():
    import memdiff.asymptotics as asym
    import memdiff.spectral as spec
    import memdiff.volterra as volt

    original = volt.relaxation_values
    gamma = asym.gamma_fn
    with tracing.Tracer() as tracer:
        assert spec.relaxation_values is asym.relaxation_values is volt.relaxation_values
        assert volt.relaxation_values is not original
        assert asym.gamma_fn is not gamma
        grid = memdiff.ModeGrid(n=1, modes_per_axis=8, xi_max=4.0)
        memdiff.evolve(memdiff.Heat(1.0), memdiff.Gaussian(), grid, [1.0],
                       memdiff.TimeGrid(1.0, 10))
        spans = tracer.take()
    assert volt.relaxation_values is original and asym.gamma_fn is gamma
    by_name = {s.name: s for s in spans}
    solve = by_name["volterra.relaxation_values"]
    assert solve.layer == "volterra.smooth"
    assert solve.counts == {"lambda_steps": 5 * 10}
    assert spans[solve.parent].name == "spectral.evolve"
    assert spans[by_name["kernels.MemoryKernel.moment_cells"].parent] is solve


def _real_output(workload, tmp_path):
    p = workload.inputs(3, tmp_path)[0]
    out = workload.collect(p, workload.op(p))
    assert workload.check(p, out) == []
    return p, out


@pytest.mark.parametrize("name", ["heat2d_converge", "visco3d_rate"])
def test_perturbed_distance_fails_the_closed_form_check(name, tmp_path):
    w = workloads.WORKLOADS[name]
    p, out = _real_output(w, tmp_path)
    row = list(out.rows[0])
    row[2] *= 1.01  # the distance, in both row layouts
    if name == "visco3d_rate":
        row[1] *= 1.01  # keep r = t^(3/4) d consistent, so only the distance is off
    out.rows[0] = tuple(row)
    assert any("closed form" in problem for problem in w.check(p, out))


def test_reordered_fractional_distances_fail(tmp_path):
    w = workloads.WORKLOADS["frac2d_converge"]
    p, out = _real_output(w, tmp_path)
    (T0, t0, d0, r0), (T1, t1, d1, r1) = out.rows[:2]
    out.rows[:2] = [(T0, t0, d1, r0), (T1, t1, d0, r1)]
    assert w.check(p, out)


def test_perturbed_csv_value_fails(tmp_path):
    w = workloads.WORKLOADS["cli_solve_csv"]
    p, (rc, stdout, data) = _real_output(w, tmp_path)
    lines = data.split(b"\r\n")
    row = lines[1].split(b",")
    row[3] = repr(float(row[3]) * 1.001 + 1e-4).encode()
    lines[1] = b",".join(row)
    assert w.check(p, (rc, stdout, b"\r\n".join(lines)))


class _Stub:
    """Workload whose check fails for one input and whose op raises for another."""

    name = "stub"

    def op(self, p):
        if p == "raise":
            raise memdiff.DomainError("bad input")
        return p

    def collect(self, p, raw):
        return raw

    def check(self, p, out):
        return ["perturbed"] if out == "perturbed" else []

    def fingerprint(self, out):
        return out


def test_loop_counts_failed_and_raising_operations():
    loop = run.Loop(_Stub(), ["ok", "perturbed", "raise", "ok"], log=io.StringIO())
    for k in range(4):
        loop.timed(k)
    assert (loop.attempted, loop.failed) == (4, 2)


def test_loop_counts_unrepeatable_output_as_failed():
    loop = run.Loop(_Stub(), ["ok"], log=io.StringIO())
    loop.warm_up()
    loop.reference = "different"
    loop.timed(0)
    assert (loop.attempted, loop.failed) == (2, 1)


class _BusyClock(run.Clock):
    """Clock on a machine where the numpy loop runs 2x and the big-integer
    loop 4x slower than the reference."""

    def measure(self):
        return 2.0 * self.REFERENCE_S[0], 4.0 * self.REFERENCE_S[1]


def test_clock_divides_by_the_weighted_slowdown():
    assert _BusyClock(0.0).scale(1.0) == pytest.approx(0.5)
    assert _BusyClock(0.5).scale(1.0) == pytest.approx(8.0 ** -0.5)
    assert _BusyClock(0.0).scale(1.0, bigint_weight=1.0) == pytest.approx(0.25)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_identical_seeds_give_identical_inputs(name, tmp_path):
    w = workloads.WORKLOADS[name]
    first = w.inputs(7, tmp_path)
    assert w.inputs(7, tmp_path) == first
    other = w.inputs(8, tmp_path)
    assert other != first
    assert len(first) == len(other) == workloads.INPUTS_PER_RUN
    # Only values vary with the seed, never which inputs exist.
    assert [sorted(p) for p in first] == [sorted(p) for p in other]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
