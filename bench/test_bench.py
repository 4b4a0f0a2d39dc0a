"""Tests of the benchmark itself.

    python -m pytest bench/test_bench.py -q

A tiny run of each workload must print every metric BENCHMARK.json names,
with its unit; failed ops must show in the failure counts and the tail; the
tracer must refuse to run when a name it wraps has gone.
"""

import io
import json
import math
import shutil
import subprocess
import sys

import pytest

import program

program.load()

import harness  # noqa: E402
import loopmem  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402

BENCHMARK = json.loads((program.ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads(run.REFERENCE.read_text())


def _tiny_run(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_STARTS", 1)
    if workload.name not in WORKLOADS:  # the set-up probe resolves named workloads only
        monkeypatch.setattr(harness, "measure_setup", lambda name: (1.0, [1.0]))
    out = io.StringIO()
    assert run.measure(workload, 7, 0.0, trace, REFERENCE, tmp_path, out=out) == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, tmp_path, monkeypatch):
    detail, result = _tiny_run(WORKLOADS[name], trace, tmp_path, monkeypatch)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail.get("first_failures")
    assert result["failed"] == 0 and result["attempted"] >= len(WORKLOADS[name].ops)
    want = _declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert detail["environment"]["src_loopmem_lines"]["total"] > 0


def test_injected_failing_op_counts_as_failed_and_misses_the_tail(tmp_path, monkeypatch):
    good = WORKLOADS["paper-campaign"].ops[0]
    bad = Op("bad/unknown-preset", {"preset": "no-such-preset"}, "simulate")
    detail, result = _tiny_run(Workload("injected", (good, bad)), 0, tmp_path, monkeypatch)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["ops_failed_share"] == result["failed"] / result["attempted"] > 0
    assert result["metrics"]["ops_ok_share"]["value"] < 1.0
    assert math.isinf(result["metrics"]["op_s_tail"]["value"])
    assert "SchemaError" in detail["first_failures"][0]


def test_failed_ops_fill_the_tail_before_the_median():
    def results(n_ok, n_failed):
        return ([harness.OpResult("ok", 0.01 * (i + 1), True, None, 0.0) for i in range(n_ok)]
                + [harness.OpResult("bad", 0.001, False, "boom", 0.0) for _ in range(n_failed)])

    at_reference_speed = harness.Calibrator()
    at_reference_speed.times, at_reference_speed.kernel_s = [0.0], [harness.Calibrator.REFERENCE_S]
    metrics, detail = harness.summarize(results(95, 5), at_reference_speed)
    assert detail["op_s_tail_percentile"] == 90.0
    assert math.isfinite(metrics["op_s_tail"][0])
    assert metrics["ops_per_s"][0] == pytest.approx(95 / (sum(0.01 * (i + 1) for i in range(95)) + 0.005))
    metrics, _ = harness.summarize(results(89, 11), at_reference_speed)
    assert math.isinf(metrics["op_s_tail"][0])
    assert math.isfinite(metrics["op_s_p50"][0])


def test_calibrator_scales_by_the_kernel_time_around_the_op():
    cal = harness.Calibrator()
    ref = cal.REFERENCE_S
    cal.times = [0.0, 1.0, 1.95, 2.0, 2.05, 3.0, 10.0]
    cal.kernel_s = [ref, 2 * ref, 4 * ref, 4 * ref, 4 * ref, 2 * ref, ref]
    assert cal.scale(1.95, 0.1) == pytest.approx(0.25)  # the samples at 1.95, 2.0 and 2.05 s
    assert cal.scale(9.9, 0.05) == pytest.approx(0.5)  # widened to the three nearest


def test_output_that_differs_from_the_reference_fails_the_op(tmp_path):
    op = WORKLOADS["paper-campaign"].ops[0]
    reference = json.loads(json.dumps(REFERENCE))
    entry = reference[op.op_id]["0"]
    key = next(k for k, v in entry.items() if isinstance(v, float) and v != 0.0)
    entry[key] *= 1.0 + 1e-6
    runner = harness.Runner(Workload("one", (op,)), reference, tmp_path)
    result = runner.run_op(op, 0)
    assert not result.ok and key in result.error
    assert harness.Runner(Workload("one", (op,)), REFERENCE, tmp_path).run_op(op, 0).ok


@pytest.mark.parametrize("owner, attr", [
    (loopmem.scenario._Emitter, "csv"),  # a traced method renamed
    (loopmem.scenario, "run_scan"),  # a caller no longer binding a traced function
])
def test_tracer_refuses_when_a_traced_name_is_gone(owner, attr, monkeypatch):
    monkeypatch.delattr(owner, attr)
    with pytest.raises(tracer.TracerError, match=attr):
        with tracer.Tracer():
            pass
    assert loopmem.counting.simulate_storage is loopmem.engine.simulate_storage


def test_tracer_restores_every_binding():
    original = loopmem.engine.simulate_storage
    with tracer.Tracer():
        for module in (loopmem.engine, loopmem.scenario, loopmem.counting):
            assert module.simulate_storage.__wrapped__ is original
    for module in (loopmem.engine, loopmem.scenario, loopmem.counting):
        assert module.simulate_storage is original
    assert loopmem.tomography.minimize.__module__.startswith("scipy")
    assert "__post_init__" in vars(loopmem.polarization.DensityMatrix)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(program.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "storage-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
