"""Self-tests of the benchmark.  Run from the root of a source checkout::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_prints_the_end_to_end_metrics(workload):
    res = last_json(bench("--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", "0",
                          "--size", "smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_traced_smoke_run_prints_the_per_layer_metrics():
    proc = bench("--workload", "tower", "--seed", "5", "--seconds", "1",
                 "--trace", "1", "--size", "smoke")
    res = last_json(proc)
    assert res["correct"], proc.stdout
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    m = res["metrics"]
    assert m["strategy.growth_table.calls"]["value"] == 3
    assert m["kernels.value_paths.calls"]["value"] == 2 + 16
    assert 0.0 < m["kernels.lane_util"]["value"] <= 1.0
    assert "counts_match_golden" in proc.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "tower", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def wrapped_attributes():
    return [
        f"{name}.{attr}"
        for name, mod in list(sys.modules.items())
        if name == "levyou" or name.startswith("levyou.")
        for attr, value in vars(mod).items()
        if getattr(value, tracer.WRAPPED_MARK, False)
    ]


def test_no_levyou_attribute_is_wrapped_after_a_run(tmp_path):
    _, kernels = worker.set_up()
    wl = workloads.SolveSweep("smoke", 0, str(tmp_path),
                              workloads.load_goldens("solve-sweep"))
    failures, outputs = [], {}
    worker.run_pass(wl, None, failures, outputs)
    assert wrapped_attributes() == []
    (_, attempted, failed), tr = worker.traced_pass(wl, kernels, failures,
                                                    outputs)
    assert (attempted, failed, failures) == (8, 0, [])
    n_charts = 4 * len(wl.params["fractions"].split(","))
    assert tr.layer_totals()["svg"][0] == n_charts
    assert wrapped_attributes() == []


def test_self_time_excludes_child_spans():
    tr = tracer.Tracer()
    inner = tr.span("inner", lambda: sum(range(20000)))
    outer = tr.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = tr.layer_totals()
    (_, o_start, o_end, _), = [s for s in tr.spans if s[0] == "outer"]
    inner_total = sum(e - s for layer, s, e, _ in tr.spans
                      if layer == "inner")
    assert totals["inner"][0] == 3 and totals["outer"][0] == 1
    assert totals["outer"][1] == pytest.approx(
        (o_end - o_start) - inner_total, abs=1e-12)


def test_self_time_excludes_after_callbacks():
    tr = tracer.Tracer()
    inner = tr.span("inner", lambda: None,
                    after=lambda args, result: time.sleep(0.05))
    outer = tr.span("outer", inner)
    outer()
    totals = tr.layer_totals()
    assert totals[tracer.COUNT_LAYER][1] >= 0.05
    assert totals["outer"][1] < 0.02


def test_uninstall_restores_measure_methods():
    from levyou import presets

    tr = tracer.Tracer()
    preset = presets.get_preset("uniform-two-sided")
    measure = preset.market.measure
    tr.instrument_measure(measure)
    assert getattr(measure.drag, tracer.WRAPPED_MARK, False)
    measure.drag(0.1)
    tr.uninstall()
    assert "drag" not in vars(measure)
    assert tr.layer_totals()["jumps.drag"][0] == 1


def test_golden_comparison_tolerates_rounding_and_rejects_wrong_numbers():
    want = "# b=0.25\ns,pi\n1.5,0.123456789012345\n2,nan\n"
    workloads.same_text(want.replace("0.123456789012345",
                                     "0.123456789012346"), want)
    with pytest.raises(workloads.CheckError):
        workloads.same_text(want.replace("0.1234567", "0.1234568"), want)
    with pytest.raises(workloads.CheckError):
        workloads.same_text(want.replace("b=", "c="), want)


def test_backend_mismatch_fails_loudly(monkeypatch):
    from levyou import _backend

    monkeypatch.setattr(_backend, "_resolve_backend", lambda: "numpy")
    with pytest.raises(SystemExit, match="numba"):
        worker.set_up("numba")


def test_cross_backend_check_is_skipped_with_one_backend(monkeypatch):
    from levyou import _backend

    monkeypatch.setattr(_backend, "available_backends", lambda: ("numpy",))
    assert worker.cross_backend_check().startswith("skipped")


def test_bench_backends_script_still_runs():
    script = os.path.join(ROOT, "benchmarks", "bench_backends.py")
    if not os.path.isfile(script):
        pytest.skip("benchmarks/bench_backends.py is not in this checkout")
    proc = subprocess.run(
        [sys.executable, script, "--paths", "200", "--steps", "8",
         "--repeats", "1"],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert "price paths" in proc.stdout

