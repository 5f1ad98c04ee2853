"""One workload run in a fresh process; prints one JSON object.

Started by ``run.py``; not meant to be run by hand, though it can be::

    PYTHONPATH=src LEVYOU_BACKEND=numpy python3 perfbench/worker.py \\
        --workload tower --seed 3 --seconds 20 --trace 0

``--setup-only`` times the set-up (imports, every preset, backend
resolution) and prints ``{"setup_s": ...}``.  Otherwise the worker runs
passes of the workload until ``--seconds`` have elapsed.  A pass runs every
operation of the workload once and checks every output.  With ``--trace 1``
untraced and traced passes alternate; the traced ones give the per-layer
figures and their difference gives the tracing overhead.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

from workloads import BACKEND, THREAD_VARS


def set_up(backend=BACKEND):
    """Import levyou, ``cli`` and ``valuation``, build every preset and
    resolve the backend; fail loudly when it resolves to another one."""
    import levyou  # noqa: F401
    from levyou import _backend, cli, presets, valuation  # noqa: F401

    for name in presets.PRESET_NAMES:
        presets.get_preset(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            resolved = _backend._resolve_backend()
        except RuntimeWarning as exc:
            raise SystemExit(f"backend {backend!r} requested: {exc}")
    if resolved != backend:
        raise SystemExit(f"backend {backend!r} requested, levyou resolved "
                         f"{resolved!r}")
    return resolved, _backend.get_kernels(resolved)


def run_facts(seed, resolved):
    import numpy
    import scipy
    from levyou import _backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backends_available": list(_backend.available_backends()),
        "backend_requested": BACKEND,
        "backend_resolved": resolved,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git checkout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # do not report a git repository that encloses it
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cross_backend_check():
    """Numba and numpy kernels agree on a small value run, when both are
    importable; reported as skipped otherwise."""
    import numpy as np
    from levyou import _backend, presets, valuation
    from levyou.market import SimConfig

    if len(_backend.available_backends()) < 2:
        return "skipped: only one backend importable"
    preset = presets.get_preset("benth2012")
    config = SimConfig(n_paths=256, n_steps=24, seed=7)
    est = {
        be: valuation.estimate_value(
            preset.market, 0.0, preset.s0, preset.horizon, preset.pi_min,
            preset.pi_max, config=config, backend=be,
        ).g_hat
        for be in _backend.available_backends()
    }
    a, b = est.values()
    diff = abs(a - b) / max(abs(a), 1e-30)
    status = "ok" if np.isfinite(diff) and diff <= 1e-12 else "failed"
    return f"{status}: relative difference {diff:.3g}"


# -- passes ------------------------------------------------------------------


def run_pass(workload, tracer, failures, outputs):
    """Run every operation once, keeping its output in ``outputs``;
    returns (wall seconds, attempted, failed)."""
    from workloads import CheckError

    attempted = failed = 0
    start = time.perf_counter()
    for op, fn in workload.operations(tracer):
        attempted += 1
        try:
            outputs[op] = fn()
            workload.check(op, outputs[op])
        except CheckError as exc:
            failed += 1
            failures.append(str(exc))
        except Exception as exc:  # an operation that raised is a failure
            failed += 1
            failures.append(f"{op} raised {type(exc).__name__}: {exc}")
    return time.perf_counter() - start, attempted, failed


def traced_pass(workload, kernels, failures, outputs):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(kernels)
    try:
        outcome = run_pass(workload, tracer, failures, outputs)
    finally:
        tracer.uninstall()
    return outcome, tracer


def layer_metrics(tracer, rate):
    """Per-layer figures of one traced pass, plus the computed counts."""
    totals = tracer.layer_totals()
    out = {}
    for layer in ("strategy.growth_table", "jumps.log_penalty",
                  "strategy.solve", "jumps.drag", "rng.derive_keys",
                  "market.build_sim_inputs"):
        calls, self_s = totals.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
    for layer in ("approx", "svg", "cli", "valuation"):
        out[f"{layer}.self_s"] = totals.get(layer, (0, 0.0))[1]
    jumps = useful = lanes = 0
    key_sets = {}
    for name in ("value_paths", "wealth_paths", "price_paths"):
        calls, self_s = totals.get(f"kernels.{name}", (0, 0.0))
        out[f"kernels.{name}.calls"] = calls
        out[f"kernels.{name}.self_s"] = self_s
        out[f"kernels.{name}.path_steps"] = 0
    for name, c in tracer.kernel_calls:
        out[f"kernels.{name}.path_steps"] += c["path_steps"]
        jumps += c["jumps"]
        useful += c["useful_lanes"]
        lanes += c["lanes"]
        best = key_sets.get(c["key_set"])
        if best is None or c["span"] > best["span"]:
            key_sets[c["key_set"]] = c
    out["kernels.jumps_drawn"] = jumps
    out["kernels.lane_util"] = useful / lanes if lanes else 0.0
    out["market.poisson_rows"] = tracer.poisson_rows
    # jumps of independent key sets against rate * T * paths
    expected = sum(c["key_set"][1] * rate * c["span"]
                   for c in key_sets.values())
    drawn = sum(c["jumps"] for c in key_sets.values())
    jump_z = (drawn - expected) / expected ** 0.5 if expected > 0 else 0.0
    return out, jump_z


COUNT_KEYS = ("kernels.value_paths.path_steps", "kernels.wealth_paths.path_steps",
              "kernels.price_paths.path_steps", "kernels.jumps_drawn",
              "kernels.lane_util", "market.poisson_rows")


def run(args):
    import workloads

    start = time.perf_counter()
    resolved, kernels = set_up()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        return {"setup_s": setup_s}

    from levyou import presets

    facts = run_facts(args.seed, resolved)
    checks = {"backend": "ok", "cross_backend": cross_backend_check()}
    goldens = None if args.record else workloads.load_goldens(args.workload)
    tmp_root = os.path.join(args.root, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(dir=tmp_root)
    failures, outputs = [], {}
    attempted = failed = 0
    walls, traced_walls, layers, jump_zs = [], [], [], []
    rate = presets.get_preset(workloads.MC_PRESET).market.measure.rate
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.size, args.seed, tmp_dir, goldens)
        start = time.perf_counter()
        while True:
            wall, a, f = run_pass(workload, None, failures, outputs)
            walls.append(wall)
            attempted, failed = attempted + a, failed + f
            if args.trace:
                (wall, a, f), tracer = traced_pass(workload, kernels,
                                                   failures, outputs)
                traced_walls.append(wall)
                attempted, failed = attempted + a, failed + f
                metrics, jump_z = layer_metrics(tracer, rate)
                layers.append(metrics)
                jump_zs.append(jump_z)
            elapsed = time.perf_counter() - start
            if args.record or elapsed + elapsed / len(walls) > args.seconds:
                break
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(tmp_root)  # left in place while another run uses it

    result = {
        "facts": facts,
        "setup_s": setup_s,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "path_steps": workload.path_steps(),
        "fractions": workload.fractions(),
        "est_std_err": workload.est_std_err,
        "checks": checks,
    }
    if args.trace:
        result["counts"] = {k: layers[0][k] for k in COUNT_KEYS}
        result["checks"].update(trace_checks(workload, layers, jump_zs))
        # counts repeat exactly (checked); times are medians over passes
        per_layer = {
            key: statistics.median(m[key] for m in layers)
            if key.endswith("self_s") else value
            for key, value in layers[0].items()
        }
        per_layer["trace.overhead_s"] = (statistics.median(traced_walls)
                                         - statistics.median(walls))
        result["per_layer"] = per_layer
    if args.record:
        result["outputs"] = outputs
    return result


def trace_checks(workload, layers, jump_zs):
    """Counts repeat exactly in every traced pass and agree with the
    workload's size, the goldens and the jump rate."""
    from workloads import Z_MAX

    checks = {}
    counts = [{k: v for k, v in m.items() if not k.endswith("self_s")}
              for m in layers]
    first = counts[0]
    checks["counts_repeat"] = (
        "ok" if all(c == first for c in counts) else "failed: counts differ")
    steps = sum(first[k] for k in COUNT_KEYS[:3])
    computed = {k: first[k] for k in COUNT_KEYS}
    checks["path_steps_match_size"] = (
        "ok" if steps == workload.path_steps() else
        f"failed: traced {steps}, size gives {workload.path_steps()}")
    if workload.goldens is not None:
        want = workload.goldens[workload.size][workload.golden_key()].get(
            "counts")
        checks["counts_match_golden"] = (
            "ok" if want == computed else
            f"failed: {computed} != golden {want}")
    bad = [z for z in jump_zs if not abs(z) < Z_MAX]
    checks["jumps_drawn_vs_rate"] = (
        f"failed: z = {bad[0]:.2f}" if bad else "ok")
    return checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="mc-mix")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--root", default=os.getcwd())
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="one pass, no golden checks; print outputs")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
