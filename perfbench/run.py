#!/usr/bin/env python3
"""levyou benchmark: one workload run, checked, with its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload {mc-mix,tower,solve-sweep} \\
        --seed N --seconds S --trace {0,1} [--size {full,smoke}]

The set-up is timed in several fresh processes; the workload then runs in
one more fresh process, pass after pass, for about ``--seconds`` seconds.
Every output is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The lines before it give the run facts, the
checks and every figure with its quartiles and sample count.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import BACKEND, THREAD_VARS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: Fresh processes timed for ``setup_s``, besides the workload's own.
SETUP_RUNS = {"full": 2, "smoke": 1}
#: Every run, set-up included, ends within this many seconds.
DEADLINE_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["LEVYOU_BACKEND"] = BACKEND
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env.setdefault(var, nproc)
    return env


def run_worker(args, extra, timeout):
    cmd = [sys.executable, WORKER, "--root", ROOT, "--size", args.size,
           *extra]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(extra)} did not finish in {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(f"worker {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def passed(check):
    """A check result reads "ok", "skipped: why" or "failed: why"."""
    return check.startswith(("ok", "skipped"))


def summary(values):
    """Median, quartiles and sample count."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SETUP_RUNS), default="full")
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "levyou", "__init__.py")):
        fail(f"no levyou source tree under {ROOT}/src")

    start = time.perf_counter()
    setups = [
        run_worker(args, ["--setup-only"], 60.0)["setup_s"]
        for _ in range(SETUP_RUNS[args.size])
    ]
    left = DEADLINE_S - (time.perf_counter() - start)
    res = run_worker(args, ["--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], left)
    setups.append(res["setup_s"])

    checks = res["checks"]
    bad_checks = [k for k, v in checks.items() if not passed(v)]
    attempted, failed = res["attempted"], res["failed"]
    wall = summary(res["walls"])
    figures = {
        "setup_s": (summary(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (summary([res["peak_rss_mb"]]), "MB"),
        "path_steps_per_s": (
            summary([res["path_steps"] / w for w in res["walls"]]), "1/s"),
        "fractions_per_s": (
            summary([res["fractions"] / w for w in res["walls"]]), "1/s"),
        "failed_ops_ratio": (summary([failed / attempted]), "ratio"),
    }
    if res["est_std_err"] is not None:
        figures["est_std_err"] = (summary([res["est_std_err"]]), "1")

    print("facts " + json.dumps(res["facts"], sort_keys=True))
    print("checks " + json.dumps(checks, sort_keys=True))
    for failure in res["failures"]:
        print(f"failure: {failure}")
    for name, (s, unit) in figures.items():
        print(f"{name} = {s['median']:.6g} {unit} (median; q1 {s['q1']:.6g}, "
              f"q3 {s['q3']:.6g}, n = {s['n']})")

    if args.trace:
        wanted = spec["per_layer"]
        values = res["per_layer"]
        for key, value in sorted(res["counts"].items()):
            print(f"computed {key} = {value!r} (recomputed from "
                  f"_rng.uniforms / poisson_counts)")
    else:
        wanted = spec["end_to_end"]
        values = {name: s["median"] for name, (s, _) in figures.items()}
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": failed == 0 and not bad_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
