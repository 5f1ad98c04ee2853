#!/usr/bin/env python3
"""Record the golden outputs and counts the benchmark checks against.

Runs one untraced and one traced pass of every workload, size and input
set, and writes ``perfbench/goldens/<workload>.json``.  Run it only on a
commit whose outputs are trusted (the benchmark's goldens come from the
commit that defined it); afterwards every benchmark run compares with
these files.  Usage, from the root of a source checkout::

    python3 perfbench/record_goldens.py [--workload NAME] [--jobs 2]
"""

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def record_one(workload, size, seed):
    cmd = [sys.executable, run.WORKER, "--root", ROOT, "--size", size,
           "--workload", workload, "--seed", str(seed), "--trace", "1",
           "--record"]
    proc = subprocess.run(cmd, env=run.child_env(), cwd=ROOT,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {size} seed {seed}: {proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    bad = {k: v for k, v in res["checks"].items() if not run.passed(v)}
    if res["failed"] or bad:
        raise RuntimeError(f"{workload} {size} seed {seed}: "
                           f"{res['failures']} {bad}")
    return {**res["outputs"], "counts": res["counts"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        seeded = name != "solve-sweep"
        tasks = [(size, seed) for size in workloads.SIZES
                 for seed in range(workloads.N_VARIANTS if seeded else 1)]
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(lambda t: record_one(name, *t), tasks))
        goldens = {}
        for (size, seed), res in zip(tasks, results):
            key = str(seed) if seeded else "all"
            goldens.setdefault(size, {})[key] = res
        path = os.path.join(workloads.GOLDEN_DIR, f"{name}.json")
        os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(goldens, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
