#!/usr/bin/env python3
"""Time the numpy kernels.

Times the three kernels (price simulation, reward accumulation, wealth
accumulation) on the benth2012 preset and reports path-steps/s.  The
simulation inputs, the growth table and the fraction table are built once,
outside the timed region, and each kernel is called once before it is
timed, so each row times one kernel call and nothing else.  The
``small call`` row times one ``value_paths`` call of 100 paths x 48 steps
over the second half of the horizon, the inner run of the acceptance
suite's tower check, where the fixed cost of a call dominates; the
``tower call`` row does the same for 20 paths x 24 steps, the inner run of
the perfbench ``tower`` workload.  A last row times
``strategy.growth_table`` itself: one 257-price table (a single time node)
for benth2012 and uniform-two-sided.

Usage::

    python3 benchmarks/bench_backends.py [--paths N] [--steps N]
                                         [--repeats N] [--seed N]
"""

import argparse
import time

import numpy as np

from levyou import _kernels_np as kern
from levyou import _rng, presets, strategy
from levyou.market import SimConfig, build_sim_inputs


# Calls per timing of the small-call row.
SMALL_CALLS = 20


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paths", type=int, default=20_000)
    parser.add_argument("--steps", type=int, default=96)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20120808)
    args = parser.parse_args()

    preset = presets.get_preset("benth2012")
    market = preset.market
    cfg = SimConfig(n_paths=args.paths, n_steps=args.steps, seed=args.seed)
    sim = build_sim_inputs(market, 0.0, preset.horizon, cfg)
    growth = strategy.growth_table(market, sim.times, preset.pi_min,
                                   preset.pi_max).kernel_args
    fractions = strategy.exact_fraction_table(market, sim.times,
                                              preset.pi_min,
                                              preset.pi_max).kernel_args
    walk = (_rng.derive_keys(args.seed, np.arange(args.paths)),
            np.full(args.paths, preset.s0), *sim.kernel_args)
    path_steps = args.paths * args.steps

    print(f"numpy kernels  paths={args.paths} steps={args.steps} "
          f"repeats={args.repeats}")

    tasks = {
        "price paths": lambda: kern.price_paths(*walk),
        "reward estimate": lambda: kern.value_paths(*walk, *growth),
        "wealth paths": lambda: kern.wealth_paths(*walk, *fractions),
    }

    for label, task in tasks.items():
        task()  # warm-up
        timing = best_of(args.repeats, task)
        print(f"{label:16s}  {timing * 1e3:8.1f} ms "
              f"({path_steps / timing:10.3g} path-steps/s)")

    half = 0.5 * preset.horizon
    for label, n_paths, n_steps in (("small call", 100, 48),
                                    ("tower call", 20, 24)):
        small = build_sim_inputs(market, half, preset.horizon,
                                 SimConfig(n_paths=n_paths, n_steps=n_steps))
        small_walk = (_rng.derive_keys(args.seed, np.arange(n_paths)),
                      np.full(n_paths, preset.s0), *small.kernel_args,
                      *strategy.growth_table(market, small.times,
                                             preset.pi_min,
                                             preset.pi_max).kernel_args)
        kern.value_paths(*small_walk)  # warm-up
        calls = lambda: [kern.value_paths(*small_walk)
                         for _ in range(SMALL_CALLS)]
        per_call = best_of(args.repeats, calls) / SMALL_CALLS
        print(f"{label:16s}  {per_call * 1e3:8.2f} ms  (per value_paths "
              f"call, {n_paths} paths x {n_steps} steps)")

    line = f"{'growth table':16s}"
    for name in ("benth2012", "uniform-two-sided"):
        p = presets.get_preset(name)
        table = lambda p=p: strategy.growth_table(p.market, [0.0], p.pi_min,
                                                  p.pi_max)
        table()
        line += f"  {name}: {best_of(args.repeats, table) * 1e3:8.1f} ms"
    print(line + "  (per 257-price table)")


if __name__ == "__main__":
    main()
