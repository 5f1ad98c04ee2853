"""Layer spans for the traced benchmark run.

A :class:`Tracer` replaces the levyou entry points that ``cli`` and
``valuation`` call (and the transform methods of the jump measures they are
handed) with thin wrappers that record one span per call.  Nothing is
installed unless :meth:`Tracer.install` is called, and :meth:`uninstall`
puts every original attribute back, so the untraced run measures the
program exactly as shipped.

Each span is kept in memory as ``(layer, start, end, parent index)``.  A
layer's self time is the sum over its spans of the span's duration minus
the time covered by its direct child spans.

Besides spans, the kernel wrappers compute counts that the program does not
report itself: path-steps, jumps drawn and the useful share of the numpy
kernels' masked lanes.  They are recomputed from ``_rng.uniforms`` and
``_rng.poisson_counts`` with the kernel's own keys and Poisson tables, after
the kernel span has closed, inside a span of their own (``trace.count``) so
that no reported layer's self time includes them.
"""

import time
from collections import defaultdict

import numpy as np

#: Marker attribute set on every wrapper, so tests can find leftovers.
WRAPPED_MARK = "__perfbench_wrapped__"
#: Layer of the benchmark's own counting; never reported.
COUNT_LAYER = "trace.count"

KERNELS = ("value_paths", "wealth_paths", "price_paths")
MEASURE_LAYERS = {
    "log_penalty": "jumps.log_penalty",
    "drag": "jumps.drag",
    "curvature": "jumps.drag",
}


class Tracer:
    """Span recorder plus the wrapping of one levyou import."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.kernel_calls = []
        self.poisson_rows = 0
        self._count_cache = {}

    # -- spans -----------------------------------------------------------

    def span(self, layer, fn, after=None):
        """Wrap ``fn`` so every call records a span of ``layer``.

        ``after(args, result)``, when given, runs once the span has closed,
        in a ``trace.count`` span that is a child of the caller's span, so
        its cost is subtracted from the caller's self time and shows only
        in the traced pass's wall time.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([layer, clock(), None, parent])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if after is not None:
                index = len(spans)
                spans.append([COUNT_LAYER, clock(), None, parent])
                stack.append(index)
                try:
                    after(args, result)
                finally:
                    spans[index][2] = clock()
                    stack.pop()
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def call(self, layer, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer`` (a benchmark call site)."""
        return self.span(layer, fn)(*args, **kwargs)

    def layer_totals(self):
        """``{layer: [calls, self seconds]}`` over the recorded spans."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for i, (layer, start, end, _) in enumerate(self.spans):
            totals[layer][0] += 1
            totals[layer][1] += (end - start) - child[i]
        return dict(totals)

    # -- wrapping --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr, layer, after=None):
        self._patch(owner, attr,
                    self.span(layer, getattr(owner, attr), after))

    def install(self, kernels):
        """Wrap the layer entry points of an imported levyou package.

        ``kernels`` is the kernel module the configured backend resolves
        to.
        """
        from levyou import _rng, _svg, approx, market, presets, strategy
        from levyou import valuation

        for name in ("value_grid", "compare_strategies", "estimate_value",
                     "tower_check"):
            self.wrap(valuation, name, "valuation")
        self.wrap(valuation, "growth_table", "strategy.growth_table")
        self.wrap(strategy, "optimal_fraction_grid", "strategy.solve")
        for name in ("merton_fraction_grid", "jump_mean_fraction_grid",
                     "merton_error_bound", "jump_mean_error_bound"):
            self.wrap(approx, name, "approx")
        for name in ("merton_fraction_table", "jump_mean_fraction_table"):
            self.wrap(valuation, name, "approx")
        self.wrap(_svg, "line_chart", "svg")
        self.wrap(_rng, "derive_keys", "rng.derive_keys")
        for owner in (market, valuation):
            self.wrap(owner, "build_sim_inputs", "market.build_sim_inputs",
                      self._count_rows)
        for name in KERNELS:
            self.wrap(kernels, name, f"kernels.{name}",
                      self._kernel_counter(name, _rng))

        get_preset = presets.get_preset

        def traced_get_preset(*args, **kwargs):
            preset = get_preset(*args, **kwargs)
            self.instrument_measure(preset.market.measure)
            return preset

        setattr(traced_get_preset, WRAPPED_MARK, True)
        self._patch(presets, "get_preset", traced_get_preset)

    def instrument_measure(self, measure):
        """Give one measure object traced transform methods."""
        for attr, layer in MEASURE_LAYERS.items():
            if attr not in measure.__dict__:
                self._patch(measure, attr,
                            self.span(layer, getattr(measure, attr)))

    def uninstall(self):
        """Put back every attribute :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- computed counts -------------------------------------------------

    def _count_rows(self, args, result):
        self.poisson_rows += result[5].shape[0]

    def _kernel_counter(self, name, rng_mod):
        def after(args, result):
            keys, times, cdf = args[0], args[2], args[8]
            self.kernel_calls.append(
                (name, _kernel_counts(self._count_cache, rng_mod,
                                      keys, times, cdf))
            )

        return after


def _kernel_counts(cache, rng_mod, keys, times, cdf):
    """Counts of one kernel call, recomputed from the random stream.

    Returns a dict with the key set's identity (first key, path count), the
    simulated span, path-steps, jumps drawn and the masked-lane totals.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    cdf = np.asarray(cdf)
    n = keys.shape[0]
    n_steps = times.shape[0] - 1
    tag = (keys.tobytes(), cdf.tobytes())
    if tag not in cache:
        jumps = useful = lanes = 0
        for k in range(n_steps):
            u = rng_mod.uniforms(keys, k, rng_mod.SLOT_COUNT)
            cnt = rng_mod.poisson_counts(u, cdf[k])
            jumps += int(cnt.sum())
            useful += int(cnt.sum()) + n
            lanes += n * (int(cnt.max()) + 1)
        cache[tag] = (jumps, useful, lanes)
    jumps, useful, lanes = cache[tag]
    return {
        "key_set": (int(keys[0]), n),
        "span": float(times[-1] - times[0]),
        "path_steps": n * n_steps,
        "jumps": jumps,
        "useful_lanes": useful,
        "lanes": lanes,
    }
