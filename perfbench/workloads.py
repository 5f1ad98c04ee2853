"""The benchmark's workloads, their inputs and their output checks.

Every operation goes through a public entry point: ``levyou.cli.main`` with
an argument list, or ``levyou.valuation.tower_check``.  One process runs one
operation at a time (a closed loop with one client).

Inputs come from the workload seed.  The seed selects one of
``N_VARIANTS`` recorded input sets, whose outputs at the commit that
defined the benchmark are kept in ``goldens/``; every output is compared
with its golden copy, so a wrong answer fails the run however fast it is.
"""

import contextlib
import io
import json
import math
import os
import re
import xml.etree.ElementTree as ET

N_VARIANTS = 16
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "goldens")

#: Relative tolerance for golden numbers: admits reordered floating-point
#: arithmetic, fails a wrong answer.
RTOL = 1e-9
#: Absolute floor, for golden values that are exactly zero.
ATOL = 1e-13
#: ``simulate`` prints 6 significant digits.
RTOL_PRINTED = 2e-5
#: Statistical checks accept |z| below this many standard errors.
Z_MAX = 4.0

MC_PRESET = "benth2012"

#: The kernel backend every run requests; the run stops if levyou resolves
#: another one.
BACKEND = "numpy"
#: Thread variables a run reports; ``run.py`` sets each to ``nproc`` unless
#: already set.
THREAD_VARS = ("LEVYOU_THREADS", "NUMBA_NUM_THREADS", "OMP_NUM_THREADS",
               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SIZES = {
    "full": {
        "mc-mix": {"value_paths": 3000, "compare_paths": 3000,
                   "sim_paths": 15000, "steps": 96, "s_grid": "4:6:9"},
        "tower": {"outer": 400, "steps": 48},
        "solve-sweep": {"solve_points": 101, "fractions": "1.5,0.8,0.5,0.2",
                        "figure_points": 200},
    },
    "smoke": {
        "mc-mix": {"value_paths": 200, "compare_paths": 200,
                   "sim_paths": 1000, "steps": 24, "s_grid": "4:6:3"},
        "tower": {"outer": 16, "steps": 24},
        "solve-sweep": {"solve_points": 11, "fractions": "0.8,0.2",
                        "figure_points": 20},
    },
}

_NUMBER = re.compile(
    r"[-+]?(?:nan|inf|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
)


class CheckError(Exception):
    """An operation's output disagrees with its golden copy or its check."""


def variant_of(seed):
    return int(seed) % N_VARIANTS


def mc_seed(variant):
    """Monte Carlo seed of one recorded input set."""
    return 20120808 + 7919 * variant


def same_text(got, want, rtol=RTOL, what="output"):
    """Compare two texts: equal skeletons, numbers within ``rtol``."""
    got_lines = got.splitlines()
    want_lines = want.splitlines()
    if len(got_lines) != len(want_lines):
        raise CheckError(f"{what}: {len(got_lines)} lines, golden has "
                         f"{len(want_lines)}")
    for n, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if _NUMBER.sub("#", g) != _NUMBER.sub("#", w):
            raise CheckError(f"{what} line {n}: {g!r} != golden {w!r}")
        for a, b in zip(_NUMBER.findall(g), _NUMBER.findall(w)):
            same_number(float(a), float(b), rtol, f"{what} line {n}")


def same_number(got, want, rtol=RTOL, what="value"):
    if got == want or (math.isnan(want) and math.isnan(got)):
        return
    if not abs(got - want) <= rtol * max(abs(got), abs(want)) + ATOL:
        raise CheckError(f"{what}: {got!r} != golden {want!r}")


def within(z, what):
    if not abs(z) < Z_MAX:
        raise CheckError(f"{what}: |z| = {abs(z):.2f} >= {Z_MAX}")


def load_goldens(workload):
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """One workload at one size and input set.

    ``operations()`` yields ``(name, callable)`` pairs; each callable runs
    one operation and returns its output in the form kept in the goldens.
    ``check(name, output)`` raises :class:`CheckError` on a wrong output.
    """

    name = None

    def __init__(self, size, seed, tmp_dir, goldens=None):
        self.size = size
        self.params = SIZES[size][self.name]
        self.variant = variant_of(seed)
        self.tmp_dir = tmp_dir
        self.goldens = goldens
        self.est_std_err = None

    def golden(self, op):
        if self.goldens is None:
            return None
        return self.goldens[self.size][self.golden_key()][op]

    def golden_key(self):
        return str(self.variant)

    def cli(self, argv, tracer):
        """Run ``levyou.cli.main`` and return what it printed."""
        from levyou import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli", cli.main, argv)
        if code != 0:
            raise CheckError(f"levyou {argv[0]} exited with {code}")
        return buf.getvalue()

    def out_path(self, name):
        return os.path.join(self.tmp_dir, name)

    def check(self, op, output):
        want = self.golden(op)
        if want is not None:
            self.compare(op, output, want)

    def compare(self, op, output, want):
        same_text(output, want, what=op)

    def path_steps(self):
        """Path-steps one pass simulates."""
        return 0

    def fractions(self):
        """Price points one pass solves, exact plus two approximations."""
        return 0


class McMix(Workload):
    """``value``, ``compare`` and ``simulate`` on benth2012."""

    name = "mc-mix"

    def operations(self, tracer):
        p = self.params
        seed = mc_seed(self.variant)
        common = ["--preset", MC_PRESET, "--steps", str(p["steps"]),
                  "--backend", BACKEND]

        def value():
            out = self.out_path("value.csv")
            self.cli(["value", *common, "--s-grid", p["s_grid"],
                      "--paths", str(p["value_paths"]), "--seed", str(seed),
                      "--out", out], tracer)
            return _read(out)

        def compare():
            out = self.out_path("compare.csv")
            self.cli(["compare", *common, "--paths", str(p["compare_paths"]),
                      "--seed", str(seed), "--out", out], tracer)
            return _read(out)

        def simulate():
            # its own seed, so its paths do not overlap the other two's
            return self.cli(["simulate", *common,
                             "--paths", str(p["sim_paths"]),
                             "--seed", str(seed + 1)], tracer)

        return [("value", value), ("compare", compare),
                ("simulate", simulate)]

    def check(self, op, output):
        if op == "compare":
            last = output.splitlines()[-1]
            if not last.startswith("# log-value estimate"):
                raise CheckError(f"compare: no log-value line in {last!r}")
            self.est_std_err = float(last.rsplit("+/-", 1)[1])
        if op == "simulate":
            zs = re.findall(r"z = ([-+]\d+\.\d+)", output)
            if len(zs) != 2:
                raise CheckError(f"simulate: expected 2 z-scores in "
                                 f"{output!r}")
            within(float(zs[0]), "simulate terminal mean")
            # The variance's z-score is compared with the golden only: the
            # benth2012 jump sizes are Pareto with alpha = 2.54 < 4, so the
            # squared deviations have no finite variance and their standard
            # error understates the spread (recorded z from -5.4 to +0.8).
        super().check(op, output)

    def compare(self, op, output, want):
        rtol = RTOL_PRINTED if op == "simulate" else RTOL
        same_text(output, want, rtol, what=op)

    def path_steps(self):
        """Path-steps one pass simulates: 9 value rows, 4 strategies plus
        the value estimate in ``compare``, and the ``simulate`` bundle."""
        p = self.params
        n_prices = int(p["s_grid"].split(":")[2])
        return p["steps"] * (n_prices * p["value_paths"]
                             + 5 * p["compare_paths"] + p["sim_paths"])


class Tower(Workload):
    """``valuation.tower_check`` on benth2012 with h = T/2."""

    name = "tower"

    def operations(self, tracer):
        from levyou import presets, valuation
        from levyou.market import SimConfig

        p = self.params

        def tower():
            preset = presets.get_preset(MC_PRESET)
            config = SimConfig(n_paths=p["outer"], n_steps=p["steps"],
                               seed=mc_seed(self.variant))
            report = valuation.tower_check(
                preset.market, 0.0, preset.s0, preset.horizon / 2.0,
                preset.horizon, preset.pi_min, preset.pi_max,
                config=config, backend=BACKEND,
            )
            return report._asdict()

        return [("tower", tower)]

    def check(self, op, output):
        n_inner = max(2, math.isqrt(self.params["outer"]))
        if output["n_inner"] != n_inner:
            raise CheckError(f"tower: {output['n_inner']} inner paths, "
                             f"expected {n_inner}")
        se = output["std_err"]
        within(output["discrepancy"] / se if se > 0.0 else 0.0, "tower")
        self.est_std_err = se
        super().check(op, output)

    def compare(self, op, output, want):
        if set(output) != set(want):
            raise CheckError(f"tower fields {sorted(output)} != golden "
                             f"{sorted(want)}")
        for key, value in want.items():
            same_number(float(output[key]), float(value), what=f"tower.{key}")

    def path_steps(self):
        """Outer full and head runs, plus one inner batch per outer path
        over the second half of the grid."""
        p = self.params
        half = p["steps"] // 2
        n_inner = max(2, math.isqrt(p["outer"]))
        return p["outer"] * (p["steps"] + half + n_inner * (p["steps"] - half))


class SolveSweep(Workload):
    """``solve`` and ``figure`` for every preset; no simulation.

    The work does not depend on random numbers: the seed only permutes
    the order in which the presets run.
    """

    name = "solve-sweep"

    def golden_key(self):
        return "all"

    def preset_order(self):
        from levyou import presets

        names = list(presets.PRESET_NAMES)
        shift = self.variant % len(names)
        return names[shift:] + names[:shift]

    def operations(self, tracer):
        from levyou import presets

        p = self.params
        ops = []
        for name in self.preset_order():
            hi = 2.0 * presets.get_preset(name).s0
            grid = f"0:{hi:g}:{p['solve_points']}"

            def solve(name=name, grid=grid):
                out = self.out_path(f"solve_{name}.csv")
                self.cli(["solve", "--preset", name, "--s-grid", grid,
                          "--out", out], tracer)
                return _read(out)

            def figure(name=name):
                out = self.out_path(f"figure_{name}")
                self.cli(["figure", "--preset", name,
                          "--fractions", p["fractions"],
                          "--points", str(p["figure_points"]),
                          "--out", out], tracer)
                return _figure_output(out)

            ops += [(f"solve:{name}", solve), (f"figure:{name}", figure)]
        return ops

    def compare(self, op, output, want):
        if isinstance(want, dict):
            if sorted(output) != sorted(want):
                raise CheckError(f"{op}: files {sorted(output)} != golden "
                                 f"{sorted(want)}")
            for fname, text in want.items():
                same_text(output[fname], text, what=f"{op} {fname}")
        else:
            same_text(output, want, what=op)

    def fractions(self):
        p = self.params
        n_frac = len(p["fractions"].split(","))
        per_preset = p["solve_points"] + n_frac * p["figure_points"]
        return 3 * 4 * per_preset


WORKLOADS = {cls.name: cls for cls in (McMix, Tower, SolveSweep)}


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _figure_output(out_dir):
    """The figure CSVs by file name; each SVG must parse with 3 series."""
    csvs = {}
    for fname in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, fname)
        if fname.endswith(".csv"):
            csvs[fname] = _read(path)
        elif fname.endswith(".svg"):
            try:
                root = ET.parse(path).getroot()
            except ET.ParseError as exc:
                raise CheckError(f"{fname}: not well-formed SVG: {exc}")
            lines = [el for el in root.iter() if el.tag.endswith("polyline")]
            if not root.tag.endswith("svg") or len(lines) != 3:
                raise CheckError(f"{fname}: expected an <svg> with 3 "
                                 f"polylines, found {len(lines)}")
    return csvs
