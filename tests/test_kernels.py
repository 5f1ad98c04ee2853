"""The transition walk: the numpy kernels and their scalar twin.

The numpy kernels are checked against the plain-Python reference walk in
``scalar_kernels`` (a test module): the table lookups bit for bit, the
walks to 1e-14, the gap between ``ndtri`` and PPND16.  They are also
pinned to outputs recorded from the separate price, value and wealth walks
that the shared walk replaced.
"""

import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalar_kernels
from levyou import _kernels_np, _rng, presets, strategy
from levyou.jumps import ConstantJump, ParetoJump, UniformJump
from levyou.market import MarketCoefficients, SimConfig, build_sim_inputs

PRESETS = ("benth2012", "uniform-two-sided", "gaussian")


def kernel_inputs(name, n_paths, n_steps, seed):
    """Kernel arguments and tables for ``n_paths`` paths of one preset."""
    p = presets.get_preset(name)
    sim = build_sim_inputs(p.market, 0.0, p.horizon,
                           SimConfig(n_paths, n_steps, seed))
    args = (_rng.derive_keys(seed, np.arange(n_paths)),
            np.full(n_paths, p.s0), *sim.kernel_args)
    gt = strategy.growth_table(p.market, sim.times, p.pi_min, p.pi_max, ns=33)
    ft = strategy.exact_fraction_table(p.market, sim.times, p.pi_min,
                                       p.pi_max, ns=33)
    return args, gt, ft


def run_all(kern, args, gt, ft):
    price = kern.price_paths(*args)
    acc_v, fin_v = kern.value_paths(*args, *gt.kernel_args)
    acc_w, fin_w = kern.wealth_paths(*args, *ft.kernel_args)
    return {"price": price, "value": acc_v, "value_fin": fin_v,
            "wealth": acc_w, "wealth_fin": fin_w}


@pytest.mark.parametrize("name", PRESETS)
def test_scalar_kernels_match_numpy(name):
    # Tolerance set from the separate per-kernel walks, whose largest gap
    # was 2.8e-15 absolute (values up to about 8); relative gaps reached
    # 3.3e-13 only on gaussian prices near zero.
    args, gt, ft = kernel_inputs(name, 64, 24, 99)
    with np.errstate(over="ignore"):  # the uint64 hash wraps on purpose
        scalar = run_all(scalar_kernels, args, gt, ft)
    vector = run_all(_kernels_np, args, gt, ft)
    for key, want in vector.items():
        assert scalar[key].shape == want.shape
        np.testing.assert_allclose(scalar[key], want, rtol=1e-14, atol=1e-14,
                                   err_msg=f"{name} {key}")


@pytest.mark.parametrize("name", PRESETS)
def test_scalar_kernels_match_numpy_on_tables_that_vary_in_time(name):
    # The presets' markets are constant, so every row of their tables is
    # the same and a lookup in the wrong time row would not show.  Give
    # each row its own bracket and scale; tolerances as above.
    args, gt, ft = kernel_inputs(name, 64, 24, 99)
    k = np.arange(gt.s1.shape[0])
    gt, ft = (t._replace(values=t.values * (1.0 + 0.05 * k)[:, None],
                         s1=t.s1 + 0.02 * k, s2=t.s2 + 0.03 * k)
              for t in (gt, ft))
    with np.errstate(over="ignore"):  # the uint64 hash wraps on purpose
        scalar = run_all(scalar_kernels, args, gt, ft)
    vector = run_all(_kernels_np, args, gt, ft)
    for key, want in vector.items():
        np.testing.assert_allclose(scalar[key], want, rtol=1e-14, atol=1e-14,
                                   err_msg=f"{name} {key}")


@pytest.mark.parametrize("name, n_steps", [("uniform-two-sided", 4),
                                           ("benth2012", 24)])
def test_numpy_kernels_are_batch_split_invariant(name, n_steps, monkeypatch):
    # Each step walks only the paths that jump, so a path's lanes depend on
    # which other paths share its batch; its outputs must not.  Nor may they
    # depend on how many steps share one block of drawn variates: a budget
    # of 1 path-step gives one step per block, 3 * 64 gives 3 (a last,
    # shorter block included).
    args, gt, ft = kernel_inputs(name, 64, n_steps, 11)
    assert 64 * n_steps <= _kernels_np.BLOCK_PATH_STEPS  # one block
    whole = run_all(_kernels_np, args, gt, ft)
    parts = [run_all(_kernels_np, (args[0][sl], args[1][sl], *args[2:]),
                     gt, ft)
             for sl in (slice(0, 17), slice(17, 64))]
    for key, want in whole.items():
        got = np.concatenate([part[key] for part in parts])
        assert np.array_equal(got, want), f"{name} {key}"
    for budget in (1, 3 * 64):
        monkeypatch.setattr(_kernels_np, "BLOCK_PATH_STEPS", budget)
        blocked = run_all(_kernels_np, args, gt, ft)
        for key, want in whole.items():
            assert np.array_equal(blocked[key], want), \
                f"{name} {key} budget {budget}"


def test_price_nodes_do_not_depend_on_the_block_budget(monkeypatch):
    # 3 000 paths x 24 steps is more than one block holds at every budget:
    # blocks of 1, 5 and 10 steps, the last two with a shorter last block.
    # The node rows are written in place block by block; no bit may move.
    args, _, _ = kernel_inputs("benth2012", 3000, 24, 29)
    want = None
    for budget in (1, 1 << 14, 1 << 15):
        monkeypatch.setattr(_kernels_np, "BLOCK_PATH_STEPS", budget)
        got = _fresh(monkeypatch, lambda: _kernels_np.price_paths(*args))
        assert got.shape == (3000, 25)
        assert np.array_equal(got[:, 0], args[1])
        if want is None:
            want = got
        np.testing.assert_array_equal(_bits(got), _bits(want),
                                      err_msg=f"budget {budget}")


@pytest.mark.parametrize("budget", [1, 7, None])
@pytest.mark.parametrize("name", PRESETS)
def test_node_free_price_walk_gives_the_nodes_last_column_and_range(
        name, budget, monkeypatch):
    # ``nodes=False`` folds each block's rows into a running minimum and
    # maximum instead of keeping them.  It must give the node array's last
    # column and row extremes bit for bit, whatever the block length: a
    # budget of 7 path-steps walks the batch of 2 paths in blocks of 3
    # steps and the batch of 3 in blocks of 2, each with a shorter last
    # block; the default walks each batch in one block.  The batches are
    # two path_offset runs of one key set.
    if budget is not None:
        monkeypatch.setattr(_kernels_np, "BLOCK_PATH_STEPS", budget)
    args, _, _ = kernel_inputs(name, 5, 25, 37)
    walks = []
    for part in (slice(0, 2), slice(2, 5)):
        batch = (args[0][part], args[1][part], *args[2:])
        nodes = _fresh(monkeypatch, lambda: _kernels_np.price_paths(*batch))
        free = _fresh(monkeypatch, lambda: _kernels_np.price_paths(
            *batch, nodes=False))
        want = (nodes[:, -1], nodes.min(axis=1), nodes.max(axis=1))
        for got, expected in zip(free, want):
            assert got.shape == expected.shape
            np.testing.assert_array_equal(_bits(got), _bits(expected))
        walks.append(free)
    whole = _kernels_np.price_paths(*args, nodes=False)
    for got, parts in zip(whole, zip(*walks)):
        np.testing.assert_array_equal(_bits(got),
                                      _bits(np.concatenate(parts)))


def test_price_calls_return_their_own_arrays():
    # The nodes are returned as a transposed view; a second call, which
    # may walk the first call's kept skeleton, must not write into it.
    args, _, _ = kernel_inputs("uniform-two-sided", 40, 12, 31)
    first = _kernels_np.price_paths(*args)
    kept = first.copy()
    second = _kernels_np.price_paths(*args)
    assert first.shape == second.shape == (40, 13)
    assert not np.shares_memory(first, second)
    second[:] = 0.0
    assert np.array_equal(first, kept)


@pytest.mark.parametrize("kern", [_kernels_np, scalar_kernels],
                         ids=["numpy", "scalar"])
@pytest.mark.parametrize("side", ["above", "below"])
def test_wealth_walk_reads_the_flat_extension_exactly(kern, side):
    # Outside its bracket a fraction table is its end value, with no
    # slope: pi_max below the bracket, pi_min above it.  Both fractions are
    # nonzero here, so a growth-table slope (-lam*pi) would show.  Paths
    # start at 20 and stay above 1, outside the constant table's [0, 1].
    p = presets.get_preset("uniform-two-sided")
    sim = build_sim_inputs(p.market, 0.0, p.horizon, SimConfig(16, 24, 5))
    args = (_rng.derive_keys(5, np.arange(16)), np.full(16, 20.0),
            *sim.kernel_args)
    assert _kernels_np.price_paths(*args).min() > 1.0
    ft = strategy.exact_fraction_table(p.market, sim.times, p.pi_min,
                                       p.pi_max, ns=33)
    shift = 1e3 if side == "above" else -1e3
    far = ft._replace(s1=ft.s1 + shift, s2=ft.s2 + shift)
    end = far.values[0, 0] if side == "above" else far.values[0, -1]
    assert end == (p.pi_max if side == "above" else p.pi_min)
    const = strategy.constant_fraction_table(sim.times, end)
    with np.errstate(over="ignore"):  # the uint64 hash wraps on purpose
        got = kern.wealth_paths(*args, *far.kernel_args)
        want = kern.wealth_paths(*args, *const.kernel_args)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("kern", [_kernels_np, scalar_kernels],
                         ids=["numpy", "scalar"])
@pytest.mark.parametrize("side", ["above", "below"])
def test_value_walk_reads_the_linear_extension_exactly(kern, side):
    # Outside its bracket a growth table is exactly linear in the price:
    # v_end + slope * (s - s_end).  With the bracket far above (below) the
    # paths, every node and jump lookup takes that branch, so the walk
    # must equal one over a two-point table that is this line everywhere.
    # Each row's bracket moves by a different amount, so a lookup in the
    # wrong row would show.
    p = presets.get_preset("uniform-two-sided")
    sim = build_sim_inputs(p.market, 0.0, p.horizon, SimConfig(16, 24, 5))
    args = (_rng.derive_keys(5, np.arange(16)), np.full(16, p.s0),
            *sim.kernel_args)
    prices = _kernels_np.price_paths(*args)
    gt = strategy.growth_table(p.market, sim.times, p.pi_min, p.pi_max,
                               ns=33)
    assert gt.slope_lo != 0.0 and gt.slope_hi != 0.0
    shift = np.arange(sim.times.shape[0]) + 1e3
    if side == "above":
        far = gt._replace(s1=gt.s1 + shift, s2=gt.s2 + shift)
        assert prices.max() < far.s1.min()
        v_end, s_end, slope = far.values[:, 0], far.s1, gt.slope_lo
        line = gt._replace(values=np.stack([v_end, v_end + slope], axis=1),
                           s1=s_end, s2=s_end + 1.0)
    else:
        far = gt._replace(s1=gt.s1 - shift, s2=gt.s2 - shift)
        assert prices.min() > far.s2.max()
        v_end, s_end, slope = far.values[:, -1], far.s2, gt.slope_hi
        line = gt._replace(values=np.stack([v_end - slope, v_end], axis=1),
                           s1=s_end - 1.0, s2=s_end)
    with np.errstate(over="ignore"):  # the uint64 hash wraps on purpose
        got = kern.value_paths(*args, *far.kernel_args)
        want = kern.value_paths(*args, *line.kernel_args)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert np.all(got[0] != 0.0)


def test_block_lookup_matches_the_scalar_twin():
    # The numpy walk reads a whole block of prices at once, each element
    # in its own table row.  Every element must equal the scalar lookup bit
    # for bit: below the bracket, on s1, inside it, on its nodes, on s2
    # and above it, with rows mixed across the elements.
    rng = np.random.default_rng(4)
    n_rows, ns, n = 7, 33, 50
    s1 = rng.uniform(-2.0, 2.0, n_rows)
    s2 = s1 + rng.uniform(0.5, 3.0, n_rows)
    table = strategy.PriceTable(rng.normal(size=(n_rows, ns)), s1, s2,
                                -0.7, 0.3).kernel_args
    row = rng.integers(0, n_rows, size=(6, n))
    lo, hi = s1[row], s2[row]
    width = hi - lo
    u = rng.uniform(0.0, 1.0, size=(6, n))
    nodes = rng.integers(1, ns - 1, size=n) / (ns - 1)
    prices = np.stack([
        lo[0] - width[0] * (u[0] + 0.01),
        lo[1],
        lo[2] + width[2] * u[2],
        lo[3] + width[3] * nodes,
        hi[4],
        hi[5] + width[5] * u[5],
    ])
    got = _kernels_np._lookup(*table, row, prices)
    want = np.array([
        scalar_kernels._interp_slope(*table, r, s)
        for r, s in zip(row.ravel().tolist(), prices.ravel().tolist())
    ]).reshape(prices.shape)
    assert got.shape == prices.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    # one row for all elements, as for the walk's first node
    first = _kernels_np._lookup(*table, 0, prices[2])
    want = [scalar_kernels._interp_slope(*table, 0, s)
            for s in prices[2].tolist()]
    np.testing.assert_array_equal(first.view(np.int64),
                                  np.array(want).view(np.int64))


# The piece-form lookup on generated tables.  A table row's interior is
# read within LOOKUP_ULPS * eps * (M + D * (|s1| + |s2|)) of the exact
# interpolant through its nodes s1 + j * (s2 - s1) / (ns - 1), where M is
# the row's largest |value| and D its largest |interval slope|; the lookup
# it replaced kept the same bound, and both stayed under 0.9 of it on
# 60 000 sampled prices.
LOOKUP_ULPS = 2.0


@st.composite
def lookup_tables(draw):
    """A price table with flat runs, and a seeded generator for prices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows, ns = draw(st.integers(1, 4)), draw(st.integers(2, 257))
    center = 10.0 ** draw(st.integers(-3, 4))
    s1 = rng.uniform(-1.0, 1.0, n_rows) * center
    s2 = s1 + rng.uniform(0.1, 1.0, n_rows) * 10.0 ** draw(st.integers(-3, 3))
    values = rng.normal(size=(n_rows, ns)) * 10.0 ** draw(st.integers(-3, 3))
    runs = []
    for r in range(n_rows):
        a = int(rng.integers(0, ns - 1))
        b = int(rng.integers(a + 2, ns + 1))
        values[r, a:b] = values[r, a] + 0.0  # no negative zero
        runs.append((a, b))
    slopes = [draw(st.sampled_from([0.0, -0.7, 2.5])) for _ in range(2)]
    return strategy.PriceTable(values, s1, s2, *slopes), runs, rng


def _both_lookups(table, row, prices):
    """The numpy lookup, checked against the scalar twin element by
    element (bit for bit where finite)."""
    args = table.kernel_args
    got = _kernels_np._lookup(*args, row, prices)
    want = np.array([scalar_kernels._interp_slope(*args, r, s) for r, s in
                     zip(row.tolist(), prices.tolist())])
    np.testing.assert_array_equal(got, want)
    finite = np.isfinite(want)
    np.testing.assert_array_equal(got[finite].view(np.int64),
                                  want[finite].view(np.int64))
    return got


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=lookup_tables())
def test_piece_lookup_on_generated_tables(case):
    table, runs, rng = case
    v, s1, s2 = table.values, table.s1, table.s2
    n_rows, ns = v.shape
    top = ns - 1
    width = s2 - s1
    rows = np.arange(n_rows)

    # Inside a flat run the row's value comes back bit for bit.
    row = np.repeat(rows, 8)
    a, b = np.array(runs).T
    at = a[row] + rng.uniform(0.05, 0.95, row.shape) * (b - 1 - a)[row]
    got = _both_lookups(table, row, s1[row] + at / top * width[row])
    np.testing.assert_array_equal(got.view(np.int64),
                                  v[row, a[row]].view(np.int64))

    # On and beyond s1 and s2: the extension lines, exactly.
    far = width * np.array([[0.0], [1e-9], [0.3], [40.0]])
    below, above = (s1 - far).ravel(), (s2 + far).ravel()
    row = np.tile(rows, 4)
    got = _both_lookups(table, row, below)
    np.testing.assert_array_equal(
        got, v[row, 0] + table.slope_lo * (below - s1[row]))
    got = _both_lookups(table, row, above)
    np.testing.assert_array_equal(
        got, v[row, top] + table.slope_hi * (above - s2[row]))

    # Inside the bracket: within the stated bound of the exact interpolant.
    row = np.repeat(rows, 12)
    prices = s1[row] + rng.uniform(0.0, 1.0, row.shape) * width[row]
    prices = np.clip(prices, np.nextafter(s1[row], np.inf),
                     np.nextafter(s2[row], -np.inf))
    got = _both_lookups(table, row, prices)
    slope = np.abs(np.diff(v, axis=1)).max(axis=1) / (width / top)
    for r, s, g in zip(row.tolist(), prices.tolist(), got.tolist()):
        lo, hi = Fraction(s1[r]), Fraction(s2[r])
        x = (Fraction(s) - lo) * top / (hi - lo)
        j = min(int(x), top - 1)
        exact = Fraction(v[r, j]) + (Fraction(v[r, j + 1])
                                     - Fraction(v[r, j])) * (x - j)
        bound = LOOKUP_ULPS * np.finfo(float).eps * (
            np.abs(v[r]).max() + slope[r] * (abs(s1[r]) + abs(s2[r])))
        assert abs(float(Fraction(g) - exact)) <= bound, (r, s)

    # NaN and infinite prices: NaN or the extension's infinity, as the
    # extension lines give them, and never an index out of range.
    row = np.repeat(rows, 3)
    odd = np.tile([np.nan, np.inf, -np.inf], n_rows)
    with np.errstate(invalid="ignore"):
        got = _both_lookups(table, row, odd)
        want = np.where(odd > 0.0,
                        v[row, top] + table.slope_hi * (odd - s2[row]),
                        v[row, 0] + table.slope_lo * (odd - s1[row]))
    np.testing.assert_array_equal(got, want)


# Outputs of the separate per-kernel numpy walks for 4 paths (keys from
# seed 7): final node price, reward integral (growth table, 33 prices) and
# log-wealth (exact fraction table, 33 prices).  The benth2012 values at
# [1] and [3] were re-pinned when the growth table's Pareto log penalty
# moved from quadrature (2.3e-12 of the row's scale off mpmath) to its
# closed form (7e-16): all four values now lie within 8.1e-16 relative of a
# walk over a table whose log penalties came from 60-digit mpmath, where
# the old pins were 1.6e-12 and 2.1e-12 away.
PINNED = {
    ("benth2012", 24): {
        "price": [7.882442064195384, 5.227589960649478, 4.2905418754833216,
                  6.114789504434009],
        "value": [0.01569101068142495, 0.0013768696450983866,
                  0.03571425473250751, 5.233538827147121e-06],
        "wealth": [0.12141525116702878, 0.08224957835217848,
                   -0.09151271627973405, 0.1359827169061913],
    },
    # four steps of 1.5 hours: up to four jumps in one step
    ("uniform-two-sided", 4): {
        "price": [0.2139903405579941, 0.44000123014056247,
                  -0.8176358452138451, 1.942119153428088],
        "value": [0.10369421058513195, 0.24326574172225374,
                  0.3859504803562437, 0.2582143200763397],
        "wealth": [0.35306390020164075, 0.6569846301579881,
                   -0.5136032264452823, -0.32613133508808984],
    },
    ("gaussian", 24): {
        "price": [0.15701106179835903, 0.5152025580085438,
                  0.23822061374180534, 0.33120596213340503],
        "value": [0.18167548336334224, 0.048210753743971047,
                  0.3192760907879695, 0.03556232301904709],
        "wealth": [0.434850461483232, 0.6264791755261727,
                   0.18000783276886453, 0.6654774193890859],
    },
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_numpy_kernels_reproduce_pinned_outputs(case):
    name, n_steps = case
    args, gt, ft = kernel_inputs(name, 4, n_steps, 7)
    got = run_all(_kernels_np, args, gt, ft)
    got["price"] = got["price"][:, -1]
    # rtol admits last-ulp differences of the vectorized exp/log between
    # CPUs; a change to what the walk computes moves them far more
    for key, want in PINNED[case].items():
        np.testing.assert_allclose(got[key], want, rtol=1e-13, atol=0.0,
                                   err_msg=f"{name} {key}")


def test_pinned_uniform_case_has_several_jumps_per_step():
    args, _, _ = kernel_inputs("uniform-two-sided", 4, 4, 7)
    keys, cdf = args[0], args[8]
    counts = [_rng.poisson_counts(_rng.uniforms(keys, k, _rng.SLOT_COUNT),
                                  cdf[k]) for k in range(4)]
    assert max(int(c.max()) for c in counts) >= 3


# Generated markets for the differential test: steps of DT, so a rate of
# 30 gives three jumps per step on average.
DT = 0.1
MEASURES = {
    "uniform": lambda rate: UniformJump(-0.5, 0.8, rate),
    "constant": lambda rate: ConstantJump(0.4, rate),
    "pareto": lambda rate: ParetoJump(2.5, 0.3, rate),
}


@st.composite
def walk_cases(draw, lam, shape, rate):
    """Kernel arguments and two synthetic tables for a generated market
    with mean reversion ``lam``, volatility ``shape`` and jump ``rate``."""
    n_steps = draw(st.integers(2, 10))
    n_paths = draw(st.integers(1, 4))
    level = draw(st.floats(0.05, 1.0))
    if shape == "some steps":
        on = draw(st.lists(st.booleans(), min_size=n_steps,
                           max_size=n_steps).filter(
                               lambda m: any(m) and not all(m)))
        sigma = lambda u: level * on[min(round(u / DT), n_steps - 1)]
    else:
        sigma = level if shape == "constant" else 0.0
    b0, b1 = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    kind = draw(st.sampled_from(sorted(MEASURES)))
    market = MarketCoefficients(
        lam=lam, b=(lambda u: b0 + b1 * u) if draw(st.booleans()) else b0,
        sigma=sigma, psi=draw(st.floats(0.1, 1.0)),
        measure=MEASURES[kind](rate),
        sigma_range=(0.0, level) if callable(sigma) else None,
    )
    seed = draw(st.integers(0, 2**32 - 1))
    sim = build_sim_inputs(market, 0.0, n_steps * DT,
                           SimConfig(n_paths, n_steps, seed))
    rng = np.random.default_rng(seed)
    s1 = rng.uniform(-1.0, 1.0, n_steps + 1)
    s2 = s1 + rng.uniform(0.5, 2.0, n_steps + 1)
    reward = strategy.PriceTable(rng.normal(size=(n_steps + 1, 9)), s1, s2,
                                 -0.05, 0.02)
    # fractions that keep 1 + pi * psi * y positive for every size
    lo = 0.0 if kind == "pareto" else -0.5
    fraction = strategy.PriceTable(rng.uniform(lo, 0.5, (n_steps + 1, 9)),
                                   s1, s2, 0.0, 0.0)
    args = (_rng.derive_keys(seed, np.arange(n_paths)),
            rng.uniform(-1.0, 3.0, n_paths), *sim.kernel_args)
    return args, reward, fraction


@pytest.mark.parametrize("rate", [0.0, 3.0, 30.0])
@pytest.mark.parametrize("shape", ["zero", "constant", "some steps"])
@pytest.mark.parametrize("lam", [0.0, 1e-9, 0.3, 2.0])
@settings(max_examples=3, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scalar_kernels_match_numpy_on_generated_markets(lam, shape, rate,
                                                         data):
    # The presets reach the walk's branches only all-or-nothing: sigma is
    # zero on every step or on none, and every step has the same rate.
    args, reward, fraction = data.draw(walk_cases(lam, shape, rate))
    with np.errstate(over="ignore"):  # the uint64 hash wraps on purpose
        scalar = run_all(scalar_kernels, args, reward, fraction)
    vector = run_all(_kernels_np, args, reward, fraction)
    for key, want in vector.items():
        assert np.isfinite(want).all()
        np.testing.assert_allclose(scalar[key], want, rtol=1e-14, atol=1e-14,
                                   err_msg=key)


def _raise(*_):
    raise AssertionError("a normal quantile was drawn")


def test_walk_draws_no_normals_without_volatility(monkeypatch):
    # benth2012 has sigma = 0: every noise term would be 0 * ndtri(u).
    args, gt, ft = kernel_inputs("benth2012", 64, 24, 3)
    assert not args[4].any()
    want = run_all(_kernels_np, args, gt, ft)
    monkeypatch.setattr(_kernels_np, "ndtri", _raise)
    monkeypatch.setattr(_kernels_np, "_memo", None)  # draw again
    got = run_all(_kernels_np, args, gt, ft)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key])


def test_walk_draws_normals_where_volatility_is_on_some_steps(monkeypatch):
    market = MarketCoefficients(
        lam=0.3, b=0.1, sigma=lambda u: 0.2 if u >= 1.0 else 0.0, psi=0.5,
        measure=UniformJump(-0.5, 0.8, 3.0), sigma_range=(0.0, 0.2))
    sim = build_sim_inputs(market, 0.0, 2.0, SimConfig(8, 8, 5))
    assert not sim.sig_step.all() and sim.sig_step.any()
    args = (_rng.derive_keys(5, np.arange(8)), np.ones(8), *sim.kernel_args)
    calls = []
    ndtri = _kernels_np.ndtri
    monkeypatch.setattr(_kernels_np, "ndtri",
                        lambda u: calls.append(u.size) or ndtri(u))
    nodes = _kernels_np.price_paths(*args)
    assert calls
    monkeypatch.setattr(_kernels_np, "ndtri", _raise)
    monkeypatch.setattr(_kernels_np, "_memo", None)  # draw again
    with pytest.raises(AssertionError, match="normal quantile"):
        _kernels_np.price_paths(*args)
    with np.errstate(over="ignore"):  # the uint64 hash wraps on purpose
        scalar = scalar_kernels.price_paths(*args)
    np.testing.assert_allclose(scalar, nodes, rtol=1e-14, atol=1e-14)


def test_wealth_walk_keeps_the_drag_where_volatility_is_on_some_steps(
        monkeypatch):
    # A block with zero volatility on every step subtracts no variance
    # drag; any other block must.  With one step per block both kinds
    # occur, and the walk must equal the one-block walk bit for bit and
    # the scalar twin, which subtracts the drag on every step.
    market = MarketCoefficients(
        lam=0.3, b=0.1, sigma=lambda u: 0.2 if u >= 1.0 else 0.0, psi=0.5,
        measure=UniformJump(-0.5, 0.8, 3.0), sigma_range=(0.0, 0.2))
    sim = build_sim_inputs(market, 0.0, 2.0, SimConfig(8, 8, 5))
    args = (_rng.derive_keys(5, np.arange(8)), np.ones(8), *sim.kernel_args)
    # At pi = 0.5 the drag is 0.5 pi^2 * 0.2^2 * 1.0 = 0.005 per path.
    ft = strategy.constant_fraction_table(sim.times, 0.5)
    whole = _kernels_np.wealth_paths(*args, *ft.kernel_args)
    with np.errstate(over="ignore"):  # the uint64 hash wraps on purpose
        scalar = scalar_kernels.wealth_paths(*args, *ft.kernel_args)
    for got, want in zip(whole, scalar):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
    monkeypatch.setattr(_kernels_np, "BLOCK_PATH_STEPS", 8)
    monkeypatch.setattr(_kernels_np, "_memo", None)  # draw again
    blocked = _kernels_np.wealth_paths(*args, *ft.kernel_args)
    for got, want in zip(blocked, whole):
        assert np.array_equal(got, want)


# The skeleton memo: a walk over the same keys, grid and market as the last
# call reuses that call's random skeleton.

def _drew(monkeypatch, walk):
    """``walk()``, and whether it drew any uniform."""
    calls = []
    uniforms = _rng.uniforms
    with monkeypatch.context() as m:
        m.setattr(_rng, "uniforms",
                  lambda *a: calls.append(1) or uniforms(*a))
        out = walk()
    return out, bool(calls)


def _fresh(monkeypatch, walk):
    """``walk()`` on a freshly drawn skeleton."""
    monkeypatch.setattr(_kernels_np, "_memo", None)
    return walk()


def _bits(out):
    return np.asarray(out).view(np.int64)


def _no_uniforms(*_):
    raise AssertionError("a uniform was drawn")


@pytest.mark.parametrize("budget", [None, 3 * 64])
@pytest.mark.parametrize("name", ["benth2012", "uniform-two-sided"])
def test_a_repeated_walk_draws_nothing_and_moves_no_bit(name, budget,
                                                        monkeypatch):
    # The second call starts elsewhere and reads other tables; only the
    # skeleton is shared.  A budget of 3 * 64 gives the call 8 blocks.
    if budget is not None:
        monkeypatch.setattr(_kernels_np, "BLOCK_PATH_STEPS", budget)
    args, gt, ft = kernel_inputs(name, 64, 24, 13)
    keys, s0, rest = args[0], args[1], args[2:]
    s1 = s0 + np.linspace(-1.0, 1.0, 64)
    walks = {
        "price": (_kernels_np.price_paths, (), ()),
        "value": (_kernels_np.value_paths, gt.kernel_args,
                  gt._replace(values=gt.values * 1.5,
                              s1=gt.s1 - 0.2).kernel_args),
        "wealth": (_kernels_np.wealth_paths, ft.kernel_args,
                   strategy.constant_fraction_table(rest[0],
                                                    0.1).kernel_args),
    }
    for mode, (walk, first, second) in walks.items():
        want = _fresh(monkeypatch, lambda: walk(keys, s1, *rest, *second))
        _fresh(monkeypatch, lambda: walk(keys, s0, *rest, *first))
        with monkeypatch.context() as m:
            m.setattr(_rng, "uniforms", _no_uniforms)
            got = walk(keys, s1, *rest, *second)
        np.testing.assert_array_equal(_bits(got), _bits(want),
                                      err_msg=mode)


def _moved(args, i):
    """``args`` with argument ``i`` moved by one ulp in one element, or,
    for the keys, one key changed and, for the size sampler, another
    sampler."""
    args = list(args)
    a = np.array(args[i])
    if i == 0:
        a[3] ^= np.uint64(1)
    elif i == 9:
        a = _rng.SIZE_CONSTANT
    else:
        at = (-1,) * a.ndim
        a[at] = np.nextafter(a[at], np.inf)
        if a.ndim == 0:
            a = float(a)
    args[i] = a
    return tuple(args)


# kernel argument positions: keys, s0, times, b_step, sig_step, psi_step,
# comp_step, lam, cdf, kind, p0, p1
SKELETON_INPUTS = {"keys": 0, "times": 2, "b_step": 3, "sig_step": 4,
                   "comp_step": 6, "lam": 7, "cdf": 8, "kind": 9, "p0": 10,
                   "p1": 11}


@pytest.mark.parametrize("name", sorted(SKELETON_INPUTS))
def test_a_moved_skeleton_input_draws_again(name, monkeypatch):
    args, _, _ = kernel_inputs("uniform-two-sided", 16, 6, 5)
    moved = _moved(args, SKELETON_INPUTS[name])
    want = _fresh(monkeypatch, lambda: _kernels_np.price_paths(*moved))
    _fresh(monkeypatch, lambda: _kernels_np.price_paths(*args))
    got, drew = _drew(monkeypatch, lambda: _kernels_np.price_paths(*moved))
    assert drew, f"{name} moved, but the skeleton was reused"
    np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("name, i", [("s0", 1), ("psi_step", 5)])
def test_a_moved_price_loop_input_reuses_the_skeleton(name, i, monkeypatch):
    args, _, _ = kernel_inputs("uniform-two-sided", 16, 6, 5)
    moved = _moved(args, i)
    want = _fresh(monkeypatch, lambda: _kernels_np.price_paths(*moved))
    _fresh(monkeypatch, lambda: _kernels_np.price_paths(*args))
    got, drew = _drew(monkeypatch, lambda: _kernels_np.price_paths(*moved))
    assert not drew
    assert not np.array_equal(got, _kernels_np.price_paths(*args))
    np.testing.assert_array_equal(_bits(got), _bits(want))


def test_a_call_above_the_bound_is_not_kept(monkeypatch):
    args, _, _ = kernel_inputs("benth2012", 16, 6, 5)
    small, _, _ = kernel_inputs("benth2012", 4, 6, 5)
    monkeypatch.setattr(_kernels_np, "MEMO_PATH_STEPS", 16 * 6 - 1)
    _kernels_np.price_paths(*small)
    assert _kernels_np._memo is not None
    _kernels_np.price_paths(*args)  # a miss drops the old entry
    assert _kernels_np._memo is None
    _, drew = _drew(monkeypatch, lambda: _kernels_np.price_paths(*args))
    assert drew


def test_mutating_the_callers_keys_gives_no_false_hit(monkeypatch):
    args, _, _ = kernel_inputs("uniform-two-sided", 16, 6, 5)
    keys, rest = args[0].copy(), args[1:]
    moved = keys.copy()
    moved[5] ^= np.uint64(1 << 40)
    want = _fresh(monkeypatch, lambda: _kernels_np.price_paths(moved, *rest))
    _fresh(monkeypatch, lambda: _kernels_np.price_paths(keys, *rest))
    keys[5] ^= np.uint64(1 << 40)  # the same array, changed in place
    np.testing.assert_array_equal(
        _bits(_kernels_np.price_paths(keys, *rest)), _bits(want))


def test_threads_sharing_the_memo_get_their_own_skeletons(monkeypatch):
    # Threads walk two key sets in turn, so the memo keeps changing hands
    # between a tag check and a rebind; every walk must still give the
    # prices of its own keys.
    args, _, _ = kernel_inputs("uniform-two-sided", 16, 6, 5)
    other = (_rng.derive_keys(6, np.arange(16)), *args[1:])
    cases = [args, other]
    want = [_fresh(monkeypatch, lambda: _kernels_np.price_paths(*a))
            for a in cases]
    bad = []

    def work(first):
        for i in range(40):
            j = (first + i) % 2
            if not np.array_equal(_kernels_np.price_paths(*cases[j]),
                                  want[j]):
                bad.append(j)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad
