"""Counter-based RNG: determinism, stream independence, inverse-CDF
sampling accuracy, and agreement between the numpy kernels and the scalar
reference walk."""

import math
import sys

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_kernels
from levyou import _rng
from levyou.errors import ConfigError
from levyou.jumps import UniformJump
from levyou.market import MarketCoefficients, SimConfig, build_sim_inputs


class TestWords:
    def test_deterministic(self):
        keys = _rng.derive_keys(123, np.arange(8))
        a = _rng.raw_words(keys, 5, 7)
        b = _rng.raw_words(keys, 5, 7)
        assert np.array_equal(a, b)

    def test_distinct_paths_steps_slots(self):
        keys = _rng.derive_keys(123, np.arange(64))
        assert len(set(keys.tolist())) == 64
        w = _rng.raw_words(keys, 0, 0)
        assert len(set(w.tolist())) == 64
        w_step = np.array([_rng.raw_words(keys[:1], k, 0)[0] for k in range(64)])
        assert len(set(w_step.tolist())) == 64
        w_slot = np.array([_rng.raw_words(keys[:1], 0, j)[0] for j in range(64)])
        assert len(set(w_slot.tolist())) == 64

    def test_seed_changes_everything(self):
        a = _rng.derive_keys(1, np.arange(32))
        b = _rng.derive_keys(2, np.arange(32))
        assert not np.any(a == b)

    def test_derive_seed_streams_differ(self):
        seeds = {_rng.derive_seed(99, k) for k in range(100)}
        assert len(seeds) == 100

    def test_array_seeds_and_streams_match_the_scalar_rule(self):
        # streams and seeds across the whole uint64 range, wrap included
        streams = np.array([0, 1, 77, 2**63, 2**64 - 1], dtype=np.uint64)
        seeds = _rng.derive_seed(99, streams)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [_rng.derive_seed(99, int(k))
                                  for k in streams.tolist()]
        ids = np.arange(6)
        keys = _rng.derive_keys(seeds[:, None], ids)
        assert keys.shape == (5, 6)
        for row, seed in zip(keys, seeds.tolist()):
            assert np.array_equal(row, _rng.derive_keys(seed, ids))

    # Words recorded before the counter hash ran in place; every input form
    # the walk and its callers use must still give them.
    KEYS = [8825390260467612366, 5855951487170373226, 16209006977442687670]

    def test_pinned_keys_and_words(self):
        keys = _rng.derive_keys(2012, np.arange(3))
        assert keys.tolist() == self.KEYS
        assert _rng.raw_words(keys, 5, 9).tolist() == [
            10926694135549192062, 11162017648492372002, 16230755199866208749]

    def test_zero_d_keys_and_scalar_counters(self):
        keys = np.array(self.KEYS, dtype=np.uint64)
        for key, step in ((keys[1], 5), (np.asarray(keys[1]), np.uint64(5)),
                          (self.KEYS[1], 5)):
            w = _rng.raw_words(key, step, 9)
            assert isinstance(w, np.ndarray) and w.shape == ()
            assert w.dtype == np.uint64 and int(w) == 11162017648492372002
            u = _rng.uniforms(key, step, 9)
            assert isinstance(u, np.float64)
            assert u == float.fromhex("0x1.35cee7d3260ecp-1")
        assert [float(x).hex() for x in _rng.uniforms(keys, 5, 9)] == [
            "0x1.2f46d4d92d81cp-1", "0x1.35cee7d3260ecp-1",
            "0x1.c27e73b858b30p-1"]

    def test_broadcast_counters(self):
        keys = np.array(self.KEYS, dtype=np.uint64)
        w = _rng.raw_words(keys, np.arange(2)[:, None], np.array([[0], [2048]]))
        assert w.tolist() == [
            [12947227556949194916, 16962688366791919715, 8654111570708975857],
            [12320711730293416262, 13222319701901260468, 1500419248217647248]]
        w = _rng.raw_words(keys[:, None], 7, np.arange(2))
        assert w.tolist() == [
            [10624164306710402672, 8380528947628613672],
            [2288712118326073002, 10173963430615465307],
            [5205726619004499996, 11400057813951693386]]
        # each element is the variate of its own (key, step, slot)
        u = _rng.uniforms(keys[:, None], 7, np.arange(2))
        with np.errstate(over="ignore"):  # the uint64 hash wraps on purpose
            assert u[2, 1] == scalar_kernels._uniform(keys[2], 7, 1)

    def test_mix64_in_place_and_into_out(self):
        z = np.array([0, 1, 12345, 2**64 - 1], dtype=np.uint64)
        want = _rng.mix64(z)
        assert z.tolist() == [0, 1, 12345, 2**64 - 1]  # input kept
        assert _rng.mix64(np.uint64(12345)) == 17540659726606785873
        assert _rng.mix64(12345).shape == ()
        out = np.empty_like(z)
        assert _rng.mix64(z, out=out) is out
        assert np.array_equal(out, want)
        assert _rng.mix64(z, out=z) is z
        assert np.array_equal(z, want)

    def test_scalar_ops_do_not_warn(self):
        keys = _rng.derive_keys(3, np.arange(4))
        with np.errstate(over="raise"):
            _rng.raw_words(keys, 3, 1)
            _rng.derive_seed(12345, 67890)


class TestUniforms:
    def test_open_interval(self):
        keys = _rng.derive_keys(7, np.arange(4096))
        u = _rng.uniforms(keys, 0, 0)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert u.max() <= 1.0 - 2.0**-54
        assert u.min() >= 2.0**-54

    def test_mean_and_spread(self):
        keys = _rng.derive_keys(11, np.arange(200_000))
        u = _rng.uniforms(keys, 0, 0)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        step=st.integers(min_value=0, max_value=10_000),
        slot=st.integers(min_value=0, max_value=4095),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_in_open_unit_interval(self, seed, step, slot):
        keys = _rng.derive_keys(seed, np.arange(4))
        u = _rng.uniforms(keys, step, slot)
        assert np.all((u > 0.0) & (u < 1.0))


# The scalar reference walk's quantile, on arrays; the numpy kernels call
# ``scipy.special.ndtri``, the reference here.
_normal_ppf = np.vectorize(scalar_kernels._normal_ppf, otypes=[np.float64])


class TestNormalPPF:
    def test_matches_reference_inverse(self):
        p = np.concatenate(
            [
                np.linspace(1e-10, 1 - 1e-10, 3001),
                10.0 ** np.arange(-300, -10, 7),
                1.0 - 10.0 ** np.linspace(-16, -2, 40),
            ]
        )
        ours = _normal_ppf(p)
        ref = scipy.special.ndtri(p)
        scale = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(ours - ref) / scale) < 5e-15

    def test_symmetry(self):
        p = np.linspace(1e-6, 0.5, 500)
        assert np.allclose(
            _normal_ppf(p), -_normal_ppf(1.0 - p), rtol=0, atol=1e-11
        )

    def test_median(self):
        assert scalar_kernels._normal_ppf(0.5) == 0.0

    def test_normals_moments(self):
        keys = _rng.derive_keys(13, np.arange(200_000))
        g = scipy.special.ndtri(_rng.uniforms(keys, 0, _rng.SLOT_GAUSS))
        assert abs(g.mean()) < 0.01
        assert abs(g.var() - 1.0) < 0.02


class TestPoisson:
    @pytest.mark.parametrize("mu", [0.01, 0.155, 1.0, 7.3, 45.0])
    def test_inversion_matches_reference(self, mu):
        cdf = _rng.poisson_cdf_table(mu)
        u = _rng.uniforms(_rng.derive_keys(17, np.arange(5000)), 0, 0)
        ours = _rng.poisson_counts(u, cdf)
        ref = scipy.stats.poisson.ppf(u, mu).astype(np.int64)
        assert np.array_equal(ours, ref)

    @pytest.mark.parametrize("mus", [[0.155] * 6, [0.155, 0.155, 2.0,
                                                    0.01, 7.3, 0.155]])
    def test_table_of_rows_matches_per_row_inversion(self, mus):
        # Equal rows are inverted in one call; each row must still give
        # what inverting it alone gives.
        rows = [_rng.poisson_cdf_table(mu) for mu in mus]
        cdf = np.full((len(rows), max(map(len, rows)) + 1), 2.0)
        for k, row in enumerate(rows):
            cdf[k, :len(row)] = row
        keys = _rng.derive_keys(23, np.arange(3000))
        u = _rng.uniforms(keys, np.arange(len(rows))[:, None], 0)
        got = _rng.poisson_counts(u, cdf)
        want = [np.searchsorted(row, u[k], side="left")
                for k, row in enumerate(cdf)]
        assert np.array_equal(got, want)
        assert got.max() >= 1

    def test_uniforms_at_a_table_entry_invert_like_the_search(self):
        # Counts of 0 are set without searching; a uniform equal to the
        # first entry (or any other) must still give the search's count,
        # with one table and with a table of unequal rows.
        rows = [_rng.poisson_cdf_table(mu) for mu in (0.155, 2.0)]
        cdf = np.full((2, max(map(len, rows))), 1.0)
        for k, row in enumerate(rows):
            cdf[k, :len(row)] = row
        for table in (cdf[:1].repeat(2, axis=0), cdf):
            u = np.stack([
                [row[0], np.nextafter(row[0], 0.0), np.nextafter(row[0], 1.0),
                 row[1], 0.5, 1.0 - 2.0**-54]
                for row in table])
            want = [np.searchsorted(row, u[k], side="left")
                    for k, row in enumerate(table)]
            assert np.array_equal(_rng.poisson_counts(u, table), want)
            assert np.array_equal(_rng.poisson_counts(u[0], table[0]),
                                  want[0])
        assert want[0][0] == 0 and want[0][2] == 1

    @settings(max_examples=60, deadline=None)
    @given(
        mus=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6),
        ulps=st.lists(st.integers(-1, 1), min_size=6, max_size=6),
        pad=st.sampled_from([1.0, 2.0]),
        seed=st.integers(0, 2**32),
    )
    def test_unequal_rows_count_like_the_per_row_search(self, mus, ulps, pad,
                                                        seed):
        # Rows one ulp apart, as a linspace grid gives, or of other means
        # and lengths; uniforms from the stream plus every table entry and
        # its neighbours.
        rows = [np.nextafter(_rng.poisson_cdf_table(mu), d * 2.0)
                if d else _rng.poisson_cdf_table(mu)
                for mu, d in zip(mus, ulps)]
        rows = [np.minimum(row, 1.0) for row in rows]
        width = max(map(len, rows)) + 1
        cdf = np.full((len(rows), width), pad)
        for k, row in enumerate(rows):
            cdf[k, :len(row)] = row
        keys = _rng.derive_keys(seed, np.arange(400))
        u = _rng.uniforms(keys, np.arange(len(rows))[:, None], 0)
        entries = np.concatenate([cdf.ravel(), np.nextafter(cdf.ravel(), 0.0),
                                  np.nextafter(cdf.ravel(), 1.0)])
        entries = entries[(entries > 0.0) & (entries < 1.0)]
        u = np.concatenate([u, np.broadcast_to(entries, (len(rows),
                                                         len(entries)))],
                           axis=1)
        want = [np.searchsorted(row, u[k], side="left")
                for k, row in enumerate(cdf)]
        assert np.array_equal(_rng.poisson_counts(u, cdf), want)

    def test_zero_rate(self):
        cdf = _rng.poisson_cdf_table(0.0)
        u = np.array([1e-9, 0.5, 1 - 1e-12])
        assert np.array_equal(_rng.poisson_counts(u, cdf), [0, 0, 0])

    def test_table_is_capped(self):
        # a table that would need more than ``cap`` terms is refused, not
        # truncated
        with pytest.raises(ConfigError, match="more than 20 jumps"):
            _rng.poisson_cdf_table(50.0, cap=20)
        with pytest.raises(ConfigError):
            _rng.poisson_cdf_table(1e6)

    @pytest.mark.parametrize("mu", [900.0, 2000.0])
    def test_underflowing_mean_is_refused(self, mu):
        # exp(-mu) is zero here: an unchecked table would hand every path
        # one fixed count (901 at mu=900, the 1023 cap at mu=2000)
        with pytest.raises(ConfigError, match="underflows"):
            _rng.poisson_cdf_table(mu)
        market = MarketCoefficients(
            lam=0.1, b=0.0, sigma=0.1, psi=1.0,
            measure=UniformJump(0.1, 0.5, rate=mu), compensated=True,
        )
        with pytest.raises(ConfigError):
            build_sim_inputs(market, 0.0, 1.0, SimConfig(4, 1, 1))

    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.floats(1e-3, 100.0),
        dt=st.floats(1e-3, 40.0),
    )
    def test_rate_dt_is_tabulated_faithfully_or_refused(self, rate, dt):
        mu = rate * dt
        try:
            cdf = _rng.poisson_cdf_table(mu)
        except ConfigError:
            assert math.exp(-mu) < sys.float_info.min
            return
        assert math.exp(-mu) >= sys.float_info.min
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)
        assert len(cdf) <= _rng.MAX_JUMPS_PER_STEP + 1
        # the mass cut off above the last count is below double precision
        assert scipy.stats.poisson.sf(len(cdf) - 1, mu) < 2.0**-53

    def test_tail_never_overflows_table(self):
        # the largest producible uniform still lands inside the table
        for mu in (0.1, 3.0, 50.0):
            cdf = _rng.poisson_cdf_table(mu)
            u = np.array([1.0 - 2.0**-54])
            assert _rng.poisson_counts(u, cdf)[0] <= len(cdf) - 1


class TestSizes:
    def test_pareto_inverse_cdf(self):
        u = np.array([0.5, 0.9, 0.99])
        y = _rng.sample_sizes(_rng.SIZE_PARETO, 0.3648, 2.5406, u)
        # P(Y > y) = (scale/y)^alpha  =>  quantile at 1-u of u^(-1/alpha)*scale
        assert np.allclose(y, 0.3648 * u ** (-1.0 / 2.5406), rtol=1e-15)
        assert np.all(y >= 0.3648)

    def test_uniform_sizes(self):
        u = np.array([0.0, 0.25, 1.0])
        y = _rng.sample_sizes(_rng.SIZE_UNIFORM, -0.5, 1.0, u)
        assert np.allclose(y, [-0.5, -0.125, 1.0], rtol=0, atol=1e-16)

    def test_constant_sizes(self):
        u = np.array([0.1, 0.9])
        y = _rng.sample_sizes(_rng.SIZE_CONSTANT, 0.7, 0.0, u)
        assert np.array_equal(y, [0.7, 0.7])
