"""Tests for repro.util: fixed point, RNG streams, stats, tables, validation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.util import (
    OnlineStats,
    ascii_curve,
    check_non_negative,
    check_positive,
    check_power_of,
    check_probability,
    format_table,
    mean_confidence_interval,
    spawn_rngs,
    spawn_seeds,
)
from repro.util.fixedpoint import fixed_point_batch
from repro.util.rng import replication_seeds
from repro.util.stats import batch_means, student_t_quantile


def fixed_point(func, x0, **kwargs):
    """One-column :func:`fixed_point_batch` over a state vector."""
    res = fixed_point_batch(
        lambda x: func(x[:, 0])[:, None], np.asarray(x0, dtype=float)[:, None], **kwargs
    )
    return res, res.value[:, 0]


class TestFixedPoint:
    def test_linear_contraction(self):
        res, value = fixed_point(lambda x: 0.5 * x + 1.0, np.array([0.0]))
        assert res.converged
        assert value[0] == pytest.approx(2.0)

    def test_vector_map(self):
        a = np.array([[0.2, 0.1], [0.0, 0.3]])
        b = np.array([1.0, 2.0])
        _, value = fixed_point(lambda x: a @ x + b, np.zeros(2))
        expected = np.linalg.solve(np.eye(2) - a, b)
        assert np.allclose(value, expected)

    def test_damping_stabilises_oscillation(self):
        # x <- -x + 4 oscillates undamped; damping 0.5 converges to 2.
        _, value = fixed_point(
            lambda x: -x + 4.0, np.array([0.0]), damping=0.5, max_iter=5000
        )
        assert value[0] == pytest.approx(2.0)

    def test_allow_divergence(self):
        # x <- 2x + 1 diverges: the exhausted budget is not an error here;
        # the last iterate comes back unconverged, with the diagnostics a
        # caller needs to accept it or raise.
        res, value = fixed_point(
            lambda x: np.array([2.0, 1.0]) * x + 1.0, np.array([1.0, 0.0]), max_iter=50
        )
        assert not res.converged
        assert res.iterations == 50
        assert res.residual > 0
        assert res.worst_component == 0
        assert value[0] == 2.0**51 - 1.0  # exactly 50 steps from x0 = 1

    def test_inf_is_terminal(self):
        res, value = fixed_point(lambda x: x * np.inf, np.array([1.0]))
        assert res.converged
        assert math.isinf(value[0])

    def test_bad_damping_rejected(self):
        with pytest.raises(ValueError):
            fixed_point(lambda x: x, np.array([1.0]), damping=0.0)


class TestRng:
    def test_streams_are_independent(self):
        a, b = spawn_rngs(42, 2)
        xa = a.random(1000)
        xb = b.random(1000)
        assert abs(np.corrcoef(xa, xb)[0, 1]) < 0.1

    def test_reproducible(self):
        a1, = spawn_rngs(7, 1)
        a2, = spawn_rngs(7, 1)
        assert np.array_equal(a1.random(10), a2.random(10))

    def test_different_seeds_differ(self):
        a, = spawn_rngs(1, 1)
        b, = spawn_rngs(2, 1)
        assert not np.array_equal(a.random(10), b.random(10))

    def test_spawn_seeds_count(self):
        assert len(spawn_seeds(0, 5)) == 5

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_replication_seeds_distinct(self):
        seeds = replication_seeds(3, 10)
        assert len(set(seeds)) == 10

    def test_replication_seeds_no_cross_collision(self):
        s1 = set(replication_seeds(1, 20))
        s2 = set(replication_seeds(2, 20))
        assert not (s1 & s2)

    def test_replication_seeds_never_duplicate_within_a_set(self):
        # Satellite regression: the old % (2**63 - 1) fold was biased and
        # could in principle collide two replications of one set.  Seeds
        # are now the raw 64-bit entropy words, checked unique per set.
        for base_seed in range(50):
            seeds = replication_seeds(base_seed, 16)
            assert len(set(seeds)) == 16
            assert all(0 <= s < 2**64 for s in seeds)

    def test_replication_seeds_unfolded(self):
        # The derivation is the child's first entropy word, unmodified.
        expected = [
            int(c.generate_state(1, dtype=np.uint64)[0])
            for c in spawn_seeds(9, 4)
        ]
        assert list(replication_seeds(9, 4)) == expected

    def test_replication_seeds_deterministic(self):
        assert list(replication_seeds(5, 8)) == list(replication_seeds(5, 8))


class TestOnlineStats:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(10.0, 3.0, size=500)
        s = OnlineStats()
        s.add_many(xs)
        assert s.mean == pytest.approx(float(np.mean(xs)))
        assert s.variance == pytest.approx(float(np.var(xs, ddof=1)))
        assert s.min == pytest.approx(float(np.min(xs)))
        assert s.max == pytest.approx(float(np.max(xs)))

    def test_empty(self):
        s = OnlineStats()
        assert math.isnan(s.mean)
        assert math.isnan(s.variance)

    def test_single_sample(self):
        s = OnlineStats()
        s.add(5.0)
        assert s.mean == 5.0
        assert math.isnan(s.std)

    def test_merge(self):
        rng = np.random.default_rng(1)
        xs = rng.random(100)
        a, b = OnlineStats(), OnlineStats()
        a.add_many(xs[:30])
        b.add_many(xs[30:])
        merged = a.merge(b)
        assert merged.count == 100
        assert merged.mean == pytest.approx(float(np.mean(xs)))
        assert merged.variance == pytest.approx(float(np.var(xs, ddof=1)))

    def test_merge_with_empty(self):
        a = OnlineStats()
        a.add(1.0)
        assert a.merge(OnlineStats()).mean == 1.0
        assert OnlineStats().merge(a).mean == 1.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @settings(max_examples=50)
    def test_property_matches_numpy(self, xs):
        s = OnlineStats()
        s.add_many(xs)
        assert s.mean == pytest.approx(float(np.mean(xs)), rel=1e-9, abs=1e-6)


#: Two-sided Student-t critical values ``t.ppf(0.5 + c/2, df)``, tabulated
#: once with SciPy 1.17.1 (the package itself no longer depends on SciPy).
T_CRITICAL = {
    1: {0.90: 6.313751514675037, 0.95: 12.706204736174694, 0.99: 63.656741162871526},
    2: {0.90: 2.9199855803537242, 0.95: 4.302652729749462, 0.99: 9.924843200918287},
    5: {0.90: 2.0150483733330233, 0.95: 2.5705818356363146, 0.99: 4.032142983555228},
    10: {0.90: 1.8124611228116756, 0.95: 2.228138851986274, 0.99: 3.16927267261695},
    30: {0.90: 1.697260886593957, 0.95: 2.0422724563012378, 0.99: 2.7499956535672254},
    100: {0.90: 1.6602343260853392, 0.95: 1.9839715185235518, 0.99: 2.6258905214380173},
}


class TestStudentTQuantile:
    @pytest.mark.parametrize("df", sorted(T_CRITICAL))
    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    def test_matches_tabulated_values(self, df, confidence):
        got = student_t_quantile(0.5 + confidence / 2.0, df)
        assert got == pytest.approx(T_CRITICAL[df][confidence], rel=1e-10)

    def test_symmetric_about_zero(self):
        assert student_t_quantile(0.5, 7) == 0.0
        assert student_t_quantile(0.025, 7) == -student_t_quantile(0.975, 7)

    @pytest.mark.parametrize("p,df", [(0.0, 3), (1.0, 3), (0.9, 0)])
    def test_rejects_out_of_domain(self, p, df):
        with pytest.raises(ValueError):
            student_t_quantile(p, df)

    def test_interval_uses_it(self):
        xs = [1.0, 2.0, 4.0]
        mean, half = mean_confidence_interval(xs, 0.95)
        sem = float(np.std(xs, ddof=1)) / math.sqrt(3)
        assert half == pytest.approx(T_CRITICAL[2][0.95] * sem, rel=1e-10)


class TestConfidenceIntervals:
    def test_tightens_with_samples(self):
        rng = np.random.default_rng(2)
        _, h1 = mean_confidence_interval(rng.normal(size=10))
        _, h2 = mean_confidence_interval(rng.normal(size=1000))
        assert h2 < h1

    def test_single_sample_infinite(self):
        m, h = mean_confidence_interval([3.0])
        assert m == 3.0
        assert math.isinf(h)

    def test_empty(self):
        m, h = mean_confidence_interval([])
        assert math.isnan(m)

    def test_batch_means_close_to_mean(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(5.0, 1.0, size=2000)
        m, h = batch_means(xs)
        assert m == pytest.approx(5.0, abs=0.2)
        assert h < 0.5

    def test_batch_means_small_sample_fallback(self):
        m, _ = batch_means([1.0, 2.0, 3.0])
        assert m == pytest.approx(2.0)


class TestTables:
    def test_basic_render(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, None]])
        lines = out.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "-" in lines[1]
        assert "10" in lines[3]
        assert "-" in lines[3]  # None cell

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_infinity_rendering(self):
        out = format_table(["x"], [[math.inf], [-math.inf], [math.nan]])
        assert "inf" in out and "-inf" in out and "nan" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_none_and_infinities_share_column_width(self):
        out = format_table(["v"], [[None], [math.inf], [-math.inf], [1.5]])
        lines = out.splitlines()
        # Widest cell is "-inf" (4 chars); every line must be padded to it.
        assert len({len(l) for l in lines}) == 1
        assert lines[2].strip() == "-"
        assert lines[3].strip() == "inf"
        assert lines[4].strip() == "-inf"

    def test_column_alignment(self):
        out = format_table(["name", "value"], [["a", 1], ["bbbb", 1000]])
        header, sep, *rows = out.splitlines()
        # Headers are left-justified, cells right-justified, all padded to
        # the widest entry of their column.
        assert header.startswith("name ")
        assert all(len(l) == len(header) for l in [sep, *rows])
        assert rows[0].split(" | ")[0] == "   a"
        assert rows[0].split(" | ")[1] == "    1"
        assert rows[1].split(" | ")[1] == " 1000"

    def test_floatfmt_override(self):
        out = format_table(["x"], [[1.23456]], floatfmt=".2f")
        assert "1.23" in out and "1.2346" not in out

    def test_header_sets_minimum_width(self):
        out = format_table(["long header", "x"], [[1, 2]])
        header, sep, row = out.splitlines()
        assert len(row) == len(header) == len(sep)
        assert row.split(" | ")[0].endswith("1")

    def test_ascii_curve_draws_markers(self):
        out = ascii_curve([0, 1, 2], {"m": [1.0, 2.0, 3.0], "s": [1.1, 2.1, 3.1]})
        assert "*" in out and "o" in out
        assert "legend" in out

    def test_ascii_curve_skips_nonfinite(self):
        out = ascii_curve([0, 1], {"m": [math.inf, 1.0]})
        grid = "\n".join(l for l in out.splitlines() if not l.startswith("   legend"))
        assert grid.count("*") == 1

    def test_ascii_curve_empty(self):
        assert "no finite points" in ascii_curve([0.0], {"m": [math.nan]})


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 2) == 2.0
        for bad in (0, -1, math.inf, math.nan, "a"):
            with pytest.raises(ConfigurationError):
                check_positive("x", bad)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0.0
        with pytest.raises(ConfigurationError):
            check_non_negative("x", -0.1)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        for bad in (-0.01, 1.01):
            with pytest.raises(ConfigurationError):
                check_probability("p", bad)

    @pytest.mark.parametrize("value,base,exp", [(4, 4, 1), (64, 4, 3), (1024, 4, 5), (8, 2, 3)])
    def test_check_power_of(self, value, base, exp):
        assert check_power_of("n", value, base) == exp

    @pytest.mark.parametrize("value", [0, 1, 2, 3, 5, 12, 48, 100])
    def test_check_power_of_four_rejects(self, value):
        with pytest.raises(ConfigurationError):
            check_power_of("n", value, 4)
