"""Run segmentation, duration/threshold/distribution statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triarb.market_data import Direction
from triarb.opportunity import (
    ArbitrageOpportunity,
    compare_periods,
    distribution_stats,
    duration_stats,
    segment_opportunities,
    threshold_table,
)

from conftest import MONDAY, brute_force_segments, make_series


def op(start=0, run_length=1, initial=1.0001, peak=None, direction=Direction.DIR1):
    return ArbitrageOpportunity(
        start=start,
        run_length=run_length,
        initial_gamma=initial,
        peak_gamma=peak if peak is not None else initial,
        direction=direction,
    )


class TestSegmentation:
    @given(st.lists(st.sampled_from([0.0, 0.9999, 1.00001, 1.0002, 1.0003]), max_size=60),
           st.lists(st.integers(0, 60), max_size=8), st.integers(0, 59))
    @settings(max_examples=300, deadline=None)
    def test_chunks_return_the_runs_of_the_whole(self, values, cuts, jump):
        # with a jump in the grid at `jump`, cut at any grid seconds: the held
        # runs join, and every run is returned once, whole
        g = np.array(values)
        gammas = np.stack([g, g[::-1]])
        times = np.arange(g.size, dtype=np.int64) + MONDAY
        times[jump:] += 100
        bounds = [0, *sorted({c for c in cuts if 0 < c < g.size}), g.size]  # no empty chunk
        held, ops = {}, []
        for a, b in zip(bounds, bounds[1:]):
            ops += segment_opportunities(times[a:b], gammas[:, a:b], held)
        ops += segment_opportunities(times[:0], gammas[:, :0], held)
        assert not held
        ops.sort(key=lambda o: (o.start, o.direction.value))
        assert ops == segment_opportunities(times, gammas)

    def test_worked_example(self):
        series = make_series([0.9999, 1.00002, 1.00005, 0.9999, 1.0002, 0.9998], start=0)
        ops = segment_opportunities(*series)
        assert len(ops) == 2
        first, second = ops
        assert (first.start, first.run_length) == (1, 2)
        assert first.peak_gamma == pytest.approx(1.00005)
        assert first.magnitude_bp == pytest.approx(0.5, abs=1e-9)
        assert (second.start, second.run_length) == (4, 1)
        assert second.magnitude_bp == pytest.approx(2.0, abs=1e-9)

    def test_all_below_one_is_empty(self):
        assert segment_opportunities(*make_series([0.999, 1.0, 0.9999])) == []

    def test_window_long_run_keeps_label(self):
        series = make_series([1.00001] * 70)
        ops = segment_opportunities(*series)
        assert len(ops) == 1
        assert ops[0].run_length == 70

    def test_zero_terminates_run(self):
        series = make_series([1.0001, 0.0, 1.0001])
        ops = segment_opportunities(*series)
        assert [o.run_length for o in ops] == [1, 1]

    def test_time_jump_terminates_run(self):
        # grid gap (e.g. weekend excluded) splits an otherwise contiguous run
        times = [10, 11, 50, 51]
        series = make_series([1.0001] * 4, times=times)
        ops = segment_opportunities(*series)
        assert [(o.start, o.run_length) for o in ops] == [(10, 2), (50, 2)]

    def test_initial_differs_from_peak(self):
        series = make_series([1.00001, 1.00009, 1.00003])
        ops = segment_opportunities(*series)
        assert ops[0].initial_gamma == pytest.approx(1.00001)
        assert ops[0].peak_gamma == pytest.approx(1.00009)

    def test_both_rows_ordered_by_start_then_direction(self):
        times = np.arange(6, dtype=np.int64)
        gammas = np.array([[0.9, 1.0002, 1.0001, 0.9, 1.0003, 0.9],
                           [1.0001, 1.0004, 0.9, 0.9, 1.0001, 1.0001]])
        ops = segment_opportunities(times, gammas)
        assert [(o.start, o.direction.value, o.run_length) for o in ops] == [
            (0, 2, 2), (1, 1, 2), (4, 1, 1), (4, 2, 2)
        ]
        assert ops[0].peak_gamma == 1.0004

    @given(
        st.lists(
            st.floats(min_value=0.998, max_value=1.002, allow_nan=False), min_size=1, max_size=200
        ),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, gammas, n_zeros):
        g = list(gammas)
        rng = np.random.default_rng(len(g) * 31 + n_zeros)
        for _ in range(min(n_zeros, len(g))):
            g[int(rng.integers(0, len(g)))] = 0.0
        series = make_series(g, start=0)
        got = [
            (o.start, o.run_length, o.initial_gamma, o.peak_gamma)
            for o in segment_opportunities(*series)
        ]
        assert got == brute_force_segments(range(len(g)), g)

    @given(
        st.lists(st.floats(min_value=0.999, max_value=1.001, allow_nan=False), min_size=1, max_size=100)
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, gammas):
        # seconds above one are exactly the union of the returned runs
        series = make_series(gammas, start=0)
        ops = segment_opportunities(*series)
        covered = set()
        for o in ops:
            span = set(range(o.start, o.start + o.run_length))
            assert not span & covered  # disjoint
            covered |= span
        assert covered == {i for i, g in enumerate(gammas) if g > 1.0}


class TestDurationStats:
    def test_worked_example(self):
        stats = duration_stats([op(run_length=k) for k in (1, 1, 1, 2)])
        assert stats.count == 4
        assert stats.mean == pytest.approx(1.25)
        assert stats.median == 1
        assert (stats.min, stats.max) == (1, 2)
        assert stats.bucket_pct["1s"] == pytest.approx(75.0)
        assert stats.bucket_pct["2s"] == pytest.approx(25.0)
        assert all(stats.bucket_pct[k] == 0 for k in ("3s", "4s", "5s", ">5s"))

    def test_single_long_label(self):
        stats = duration_stats([op(run_length=7)])
        assert stats.mean == 7
        assert stats.bucket_pct[">5s"] == 100.0

    def test_empty_input(self):
        stats = duration_stats([])
        assert stats.count == 0
        assert stats.mean == 0.0
        assert all(v == 0.0 for v in stats.bucket_pct.values())

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_bucket_closure(self, labels):
        stats = duration_stats([op(run_length=k) for k in labels])
        assert sum(stats.bucket_pct.values()) == pytest.approx(100.0, abs=0.5)
        assert stats.min <= stats.median <= stats.max


class TestThresholdTable:
    def test_worked_example(self):
        ops = [op(peak=1 + m * 1e-4) for m in (0.4, 0.7, 1.2)]
        rows = threshold_table(ops, [0, 0.5, 1, 2])
        assert [r.count for r in rows] == [3, 2, 1, 0]

    def test_one_bp_threshold_is_inclusive(self):
        # 1 bp corresponds to a peak rate product of exactly 1.0001
        ops = [op(peak=1.0001)]
        rows = threshold_table(ops, [1.0])
        assert rows[0].count == 1

    def test_zero_threshold_counts_every_segmented_run(self):
        ops = segment_opportunities(*make_series([1.0 + 2**-52, 0.9, 1.00001, 1.00001, 0.0]))
        rows = threshold_table(ops, [0])
        assert (rows[0].count, rows[0].mean_duration) == (2, 1.5)

    def test_empty_set_gives_zero_means(self):
        rows = threshold_table([], [0, 1, 2])
        assert all(r.count == 0 and r.mean_duration == 0.0 for r in rows)

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            threshold_table([], [1.0, 0.5])

    @given(
        st.lists(st.floats(min_value=0.01, max_value=12.0), min_size=0, max_size=100),
        st.lists(st.floats(min_value=0.0, max_value=12.0), min_size=1, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_counts_monotone_non_increasing(self, magnitudes, thresholds):
        ops = [op(peak=1 + m * 1e-4) for m in magnitudes]
        rows = threshold_table(ops, sorted(thresholds))
        counts = [r.count for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_mean_duration_over_subset(self):
        ops = [op(run_length=2, peak=1.0002), op(run_length=4, peak=1.0008)]
        rows = threshold_table(ops, [0, 5])
        assert rows[0].mean_duration == pytest.approx(3.0)
        assert rows[1].mean_duration == pytest.approx(4.0)


class TestDistributionStats:
    def test_constant_series(self):
        dist = distribution_stats(np.full(10, 0.9999), 1e-5, (0.999, 1.001))
        assert dist.mean == pytest.approx(0.9999)
        assert dist.std == 0.0
        assert dist.counts.sum() == 10
        assert (dist.counts > 0).sum() == 1

    def test_uniform_histogram_is_flat(self):
        rng = np.random.default_rng(99)
        g = rng.uniform(0.9995, 1.0005, size=200_000)
        dist = distribution_stats(np.asarray(g), 1e-4, (0.9995, 1.0005))
        expected = g.size / dist.counts.size
        # multinomial noise: 5 sigma on each bin
        sigma = (expected * (1 - 1 / dist.counts.size)) ** 0.5
        assert np.all(np.abs(dist.counts - expected) < 5 * sigma)

    def test_zeros_excluded_and_counted(self):
        gammas = np.array([0.9999, 0.0, 1.0001, 0.0])
        dist = distribution_stats(gammas, 1e-4, (0.999, 1.001))
        assert dist.mean == pytest.approx((0.9999 + 1.0001) / 2)
        total = dist.counts.sum() + dist.underflow + dist.overflow
        assert total == np.count_nonzero(gammas) == 2

    def test_overflow_bins(self):
        dist = distribution_stats(np.array([0.9, 1.1, 0.9995]), 1e-4, (0.999, 1.001))
        assert dist.underflow == 1
        assert dist.overflow == 1

    def test_top_edge_counts_only_as_overflow(self):
        top = distribution_stats(np.array([1.0]), 1e-4, (0.999, 1.001)).bin_edges[-1]
        gammas = np.array([0.0, 0.9985, 0.999, 1.0, top, top])
        dist = distribution_stats(gammas, 1e-4, (0.999, 1.001))
        assert (dist.underflow, dist.counts.sum(), dist.overflow) == (1, 2, 2)
        assert dist.counts[0] == 1 and dist.counts[-1] == 0  # the bottom edge is in the first bin
        total = dist.counts.sum() + dist.underflow + dist.overflow
        assert total == np.count_nonzero(gammas) == 5

    def test_population_std(self):
        g = [0.9999, 1.0001]
        dist = distribution_stats(np.asarray(g), 1e-4, (0.999, 1.001))
        assert dist.std == pytest.approx(np.std(g))  # ddof=0

    @given(st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.98, max_value=1.02)),
                    min_size=1, max_size=600))
    @settings(max_examples=200, deadline=None)
    def test_moments_equal_numpy_bit_for_bit(self, g):
        # pairwise sums regroup every 8 and 128 elements, hence lengths up to 600
        gammas = np.asarray(g)
        before = gammas.copy()
        dist = distribution_stats(gammas, 1e-4, (0.999, 1.001))
        valid = gammas[gammas != 0.0]
        expected = (float(np.mean(valid)), float(np.std(valid))) if valid.size else (0.0, 0.0)
        assert (dist.mean, dist.std) == expected
        assert np.array_equal(gammas, before)

    def test_both_directions_pooled_in_row_order(self):
        rng = np.random.default_rng(8)
        gammas = rng.uniform(0.9995, 1.0005, size=(2, 1001))
        gammas[:, ::7] = 0.0
        pooled = distribution_stats(gammas, 1e-4, (0.999, 1.001))
        flat = distribution_stats(np.concatenate(gammas), 1e-4, (0.999, 1.001))
        assert (pooled.mean, pooled.std, pooled.underflow, pooled.overflow) == (
            flat.mean, flat.std, flat.underflow, flat.overflow
        )
        assert np.array_equal(pooled.counts, flat.counts)
        total = pooled.counts.sum() + pooled.underflow + pooled.overflow
        assert total == np.count_nonzero(gammas)

    @given(st.lists(st.integers(0, 1500), max_size=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_chunks_pool_to_the_whole(self, cuts, seed):
        # counts add up exactly; mean and stdev pool to within 1e-12 of numpy's
        rng = np.random.default_rng(seed)
        gammas = rng.uniform(0.9995, 1.0005, size=(2, 1500))
        gammas[:, rng.integers(0, 1500, size=200)] = 0.0
        bounds = [0, *sorted(cuts), 1500]
        parts = [distribution_stats(gammas[:, a:b], 1e-4, (0.999, 1.001))
                 for a, b in zip(bounds, bounds[1:])]
        pooled = parts[0]
        for part in parts[1:]:
            pooled = pooled.pooled(part)
        whole = distribution_stats(gammas, 1e-4, (0.999, 1.001))
        assert (pooled.n, pooled.underflow, pooled.overflow) == (
            whole.n, whole.underflow, whole.overflow)
        assert np.array_equal(pooled.counts, whole.counts)
        valid = gammas[gammas != 0.0]
        assert pooled.mean == pytest.approx(np.mean(valid), rel=1e-12)
        assert pooled.std == pytest.approx(np.std(valid), rel=1e-12)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            distribution_stats(np.array([1.0]), 1e-4, (1.001, 0.999))

    def test_narrower_dispersion_detected(self):
        rng = np.random.default_rng(5)
        wide = 1.0 + 3e-4 * rng.standard_normal(5000)
        narrow = 1.0 + 1e-4 * rng.standard_normal(5000)
        assert (distribution_stats(narrow, 1e-4, (0.999, 1.001)).std
                < distribution_stats(wide, 1e-4, (0.999, 1.001)).std)


class TestComparePeriods:
    def period(self, labels):
        return duration_stats([op(run_length=k) for k in labels])

    def test_identical_periods_zero_deltas(self):
        p = self.period([1, 2])
        assert compare_periods([p, p]) == [(0, 0.0), (0, 0.0)]

    def test_deltas_against_the_previous_period(self):
        periods = [self.period([1, 2, 6]), self.period([1]), self.period([2, 3])]
        assert compare_periods(periods) == [(0, 0.0), (-2, 100.0 - 100.0 / 3), (1, -100.0)]

    def test_requires_two_periods(self):
        with pytest.raises(ValueError):
            compare_periods([self.period([1])])
