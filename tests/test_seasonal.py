"""Hourly/daily aggregation and the market sessions open at each hour."""

import numpy as np
import pytest

from triarb.errors import TriarbError
from triarb.market_data import Direction, SeriesWindow
from triarb.opportunity import ArbitrageOpportunity, daily_profile, hourly_profile
from triarb.synth import OPEN_SESSIONS

from conftest import MONDAY

WEEKDAYS = frozenset({0, 1, 2, 3, 4})


def op(start, run_length=1):
    return ArbitrageOpportunity(
        start=start,
        run_length=run_length,
        initial_gamma=1.0001,
        peak_gamma=1.0001,
        direction=Direction.DIR1,
    )


class TestHourlyProfile:
    def test_start_attribution_within_hour(self):
        ops = [op(MONDAY + 13 * 3600 + 5), op(MONDAY + 13 * 3600 + 3599)]
        counts, _ = hourly_profile(ops)
        assert counts[13] == 2
        assert sum(counts) == 2

    def test_empty_input_gives_24_zero_entries(self):
        counts, mean_durations = hourly_profile([])
        assert counts == (0,) * 24
        assert mean_durations == (0.0,) * 24

    def test_injection_schedule_respected(self):
        # opportunities only in hours 8..16 leave all other hours at zero
        rng = np.random.default_rng(21)
        ops = []
        for _ in range(200):
            h = int(rng.integers(8, 17))
            ops.append(op(MONDAY + h * 3600 + int(rng.integers(0, 3600))))
        counts, _ = hourly_profile(ops)
        for h in range(24):
            if 8 <= h <= 16:
                continue
            assert counts[h] == 0
        assert sum(counts) == 200

    def test_mean_duration_per_hour(self):
        ops = [op(MONDAY + 3600, run_length=2), op(MONDAY + 3600 + 10, run_length=4)]
        _, mean_durations = hourly_profile(ops)
        assert mean_durations[1] == pytest.approx(3.0)


class TestDailyProfile:
    def test_one_per_weekday(self):
        window = SeriesWindow(MONDAY, MONDAY + 5 * 86400, WEEKDAYS)
        ops = [op(MONDAY + d * 86400 + 100) for d in range(5)]
        days, counts, _ = daily_profile(ops, window)
        assert len(days) == 5
        assert counts == (1,) * 5

    def test_midnight_spanning_run_attributed_to_start_day(self):
        window = SeriesWindow(MONDAY, MONDAY + 2 * 86400, WEEKDAYS)
        start = MONDAY + 86400 - 2  # 23:59:58, run crosses midnight
        _, counts, mean_durations = daily_profile([op(start, run_length=4)], window)
        assert counts == (1, 0)
        assert mean_durations == (4.0, 0.0)

    def test_uniform_rate_within_poisson_band(self):
        window = SeriesWindow(MONDAY, MONDAY + 5 * 86400, WEEKDAYS)
        rate_per_day = 400
        rng = np.random.default_rng(3)
        ops = []
        for d in range(5):
            n = rng.poisson(rate_per_day)
            for _ in range(n):
                ops.append(op(MONDAY + d * 86400 + int(rng.integers(0, 86400))))
        _, counts, _ = daily_profile(ops, window)
        for c in counts:
            assert abs(c - rate_per_day) < 3 * rate_per_day ** 0.5

    def test_conservation_with_hourly(self):
        window = SeriesWindow(MONDAY, MONDAY + 5 * 86400, WEEKDAYS)
        rng = np.random.default_rng(11)
        ops = [
            op(MONDAY + int(rng.integers(0, 5 * 86400)), run_length=int(rng.integers(1, 8)))
            for _ in range(500)
        ]
        hourly_counts, hourly_means = hourly_profile(ops)
        _, daily_counts, daily_means = daily_profile(ops, window)
        assert sum(hourly_counts) == sum(daily_counts) == len(ops)
        # duration mass is conserved too
        total = sum(o.run_length for o in ops)
        for counts, means in ((hourly_counts, hourly_means), (daily_counts, daily_means)):
            assert sum(c * m for c, m in zip(counts, means)) == pytest.approx(total)

    def test_opportunity_outside_window_rejected(self):
        window = SeriesWindow(MONDAY, MONDAY + 86400, WEEKDAYS)
        with pytest.raises(ValueError, match="outside the window's days"):
            daily_profile([op(MONDAY + 3 * 86400)], window)

    def test_window_past_year_9999_is_an_input_error(self):
        # epoch seconds reach past the last day a date can name
        window = SeriesWindow(253402300000, 253402300801)
        with pytest.raises(TriarbError, match=r"^window 253402300000\.\.253402300801 ends after "
                                              r"253402300800 \(9999-12-31\)"):
            daily_profile([], window)
        days, counts, _ = daily_profile([], SeriesWindow(253402300000, 253402300800))
        assert [day.isoformat() for day in days] == ["9999-12-31"] and counts == (0,)


class TestSessionTable:
    def test_default_overlaps(self):
        overlap = OPEN_SESSIONS
        assert overlap[14] == 2  # Europe + Americas
        assert overlap[23] == 1  # Americas only
        assert overlap[8] == 2   # Asia + Europe
        assert overlap[12] == 1  # Europe only
        assert list(overlap) == [1] * 7 + [2] * 4 + [1] * 2 + [2] * 5 + [1] * 6

    def test_default_hours_match_builtin_table(self):
        sessions = [range(0, 11), range(7, 18), range(13, 24)]  # Asia, Europe, Americas
        assert OPEN_SESSIONS == tuple(sum(h in s for s in sessions) for h in range(24))
