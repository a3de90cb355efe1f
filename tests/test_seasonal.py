"""Hourly/daily aggregation and the market sessions open at each hour."""

import numpy as np
import pytest

from triarb.market_data import Direction, SeriesWindow
from triarb.opportunity import ArbitrageOpportunity
from triarb.seasonal import daily_profile, hourly_profile
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
        profile = hourly_profile(ops)
        assert profile.counts[13] == 2
        assert sum(profile.counts) == 2

    def test_empty_input_gives_24_zero_entries(self):
        profile = hourly_profile([])
        assert len(profile.counts) == 24
        assert all(c == 0 for c in profile.counts)
        assert all(m == 0.0 for m in profile.mean_durations)

    def test_injection_schedule_respected(self):
        # opportunities only in hours 8..16 leave all other hours at zero
        rng = np.random.default_rng(21)
        ops = []
        for _ in range(200):
            h = int(rng.integers(8, 17))
            ops.append(op(MONDAY + h * 3600 + int(rng.integers(0, 3600))))
        profile = hourly_profile(ops)
        for h in range(24):
            if 8 <= h <= 16:
                continue
            assert profile.counts[h] == 0
        assert sum(profile.counts) == 200

    def test_mean_duration_per_hour(self):
        ops = [op(MONDAY + 3600, run_length=2), op(MONDAY + 3600 + 10, run_length=4)]
        profile = hourly_profile(ops)
        assert profile.mean_durations[1] == pytest.approx(3.0)


class TestDailyProfile:
    def test_one_per_weekday(self):
        window = SeriesWindow(MONDAY, MONDAY + 5 * 86400, WEEKDAYS)
        ops = [op(MONDAY + d * 86400 + 100) for d in range(5)]
        profile = daily_profile(ops, window)
        assert len(profile.days) == 5
        assert all(c == 1 for c in profile.counts)

    def test_midnight_spanning_run_attributed_to_start_day(self):
        window = SeriesWindow(MONDAY, MONDAY + 2 * 86400, WEEKDAYS)
        start = MONDAY + 86400 - 2  # 23:59:58, run crosses midnight
        profile = daily_profile([op(start, run_length=4)], window)
        assert profile.counts[0] == 1
        assert profile.counts[1] == 0

    def test_uniform_rate_within_poisson_band(self):
        window = SeriesWindow(MONDAY, MONDAY + 5 * 86400, WEEKDAYS)
        rate_per_day = 400
        rng = np.random.default_rng(3)
        ops = []
        for d in range(5):
            n = rng.poisson(rate_per_day)
            for _ in range(n):
                ops.append(op(MONDAY + d * 86400 + int(rng.integers(0, 86400))))
        profile = daily_profile(ops, window)
        for c in profile.counts:
            assert abs(c - rate_per_day) < 3 * rate_per_day ** 0.5

    def test_conservation_with_hourly(self):
        window = SeriesWindow(MONDAY, MONDAY + 5 * 86400, WEEKDAYS)
        rng = np.random.default_rng(11)
        ops = [
            op(MONDAY + int(rng.integers(0, 5 * 86400)), run_length=int(rng.integers(1, 8)))
            for _ in range(500)
        ]
        hourly = hourly_profile(ops)
        daily = daily_profile(ops, window)
        assert sum(hourly.counts) == sum(daily.counts) == len(ops)
        # duration mass is conserved too
        total = sum(o.run_length for o in ops)
        assert sum(c * m for c, m in zip(hourly.counts, hourly.mean_durations)) == pytest.approx(total)

    def test_opportunity_outside_window_rejected(self):
        window = SeriesWindow(MONDAY, MONDAY + 86400, WEEKDAYS)
        with pytest.raises(ValueError):
            daily_profile([op(MONDAY + 3 * 86400)], window)


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
