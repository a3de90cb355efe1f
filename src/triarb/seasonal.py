"""Hour-of-day and calendar-day aggregation of arbitrage opportunities.

Every opportunity is attributed to the hour and day of its start second
(GMT), so a run crossing a boundary counts exactly once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Sequence

import numpy as np

from .market_data import SECONDS_PER_DAY, SeriesWindow
from .opportunity import ArbitrageOpportunity

HOURS = 24


@dataclass(frozen=True)
class HourlyProfile:
    counts: tuple[int, ...]       # 24 entries
    mean_durations: tuple[float, ...]  # 0.0 where the hour has no opportunity

    def __post_init__(self):
        if len(self.counts) != HOURS or len(self.mean_durations) != HOURS:
            raise ValueError("hourly profile needs exactly 24 entries")


@dataclass(frozen=True)
class DailyProfile:
    days: tuple[date, ...]
    counts: tuple[int, ...]
    mean_durations: tuple[float, ...]


@dataclass(frozen=True)
class SessionTable:
    """Liquid hours (GMT) per market."""

    sessions: dict[str, frozenset[int]]

    def __post_init__(self):
        for name, hours in self.sessions.items():
            if not all(0 <= h < HOURS for h in hours):
                raise ValueError(f"session {name} has hours outside [0, 24)")

    @classmethod
    def default(cls) -> "SessionTable":
        return cls(
            sessions={
                "asia": frozenset(range(0, 11)),
                "europe": frozenset(range(7, 18)),
                "americas": frozenset(range(13, 24)),
            }
        )


def hour_of(timestamp: int) -> int:
    return int(timestamp % SECONDS_PER_DAY) // 3600


def day_of(timestamp: int) -> date:
    return date(1970, 1, 1) + timedelta(days=int(timestamp // SECONDS_PER_DAY))


def hourly_profile(ops: Sequence[ArbitrageOpportunity]) -> HourlyProfile:
    counts = [0] * HOURS
    dur_sums = [0] * HOURS
    for op in ops:
        h = hour_of(op.start)
        counts[h] += 1
        dur_sums[h] += op.duration_label
    means = [dur_sums[h] / counts[h] if counts[h] else 0.0 for h in range(HOURS)]
    return HourlyProfile(tuple(counts), tuple(means))


def daily_profile(ops: Sequence[ArbitrageOpportunity], window: SeriesWindow) -> DailyProfile:
    days = window.days()
    index = {d: i for i, d in enumerate(days)}
    counts = [0] * len(days)
    dur_sums = [0] * len(days)
    for op in ops:
        d = day_of(op.start)
        i = index.get(d)
        if i is None:
            raise ValueError(f"opportunity at {op.start} starts outside the window's days")
        counts[i] += 1
        dur_sums[i] += op.duration_label
    means = [dur_sums[i] / counts[i] if counts[i] else 0.0 for i in range(len(days))]
    return DailyProfile(tuple(days), tuple(counts), tuple(means))


def session_overlap_count(table: SessionTable, hour: int) -> int:
    """Number of markets liquid at the given GMT hour."""
    if not 0 <= hour < HOURS:
        raise ValueError(f"hour {hour} outside [0, 24)")
    return sum(1 for hours in table.sessions.values() if hour in hours)


def overlap_by_hour(table: SessionTable) -> np.ndarray:
    return np.array([session_overlap_count(table, h) for h in range(HOURS)], dtype=np.int64)


def parse_hour_span(span: str) -> frozenset[int]:
    lo_s, sep, hi_s = span.strip().partition("-")
    if not sep:
        return frozenset({int(lo_s)})
    lo, hi = int(lo_s), int(hi_s)
    if not (0 <= lo <= hi < HOURS):
        raise ValueError(f"bad hour span {span!r}")
    return frozenset(range(lo, hi + 1))


def write_hourly_csv(path, profile: HourlyProfile) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["hour", "count", "mean_duration"])
        for h in range(HOURS):
            writer.writerow([h, profile.counts[h], repr(profile.mean_durations[h])])


def write_daily_csv(path, profile: DailyProfile) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "count", "mean_duration"])
        for d, c, m in zip(profile.days, profile.counts, profile.mean_durations):
            writer.writerow([d.isoformat(), c, repr(m)])
