"""Hour-of-day and calendar-day aggregation of arbitrage opportunities.

Every opportunity is attributed to the hour and day of its start second
(GMT), so a run crossing a boundary counts exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import Callable, Sequence

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
    return HourlyProfile(*_tally(ops, range(HOURS), hour_of))


def daily_profile(ops: Sequence[ArbitrageOpportunity], window: SeriesWindow) -> DailyProfile:
    days = window.days()
    return DailyProfile(tuple(days), *_tally(ops, days, day_of))


def _tally(ops: Sequence[ArbitrageOpportunity], keys: Sequence, key_of: Callable):
    """(counts, mean run lengths) per key of the opportunities' start seconds;
    the mean is 0.0 for a key without an opportunity."""
    index = {k: i for i, k in enumerate(keys)}
    counts = [0] * len(index)
    length_sums = [0] * len(index)
    for op in ops:
        i = index.get(key_of(op.start))
        if i is None:
            raise ValueError(f"opportunity at {op.start} starts outside the window's days")
        counts[i] += 1
        length_sums[i] += op.run_length
    return tuple(counts), tuple(s / c if c else 0.0 for s, c in zip(length_sums, counts))


def overlap_by_hour(table: SessionTable) -> np.ndarray:
    """Number of markets liquid at each GMT hour (24 entries)."""
    sessions = table.sessions.values()
    return np.array([sum(h in hours for hours in sessions) for h in range(HOURS)], dtype=np.int64)


def parse_hour_span(span: str) -> frozenset[int]:
    lo_s, sep, hi_s = span.strip().partition("-")
    if not sep:
        return frozenset({int(lo_s)})
    lo, hi = int(lo_s), int(hi_s)
    if not (0 <= lo <= hi < HOURS):
        raise ValueError(f"bad hour span {span!r}")
    return frozenset(range(lo, hi + 1))

