"""Reference episode schedule and validator: one Python object per episode.

The schedule draws, per grid hour, the candidate episodes with the same
numpy calls in the same order as `triarb.synth.seasonal_injection_schedule`,
then walks them one at a time in start order, keeping each that lies on the
grid (one `SeriesWindow.mask` per candidate) and starts at least one clean
second after the last one kept. The validator probes each episode, in start
order, at its start, at the next six midnights and at the window's end. The
package's columnar versions must return the same episodes, and accept or
reject the same episodes with the same first message.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from triarb.errors import SynthConfigError
from triarb.market_data import SECONDS_PER_DAY, SeriesWindow
from triarb.synth import EXTRA_SECONDS_MEAN, LONGEST_EPISODE_SECONDS, OPEN_SESSIONS


class Episode(NamedTuple):
    start: int
    duration_seconds: int
    magnitude_bp: float
    direction: int

    @property
    def end(self) -> int:
        return self.start + self.duration_seconds


def seasonal_injection_schedule(seed: int, window: SeriesWindow, base_rate_per_hour: float,
                                magnitude_range: tuple[float, float]) -> list[Episode]:
    lo_bp, hi_bp = magnitude_range
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    times = window.grid_times()
    hour_starts = times[times % 3600 == 0]
    candidates = []
    for h0 in hour_starts:
        h = int(h0 % 86_400) // 3600
        n = rng.poisson(base_rate_per_hour * (1.0 + OPEN_SESSIONS[h]))
        if n == 0:
            continue
        starts = np.sort(rng.integers(0, 3600, size=n)) + int(h0)
        extras = rng.poisson(max(EXTRA_SECONDS_MEAN - OPEN_SESSIONS[h], 0), size=n)
        mags = rng.uniform(lo_bp, hi_bp, size=n)
        dirs = rng.integers(1, 3, size=n)
        for s, ex, m, d in zip(starts, extras, mags, dirs):
            dur = int(min(1 + ex, LONGEST_EPISODE_SECONDS))
            candidates.append(Episode(int(s), dur, float(round(m, 2)), int(d)))
    kept: list[Episode] = []
    for inj in sorted(candidates, key=lambda i: i.start):
        if kept and inj.start <= kept[-1].end:
            continue
        if not window.mask(np.arange(inj.start, inj.end, dtype=np.int64)).all():
            continue
        kept.append(inj)
    return kept


def validate_injections(injections: list[Episode], window: SeriesWindow) -> None:
    prev_end = None
    for inj in sorted(injections, key=lambda i: i.start):
        # it leaves the grid, if anywhere, at its start, at one of the next six
        # midnights (a week meets every weekday) or at the window's end
        day = inj.start // SECONDS_PER_DAY + 1
        probes = np.array(sorted(t for t in (inj.start, window.end, *range(
            day * SECONDS_PER_DAY, (day + 6) * SECONDS_PER_DAY, SECONDS_PER_DAY))
            if inj.start <= t < inj.end), dtype=np.int64)
        outside = probes[~window.mask(probes)]
        if outside.size:
            raise SynthConfigError(f"injection second {outside[0]} is outside the window grid "
                                   f"(duration_seconds {inj.duration_seconds})")
        if prev_end is not None and inj.start <= prev_end:
            raise SynthConfigError(
                f"injections overlap or touch near t={inj.start}; leave at least 1s between them"
            )
        prev_end = inj.end
