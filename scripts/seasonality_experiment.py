#!/usr/bin/env python3
"""Liquidity seasonality experiment on synthetic months.

Generates N seeded months where mis-alignment episodes arrive faster, and
die faster, in hours where more market sessions are open
(`triarb.synth.OPEN_SESSIONS`). Compares the
13:00-16:00 block against 22:00-01:00 per month and reports a one-sided
sign test over the months.
"""

import argparse
import math
import sys
from decimal import Decimal

from triarb.market_data import SeriesWindow, TriangleSpec
from triarb.opportunity import segment_opportunities
from triarb.rate_product import compute_rate_products
from triarb.seasonal import hourly_profile
from triarb.synth import SynthConfig, generate, liquidity_preset, seasonal_injection_schedule

MONDAY = 4 * 86400
WEEKDAYS = frozenset({0, 1, 2, 3, 4})
LIQUID = (13, 14, 15)
QUIET = (22, 23, 0)


def month_stats(month: int, seed: int, spec: TriangleSpec):
    month_seconds = 28 * 86400
    window = SeriesWindow(
        MONDAY + month * month_seconds, MONDAY + (month + 1) * month_seconds, WEEKDAYS
    )
    profiles = liquidity_preset(base_spread_points=6.0, base_gap_rate=0.001)
    injections = seasonal_injection_schedule(
        seed=seed + 9000, window=window, base_rate_per_hour=1.0
    )
    cfg = SynthConfig(
        seed=seed,
        window=window,
        triangle=spec,
        points={p.name: Decimal("0.000001") for p in spec.pairs},
        mid_prices={"EUR/USD": 1.2065, "USD/CHF": 1.3030},
        volatilities={"EUR/USD": 2e-6, "USD/CHF": 2e-6},
        spread_points={p.name: profiles.spread_points for p in spec.pairs},
        gap_rate=profiles.gap_rate,
        injections=injections,
    )
    a, b, c = generate(cfg)
    ops = segment_opportunities(window.grid_times(), compute_rate_products((a, b, c), spec))
    profile = hourly_profile(ops)

    def block(hours):
        count = sum(profile.counts[h] for h in hours)
        dur = sum(profile.counts[h] * profile.mean_durations[h] for h in hours)
        return count, dur / count if count else 0.0

    return block(LIQUID), block(QUIET)


def sign_test_p(wins: int, n: int) -> float:
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--months", type=int, default=10)
    parser.add_argument("--seed", type=int, default=500)
    args = parser.parse_args()

    spec = TriangleSpec.from_currencies("EUR", "USD", "CHF")

    count_wins = 0
    duration_wins = 0
    print(f"{'month':>5} {'liq_count':>9} {'qt_count':>9} {'liq_dur':>8} {'qt_dur':>8}")
    for m in range(args.months):
        (lc, ld), (qc, qd) = month_stats(m, args.seed + m, spec)
        count_wins += lc > qc
        duration_wins += ld < qd
        print(f"{m:>5} {lc:>9} {qc:>9} {ld:>8.2f} {qd:>8.2f}")

    p_count = sign_test_p(count_wins, args.months)
    p_dur = sign_test_p(duration_wins, args.months)
    print(f"\nliquid block has more opportunities in {count_wins}/{args.months} months"
          f" (sign test p = {p_count:.4g})")
    print(f"liquid block has shorter durations in {duration_wins}/{args.months} months"
          f" (sign test p = {p_dur:.4g})")
    return 0 if max(p_count, p_dur) < 0.01 else 1


if __name__ == "__main__":
    sys.exit(main())
