"""Triangular arbitrage analytics for spot FX tick data.

Detects rate-product arbitrage opportunities in per-second quote streams,
characterizes their durations, magnitudes, and seasonality, and evaluates
trading profitability and break-even fill probabilities with seeded Monte
Carlo simulations backed by closed-form cross-checks.

The public names below are imported from their modules on first use (PEP
562), so that a command imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    **dict.fromkeys(
        ("AlignmentError", "CrossedQuoteWarning", "EmptySeriesError", "SynthConfigError",
         "TickOrderingError", "TickParseError", "TriarbError"), "errors"),
    **dict.fromkeys(
        ("Direction", "Pair", "PairSeries", "SeriesWindow", "Side", "TickReader", "TriangleSpec"),
        "market_data"),
    **dict.fromkeys(
        ("ArbitrageOpportunity", "DistributionStats", "DurationStats", "ThresholdRow",
         "compare_periods", "daily_profile", "distribution_stats", "duration_stats",
         "hourly_profile", "segment_opportunities", "threshold_table"), "opportunity"),
    "compute_rate_products": "rate_product",
    **dict.fromkeys(
        ("BreakEvenResult", "ProfitSurface", "Scenario", "SimulationConfig", "SimulationResult",
         "SimulationSummary", "simulate_trades"), "simulator"),
    **dict.fromkeys(("Injections", "SynthConfig", "generate", "liquidity_preset"), "synth"),
}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
