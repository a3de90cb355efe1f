"""Triangular arbitrage analytics for spot FX tick data.

Detects rate-product arbitrage opportunities in per-second quote streams,
characterizes their durations, magnitudes, and seasonality, and evaluates
trading profitability and break-even fill probabilities with seeded Monte
Carlo simulations backed by closed-form cross-checks.
"""

__version__ = "0.1.0"

from .errors import (
    AlignmentError,
    CrossedQuoteWarning,
    EmptySeriesError,
    SynthConfigError,
    TickOrderingError,
    TickParseError,
    TriarbError,
)
from .market_data import (
    Direction,
    Pair,
    PairSeries,
    SeriesWindow,
    Side,
    TriangleSpec,
    load_pair_series,
)
from .opportunity import (
    ArbitrageOpportunity,
    DistributionStats,
    DurationStats,
    ThresholdRow,
    compare_periods,
    distribution_stats,
    duration_stats,
    segment_opportunities,
    threshold_table,
)
from .rate_product import compute_rate_products
from .seasonal import (
    DailyProfile,
    HourlyProfile,
    daily_profile,
    hourly_profile,
)
from .simulator import (
    BreakEvenResult,
    ProfitSurface,
    Scenario,
    SimulationConfig,
    SimulationResult,
    SimulationSummary,
    simulate_trades,
)
from .synth import InjectionSpec, SynthConfig, generate, liquidity_preset

__all__ = [
    "AlignmentError",
    "CrossedQuoteWarning",
    "EmptySeriesError",
    "SynthConfigError",
    "TickOrderingError",
    "TickParseError",
    "TriarbError",
    "Direction",
    "Pair",
    "PairSeries",
    "SeriesWindow",
    "Side",
    "TriangleSpec",
    "load_pair_series",
    "ArbitrageOpportunity",
    "DistributionStats",
    "DurationStats",
    "ThresholdRow",
    "compare_periods",
    "distribution_stats",
    "duration_stats",
    "segment_opportunities",
    "threshold_table",
    "compute_rate_products",
    "DailyProfile",
    "HourlyProfile",
    "daily_profile",
    "hourly_profile",
    "BreakEvenResult",
    "ProfitSurface",
    "Scenario",
    "SimulationConfig",
    "SimulationResult",
    "SimulationSummary",
    "simulate_trades",
    "InjectionSpec",
    "SynthConfig",
    "generate",
    "liquidity_preset",
]
