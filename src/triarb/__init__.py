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
    ComparisonReport,
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
    SessionTable,
    daily_profile,
    hourly_profile,
    session_overlap_count,
)
from .simulator import (
    BreakEvenResult,
    MaxVolumeResult,
    ProfitSurface,
    Scenario,
    SimulationConfig,
    SimulationResult,
    SimulationSummary,
    filter_trades,
    max_arb_volume,
    simulate_trades,
)
from .synth import InjectionSpec, SynthConfig, generate, liquidity_preset

__all__ = [name for name in dir() if not name.startswith("_")]
