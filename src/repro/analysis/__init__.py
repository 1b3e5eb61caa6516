"""Statistics and reporting helpers shared by the library and benchmarks."""

from repro.analysis.stats import (
    LatencyLog,
    RateMeter,
    TimeSeries,
)
from repro.analysis.report import Table, format_ratio, format_si
from repro.analysis.figures import render_series, sparkline

__all__ = [
    "LatencyLog",
    "RateMeter",
    "Table",
    "TimeSeries",
    "format_ratio",
    "format_si",
    "render_series",
    "sparkline",
]
