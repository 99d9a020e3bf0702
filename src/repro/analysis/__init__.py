"""Analysis helpers: summary statistics and table rendering."""

from repro.util.lazy import lazy_exports as _lazy_exports

__all__ = [
    "ConfidenceInterval",
    "bootstrap_improvement_pct",
    "bootstrap_mean",
    "Summary",
    "geometric_mean",
    "percent_change",
    "percentiles",
    "format_series",
    "format_table",
    "bar_chart",
    "grouped_series",
    "sparkline",
]


_EXPORTS = {
    "repro.analysis.stats": (
        "Summary", "geometric_mean", "percent_change", "percentiles",
    ),
    "repro.analysis.tables": ("format_series", "format_table"),
    "repro.analysis.charts": ("bar_chart", "grouped_series", "sparkline"),
    "repro.analysis.bootstrap": (
        "ConfidenceInterval", "bootstrap_improvement_pct", "bootstrap_mean",
    ),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
