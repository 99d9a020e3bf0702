"""Process-wide observability: metrics registry, trace spans, exposition.

The package has three small modules:

* :mod:`repro.obs.registry` — counters/gauges/histograms with fixed
  exponential buckets, label families, and a zero-overhead null registry;
* :mod:`repro.obs.spans` — trace spans layered on the phase timer's
  observer hook;
* :mod:`repro.obs.export` — deterministic Prometheus-text and line-JSON
  exposition plus parsers for both.

Instrumented components take ``obs: MetricsRegistry | None = None``;
``None`` means the shared :data:`NULL_REGISTRY` (record nothing, change
nothing — placement outputs are bit-identical either way).
"""

from repro.util.lazy import lazy_exports as _lazy_exports

__all__ = [
    "BYTES_BUCKETS",
    "COUNT_BUCKETS",
    "DISTANCE_BUCKETS",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_REGISTRY",
    "NullRegistry",
    "Span",
    "SpanRecorder",
    "ensure_registry",
    "exponential_buckets",
    "flatten_sorted",
    "parse_json_lines",
    "parse_prometheus",
    "render",
    "to_json_lines",
    "to_prometheus",
]


_EXPORTS = {
    "repro.obs.export": (
        "flatten_sorted", "parse_json_lines", "parse_prometheus", "render",
        "to_json_lines", "to_prometheus",
    ),
    "repro.obs.registry": (
        "BYTES_BUCKETS", "COUNT_BUCKETS", "DISTANCE_BUCKETS",
        "LATENCY_BUCKETS", "MetricsRegistry", "NULL_INSTRUMENT",
        "NULL_REGISTRY", "NullRegistry", "ensure_registry",
        "exponential_buckets",
    ),
    "repro.obs.spans": ("Span", "SpanRecorder"),
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
