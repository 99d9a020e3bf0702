"""Round-trip tests for both exposition formats.

The invariant both formats guarantee: ``parse(render(registry))`` equals
``flatten_sorted(registry)`` — no sample, label, or bucket is lost or
distorted by going through text.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.export import (
    _unescape,
    flatten_sorted,
    parse_json_lines,
    parse_prometheus,
    render,
    to_json_lines,
    to_prometheus,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.util.errors import ValidationError


def build_sample_registry() -> MetricsRegistry:
    r = MetricsRegistry()
    r.counter("jobs_total", "Jobs run.").inc(3)
    fam = r.counter("requests_total", "By outcome.", labels=("outcome",))
    fam.labels(outcome="placed").inc(7)
    fam.labels(outcome="refused").inc(1)
    r.gauge("queue_depth", "Waiting requests.").set(4)
    h = r.histogram("latency_seconds", "Latency.", buckets=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.002, 0.05, 2.0):
        h.observe(v)
    lh = r.histogram("gain", "Gain.", labels=("algo",), buckets=(1.0, 8.0))
    lh.labels(algo="greedy").observe(3.0)
    return r


class TestPrometheus:
    def test_round_trip(self):
        r = build_sample_registry()
        assert parse_prometheus(to_prometheus(r)) == flatten_sorted(r)

    def test_headers_present(self):
        text = to_prometheus(build_sample_registry())
        assert "# HELP jobs_total Jobs run." in text
        assert "# TYPE jobs_total counter" in text
        assert "# TYPE latency_seconds histogram" in text

    def test_inf_bucket_rendered(self):
        text = to_prometheus(build_sample_registry())
        assert 'latency_seconds_bucket{le="+Inf"} 4' in text

    def test_deterministic(self):
        assert to_prometheus(build_sample_registry()) == to_prometheus(
            build_sample_registry()
        )

    def test_label_escaping(self):
        r = MetricsRegistry()
        fam = r.counter("c_total", labels=("k",))
        fam.labels(k='we"ird\\val\nue').inc()
        assert parse_prometheus(to_prometheus(r)) == flatten_sorted(r)

    def test_unparseable_line_rejected(self):
        with pytest.raises(ValidationError):
            parse_prometheus("!!! not a sample")


class TestJsonLines:
    def test_round_trip(self):
        r = build_sample_registry()
        assert parse_json_lines(to_json_lines(r)) == flatten_sorted(r)

    def test_one_document_per_family(self):
        r = build_sample_registry()
        assert len(to_json_lines(r).strip().splitlines()) == len(r.families())

    def test_deterministic(self):
        assert to_json_lines(build_sample_registry()) == to_json_lines(
            build_sample_registry()
        )


class TestRender:
    def test_dispatch(self):
        r = build_sample_registry()
        assert render(r, "prom") == to_prometheus(r)
        assert render(r, "json") == to_json_lines(r)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            render(build_sample_registry(), "xml")

    def test_null_registry_renders_empty(self):
        assert render(NULL_REGISTRY, "prom") == ""
        assert render(NULL_REGISTRY, "json") == ""


_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True)
_LABEL_VALUES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    max_size=12,
)
_VALUES = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def registries(draw):
    r = MetricsRegistry()
    names = draw(
        st.lists(_NAMES, min_size=1, max_size=5, unique=True)
    )
    for i, name in enumerate(names):
        kind = draw(st.sampled_from(("counter", "gauge", "histogram")))
        labeled = draw(st.booleans())
        labels = ("lab",) if labeled else ()
        if kind == "counter":
            fam = r.counter(f"c_{name}", labels=labels)
        elif kind == "gauge":
            fam = r.gauge(f"g_{name}", labels=labels)
        else:
            fam = r.histogram(
                f"h_{name}", labels=labels, buckets=(0.01, 1.0, 100.0)
            )
        for _ in range(draw(st.integers(0, 4))):
            inst = fam.labels(lab=draw(_LABEL_VALUES)) if labeled else fam
            value = draw(_VALUES)
            if kind == "counter":
                inst.inc(value)
            elif kind == "gauge":
                inst.set(value)
            else:
                inst.observe(value)
    return r


def labelled(value: str) -> MetricsRegistry:
    r = MetricsRegistry()
    r.counter("c_x", labels=("lab",)).labels(lab=value).inc(1.0)
    return r


#: Backslash + "n" is what hypothesis found: written ``\\n``, it used to be
#: read back as backslash + newline. Pinned with its neighbours.
ESCAPE_TRAPS = ("\\n", "\\\\n", "\\\n", '\\"', "\\")


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(registries())
    @example(labelled(ESCAPE_TRAPS[0]))
    @example(labelled("".join(ESCAPE_TRAPS)))
    def test_prometheus_round_trip(self, registry):
        assert parse_prometheus(to_prometheus(registry)) == flatten_sorted(registry)

    @pytest.mark.parametrize("help_text", ESCAPE_TRAPS + ("two\nlines",))
    def test_help_text_uses_the_label_escapes(self, help_text):
        r = MetricsRegistry()
        r.counter("c_x", help_text)
        header = to_prometheus(r).split("\n")[0]
        assert header.startswith("# HELP c_x ")
        assert _unescape(header[len("# HELP c_x "):]) == help_text

    @settings(max_examples=60, deadline=None)
    @given(registries())
    def test_json_round_trip(self, registry):
        assert parse_json_lines(to_json_lines(registry)) == flatten_sorted(registry)
