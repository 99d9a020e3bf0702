"""Exposition formats for :class:`~repro.obs.registry.MetricsRegistry`.

Two formats, both deterministic (families in sorted-name order, label sets
in sorted order, floats via ``repr``) so seeded runs export byte-identical
text:

* **Prometheus text** (:func:`to_prometheus`) — the 0.0.4 text format:
  ``# HELP`` / ``# TYPE`` headers, one sample per line, histograms expanded
  to ``_bucket{le=...}`` / ``_sum`` / ``_count``.
* **line-JSON** (:func:`to_json_lines`) — one compact JSON document per
  family per line, following the ``repro.service.api`` codec conventions
  (``json.dumps(..., separators=(",", ":"))``, sorted keys); the natural
  format for programmatic consumers on the service's line-delimited TCP
  transport.

Each format has a parser (:func:`parse_prometheus`,
:func:`parse_json_lines`) returning the same flattened sample mapping as
``registry.flatten()``, which is what the round-trip tests compare.
"""

from __future__ import annotations

import json
import re

from repro.obs.registry import HISTOGRAM, MetricsRegistry, format_bound
from repro.util.errors import ValidationError

Samples = dict[tuple[str, tuple[tuple[str, str], ...]], float]


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape(value: str) -> str:
    # One left-to-right scan: undoing the escapes one kind at a time would
    # read the tail of an escaped backslash as the head of the next escape
    # (backslash + "n" is written ``\\n`` and must not come back a newline).
    return re.sub(
        r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), value
    )


def _render_labels(pairs: tuple[tuple[str, str], ...]) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


def _render_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render every family in the Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {_escape(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, inst in family.samples():
            base = tuple(zip(family.label_names, values))
            if family.kind == HISTOGRAM:
                for bound, cum in inst.cumulative():
                    labels = _render_labels(base + (("le", format_bound(bound)),))
                    lines.append(f"{family.name}_bucket{labels} {cum}")
                lines.append(
                    f"{family.name}_sum{_render_labels(base)} {_render_value(inst.sum)}"
                )
                lines.append(f"{family.name}_count{_render_labels(base)} {inst.count}")
            else:
                lines.append(
                    f"{family.name}{_render_labels(base)} {_render_value(inst.value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_prometheus(text: str) -> Samples:
    """Parse Prometheus exposition text back into the flattened sample map."""
    out: Samples = {}
    # Split strictly on "\n" (not splitlines): escaped label values may
    # contain other Unicode line separators, which are sample content.
    for raw in text.split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValidationError(f"unparseable exposition line: {raw!r}")
        labels = tuple(
            sorted(
                (name, _unescape(value))
                for name, value in _LABEL_RE.findall(match.group("labels") or "")
            )
        )
        out[(match.group("name"), labels)] = _parse_value(match.group("value"))
    return out


def flatten_sorted(registry: MetricsRegistry) -> Samples:
    """``registry.flatten()`` with label tuples sorted — the canonical form
    both parsers produce, used as the round-trip comparison key."""
    return {
        (name, tuple(sorted(labels))): value
        for (name, labels), value in registry.flatten().items()
    }


def to_json_lines(registry: MetricsRegistry) -> str:
    """One compact JSON document per family per line (codec conventions of
    ``repro.service.api``: compact separators, sorted keys)."""
    lines = []
    for family in registry.families():
        samples = []
        for values, inst in family.samples():
            labels = dict(zip(family.label_names, values))
            if family.kind == HISTOGRAM:
                samples.append(
                    {
                        "labels": labels,
                        "buckets": [
                            [format_bound(bound), cum]
                            for bound, cum in inst.cumulative()
                        ],
                        "sum": inst.sum,
                        "count": inst.count,
                    }
                )
            else:
                samples.append({"labels": labels, "value": inst.value})
        doc = {
            "name": family.name,
            "kind": family.kind,
            "help": family.help,
            "samples": samples,
        }
        lines.append(json.dumps(doc, separators=(",", ":"), sort_keys=True))
    return "\n".join(lines) + "\n" if lines else ""


def parse_json_lines(text: str) -> Samples:
    """Parse :func:`to_json_lines` output into the flattened sample map."""
    out: Samples = {}
    for raw in text.split("\n"):
        line = raw.strip()
        if not line:
            continue
        doc = json.loads(line)
        name = doc["name"]
        for sample in doc["samples"]:
            base = tuple(sorted(sample["labels"].items()))
            if doc["kind"] == HISTOGRAM:
                for le, cum in sample["buckets"]:
                    out[(name + "_bucket", tuple(sorted(base + (("le", le),))))] = (
                        float(cum)
                    )
                out[(name + "_sum", base)] = float(sample["sum"])
                out[(name + "_count", base)] = float(sample["count"])
            else:
                out[(name, base)] = float(sample["value"])
    return out


def render(registry: MetricsRegistry, format: str = "prom") -> str:
    """Dispatch: ``"prom"`` → Prometheus text, ``"json"`` → line-JSON."""
    if format == "prom":
        return to_prometheus(registry)
    if format == "json":
        return to_json_lines(registry)
    raise ValidationError(f"unknown exposition format {format!r}")
