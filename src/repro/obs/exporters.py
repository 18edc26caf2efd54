"""Exporters: Chrome ``trace_event`` JSON, Prometheus text, JSON snapshot.

The Chrome exporter renders whole-stack traces: each *layer*
(serving / runtime / sim / fault / power) becomes one process row, each
*track* within it (tenant, device, engine, component) one thread row.
A bare simulator :class:`~repro.sim.trace.Trace` goes through
:func:`tracer_from_trace` first. Load the file in ``chrome://tracing`` or
https://ui.perfetto.dev — see docs/observability.md for a walkthrough.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import LAYERS, Tracer

#: nanoseconds per microsecond (Chrome wants us; our timestamps are ns)
_NS_PER_US = 1000.0

#: default display names of the per-layer process rows
LAYER_PROCESS_NAMES = {
    "serving": "serving (InferenceServer)",
    "runtime": "runtime (Device/Executor)",
    "sim": "DTU 2.0 sim",
    "fault": "fault injection",
    "power": "power management",
}


def _ordered_layers(tracer: Tracer) -> list[str]:
    present = tracer.layers()
    ordered = [layer for layer in LAYERS if layer in present]
    ordered.extend(sorted(present - set(LAYERS)))
    return ordered


def tracer_from_trace(trace, parent=None) -> Tracer:
    """Adapt a sim :class:`~repro.sim.trace.Trace` into a span tracer.

    One sim-layer span per interval, tracked by engine and categorised by
    engine family (``core``, ``dma``, ...).
    """
    tracer = Tracer()
    for interval in trace.intervals:
        tracer.add_span(
            interval.label,
            layer="sim",
            start_ns=interval.start,
            end_ns=interval.end,
            parent=parent,
            track=interval.engine,
            cat=interval.engine.split(".", 1)[0],
        )
    return tracer


def to_chrome_trace(
    tracer: Tracer, process_names: dict[str, str] | None = None
) -> dict:
    """Build one chrome://tracing JSON document from a tracer's contents."""
    names = dict(LAYER_PROCESS_NAMES)
    if process_names:
        names.update(process_names)

    layers = _ordered_layers(tracer)
    pids = {layer: index + 1 for index, layer in enumerate(layers)}
    tracks: dict[str, set[str]] = {layer: set() for layer in layers}
    for span in tracer.spans:
        tracks[span.layer].add(span.track)
    for event in tracer.events:
        tracks[event.layer].add(event.track)

    events: list[dict] = []
    tids: dict[tuple[str, str], int] = {}
    for layer in layers:
        pid = pids[layer]
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": names.get(layer, layer)},
            }
        )
        for tid, track in enumerate(sorted(tracks[layer]), start=1):
            tids[(layer, track)] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )

    for span in tracer.spans:
        args = {"trace_id": span.trace_id, "span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.args)
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",  # complete event
                "pid": pids[span.layer],
                "tid": tids[(span.layer, span.track)],
                "ts": span.start_ns / _NS_PER_US,
                "dur": span.duration_ns / _NS_PER_US,
                "args": args,
            }
        )
    for event in tracer.events:
        events.append(
            {
                "name": event.name,
                "cat": event.layer,
                "ph": "i",  # instant event
                "s": "t",  # thread scope
                "pid": pids[event.layer],
                "tid": tids[(event.layer, event.track)],
                "ts": event.time_ns / _NS_PER_US,
                "args": dict(event.args),
            }
        )
    for sample in tracer.counter_samples:
        events.append(
            {
                "name": sample.name,
                "ph": "C",  # counter event
                "pid": pids.get(sample.layer, len(pids) + 1),
                "ts": sample.time_ns / _NS_PER_US,
                "args": dict(sample.values),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def save_chrome_trace(
    tracer: Tracer,
    path: str | Path,
    process_names: dict[str, str] | None = None,
) -> Path:
    """Write the Chrome trace JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(tracer, process_names)))
    return path


# -- Prometheus text exposition ----------------------------------------------


def _fmt_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render every instrument in the Prometheus text exposition format."""
    lines: list[str] = []
    for instrument in registry.collect():
        if instrument.help:
            lines.append(f"# HELP {instrument.name} {instrument.help}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        if isinstance(instrument, (Counter, Gauge)):
            for labels, value in instrument.samples():
                lines.append(
                    f"{instrument.name}{_fmt_labels(labels)} {_fmt_value(value)}"
                )
        elif isinstance(instrument, Histogram):
            for labels, series in instrument.samples():
                cumulative = series.cumulative()
                bounds = [*instrument.buckets, math.inf]
                for bound, count in zip(bounds, cumulative):
                    le = dict(labels)
                    le["le"] = _fmt_value(bound)
                    lines.append(
                        f"{instrument.name}_bucket{_fmt_labels(le)} {count}"
                    )
                lines.append(
                    f"{instrument.name}_sum{_fmt_labels(labels)} "
                    f"{_fmt_value(series.sum)}"
                )
                lines.append(
                    f"{instrument.name}_count{_fmt_labels(labels)} {series.count}"
                )
    return "\n".join(lines) + "\n"


# -- JSON snapshot -------------------------------------------------------------


def to_json_snapshot(obs) -> dict:
    """One machine-readable dict of everything observed so far."""
    metrics = []
    for instrument in obs.metrics.collect():
        entry: dict = {
            "name": instrument.name,
            "kind": instrument.kind,
            "help": instrument.help,
            "unit": instrument.unit,
        }
        if isinstance(instrument, (Counter, Gauge)):
            entry["samples"] = [
                {"labels": labels, "value": value}
                for labels, value in instrument.samples()
            ]
        elif isinstance(instrument, Histogram):
            entry["buckets"] = list(instrument.buckets)
            entry["samples"] = [
                {
                    "labels": labels,
                    "sum": series.sum,
                    "count": series.count,
                    "bucket_counts": list(series.counts),
                }
                for labels, series in instrument.samples()
            ]
        metrics.append(entry)
    spans = [
        {
            "name": span.name,
            "layer": span.layer,
            "track": span.track,
            "start_ns": span.start_ns,
            "end_ns": span.end_ns,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "args": span.args,
        }
        for span in obs.tracer.spans
    ]
    events = [
        {
            "name": event.name,
            "layer": event.layer,
            "track": event.track,
            "time_ns": event.time_ns,
            "args": event.args,
        }
        for event in obs.tracer.events
    ]
    return {"metrics": metrics, "spans": spans, "events": events}


def save_json_snapshot(obs, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_json_snapshot(obs), indent=2))
    return path
