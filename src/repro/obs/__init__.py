"""repro.obs — the unified observability layer.

One :class:`Observability` hub bundles the two halves every layer of the
stack reports into:

- :class:`~repro.obs.metrics.MetricsRegistry` — process-wide counters,
  gauges and histograms with labels (the §VI "profiling statistics"
  substrate: per-operator latency shares, engine duty cycles, QoS
  accounting);
- :class:`~repro.obs.tracing.Tracer` — spans threaded by
  :class:`~repro.obs.tracing.TraceContext` from serving admission through
  ``Device.launch`` retries and executor scheduling down into simulator
  kernel/DMA/sync intervals and fault-injection events.

Attach a hub where you want telemetry; leave it off and every hook is a
no-op (``if obs is None`` at coarse boundaries — the simulation's hot
path is untouched and results stay bit-identical):

>>> from repro.obs import Observability
>>> from repro import Device, build_model
>>> obs = Observability()
>>> device = Device.open("i20", obs=obs)
>>> result = device.launch(device.compile(build_model("resnet50"), batch=1))
>>> sorted(obs.tracer.layers())  # doctest: +SKIP
['power', 'runtime', 'sim']

Export with :mod:`repro.obs.exporters` (Chrome trace / Prometheus text /
JSON snapshot), or from the command line: ``repro profile resnet50`` and
``repro trace resnet50 -o trace.json``. docs/observability.md has the
full metrics catalogue and span hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.exporters import (
    save_chrome_trace,
    save_json_snapshot,
    to_chrome_trace,
    to_json_snapshot,
    to_prometheus_text,
    tracer_from_trace,
)
from repro.obs.labels import (
    DEVICE_LABEL_CAP,
    OVERFLOW_DEVICE_LABEL,
    device_label,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS_MS,
    DEFAULT_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import (
    LAYERS,
    CounterSample,
    Span,
    SpanHandle,
    TraceContext,
    TraceEvent,
    Tracer,
)


@dataclass
class Observability:
    """The hub one run reports into: a registry plus a tracer."""

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)


__all__ = [
    "Counter", "CounterSample", "DEFAULT_BUCKETS_MS", "DEFAULT_BUCKETS_NS",
    "DEVICE_LABEL_CAP", "Gauge", "Histogram", "LAYERS", "MetricsRegistry",
    "OVERFLOW_DEVICE_LABEL", "Observability", "Span", "SpanHandle",
    "TraceContext", "TraceEvent", "Tracer", "device_label",
    "save_chrome_trace", "save_json_snapshot", "to_chrome_trace",
    "to_json_snapshot", "to_prometheus_text", "tracer_from_trace",
]
