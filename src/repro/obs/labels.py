"""Label-cardinality control for per-device observability.

Every replica a fleet opens gets its own ``device="<id>"`` label on
launch counters and its own ``device.<id>`` span track.  At thousands of
devices that explodes registry/trace cardinality — the classic
high-cardinality-label failure.  :func:`device_label` applies a
documented aggregation threshold: the first :data:`DEVICE_LABEL_CAP`
distinct device ids seen by one :class:`~repro.obs.Observability` hub
keep their labels; every later id collapses into the ``device="other"``
overflow bucket (docs/observability.md).

The census lives on the hub's :class:`~repro.obs.metrics.MetricsRegistry`
(metrics and spans share one identity budget), so independent runs with
fresh hubs never interfere and small fleets — below the cap — keep
per-device labels exactly as before.
"""

from __future__ import annotations

__all__ = [
    "DEVICE_LABEL_CAP",
    "OVERFLOW_DEVICE_LABEL",
    "device_label",
]

DEVICE_LABEL_CAP = 64
"""Max distinct per-device label values per registry."""

OVERFLOW_DEVICE_LABEL = "other"
"""Bucket that absorbs devices beyond the cap."""

_CENSUS_ATTR = "_device_label_census"


def device_label(obs, device_id: str) -> str:
    """Label value for ``device_id`` under ``obs``'s cardinality budget.

    Deterministic for a fixed open/launch order: the first
    :data:`DEVICE_LABEL_CAP` distinct ids admitted by this hub keep their
    identity for the hub's lifetime; later ids all map to
    :data:`OVERFLOW_DEVICE_LABEL`.
    """
    registry = obs.metrics
    census = getattr(registry, _CENSUS_ATTR, None)
    if census is None:
        census = set()
        setattr(registry, _CENSUS_ATTR, census)
    if device_id in census:
        return device_id
    if len(census) < DEVICE_LABEL_CAP:
        census.add(device_id)
        return device_id
    return OVERFLOW_DEVICE_LABEL
