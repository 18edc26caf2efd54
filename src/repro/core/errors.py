"""Shared exception roots for the repro stack.

:class:`ReproRuntimeError` is the base every runtime-facing error derives
from (runtime misuse, RAS/fault-path errors), kept distinct from
``builtins.RuntimeError`` so callers can catch repro failures without
swallowing unrelated bugs. It lives in a leaf module so both the runtime
and the fault-injection layers can extend it without import cycles.
"""

from __future__ import annotations

import math
from dataclasses import fields


class ReproRuntimeError(RuntimeError):
    """Base class for runtime misuse and RAS errors across the stack."""


def reject_non_finite(config) -> None:
    """Raise :class:`ReproRuntimeError` on any NaN or infinite ``float``
    field of a config dataclass. NaN slips past every ordered comparison
    a ``__post_init__`` range check makes, so configs call this first."""
    for spec in fields(config):
        value = getattr(config, spec.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ReproRuntimeError(
                f"{type(config).__name__}: {spec.name} must be finite, "
                f"got {value}"
            )
