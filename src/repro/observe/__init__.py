"""Flight recorder: structured event tracing + metrics (observability).

The recorder answers the question Table II's aggregates cannot: *what
happened in this one run* — which flip activated, what detected it,
which descriptors were replayed, how long recovery took.  See
``docs``/README "Flight recorder" for the exported JSONL format and the
``python -m repro trace`` renderer.

Enabling
--------
Tracing is **off by default** and costs ~nothing when off: every kernel
then shares the process-wide :data:`~repro.observe.recorder.NULL_RECORDER`
singleton, and all emit sites guard on ``recorder.enabled`` before
building any event.  Turn it on with either

* the environment: ``REPRO_TRACE=1`` (any new kernel gets a live
  :class:`~repro.observe.recorder.FlightRecorder` bound to its virtual
  clock, with a ring of ``DEFAULT_CAPACITY`` events); or
* the API: :func:`tracing` as a context manager, used by the traced
  campaign path (``table2 --trace``/``run_full_campaign(trace=)``) so
  worker processes trace their runs regardless of the environment.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional, Union

from repro.observe.events import (  # noqa: F401 (re-exported)
    EVENT_FIELDS,
    EventSchemaError,
    SCHEMA_VERSION,
    validate_event,
)
from repro.observe.metrics import (  # noqa: F401
    MetricsRegistry,
    canonical_metrics,
    merge_metrics,
)
from repro.observe.recorder import (  # noqa: F401
    DEFAULT_CAPACITY,
    NULL_RECORDER,
    FlightRecorder,
    NullRecorder,
    scalar,
)

#: Programmatic override of the environment gate; ``None`` defers to
#: ``REPRO_TRACE``.
_forced: Optional[bool] = None


def tracing_enabled() -> bool:
    """Is tracing on for kernels built right now?"""
    if _forced is not None:
        return _forced
    return os.environ.get("REPRO_TRACE", "0") not in ("", "0", "false", "no")


def set_tracing(on: Optional[bool]) -> None:
    """Force tracing on/off (``None`` restores the environment gate)."""
    global _forced
    _forced = on


@contextmanager
def tracing(on: bool = True):
    """Scope tracing on (or off) for the duration of a ``with`` block."""
    global _forced
    previous = _forced
    _forced = on
    try:
        yield
    finally:
        _forced = previous


def recorder_for(
    clock=None, capacity: Optional[int] = None
) -> Union[FlightRecorder, NullRecorder]:
    """The recorder a new kernel should carry.

    Returns the shared no-op singleton when tracing is disabled — no
    allocation at all — or a fresh :class:`FlightRecorder` bound to the
    kernel's virtual clock when enabled.
    """
    if not tracing_enabled():
        return NULL_RECORDER
    return FlightRecorder(clock=clock, capacity=capacity or DEFAULT_CAPACITY)
