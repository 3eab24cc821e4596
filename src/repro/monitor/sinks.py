"""Pluggable alert delivery for the quality monitor.

:class:`~repro.monitor.quality.QualityMonitor` collects alerts on itself
and mirrors them into telemetry events; sinks are the third leg — pushing
each alert to the outside world (a tail-able file is the transport
shipped here) the moment it fires.  Two properties matter more than the
transports:

- **fan-out** — every registered sink sees every alert, in registration
  order;
- **failure isolation** — a sink that raises must never break the
  serving loop or starve its sibling sinks.  The monitor catches per
  sink, counts the error, and keeps dispatching.

Anything with an ``emit(alert)`` method is a sink (structural typing —
no registration or subclassing needed).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (quality imports us)
    from repro.monitor.quality import Alert

__all__ = ["AlertSink", "FileTailSink", "alert_to_dict"]


def alert_to_dict(alert: "Alert") -> dict:
    """One alert as a JSON-serializable dict (shared by sinks and logs)."""
    return {
        "window": alert.window,
        "t": alert.time,
        "kind": alert.kind,
        "signal": alert.signal,
        "detector": alert.detector,
        "value": alert.value,
        "message": alert.message,
    }


@runtime_checkable
class AlertSink(Protocol):
    """Structural protocol: any object with ``emit(alert)`` is a sink."""

    def emit(self, alert: "Alert") -> None: ...


class FileTailSink:
    """Append each alert as one JSON line to a file (``tail -f``-able).

    Opens per emit rather than holding a handle: alerts are rare, the
    file stays usable by external tailers, and a crashed run leaves no
    partially buffered lines.
    """

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.emitted = 0

    def emit(self, alert: "Alert") -> None:
        with open(self.path, "a") as fh:
            fh.write(json.dumps(alert_to_dict(alert), sort_keys=True) + "\n")
        self.emitted += 1
