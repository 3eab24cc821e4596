"""Hierarchical tracing spans (contextvar-nested wall-clock sections).

A span is a named, timed section of the program.  Spans nest through a
context variable: entering ``span("solve")`` inside ``span("train/epoch")``
produces the path ``train/epoch/solve``, without any explicit threading of
parent handles through call signatures — library code deep in the solver
can open a span and it lands under whatever the caller opened.

Spans are exception-safe: the path contextvar is restored and the span is
recorded (flagged ``ok=False``) even when the body raises, and the
exception propagates unchanged.

When no recorder is active the module-level :func:`repro.telemetry.span`
returns the shared :data:`NULL_SPAN`, whose enter/exit do nothing — no
``perf_counter`` calls, no contextvar writes, no allocation.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.recorder import Recorder

__all__ = ["Span", "NULL_SPAN"]

#: Path of the innermost open span ("" at top level).
_PATH: ContextVar[str] = ContextVar("repro_telemetry_path", default="")


class Span:
    """One live span; use as a context manager.

    After exit, ``elapsed`` holds the wall-clock seconds and ``ok`` whether
    the body completed without raising.
    """

    __slots__ = ("name", "path", "elapsed", "ok", "_recorder", "_token", "_t0")

    def __init__(self, name: str, recorder: "Recorder") -> None:
        if not name or name.startswith("/") or name.endswith("/"):
            raise ValueError(f"invalid span name {name!r}")
        self.name = name
        self.path = name
        self.elapsed = 0.0
        self.ok = True
        self._recorder = recorder

    def __enter__(self) -> "Span":
        parent = _PATH.get()
        self.path = f"{parent}/{self.name}" if parent else self.name
        self._token = _PATH.set(self.path)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = time.perf_counter() - self._t0
        self.ok = exc_type is None
        _PATH.reset(self._token)
        self._recorder._record_span(self.path, self.elapsed, self.ok)
        return False  # never swallow exceptions


class _NullSpan:
    """Shared no-op span handle returned when telemetry is off."""

    __slots__ = ()

    name = ""
    path = ""
    elapsed = 0.0
    ok = True

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()
