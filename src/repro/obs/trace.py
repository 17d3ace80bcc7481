"""Span/event tracer with explicit clock injection.

The tracer is the write side of the observability layer: the service,
the persistent pool, and the shard router call :meth:`Tracer.span` /
:meth:`Tracer.event` at instrumentation points, and a concrete sink
(:class:`JsonlTracer`) turns those calls into one JSON object per
line.  Two design rules keep it out of the hot path:

* **No ambient time.**  Every timestamp comes from an injected
  ``Clock`` (a zero-argument callable returning seconds as a float,
  default :func:`time.perf_counter`).  Callers that already hold a
  ``t0``/``dur`` pair — every pipeline stage does — pass them in, so
  enabling tracing never adds a second clock read to code that
  already timed itself.
* **Free when off.**  The base :class:`Tracer` is the no-op: every
  method is ``pass`` and :attr:`Tracer.enabled` is ``False``, so
  instrumentation sites guard attribute packing with
  ``if tracer.enabled:`` and the disabled path costs one attribute
  load + branch, allocating nothing.

Timestamps are in the injected clock's timebase (``perf_counter`` by
default: arbitrary epoch, monotonic, comparable only within one
master process).  Worker-side spans are therefore shipped as
*relative* (offset, duration) pairs inside the existing reply
payloads and re-anchored on the master's clock at merge time — see
:func:`repro.search.rank.worker_spans_from_report`.
"""

from __future__ import annotations

import io
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

__all__ = [
    "Clock",
    "default_clock",
    "Tracer",
    "NULL_TRACER",
    "JsonlTracer",
]

#: A clock is any zero-argument callable returning seconds as a float.
#: The timebase is the caller's business; the default is
#: :func:`time.perf_counter` (monotonic, process-local epoch).
Clock = Callable[[], float]

#: The default clock of the tracers.
default_clock: Clock = time.perf_counter


class Tracer:
    """No-op tracer: the default everywhere, and the common interface.

    Subclasses override :meth:`span`, :meth:`event`, and
    :attr:`enabled`.  Instrumentation sites MUST guard any work that
    builds attribute dicts with ``if tracer.enabled:`` so the
    disabled path stays allocation-free.
    """

    __slots__ = ()

    #: Class attribute, not a property: reading it is one dict lookup.
    enabled: bool = False

    def span(
        self,
        name: str,
        start: float,
        duration: float,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a completed span ``[start, start + duration]``."""

    def event(
        self, kind: str, attrs: Optional[Mapping[str, Any]] = None
    ) -> None:
        """Record a point-in-time event, stamped with the sink's clock."""

    def bind(self, **attrs: Any) -> "Tracer":
        """Return a tracer that adds ``attrs`` to every record.

        The no-op tracer binds to itself — binding is free when
        tracing is off, so layers (e.g. the shard router tagging each
        inner service with ``shard=<id>``) bind unconditionally.
        """
        return self

    def flush(self) -> None:
        """Flush any buffered records to the sink."""

    def close(self) -> None:
        """Flush and release the sink (idempotent)."""


#: Shared no-op instance: the default value of every ``tracer`` knob.
NULL_TRACER = Tracer()


class _JsonlSink:
    """Locked line writer shared by a tracer and all its bound views."""

    __slots__ = ("_fh", "_owns", "lock", "n_records")

    def __init__(self, fh: io.TextIOBase, owns: bool) -> None:
        self._fh: Optional[io.TextIOBase] = fh
        self._owns = owns
        self.lock = threading.Lock()
        self.n_records = 0

    def emit(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self.lock:
            if self._fh is None:
                return
            self._fh.write(line + "\n")
            self.n_records += 1

    def flush(self) -> None:
        with self.lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        with self.lock:
            fh, self._fh = self._fh, None
            if fh is not None:
                fh.flush()
                if self._owns:
                    fh.close()


class _RecordingTracer(Tracer):
    """Builds flat record dicts and hands each to ``self._sink.emit``.

    The one record builder of the recording tracers: subclasses only
    supply the sink (a file writer, a ring) and their sink-specific
    extras.  Bound attributes (:meth:`bind`) and call-site ``attrs``
    are merged into the top level; the reserved keys (``type``/
    ``name``/``kind``/``ts``/``dur``) win on collision.  :meth:`bind`
    returns a view of the same class sharing the sink.
    """

    __slots__ = ("_sink", "_clock", "_bound")

    enabled = True

    def span(
        self,
        name: str,
        start: float,
        duration: float,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        record: Dict[str, Any] = dict(self._bound)
        if attrs:
            record.update(attrs)
        record.update(
            type="span",
            name=name,
            ts=round(float(start), 9),
            dur=round(float(duration), 9),
        )
        self._sink.emit(record)

    def event(
        self, kind: str, attrs: Optional[Mapping[str, Any]] = None
    ) -> None:
        record: Dict[str, Any] = dict(self._bound)
        if attrs:
            record.update(attrs)
        record.update(type="event", kind=kind, ts=round(self._clock(), 9))
        self._sink.emit(record)

    def bind(self, **attrs: Any) -> "_RecordingTracer":
        child = object.__new__(type(self))
        child._sink = self._sink
        child._clock = self._clock
        child._bound = {**self._bound, **attrs}
        return child


class JsonlTracer(_RecordingTracer):
    """Tracer writing one JSON object per line to a file or stream.

    Records are flat dicts::

        {"type": "span", "name": "collect", "ts": 1.23, "dur": 0.04,
         "batch": 7}
        {"type": "event", "kind": "retry", "ts": 2.56, "rank": 1,
         "attempt": 2}

    ``ts`` is in the injected clock's timebase.  Writes are
    serialized with a lock —
    the pipeline thread, the caller's thread, and per-shard callbacks
    all emit concurrently.  :meth:`bind` returns a view sharing the
    sink, so closing any view (or the parent) closes the file once.
    """

    __slots__ = ()

    def __init__(
        self,
        sink: Union[str, Path, io.TextIOBase],
        *,
        clock: Clock = default_clock,
    ) -> None:
        if isinstance(sink, (str, Path)):
            self._sink = _JsonlSink(
                open(sink, "w", encoding="ascii"), owns=True
            )
        else:
            self._sink = _JsonlSink(sink, owns=False)
        self._clock = clock
        self._bound: Dict[str, Any] = {}

    @property
    def n_records(self) -> int:
        """Records written through this sink (all bound views included)."""
        return self._sink.n_records

    def flush(self) -> None:
        self._sink.flush()

    def close(self) -> None:
        self._sink.close()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
