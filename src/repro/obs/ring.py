"""Flight recorder: a bounded in-memory ring of trace records.

:class:`RingTracer` is the always-on counterpart of
:class:`~repro.obs.trace.JsonlTracer`: the same record builder makes
**identical record dicts** (same reserved keys, same bound-attribute
merge, same rounding), which it appends to a bounded ``deque`` instead
of a file —
holding the last N records of the session, whatever happens.  The
serving tier installs one by default whenever no file tracer was
configured, so a session that never asked for ``--trace`` still
carries its recent timeline in memory; when a
:class:`~repro.errors.WorkerError` / :class:`~repro.errors.ShardError`
surfaces or a batch degrades, the ring is dumped to a schema-valid
JSONL "black box" (see :func:`flight_dump`) whose path travels on the
error / the batch's stats.  Every production fault thus comes with its
last-seconds timeline, without paying for always-on file tracing.

Cost model: an emit is one dict build plus a locked ``deque.append``
— no JSON encoding, no I/O (both deferred to :meth:`RingTracer.dump`,
which only runs on the failure path).  The throughput benchmark's
``observability`` section measures the ring against a bare session
and the perf guard holds it under the same overhead ceiling as file
tracing (``--obs-overhead``).

Like the file tracer, :meth:`RingTracer.bind` returns a view sharing
the ring, so per-shard bound tracers of a fleet interleave their
records into one fleet-wide black box in arrival order.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.trace import Clock, _RecordingTracer, default_clock

__all__ = ["DEFAULT_CAPACITY", "RingTracer", "flight_dump"]

#: Records the default flight recorder retains — a few hundred batches
#: of the serving pipeline's span/event volume, a few MB at most.
DEFAULT_CAPACITY = 4096

_DUMP_PREFIX = "repro-flight-"
#: Black boxes :func:`flight_dump` keeps per directory — a rank that
#: flaps under ``degraded_ok`` dumps once per degraded batch.
_MAX_DUMPS = 32


class _RingBuffer:
    """Locked bounded record store shared by a tracer and its views."""

    __slots__ = ("lock", "records", "n_seen")

    def __init__(self, capacity: int) -> None:
        self.lock = threading.Lock()
        self.records: deque[Dict[str, Any]] = deque(maxlen=capacity)
        self.n_seen = 0

    def emit(self, record: Dict[str, Any]) -> None:
        with self.lock:
            self.records.append(record)
            self.n_seen += 1


class RingTracer(_RecordingTracer):
    """Tracer retaining the last ``capacity`` records in memory.

    Record shape is bit-for-bit the :class:`~repro.obs.trace.JsonlTracer`
    shape (the schema validates dumps of either interchangeably);
    emission order across threads is the ring's arrival order, exactly
    as the file tracer's lock serializes lines.  :meth:`bind` returns
    a view sharing the ring; :meth:`dump` writes the current contents
    as schema-valid JSONL.
    """

    __slots__ = ()

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        clock: Clock = default_clock,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"ring capacity must be >= 1, got {capacity}"
            )
        self._sink = _RingBuffer(capacity)
        self._clock = clock
        self._bound: Dict[str, Any] = {}

    @property
    def capacity(self) -> int:
        """Maximum records retained (older records are evicted)."""
        return self._sink.records.maxlen or 0

    @property
    def n_records(self) -> int:
        """Records currently held (``<= capacity``)."""
        with self._sink.lock:
            return len(self._sink.records)

    @property
    def n_seen(self) -> int:
        """Lifetime records emitted through this ring (all views)."""
        return self._sink.n_seen

    def records(self) -> List[Dict[str, Any]]:
        """Snapshot of the ring's current contents, oldest first."""
        with self._sink.lock:
            return list(self._sink.records)

    def dump(self, path: Union[str, Path]) -> int:
        """Write the ring's contents to ``path`` as JSONL; returns the
        record count.  The output validates against
        :mod:`repro.obs.schema` exactly as a file trace would."""
        records = self.records()
        with open(path, "w", encoding="ascii") as fh:
            for record in records:
                fh.write(
                    json.dumps(record, separators=(",", ":"), default=str)
                    + "\n"
                )
        return len(records)

    def dump_to_dir(
        self,
        directory: Union[str, Path, None] = None,
        *,
        prefix: str = _DUMP_PREFIX,
    ) -> str:
        """Dump into a fresh uniquely-named file under ``directory``
        (default: the system temp dir); returns the file's path."""
        target = Path(directory) if directory is not None else Path(
            tempfile.gettempdir()
        )
        target.mkdir(parents=True, exist_ok=True)
        fd, path = tempfile.mkstemp(
            prefix=prefix, suffix=".jsonl", dir=str(target)
        )
        os.close(fd)
        try:
            self.dump(path)
        except BaseException:
            os.unlink(path)
            raise
        return path

    # The ring owns no file handle: flush/close are inherited no-ops,
    # so the serving tier can treat any tracer uniformly at shutdown.


def _prune_dumps(newest: Path) -> None:
    """Keep ``newest`` and the :data:`_MAX_DUMPS` - 1 youngest other
    black boxes in its directory; delete the rest."""
    others = sorted(
        (p for p in newest.parent.glob(f"{_DUMP_PREFIX}*.jsonl") if p != newest),
        key=lambda p: p.stat().st_mtime_ns,
    )
    for path in others[: max(0, len(others) - (_MAX_DUMPS - 1))]:
        path.unlink(missing_ok=True)


def flight_dump(
    ring: Optional[RingTracer],
    directory: Union[str, Path, None],
    reason: str,
    *,
    batch: Optional[int] = None,
) -> Optional[str]:
    """Dump a service-owned flight recorder on a failure path.

    Appends a ``flight.dump`` event naming the trigger (so the black
    box records *why* it exists), writes the ring to a fresh file
    under ``directory``, and returns its path — or ``None`` when
    there is no recorder, it is empty, or the dump itself fails (a
    black-box hiccup must never mask the original fault).  The
    directory then keeps its newest :data:`_MAX_DUMPS` dumps.
    """
    if ring is None or ring.n_records == 0:
        return None
    attrs: Dict[str, Any] = {"reason": reason}
    if batch is not None:
        attrs["batch"] = batch
    ring.event("flight.dump", attrs)
    try:
        path = ring.dump_to_dir(directory)
    except OSError:
        return None
    try:
        _prune_dumps(Path(path))
    except OSError:
        pass
    return path
