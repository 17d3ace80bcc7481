"""Pluggable worker transports: how pool workers are spawned and reached.

The resident pool (:mod:`repro.parallel.persistent`) never constructs
``multiprocessing`` pipes or processes itself — inline construction
would weld every layer above it (one-shot engine, service, sharded
serving tier) to one bootstrap mechanism.  This module is the seam, in
the style of chainermn's communicator registry: the pool speaks to a
:class:`WorkerChannel` (send a command, receive a reply, observe
liveness) and a named :class:`Transport` decides what is behind it —
an in-process ``multiprocessing`` pipe today
(:class:`PipeTransport`), a socket to a remote host tomorrow, without
touching the supervision or routing layers.

Contract every transport must honor (what the pool's crash/deadline
supervision is written against):

* :meth:`Transport.spawn` returns a channel whose worker is already
  running its command loop,
* a dead worker is observable **without blocking**: its
  ``wait_objects()`` become ready, ``alive`` turns false, and reading
  the channel raises ``EOFError``/``OSError`` — never hangs,
* ``terminate_quietly()`` / ``close()`` are idempotent best-effort
  teardown: safe on a worker in any state, swallow races.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Any, Callable, Dict, Tuple, Type

from repro.errors import ConfigurationError

__all__ = [
    "WorkerChannel",
    "Transport",
    "PipeTransport",
    "TRANSPORTS",
    "register_transport",
    "make_transport",
]


class WorkerChannel:
    """One live worker endpoint: a process handle plus its message pipe.

    The pool never touches ``multiprocessing`` primitives directly —
    everything it needs (scatter a command, drain a reply, watch for
    death, tear down) is on this object, so a transport that backs it
    with something other than a local spawn process only has to
    provide the same observable behavior.
    """

    __slots__ = ("proc", "pipe")

    def __init__(self, proc: Any, pipe: Any) -> None:
        self.proc = proc
        self.pipe = pipe

    # -- messaging -------------------------------------------------------

    def send(self, obj: Any) -> None:
        """Pickle and send one command object."""
        self.pipe.send(obj)

    def send_bytes(self, buf: bytes) -> None:
        """Send an already-pickled command buffer (pickle-once scatter)."""
        self.pipe.send_bytes(buf)

    def recv(self) -> Any:
        """Receive one reply (raises ``EOFError`` on a dead worker)."""
        return self.pipe.recv()

    def poll(self) -> bool:
        """True when a reply is ready to :meth:`recv` without blocking."""
        return self.pipe.poll()

    def wait_objects(self) -> list:
        """Waitables for ``multiprocessing.connection.wait``: the reply
        channel plus the worker's death sentinel — a reply *or* a death
        wakes the supervisor, so no failure mode blocks forever."""
        return [self.pipe, self.proc.sentinel]

    # -- liveness --------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the worker process is running."""
        try:
            return self.proc.is_alive()
        except (OSError, ValueError):
            return False

    @property
    def pid(self) -> "int | None":
        """The worker's PID (None before start / after teardown races)."""
        return getattr(self.proc, "pid", None)

    @property
    def exitcode(self) -> "int | None":
        """The worker's exit code (None while it is still running)."""
        return getattr(self.proc, "exitcode", None)

    def join(self, timeout: "float | None" = None) -> None:
        """Wait for the worker to exit, swallowing teardown races."""
        try:
            self.proc.join(timeout)
        except (OSError, ValueError):
            pass

    # -- teardown --------------------------------------------------------

    def terminate_quietly(self) -> None:
        """Terminate and reap the worker, swallowing races (idempotent)."""
        try:
            if self.proc.is_alive():
                self.proc.terminate()
            self.proc.join(timeout=5.0)
        except (OSError, ValueError):
            pass

    def close(self) -> None:
        """Close the master's end of the channel (idempotent)."""
        try:
            self.pipe.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Full teardown: terminate the worker, then close the channel."""
        self.terminate_quietly()
        self.close()


class Transport:
    """How a pool bootstraps workers and reaches them.

    Subclasses implement :meth:`spawn`; everything else the pool does
    goes through the returned :class:`WorkerChannel`.  Register new
    transports in :data:`TRANSPORTS` (or via :func:`register_transport`)
    and select them by name — the engine/service/sharding layers carry
    the name, never the mechanics.
    """

    #: Registry key (subclasses override).
    name = "abstract"

    def spawn(
        self, target: Callable, args: Tuple = (), *, name: str
    ) -> WorkerChannel:
        """Start one worker running ``target(conn, *args)``.

        The transport constructs the channel endpoint handed to the
        worker as its first argument; the returned
        :class:`WorkerChannel` is the master's end.
        """
        raise NotImplementedError


class PipeTransport(Transport):
    """Local ``multiprocessing`` workers on bidirectional OS pipes (default).

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method; ``spawn`` (default) imports a
        fresh interpreter per worker — slower to start but immune to
        inherited locks/threads, and identical across platforms.
    """

    name = "pipe"

    def __init__(self, start_method: str = "spawn") -> None:
        if start_method not in mp.get_all_start_methods():
            raise ConfigurationError(
                f"start method {start_method!r} not available "
                f"(have {mp.get_all_start_methods()})"
            )
        self.start_method = start_method
        self._ctx = mp.get_context(start_method)

    def spawn(
        self, target: Callable, args: Tuple = (), *, name: str
    ) -> WorkerChannel:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=target,
            args=(child_conn, *args),
            name=name,
            daemon=True,
        )
        proc.start()
        # Drop the master's copy of the child end so a dead worker
        # reads as EOF/sentinel, never as an open idle pipe.
        child_conn.close()
        return WorkerChannel(proc, parent_conn)


#: Name → transport class.  ``pipe`` is the in-process default; a
#: socket transport slots in here without touching the pool.
TRANSPORTS: Dict[str, Type[Transport]] = {PipeTransport.name: PipeTransport}


def register_transport(cls: Type[Transport]) -> Type[Transport]:
    """Add ``cls`` to :data:`TRANSPORTS` under its ``name`` (decorator)."""
    TRANSPORTS[cls.name] = cls
    return cls


def make_transport(
    spec: "str | Transport", *, start_method: str = "spawn"
) -> Transport:
    """Resolve a transport: an instance passes through, a name is
    looked up in :data:`TRANSPORTS` and constructed with
    ``start_method``."""
    if isinstance(spec, Transport):
        return spec
    try:
        cls = TRANSPORTS[spec]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown transport {spec!r} (have {sorted(TRANSPORTS)})"
        ) from None
    return cls(start_method=start_method)
