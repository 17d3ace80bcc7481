"""How pool workers are spawned and reached: one channel per worker.

The resident pool (:mod:`repro.parallel.persistent`) never touches
``multiprocessing`` pipes or processes itself: it starts each worker
through :func:`spawn_worker` and speaks only the :class:`WorkerChannel`
API (send a command, receive a reply, observe liveness, tear down).
Local spawn workers on OS pipes are the one implementation.  The
channel is the seam a second way of reaching workers (an in-thread or
socket transport) would implement; a choice between transports comes
back only when that second implementation exists.

Contract a channel must honor (what the pool's crash/deadline
supervision is written against):

* :func:`spawn_worker` returns a channel whose worker is already
  running its command loop,
* a dead worker is observable **without blocking**: its
  ``wait_objects()`` become ready, ``alive`` turns false, and reading
  the channel raises ``EOFError``/``OSError`` — never hangs,
* ``terminate_quietly()`` / ``close()`` are idempotent best-effort
  teardown: safe on a worker in any state, swallow races.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Any, Callable, Tuple

__all__ = ["WorkerChannel", "spawn_worker"]


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


_SPAWN = mp.get_context("spawn")


def spawn_worker(target: Callable, args: Tuple = (), *, name: str) -> WorkerChannel:
    """Start one worker running ``target(conn, *args)`` and return the
    master's end of its channel.

    Workers always start by ``spawn`` on a bidirectional OS pipe: a
    fresh interpreter per worker, slower to start than ``fork`` but
    immune to inherited locks and threads, and identical across
    platforms.
    """
    parent_conn, child_conn = _SPAWN.Pipe()
    proc = _SPAWN.Process(
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
