"""Virtual time for the simulated cluster: a ledger of per-rank clocks.

Each rank owns a :class:`VirtualClock`.  Compute work advances a clock
explicitly (the search engine charges its deterministic work counters
times calibrated per-op costs); communication advances clocks through
the :class:`CommCostModel` (latency + payload size / bandwidth, with a
log2-tree factor for collectives, matching textbook MPI cost models).

Nothing here runs concurrently.  The collectives the engine needs —
:func:`scatter`, :func:`barrier` and :func:`gather`, all rooted at
rank 0 — are closed-form updates of the whole clock list, applied
after every rank has charged its own compute up to that point.  A
rank's clock only ever depends on its own charges and on the times
these functions hand it, so replaying ranks one after another gives
the same clocks as running them side by side.

Virtual time is what all figures report: it is reproducible across
machines and schedulers, unlike wall time on a shared 2-core container.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from math import ceil, log2
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "VirtualClock",
    "CommCostModel",
    "payload_nbytes",
    "scatter",
    "barrier",
    "gather",
]


class VirtualClock:
    """A monotonically advancing per-rank clock (seconds)."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ConfigurationError(f"clock cannot start negative, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance by ``seconds`` (>= 0); returns the new time."""
        if seconds < 0:
            raise ConfigurationError(f"cannot advance clock by {seconds}")
        self._now += float(seconds)
        return self._now

    def sync_to(self, other_time: float) -> float:
        """Move forward to ``other_time`` if it is later; returns now."""
        if other_time > self._now:
            self._now = float(other_time)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock({self._now:.6f}s)"


def payload_nbytes(obj: object) -> int:
    """Wire size of a message payload in bytes.

    numpy arrays count their buffer (the fast mpi4py path); everything
    else is measured by its pickle, mirroring mpi4py's lowercase
    (pickle-based) methods.  Deterministic for deterministic payloads.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 96  # header estimate
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple)) and all(
        isinstance(x, np.ndarray) for x in obj
    ) and obj:
        return sum(int(x.nbytes) + 96 for x in obj)  # type: ignore[union-attr]
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@dataclass(frozen=True, slots=True)
class CommCostModel:
    """Latency/bandwidth communication cost model.

    Defaults approximate the gigabit-Ethernet cluster of the paper's
    testbed: ~50 µs MPI latency, ~1 GB/s effective bandwidth.

    Attributes
    ----------
    latency:
        Per-message fixed cost in seconds.
    seconds_per_byte:
        Inverse bandwidth.
    """

    latency: float = 50e-6
    seconds_per_byte: float = 1.0e-9

    def __post_init__(self) -> None:
        if self.latency < 0 or self.seconds_per_byte < 0:
            raise ConfigurationError("communication costs must be >= 0")

    def p2p(self, nbytes: int) -> float:
        """Cost of one point-to-point message of ``nbytes``."""
        return self.latency + nbytes * self.seconds_per_byte

    def collective(self, nbytes: int, n_ranks: int) -> float:
        """Cost of a tree-structured collective over ``n_ranks``.

        Textbook model: ``ceil(log2 p)`` rounds, each costing one p2p
        message of the payload size.
        """
        if n_ranks <= 1:
            return 0.0
        rounds = ceil(log2(n_ranks))
        return rounds * self.p2p(nbytes)


def scatter(
    clocks: Sequence[VirtualClock], nbytes: int, model: CommCostModel
) -> None:
    """Scatter ``nbytes`` in total from rank 0 to every rank.

    The root pays one tree collective over the whole payload; every
    other rank receives at the root's departure time (tree pipelining
    is folded into the root-side charge).
    """
    depart = clocks[0].advance(model.collective(nbytes, len(clocks)))
    for clock in clocks[1:]:
        clock.sync_to(depart)


def barrier(clocks: Sequence[VirtualClock]) -> None:
    """Synchronize all ranks: every clock jumps to the latest one."""
    latest = max(clock.now for clock in clocks)
    for clock in clocks:
        clock.sync_to(latest)


def gather(
    clocks: Sequence[VirtualClock], nbytes: Sequence[int], model: CommCostModel
) -> None:
    """Gather one message per rank at rank 0 (``nbytes[r]`` from rank r).

    Each non-root rank pays one point-to-point send; the root waits for
    the latest departure, then pays one latency per received message.
    The root's own contribution stays local and costs nothing.
    """
    root = clocks[0]
    latest = root.now
    for clock, size in zip(clocks[1:], nbytes[1:]):
        latest = max(latest, clock.advance(model.p2p(size)))
    root.sync_to(latest)
    root.advance(model.latency * (len(clocks) - 1))
