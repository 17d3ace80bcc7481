"""Exception hierarchy for the LBE reproduction package.

Every error raised intentionally by :mod:`repro` derives from
:class:`ReproError`, so applications can catch the package's failures
without masking programming errors (``TypeError`` etc. propagate
unchanged).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all intentional errors raised by :mod:`repro`."""


def _brief(exc, fallback: str, fields) -> str:
    """One-line diagnosis of a worker or shard failure: the message's
    first line, the set ``(label, value)`` fields and the retry count
    in parentheses, then the flight-record path."""
    parts = [f"{label} {value}" for label, value in fields if value is not None]
    if exc.retries:
        parts.append(f"after {exc.retries} retr"
                     + ("y" if exc.retries == 1 else "ies"))
    summary = str(exc).splitlines()[0] if str(exc) else fallback
    suffix = f" ({', '.join(parts)})" if parts else ""
    if exc.flight_record:
        suffix += f" [flight record: {exc.flight_record}]"
    return f"{summary}{suffix}"


class InvalidSequenceError(ReproError, ValueError):
    """A peptide/protein sequence contains characters outside the
    canonical amino-acid alphabet or is empty where a non-empty
    sequence is required."""


class InvalidSpectrumError(ReproError, ValueError):
    """An experimental spectrum is malformed (negative masses,
    mismatched peak arrays, non-positive charge, ...)."""


class FormatError(ReproError, ValueError):
    """An on-disk file (FASTA / MS2) violates its format."""


class ConfigurationError(ReproError, ValueError):
    """A parameter object is inconsistent (e.g. min length > max
    length, zero ranks, unknown policy name)."""


class PartitionError(ReproError, RuntimeError):
    """A partitioning plan is infeasible or internally inconsistent
    (e.g. assignment is not a disjoint cover of the input)."""


class WorkerError(ReproError, RuntimeError):
    """A real-OS-process worker of the parallel backend failed: it
    raised (the message carries the remote traceback), died without
    reporting (the message carries the exit code), or exceeded the
    round deadline.

    Structured fields for supervision and one-line CLI diagnosis:

    Attributes
    ----------
    rank:
        Failing rank, or ``None`` when the failure is not per-rank.
    exit_code:
        The dead worker's exit code, or ``None`` when it raised or
        exceeded the deadline.
    retries:
        Retries the supervision layer spent on this rank before
        giving up (0 with retries disabled).
    flight_record:
        Path of the flight-recorder black box dumped when this error
        surfaced through a service, or ``None`` (no recorder, or the
        error never crossed the serving tier).
    """

    def __init__(
        self,
        message: str = "",
        *,
        rank: "int | None" = None,
        exit_code: "int | None" = None,
        retries: int = 0,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.exit_code = exit_code
        self.retries = retries
        self.flight_record: "str | None" = None

    @property
    def brief(self) -> str:
        """One-line diagnosis (rank, exit code, retry count, flight
        record) — what the CLI prints instead of a raw traceback."""
        return _brief(
            self,
            "worker failure",
            (("rank", self.rank), ("exit code", self.exit_code)),
        )


class ServiceError(ReproError, RuntimeError):
    """Misuse of the persistent search service or its worker pool
    (submit after close, admission queue full, batch submitted to a
    pool that was never attached, ...)."""


class PipelineError(ServiceError):
    """Misuse of the split dispatch/collect round protocol of the
    resident pool (a second dispatch while a round is still on the
    pipe, collecting a round twice, collecting a stale handle) or of
    the service's pipelined session built on top of it."""


class ShardError(ServiceError):
    """A database shard of the sharded serving tier failed a batch (its
    pool's retries exhausted without ``degraded_ok``), or the fleet's
    shard-merge found an inconsistency.  The sharded session itself
    survives — only the affected batch's future carries this error.

    Structured fields for supervision and one-line CLI diagnosis:

    Attributes
    ----------
    shard:
        Failing shard id, or ``None`` when the failure is fleet-wide.
    rank:
        The failing rank *within the shard's pool*, when the underlying
        cause was a single worker.
    retries:
        Retries the shard's supervision layer spent before giving up.
    flight_record:
        Path of the fleet flight-recorder black box dumped when this
        error surfaced, or ``None``.
    """

    def __init__(
        self,
        message: str = "",
        *,
        shard: "int | None" = None,
        rank: "int | None" = None,
        retries: int = 0,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.rank = rank
        self.retries = retries
        self.flight_record: "str | None" = None

    @property
    def brief(self) -> str:
        """One-line diagnosis (shard, rank, retry count, flight record)
        — what the CLI prints instead of a raw traceback."""
        return _brief(
            self, "shard failure", (("shard", self.shard), ("rank", self.rank))
        )
