"""Worker-side rank programs (module-level, picklable by reference).

``spawn`` workers import the function they run by qualified name, so
everything a :class:`~repro.parallel.persistent.PersistentPool`
executes must live at module scope in an importable module.  This
module holds

* :func:`service_attach_worker` / :func:`service_query_worker` — the
  rank body (the same :mod:`repro.search.rank` code the simulated
  engine runs, plus real wall/CPU phase timings) split at the
  attach/query boundary: attach opens the memmap-shared arena store
  and builds the partial index **once**, then every query round
  unpacks the batch's flat columns straight out of its
  :class:`QueryTask` — no file per batch,
* the attach's last step, :func:`~repro.util.heap.release_heap`: with
  the store unmapped, the build's freed heap goes back to the OS, so a
  resident worker holds its index, not its build peak,
* tiny diagnostic programs (the ``resident_*`` family) used by the
  pool's tests and for smoke-checking a deployment.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ServiceError
from repro.index.slm import SLMIndexSettings
from repro.parallel.shared_arena import SharedArenaStore
from repro.search.rank import (
    build_rank_index,
    run_rank_queries,
    summarize_rank_output,
)
from repro.spectra.packed import PackedSpectra
from repro.util.heap import release_heap

__all__ = [
    "AttachTask",
    "QueryTask",
    "service_attach_worker",
    "service_query_worker",
]


# -- persistent-service rank programs ----------------------------------


@dataclass(frozen=True)
class AttachTask:
    """One resident worker's session-scoped state recipe (picklable).

    Pickled **once per session** (and again only on a respawn): the
    arena-store path, the rank's entry-id manifest, and the index
    settings.  The bulk fragment data stays behind ``store_dir``.
    """

    store_dir: str
    entry_ids: np.ndarray
    settings: SLMIndexSettings


@dataclass(frozen=True)
class QueryTask:
    """One resident worker's per-batch command (picklable).

    This is the whole per-batch scatter: the preprocessed batch as
    flat columns plus scalars, one message per rank.  The session
    hands every rank the *same* task object, so the pool pickles it
    once per round and writes that one buffer to each pipe (the
    payload-accounting assertions in the service suite pin this
    down).  ``batch_index`` is echoed back in the report so the
    pipelined session can assert that the replies it collects belong
    to the batch it dispatched (a torn round could otherwise be
    merged silently into the wrong future).
    """

    spectra: PackedSpectra
    top_k: int
    batch_index: int = -1


def service_attach_worker(rank: int, size: int, task: AttachTask) -> tuple:
    """ATTACH body: build this rank's resident index state, once.

    Returns ``(state, report)`` per the persistent-pool attach
    contract — the worker keeps ``state`` (sub-arena, partial index,
    manifest) across batches; the report carries partial-index stats
    and real attach-phase seconds back to the master.  The state holds
    private copies only: the store is unmapped and the build's heap
    released before returning (a rebalance migration or a respawn runs
    this same body, so it releases too).
    """
    t0 = time.perf_counter()
    store = SharedArenaStore.open(task.store_dir)
    arena = store.load(mmap_mode="r")
    open_wall = time.perf_counter() - t0

    t0, c0 = time.perf_counter(), time.process_time()
    entry_ids = np.asarray(task.entry_ids, dtype=np.int64)
    sub_arena, index = build_rank_index(arena, entry_ids, task.settings)
    build_wall = time.perf_counter() - t0
    build_cpu = time.process_time() - c0
    del store, arena
    release_heap()

    state = {
        "index": index,
        "sub_arena": sub_arena,
        "entry_ids": entry_ids,
        "build_s": build_wall,
    }
    report = {
        "rank": rank,
        "n_entries": len(index),
        "n_ions": index.n_ions,
        "open_s": open_wall,
        "build_s": build_wall,
        "build_cpu_s": build_cpu,
    }
    return state, report


def service_query_worker(rank: int, size: int, state: dict, task: QueryTask) -> dict:
    """QUERY body: run one batch against the resident index state.

    Unpacks the batch's columns into slice views and runs the exact
    rank body every other backend runs, so session results are
    bit-identical to the serial engine by construction.  The report
    also carries the resident index's size and build seconds, so each
    batch's rank stats come from its own replies alone.
    """
    if state is None:
        raise ServiceError(
            f"worker {rank} received a query before any attach"
        )
    t0 = time.perf_counter()
    # Structure only: the master validated the values before sending.
    defect = task.spectra.defect()
    if defect is not None:
        raise ServiceError(f"refusing a torn batch: {defect}")
    spectra = task.spectra.to_spectra()
    open_wall = time.perf_counter() - t0

    t0, c0 = time.perf_counter(), time.process_time()
    out = run_rank_queries(
        state["index"],
        state["sub_arena"],
        state["entry_ids"],
        spectra,
        top_k=task.top_k,
    )
    query_wall = time.perf_counter() - t0
    query_cpu = time.process_time() - c0

    report = summarize_rank_output(out)
    report.update(
        rank=rank,
        batch_index=task.batch_index,
        n_entries=len(state["index"]),
        n_ions=state["index"].n_ions,
        build_s=state["build_s"],
        open_s=open_wall,
        query_s=query_wall,
        query_cpu_s=query_cpu,
        # Worker-side spans as (name, start, dur) seconds *relative to
        # this command's arrival*; a ``perf_counter`` reading is not
        # comparable across processes, so the master re-anchors these
        # on its own clock, at the dispatch plus the pool's ``sent_s``
        # (see ``worker_spans_from_report``).  Riding
        # the existing reply payload keeps the pipe protocol at one
        # round per batch.
        spans=(
            ("worker.open", 0.0, open_wall),
            ("worker.query", open_wall, query_wall),
        ),
    )
    return report


# -- diagnostic programs (pool tests / deployment smoke checks) --------


def resident_attach(rank: int, size: int, payload) -> tuple:
    """Minimal ATTACH body: state remembers the payload and this PID."""
    return {"payload": payload, "pid": os.getpid()}, {
        "rank": rank,
        "attached": payload,
        "pid": os.getpid(),
    }


def resident_attach_flagged(rank: int, size: int, payload) -> tuple:
    """ATTACH body with master-armed one-shot faults.

    ``payload`` is ``(value, delay_s, flags)``: the attach sleeps
    ``delay_s`` seconds, then — while a file named in ``flags`` exists
    — deletes the first such file and hard-exits (code 7), or for a
    ``*.hang`` flag sleeps far past any test deadline.  Otherwise it
    is :func:`resident_attach` of ``value``.
    """
    value, delay_s, flags = payload
    time.sleep(delay_s)
    for flag in flags:
        if os.path.exists(flag):
            os.remove(flag)
            if flag.endswith(".hang"):
                time.sleep(600.0)
            os._exit(7)
    return resident_attach(rank, size, value)


def resident_echo(rank: int, size: int, state, payload) -> tuple:
    """QUERY body proving state survives batches: echo state + payload."""
    return rank, state["payload"], payload, state["pid"], os.getpid()


def resident_crash(rank: int, size: int, state, payload) -> tuple:
    """Raise on the rank given in ``payload`` (others echo)."""
    if rank == payload:
        raise ValueError(f"deliberate resident crash on rank {rank}")
    return rank, state["payload"]


def resident_exit(rank: int, size: int, state, payload) -> None:
    """Hard-exit mid-batch (no report) on the rank given in ``payload``."""
    if rank == payload:
        os._exit(21)


def resident_sleep(rank: int, size: int, state, payload) -> float:
    """Sleep ``payload`` seconds — per-batch deadline testing."""
    time.sleep(float(payload))
    return float(payload)


def resident_unpicklable_result(rank: int, size: int, state, payload):
    """Return something the reply pipe cannot pickle."""
    return lambda: rank
