"""Deterministic fault injection for the parallel backends.

Chaos testing a crash/respawn/retry contract needs faults that are
**schedulable** (fire at an exact ``(rank, batch, stage)`` coordinate),
**deterministic** (the same plan produces the same failure sequence on
every run), and **respawn-aware** (a fault that killed a worker must
not re-kill its replacement, or retries could never heal).  This
module is that harness:

* :class:`FaultSpec` — one scheduled fault: a *kind* (``crash`` /
  ``raise`` / ``hang`` / ``slow``) at a worker *stage* (``spawn`` /
  ``attach`` / ``query`` / ``reply``), optionally pinned to a rank and
  a batch index,
* :class:`FaultPlan` — an ordered set of specs plus a filesystem
  **ledger**: a once-only spec claims a marker file with
  ``O_CREAT | O_EXCL`` before firing, so it fires exactly once across
  the whole machine — including in the respawned replacement of the
  worker it just killed.  That is what makes "crash once, retry heals"
  a deterministic scenario instead of a race,
* env plumbing — :meth:`FaultPlan.to_env_value` /
  :meth:`FaultPlan.from_env` serialize a plan through the
  ``REPRO_FAULT_PLAN`` environment variable, which ``spawn`` workers
  inherit; the CLI chaos smoke drives a real ``repro serve`` session
  through it without any code hook.

Worker stages (where :func:`maybe_inject` is called):

========  ==============================================================
stage     fires
========  ==============================================================
spawn     at worker-process entry, before any command is read
          (``crash`` here = the classic crash-before-attach)
attach    after the ATTACH command was read, before its body runs
query     after a QUERY command was read, before the rank body runs
          (``crash`` here = crash-mid-query: state built, work lost)
reply     after the command body computed its result, **before** the
          result is sent (``crash`` here = computed-but-unreported)
========  ==============================================================

Fault kinds:

========  ==============================================================
kind      effect at the injection point
========  ==============================================================
crash     ``os._exit(exit_code)`` — death without a report
raise     raise :class:`FaultInjected` — travels the error-reply path,
          the worker stays alive and pipe-synchronized
hang      sleep ``seconds`` (default far beyond any deadline) — the
          round's deadline must kill the worker
slow      sleep ``seconds`` (plus ``scale`` × the command body's own
          wall time at the ``reply`` stage) then continue normally — a
          straggler, not a failure (hedging bait)
========  ==============================================================

A one-shot ``slow`` fault models a transient straggler; a
*chronically* slow worker (an oversubscribed or down-clocked host) is
a ``slow`` spec with ``every_batch=True``: it re-fires on **every**
matching batch, bypassing the once-ledger entirely, and with
``scale=k`` at the ``reply`` stage it stretches each batch to
``(1 + k)`` × the rank's real work time — exactly the multiplicative
skew a heterogeneity-aware rebalancer must detect and absorb.

Everything here is plain stdlib so the module imports in a bare spawn
worker before any heavy package machinery.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import weakref
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "FAULT_KINDS",
    "FAULT_STAGES",
    "FAULT_PLAN_ENV",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "maybe_inject",
]

FAULT_KINDS = ("crash", "raise", "hang", "slow")
FAULT_STAGES = ("spawn", "attach", "query", "reply")

#: Environment variable carrying a JSON-serialized :class:`FaultPlan`
#: into spawned workers (and whole CLI sessions, for chaos smokes).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Default hang duration: far beyond any sane round deadline, so a
#: ``hang`` fault is always resolved by the deadline, never by luck.
_HANG_DEFAULT_S = 3600.0


class FaultInjected(ReproError, RuntimeError):
    """The error a ``raise``-kind injected fault throws inside a worker."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    stage:
        One of :data:`FAULT_STAGES` — where in the worker loop the
        fault fires.
    rank:
        Rank to fault, or ``None`` for any rank.
    batch:
        Batch index to fault (matched against the payload's
        ``batch_index`` when it has one, else the worker's own QUERY
        ordinal), or ``None`` for any batch.  ``spawn``/``attach``
        stages have no batch; a batch-pinned spec never matches them.
    seconds:
        Sleep duration for ``slow`` (default 0.05) and ``hang``
        (default one hour — deadlines must resolve hangs).
    exit_code:
        The ``crash`` kind's ``os._exit`` code.
    once:
        Fire at most once machine-wide (via the plan's ledger) — the
        default, so a crashed worker's respawned replacement survives
        and retries can heal.  ``False`` re-fires on every match (a
        persistent fault: retries exhaust, degradation kicks in).
    every_batch:
        Recurring straggler mode for ``slow`` faults: re-fire on every
        matching batch, never consulting the once-ledger (``once`` is
        ignored).  Requires a batch-bearing stage (``query`` or
        ``reply``).  This is how a *chronically* slow rank is modeled.
    scale:
        Multiplicative slowdown for ``slow`` faults: at the ``reply``
        stage (where the command body's wall time is known) the sleep
        is ``seconds + scale × work_s``, so ``scale=2.0`` makes the
        rank run at 1/3 speed regardless of how much work it holds.
        Ignored at stages with no measured work.
    """

    kind: str
    stage: str
    rank: Optional[int] = None
    batch: Optional[int] = None
    seconds: float = 0.0
    exit_code: int = 17
    once: bool = True
    every_batch: bool = False
    scale: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} (have {FAULT_KINDS})"
            )
        if self.stage not in FAULT_STAGES:
            raise ConfigurationError(
                f"unknown fault stage {self.stage!r} (have {FAULT_STAGES})"
            )
        if self.seconds < 0:
            raise ConfigurationError(
                f"fault seconds must be >= 0, got {self.seconds}"
            )
        if self.scale < 0:
            raise ConfigurationError(
                f"fault scale must be >= 0, got {self.scale}"
            )
        if (self.every_batch or self.scale) and self.kind != "slow":
            raise ConfigurationError(
                "every_batch/scale only apply to 'slow' faults, "
                f"got kind {self.kind!r}"
            )
        if self.every_batch and self.stage not in ("query", "reply"):
            raise ConfigurationError(
                "every_batch requires a batch-bearing stage "
                f"('query'/'reply'), got {self.stage!r}"
            )

    def matches(self, rank: int, stage: str, batch: Optional[int]) -> bool:
        """True when this spec fires at ``(rank, stage, batch)``."""
        if self.stage != stage:
            return False
        if self.rank is not None and self.rank != rank:
            return False
        if self.batch is not None and (batch is None or self.batch != batch):
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultSpec` plus a once-only ledger.

    The ledger directory makes ``once=True`` hold machine-wide and
    across respawns: before firing, a once-only spec atomically claims
    ``<ledger_dir>/spec<i>.fired`` — whichever process creates the
    marker first fires the fault; everyone else (including the
    respawned replacement of the worker the fault killed) skips it.
    Without a ledger, ``once`` is only per-process (a respawned worker
    starts fresh) — use :meth:`scoped` in tests.
    """

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)
    ledger_dir: Optional[str] = None

    @classmethod
    def scoped(cls, *specs: FaultSpec) -> "FaultPlan":
        """A plan with a fresh private ledger tmpdir (test harness).

        The plan owns the ledger: a ``weakref.finalize`` removes it when
        the plan is collected (or at interpreter exit), and its
        ``owner.pid`` marker lets
        :func:`~repro.parallel.shared_arena.sweep_stale_stores` reap it
        once this process is gone without running finalizers.
        """
        from repro.parallel.shared_arena import write_owner_marker

        ledger = tempfile.mkdtemp(prefix="repro-faults-")
        plan = cls(tuple(specs), ledger)
        weakref.finalize(plan, shutil.rmtree, ledger, ignore_errors=True)
        write_owner_marker(ledger)
        return plan

    # -- firing ----------------------------------------------------------

    def fire(
        self,
        rank: int,
        stage: str,
        batch: Optional[int] = None,
        *,
        work_s: float = 0.0,
    ) -> None:
        """Execute every matching spec (in order) at this coordinate.

        ``work_s`` is the command body's measured wall time, known only
        at the ``reply`` stage — ``scale``-bearing slow specs stretch it.
        """
        for index, spec in enumerate(self.specs):
            if not spec.matches(rank, stage, batch):
                continue
            # Recurring stragglers bypass the ledger: they fire on every
            # matching batch, in this worker and any respawned successor.
            if not spec.every_batch and spec.once and not self._claim(index):
                continue
            self._execute(spec, rank, stage, batch, work_s=work_s)

    def _claim(self, index: int) -> bool:
        """Atomically claim once-only spec ``index``; True = we fire."""
        if self.ledger_dir is None:
            # No ledger: per-process only.  A module-level set keeps
            # once-semantics within one interpreter.
            key = (id(self), index)
            if key in _LOCAL_FIRED:
                return False
            _LOCAL_FIRED.add(key)
            return True
        try:
            os.makedirs(self.ledger_dir, exist_ok=True)
            fd = os.open(
                os.path.join(self.ledger_dir, f"spec{index}.fired"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        except OSError:
            return True  # unclaimable ledger: fail open (fire)
        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
        os.close(fd)
        return True

    @staticmethod
    def _execute(
        spec: FaultSpec,
        rank: int,
        stage: str,
        batch: Optional[int],
        *,
        work_s: float = 0.0,
    ) -> None:
        where = f"rank {rank} stage {stage!r}" + (
            f" batch {batch}" if batch is not None else ""
        )
        if spec.kind == "slow":
            delay = spec.seconds + spec.scale * max(work_s, 0.0)
            time.sleep(delay if delay > 0 else 0.05)
        elif spec.kind == "hang":
            time.sleep(spec.seconds or _HANG_DEFAULT_S)
        elif spec.kind == "raise":
            raise FaultInjected(f"injected fault at {where}")
        elif spec.kind == "crash":
            os._exit(spec.exit_code)

    # -- serialization (env plumbing through worker spawn) ---------------

    def to_json(self) -> str:
        """JSON form (what :data:`FAULT_PLAN_ENV` carries)."""
        return json.dumps(
            {
                "specs": [asdict(spec) for spec in self.specs],
                "ledger_dir": self.ledger_dir,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse :meth:`to_json` output; absent spec keys take defaults."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(
                f"malformed fault plan JSON: {exc}"
            ) from None
        specs = tuple(
            FaultSpec(**entry) for entry in data.get("specs", ())
        )
        return cls(specs, data.get("ledger_dir"))

    to_env_value = to_json

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan in :data:`FAULT_PLAN_ENV`, or ``None`` when unset."""
        text = os.environ.get(FAULT_PLAN_ENV, "").strip()
        if not text:
            return None
        return cls.from_json(text)


#: Per-process once-only memory for ledgerless plans.
_LOCAL_FIRED: set = set()


def maybe_inject(
    plan: Optional[FaultPlan],
    rank: int,
    stage: str,
    batch: Optional[int] = None,
    *,
    work_s: float = 0.0,
) -> None:
    """Fire ``plan``'s matching faults, or do nothing for ``plan=None``.

    The single call sites in the worker loops stay one line; the
    fault-free fast path is one ``is None`` check.  ``work_s`` carries
    the command body's wall time into ``scale``-bearing slow faults
    (only the ``reply`` call site knows it).
    """
    if plan is not None:
        plan.fire(rank, stage, batch, work_s=work_s)
