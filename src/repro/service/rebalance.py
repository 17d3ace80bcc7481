"""LI-triggered elastic rebalancing for live search sessions.

The LBE paper computes its load-balanced plan **once, offline**; its
stated next step — and HiCOPS's observed reality — is that on
heterogeneous or oversubscribed hosts a frozen partition drifts into
*sustained* load imbalance that no per-batch retry can fix: the slow
rank is not failing, it is just slow, every batch, forever.  This
module is the decision side of the fix:

* :class:`RebalanceConfig` — the knobs (`ServiceConfig` carries one, so
  every shard of a sharded tier gets its *own* independent policy
  instance from the same frozen config).
* :class:`RebalancePolicy` — a stateful watcher fed one
  :class:`~repro.service.service.BatchStats` worth of per-rank
  wall/CPU vectors per batch.  Over a sliding window of ``window``
  batches it recomputes the paper's Eq.-1 LI; when the window's LI
  stays at or above ``li_threshold`` (or any rank is chronically slow —
  inferred speed below ``slow_rank_speed``), it emits a
  :class:`RebalanceDecision` carrying per-rank **speed weights**
  inferred from the observed walls (see
  :func:`~repro.search.rank.observed_rank_speeds`: observed wall is
  divided by the rank's *predicted work share*, so "overloaded" and
  "slow host" separate cleanly).
* Escalation: when a *second* consecutive window still trips after a
  speeds-only migration, the decision also grows the worker pool by
  one — re-weighting cannot beat a saturated pool.  Growth requires
  ``max_workers`` to be set (and is clamped to it): an unbounded
  session never scales itself.  Shrinking is never automatic; callers
  shrink explicitly
  (:meth:`~repro.service.service.SearchService.rebalance`).

The policy only *decides*; the service migrates between rounds (drain
the in-flight round, swap plans, re-attach exactly the changed ranks)
and the pool actuates
(:meth:`~repro.parallel.persistent.PersistentPool.reconfigure`).
Because a plan changes *which rank scores what* and never *what is
scored*, results stay bit-identical to the serial engine across every
migration — the tests enforce exactly that.

Why wall/CPU vectors and not just the LI scalar?  The LI gauge
(``service.batch_li_wall``, windowed via
:meth:`~repro.obs.metrics.Gauge.read_watermarks`) is the cheap *alarm*;
the full vectors are the *diagnosis* — they say which rank is slow and
by how much, which is what the speed weights need.  The decision also
reports the per-rank CPU/wall ratios: a rank starved of CPU
(oversubscribed host) shows ``cpu/wall << 1`` while a down-clocked
host shows ``cpu/wall ≈ 1`` — both are absorbed the same way (smaller
share), but the trace event tells the operator which disease they
have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.search.metrics import load_imbalance
from repro.search.rank import observed_rank_speeds

__all__ = ["RebalanceConfig", "RebalanceDecision", "RebalancePolicy"]


@dataclass(frozen=True, slots=True)
class RebalanceConfig:
    """Trigger thresholds and elasticity bounds for one session.

    Attributes
    ----------
    li_threshold:
        Eq.-1 LI level that counts as imbalanced.  A window whose mean
        LI reaches it (or that contains a chronically slow rank) trips
        the trigger.
    window:
        Batches per decision window; the policy decides at most once
        per window, from window-mean walls (single-batch noise never
        migrates a session).
    cooldown:
        Windows to sit out after a migration, letting the new plan
        produce a full untainted window before being judged.
    min_workers / max_workers:
        Pool-size clamp for elastic scaling, and the one place the
        bounds are checked and applied (:meth:`clamp`).  ``None`` pins
        the size (no automatic growth; explicit resizes are still
        clamped when bounds are set, through
        :meth:`~repro.service.service.ServiceConfig.worker_bounds`).
    slow_rank_speed:
        Chronic-slow-rank trip wire: any rank whose inferred relative
        speed falls below this triggers even when the aggregate LI
        does not (one slow rank of many barely moves the mean).
    """

    li_threshold: float = 0.5
    window: int = 4
    cooldown: int = 1
    min_workers: Optional[int] = None
    max_workers: Optional[int] = None
    slow_rank_speed: float = 0.5

    def __post_init__(self) -> None:
        if self.li_threshold < 0:
            raise ConfigurationError(
                f"li_threshold must be >= 0, got {self.li_threshold}"
            )
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")
        if self.cooldown < 0:
            raise ConfigurationError(
                f"cooldown must be >= 0, got {self.cooldown}"
            )
        if self.min_workers is not None and self.min_workers < 1:
            raise ConfigurationError(
                f"min_workers must be >= 1, got {self.min_workers}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if (
            self.min_workers is not None
            and self.max_workers is not None
            and self.min_workers > self.max_workers
        ):
            raise ConfigurationError(
                f"min_workers {self.min_workers} > max_workers "
                f"{self.max_workers}"
            )
        if not 0.0 <= self.slow_rank_speed < 1.0:
            raise ConfigurationError(
                f"slow_rank_speed must be in [0, 1), got {self.slow_rank_speed}"
            )

    def clamp(self, n_workers: int) -> int:
        """``n_workers`` forced inside the configured bounds."""
        if self.min_workers is not None:
            n_workers = max(n_workers, self.min_workers)
        if self.max_workers is not None:
            n_workers = min(n_workers, self.max_workers)
        return max(n_workers, 1)


@dataclass(frozen=True, slots=True)
class RebalanceDecision:
    """One tripped window: what the new plan should look like.

    ``speeds`` are relative per-rank speeds (unit mean) for the
    **current** rank space; when ``n_workers`` differs from the
    current count the service extends/truncates them (a grown rank
    starts at the mean speed 1.0 — it has no history).
    """

    speeds: Tuple[float, ...]
    n_workers: int
    window_li: float
    reason: str
    cpu_wall_ratio: Tuple[float, ...] = ()


class RebalancePolicy:
    """Sliding-window LI watcher producing :class:`RebalanceDecision`.

    Parameters
    ----------
    config:
        Thresholds and bounds.
    n_workers:
        The current rank-vector width; observations of any other width
        are discarded (they straddle a resize) and restart the window.
    work_shares:
        Per-rank predicted work under the *current* plan (see
        :meth:`~repro.core.planner.LBEPlan.rank_loads`), the
        denominator of the speed inference.  The service refreshes it
        via :meth:`rebalanced` after every migration.
    """

    def __init__(
        self,
        config: RebalanceConfig,
        n_workers: int,
        work_shares: Optional[np.ndarray] = None,
    ) -> None:
        self.config = config
        self.n_workers = int(n_workers)
        self.work_shares = (
            np.ones(self.n_workers)
            if work_shares is None
            else np.asarray(work_shares, dtype=np.float64)
        )
        self._walls: List[np.ndarray] = []
        self._cpus: List[np.ndarray] = []
        self._cooldown = 0
        self._consecutive_trips = 0
        self.trigger_total = 0

    def rebalanced(
        self, n_workers: int, work_shares: np.ndarray
    ) -> None:
        """Adopt a migrated plan: new shares, fresh window, cooldown on.

        The escalation streak deliberately survives: it counts tripped
        windows *including* the one that caused this migration, so a
        window that still trips after a speeds-only migration is the
        "second consecutive trip" that grows the pool.  Only a calm
        window (in :meth:`observe`) resets it.
        """
        self.n_workers = int(n_workers)
        self.work_shares = np.asarray(work_shares, dtype=np.float64)
        self._walls.clear()
        self._cpus.clear()
        self._cooldown = self.config.cooldown

    def observe(
        self, query_wall_s: Tuple[float, ...], query_cpu_s: Tuple[float, ...]
    ) -> Optional[RebalanceDecision]:
        """Feed one batch's per-rank vectors; maybe return a decision.

        Returns ``None`` until a full window accumulated; a completed
        window either trips (decision returned, counted in
        ``trigger_total``) or resets the escalation streak.
        """
        walls = np.asarray(query_wall_s, dtype=np.float64)
        if walls.size != self.n_workers:
            # Straddles a resize the policy has not been told about
            # yet — stale vector, not a signal.
            return None
        self._walls.append(walls)
        self._cpus.append(np.asarray(query_cpu_s, dtype=np.float64))
        if len(self._walls) < self.config.window:
            return None
        mean_walls = np.mean(self._walls, axis=0)
        mean_cpus = np.mean(self._cpus, axis=0)
        self._walls.clear()
        self._cpus.clear()
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        window_li = load_imbalance(mean_walls)
        speeds = observed_rank_speeds(self.work_shares, mean_walls)
        # The chronic-slow tripwire is gated on *residual* imbalance:
        # a correctly compensated plan keeps a slow host's inferred
        # speed low forever (that is the host, not the plan), so
        # absolute speed alone would re-migrate an already balanced
        # session every window.
        slow = (
            float(speeds.min()) < self.config.slow_rank_speed
            and window_li >= 0.5 * self.config.li_threshold
        )
        if window_li < self.config.li_threshold and not slow:
            self._consecutive_trips = 0
            return None
        self._consecutive_trips += 1
        self.trigger_total += 1
        # Escalate to pool growth only when a speeds-only migration
        # already failed to calm the same session down — and only when
        # growth was authorized by setting ``max_workers`` (an
        # unbounded session never scales itself).
        n_workers = self.n_workers
        reason = "slow_rank" if slow and window_li < self.config.li_threshold else "li"
        if self._consecutive_trips >= 2 and self.config.max_workers is not None:
            grown = self.config.clamp(self.n_workers + 1)
            if grown > self.n_workers:
                n_workers = grown
                reason = "escalate_grow"
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(mean_walls > 0, mean_cpus / mean_walls, 0.0)
        return RebalanceDecision(
            speeds=tuple(float(s) for s in speeds),
            n_workers=n_workers,
            window_li=float(window_li),
            reason=reason,
            cpu_wall_ratio=tuple(float(r) for r in ratio),
        )
