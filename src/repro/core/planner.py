"""LBE planning: the search parameters, and group → partition → manifests.

:class:`SearchParams` holds the planning and search decisions every
execution backend shares (policy, grouping, index and preprocessing
settings, ``top_k``); the simulated engine's
:class:`~repro.search.engine.EngineConfig` and the real-process
:class:`~repro.service.service.ServiceConfig` both inherit it, so each
decision is declared and validated once.

:func:`make_lbe_plan` runs the full Section-III pipeline over an
:class:`~repro.search.database.IndexedDatabase` and returns an
:class:`LBEPlan`, the single object every backend needs: which entries
each rank indexes (in local-id order) plus the master's mapping table
back to global entry ids.  It is the only plan constructor, so every
backend runs the same plan and their results compare rank for rank.

The plan operates on *base* peptide sequences (the paper clusters
unmodified sequences; "the normal peptide sequences and their modified
variants are considered to be part of the same data group",
Section III-C).  Each base's modified variants follow it to its rank:
a rank's manifest is the concatenation of its bases' entry ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.core.grouping import Grouping, GroupingConfig
from repro.core.mapping import MappingTable
from repro.core.partition import POLICIES, PartitionAssignment, make_policy
from repro.core.predict import WorkModel  # registers "lpt" in POLICIES
from repro.errors import ConfigurationError
from repro.index.arena import concat_ranges
from repro.index.slm import SLMIndexSettings
from repro.spectra.preprocess import PreprocessConfig

if TYPE_CHECKING:
    from repro.search.database import IndexedDatabase

__all__ = [
    "SearchParams",
    "LBEPlan",
    "make_lbe_plan",
    "structural_weights",
    "changed_ranks",
]


@dataclass(frozen=True, slots=True)
class SearchParams:
    """The search parameters every execution backend shares.

    Attributes
    ----------
    policy:
        Partition policy name, a key of
        :data:`~repro.core.partition.POLICIES`: ``chunk`` / ``cyclic``
        / ``random`` / ``lpt`` (predictive, weighted by per-rank
        speeds).
    policy_seed:
        Seed for the Random policy's shuffles.
    grouping:
        Algorithm 1 parameters.
    index:
        SLM index/query settings.
    preprocess:
        Query peak-picking settings.
    top_k:
        PSMs retained per spectrum.
    """

    policy: str = "cyclic"
    policy_seed: int = 0
    grouping: GroupingConfig = GroupingConfig()
    index: SLMIndexSettings = field(default_factory=SLMIndexSettings)
    preprocess: PreprocessConfig = PreprocessConfig()
    top_k: int = 5

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {self.top_k}")
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; available: {sorted(POLICIES)}"
            )


@dataclass(frozen=True, slots=True)
class LBEPlan:
    """A complete data-distribution plan.

    Attributes
    ----------
    grouping:
        Output of Algorithm 1 over the base sequences.
    assignment:
        Rank assignment over grouped-order positions.
    mapping:
        Master mapping table: (rank, local id) → global entry id.
    n_ranks:
        Number of ranks.
    """

    grouping: Grouping
    assignment: PartitionAssignment
    mapping: MappingTable
    n_ranks: int

    def rank_global_ids(self, rank: int) -> np.ndarray:
        """Global entry ids indexed by ``rank``, in local-id order."""
        return self.mapping.globals_of(rank)

    def partition_sizes(self) -> np.ndarray:
        """Entries per rank."""
        return np.array(
            [self.mapping.rank_size(r) for r in range(self.n_ranks)], dtype=np.int64
        )

    def rank_loads(self, weights: np.ndarray) -> np.ndarray:
        """Per-rank predicted work under this plan.

        ``weights`` is indexed by the grouping's *input* space (for the
        engine's plans: base peptide id — e.g. the structural
        :class:`~repro.core.predict.WorkModel` prediction); rank
        ``r``'s load sums over its assigned items.  This is what live
        rebalancing divides observed wall times by to turn "rank 1 is
        slow" into "rank 1's *speed* is 1/3" — a rank holding half the
        work *should* take longer.
        """
        weights = np.asarray(weights, dtype=np.float64)
        loads = np.empty(self.n_ranks, dtype=np.float64)
        for rank in range(self.n_ranks):
            items = self.grouping.order[self.assignment.members(rank)]
            loads[rank] = float(weights[items].sum())
        return loads


def changed_ranks(old: LBEPlan, new: LBEPlan) -> List[int]:
    """Ranks of ``new`` whose manifest differs from ``old``'s.

    The live-migration diff: only these ranks need a re-attach (their
    resident index no longer matches the plan); every other rank keeps
    its state untouched.  Ranks beyond ``old.n_ranks`` (pool growth)
    are always included; a shrink needs no entry here — the surplus
    ranks are simply retired.  Manifests are compared in local-id
    order, because that order *is* the index layout.
    """
    out: List[int] = []
    for rank in range(new.n_ranks):
        if rank >= old.n_ranks or not np.array_equal(
            old.rank_global_ids(rank), new.rank_global_ids(rank)
        ):
            out.append(rank)
    return out


def structural_weights(database: "IndexedDatabase") -> np.ndarray:
    """Per-base predicted work: the ``lpt`` weights.

    The structural :class:`~repro.core.predict.WorkModel` over each
    base's entry count and length; :meth:`LBEPlan.rank_loads` turns it
    into per-rank loads for speed inference and re-planning.
    """
    return WorkModel().structural(
        database.entry_counts(),
        np.array([p.length for p in database.base_peptides], dtype=np.float64),
    )


def make_lbe_plan(
    database: "IndexedDatabase",
    *,
    n_ranks: int,
    policy: str,
    policy_seed: int = 0,
    grouping: GroupingConfig = GroupingConfig(),
    rank_speeds: Sequence[float] | None = None,
) -> LBEPlan:
    """Partition ``database`` at *base-sequence* granularity, then expand.

    The paper's clustered FASTA holds peptide sequences; each machine
    extracts its sequence partition and SLM-Transform enumerates the
    modified variants locally (Section III-D), so a base peptide and
    all its variants are colocated by construction.  The mapping table
    is still in entry-id space: each rank's entry manifest is the
    concatenation of its bases' contiguous entry ranges.

    ``rank_speeds`` feeds the predictive ``lpt`` policy (relative
    per-rank speeds; ``None`` = homogeneous).
    """
    if n_ranks < 1:
        raise ConfigurationError(f"n_ranks must be >= 1, got {n_ranks}")
    base_grouping = database.group_bases(grouping)
    if policy == "lpt":
        # Predictive policy (paper §VIII): structural work model over
        # the bases; speeds come from the caller's machine model.
        speeds = (
            list(rank_speeds) if rank_speeds is not None else [1.0] * n_ranks
        )
        policy_obj = make_policy(
            policy, weights=structural_weights(database), speeds=speeds
        )
    else:
        policy_obj = make_policy(policy, seed=policy_seed)
    assignment: PartitionAssignment = policy_obj.assign(base_grouping, n_ranks)
    offsets = database.entry_offsets
    per_rank_entries = []
    for rank in range(n_ranks):
        base_ids = base_grouping.order[assignment.members(rank)]
        per_rank_entries.append(
            concat_ranges(offsets[base_ids], offsets[base_ids + 1])
        )
    return LBEPlan(
        grouping=base_grouping,
        assignment=assignment,
        mapping=MappingTable(per_rank_entries),
        n_ranks=n_ranks,
    )
