"""Data distribution policies — Section III-D of the paper.

A policy assigns every position of the *grouped order* (the output of
Algorithm 1) to one of ``p`` ranks:

* :class:`ChunkPolicy` — the conventional scheme: split the grouped
  order into ``p`` contiguous blocks.  Keeps similarity neighbourhoods
  on single ranks → imbalanced querying (paper Fig. 2).
* :class:`CyclicPolicy` — round-robin *within each group*.  The
  paper's formula (``i mod m = 0``) is a typo for round-robin; we
  continue the robin across group boundaries so partial groups do not
  systematically favour rank 0 (within any single group the assignment
  is still a perfect round-robin).
* :class:`RandomPolicy` — per-group shuffle, then chunk-split the
  shuffled group ("shuffled and split using the Chunk policy"); the
  split's rank offset rotates across groups so small groups spread.

Every policy returns a :class:`PartitionAssignment`, which validates
that the assignment is a disjoint cover and offers balance statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Type

import numpy as np

from repro.core.grouping import Grouping
from repro.errors import ConfigurationError, PartitionError
from repro.util.rng import rng_from

__all__ = [
    "PartitionAssignment",
    "PartitionPolicy",
    "ChunkPolicy",
    "CyclicPolicy",
    "RandomPolicy",
    "make_policy",
    "POLICIES",
]


@dataclass(frozen=True, slots=True)
class PartitionAssignment:
    """Assignment of grouped-order positions to ranks.

    Attributes
    ----------
    rank_of:
        ``rank_of[k]`` = owning rank of grouped-order position ``k``.
    n_ranks:
        Number of ranks ``p``.
    policy_name:
        The generating policy (for reporting).
    """

    rank_of: np.ndarray
    n_ranks: int
    policy_name: str

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ConfigurationError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if self.rank_of.size:
            lo, hi = int(self.rank_of.min()), int(self.rank_of.max())
            if lo < 0 or hi >= self.n_ranks:
                raise PartitionError(
                    f"rank assignment outside [0, {self.n_ranks}): [{lo}, {hi}]"
                )

    @property
    def n_items(self) -> int:
        """Number of assigned positions."""
        return int(self.rank_of.size)

    def members(self, rank: int) -> np.ndarray:
        """Grouped-order positions owned by ``rank`` (ascending)."""
        if not 0 <= rank < self.n_ranks:
            raise ConfigurationError(f"rank {rank} outside [0, {self.n_ranks})")
        return np.flatnonzero(self.rank_of == rank)

    def counts(self) -> np.ndarray:
        """Items per rank, length ``n_ranks``."""
        return np.bincount(self.rank_of, minlength=self.n_ranks).astype(np.int64)

    def count_imbalance(self) -> float:
        """(max - mean) / mean of per-rank item counts (0 when empty)."""
        counts = self.counts()
        mean = counts.mean() if counts.size else 0.0
        if mean == 0:
            return 0.0
        return float((counts.max() - mean) / mean)

    def per_group_spread(self, grouping: Grouping) -> np.ndarray:
        """Distinct ranks touched by each group.

        Fine-grained policies score close to ``min(group size, p)``;
        Chunk scores close to 1.  Used by the ablation benchmarks.
        """
        bounds = grouping.group_bounds()
        out = np.zeros(grouping.n_groups, dtype=np.int64)
        for g in range(grouping.n_groups):
            out[g] = np.unique(self.rank_of[bounds[g] : bounds[g + 1]]).size
        return out


class PartitionPolicy:
    """Base class; subclasses implement :meth:`assign`."""

    #: Registry/reporting name, set by subclasses.
    name: str = "abstract"

    def assign(self, grouping: Grouping, n_ranks: int) -> PartitionAssignment:
        """Assign every grouped-order position to a rank."""
        raise NotImplementedError

    @staticmethod
    def _check(n_ranks: int) -> None:
        if n_ranks < 1:
            raise ConfigurationError(f"n_ranks must be >= 1, got {n_ranks}")


class ChunkPolicy(PartitionPolicy):
    """Conventional contiguous split (paper Section III-D.1).

    ``pep(m) = { i | N/p * m <= i < N/p * (m+1) }`` with the remainder
    spread one-per-rank over the leading ranks so sizes differ by at
    most one.
    """

    name = "chunk"

    def assign(self, grouping: Grouping, n_ranks: int) -> PartitionAssignment:
        self._check(n_ranks)
        n = grouping.n_sequences
        base, extra = divmod(n, n_ranks)
        sizes = np.full(n_ranks, base, dtype=np.int64)
        sizes[:extra] += 1
        rank_of = np.repeat(np.arange(n_ranks, dtype=np.int32), sizes)
        return PartitionAssignment(rank_of=rank_of, n_ranks=n_ranks, policy_name=self.name)


class CyclicPolicy(PartitionPolicy):
    """Round-robin within groups (paper Section III-D.2).

    The robin counter continues across group boundaries, so every
    group's members land on consecutive distinct ranks and global
    per-rank counts differ by at most one.
    """

    name = "cyclic"

    def assign(self, grouping: Grouping, n_ranks: int) -> PartitionAssignment:
        self._check(n_ranks)
        n = grouping.n_sequences
        rank_of = (np.arange(n, dtype=np.int64) % n_ranks).astype(np.int32)
        return PartitionAssignment(rank_of=rank_of, n_ranks=n_ranks, policy_name=self.name)


class RandomPolicy(PartitionPolicy):
    """Per-group shuffle + chunk split (paper Section III-D.3).

    Each group's members are shuffled, split into ``p`` near-equal
    chunks, and chunk ``j`` goes to rank ``(j + offset) mod p`` where
    ``offset`` rotates per group.  "The quality of distribution may
    depend on initial choice of seed value" — the seed is explicit.
    """

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def assign(self, grouping: Grouping, n_ranks: int) -> PartitionAssignment:
        self._check(n_ranks)
        n = grouping.n_sequences
        rank_of = np.empty(n, dtype=np.int32)
        rng = rng_from(self.seed, "random-policy")
        bounds = grouping.group_bounds()
        for g in range(grouping.n_groups):
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            size = hi - lo
            positions = lo + rng.permutation(size)
            base, extra = divmod(size, n_ranks)
            chunk_sizes = np.full(n_ranks, base, dtype=np.int64)
            chunk_sizes[:extra] += 1
            ranks = (np.arange(n_ranks) + g) % n_ranks
            rank_of[positions] = np.repeat(ranks, chunk_sizes).astype(np.int32)
        return PartitionAssignment(rank_of=rank_of, n_ranks=n_ranks, policy_name=self.name)


#: Registry of available policies by name.  ``lpt`` (the predictive,
#: heterogeneity-aware policy of :mod:`repro.core.predict`) registers
#: itself in POLICIES, and this module imports it at its end.
POLICIES: Dict[str, Type[PartitionPolicy]] = {
    ChunkPolicy.name: ChunkPolicy,
    CyclicPolicy.name: CyclicPolicy,
    RandomPolicy.name: RandomPolicy,
}


def make_policy(name: str, *, seed: int = 0, **kwargs) -> PartitionPolicy:
    """Instantiate a policy by name.

    ``chunk`` / ``cyclic`` take no parameters; ``random`` takes
    ``seed``; ``lpt`` accepts ``weights`` and ``speeds`` (see
    :class:`repro.core.predict.PredictivePolicy`).
    """
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; available: {sorted(POLICIES)}"
        ) from None
    if cls is RandomPolicy:
        return RandomPolicy(seed=seed, **kwargs)
    if cls.name == "lpt":
        return cls(**kwargs)
    return cls()


# Registers "lpt"; last, because predict imports the names above.
from repro.core import predict as _predict  # noqa: E402,F401
