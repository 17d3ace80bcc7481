"""Peptide sequence grouping — Algorithm 1 of the paper.

The sequences are sorted by length, then lexicographically; groups are
formed greedily: the first ungrouped sequence seeds a group, and each
subsequent sequence joins while it stays within an edit-distance cutoff
of the *seed* and the group is below the size cap ``gsize``.

Two cutoff criteria are provided (Section III-C.1):

* **criterion 1**: ``EditDistance(seed, s) <= max(d, len(s) / 2)``
  with default ``d = 2``;
* **criterion 2**: ``EditDistance(seed, s) / max(len(seed), len(s))
  <= d'`` with default ``d' = 0.86`` — the criterion the paper's
  experiments use.

Grouping never reorders *within* the sorted order: a group is a
contiguous run of the sorted sequence list, which is what lets the
output be written as a "clustered FASTA" and partitioned by run-length
(`group_sizes`) alone.

How the scan is computed.  The output is exactly the paper's greedy
scan, but the work is not one comparison at a time.  The group seeded
at sorted position ``s`` is decided by ``d(s, s+1), d(s, s+2), …``
alone, so :func:`group_peptides` treats *every* position as a potential
seed and runs offsets ``o = 1 .. gsize-1`` as vectorised rounds of the
bit-parallel kernel (:class:`~repro.core.editdist.EncodedSequences`).
Round ``o`` covers only the seeds whose run is still open; a seed's run
closes at the first ``s+o`` beyond its cutoff, or at ``s + gsize``.  A
walk ``s = 0 → run_end[s]`` then reads off the groups.  Runs of
positions the walk skips were computed speculatively and are discarded:
about ``n × mean run length`` pairs in total, against the greedy scan's
``n - 1``, but with no per-pair Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.constants import (
    DEFAULT_EDIT_DISTANCE,
    DEFAULT_GROUP_SIZE,
    DEFAULT_NORMALIZED_CUTOFF,
)
from repro.core.editdist import EncodedSequences
from repro.errors import ConfigurationError, PartitionError

__all__ = ["GroupingConfig", "Grouping", "group_peptides", "sorted_order"]


@dataclass(frozen=True, slots=True)
class GroupingConfig:
    """Parameters of Algorithm 1.

    Attributes
    ----------
    criterion:
        1 or 2 (see module docstring).  The paper evaluates with 2.
    d:
        Absolute edit-distance floor of criterion 1.
    d_prime:
        Normalized cutoff of criterion 2, in [0, 1].
    gsize:
        Maximum sequences per group (``csize`` in Algorithm 1).
    """

    criterion: int = 2
    d: int = DEFAULT_EDIT_DISTANCE
    d_prime: float = DEFAULT_NORMALIZED_CUTOFF
    gsize: int = DEFAULT_GROUP_SIZE

    def __post_init__(self) -> None:
        if self.criterion not in (1, 2):
            raise ConfigurationError(f"criterion must be 1 or 2, got {self.criterion}")
        if self.d < 0:
            raise ConfigurationError(f"d must be >= 0, got {self.d}")
        if not 0.0 <= self.d_prime <= 1.0:
            raise ConfigurationError(f"d_prime must be in [0,1], got {self.d_prime}")
        if self.gsize < 1:
            raise ConfigurationError(f"gsize must be >= 1, got {self.gsize}")

    def cutoff_for(self, seed: str, candidate: str) -> int:
        """The integral edit-distance bound for ``candidate`` vs ``seed``."""
        return int(self.cutoffs(np.array([len(seed)]), np.array([len(candidate)]))[0])

    def cutoffs(
        self, seed_lengths: np.ndarray, candidate_lengths: np.ndarray
    ) -> np.ndarray:
        """:meth:`cutoff_for` over arrays of sequence lengths (int64).

        Criterion 2 multiplies in float64 and truncates toward zero,
        which is exactly ``int(d_prime * max_len)``.
        """
        if self.criterion == 1:
            return np.maximum(self.d, candidate_lengths // 2)
        longer = np.maximum(seed_lengths, candidate_lengths)
        return (self.d_prime * longer).astype(np.int64)


@dataclass(frozen=True, slots=True)
class Grouping:
    """Result of Algorithm 1.

    Attributes
    ----------
    order:
        Permutation of input positions: ``order[k]`` is the input index
        of the k-th sequence in grouped (sorted) order.
    group_sizes:
        Run lengths of consecutive groups over the grouped order.
    """

    order: np.ndarray
    group_sizes: np.ndarray

    def __post_init__(self) -> None:
        if int(self.group_sizes.sum()) != int(self.order.size):
            raise PartitionError(
                f"group sizes sum to {int(self.group_sizes.sum())} "
                f"but order has {self.order.size} entries"
            )
        if self.group_sizes.size and int(self.group_sizes.min()) < 1:
            raise PartitionError("every group must be non-empty")

    @property
    def n_groups(self) -> int:
        """Number of groups."""
        return int(self.group_sizes.size)

    @property
    def n_sequences(self) -> int:
        """Number of grouped sequences."""
        return int(self.order.size)

    def group_bounds(self) -> np.ndarray:
        """Exclusive prefix sums: group g spans [bounds[g], bounds[g+1])."""
        bounds = np.zeros(self.n_groups + 1, dtype=np.int64)
        np.cumsum(self.group_sizes, out=bounds[1:])
        return bounds

    def group_of(self) -> np.ndarray:
        """Array mapping grouped-order position → group id."""
        return np.repeat(np.arange(self.n_groups, dtype=np.int64), self.group_sizes)


def sorted_order(sequences: Sequence[str]) -> np.ndarray:
    """Positions of ``sequences`` sorted by (length, lexicographic).

    This is the "SortByLength / LexSort" preamble of Algorithm 1.  The
    sort is stable, so ties keep input order (determinism).
    """
    return np.array(
        sorted(range(len(sequences)), key=lambda i: (len(sequences[i]), sequences[i])),
        dtype=np.int64,
    )


def group_peptides(
    sequences: Sequence[str],
    config: GroupingConfig = GroupingConfig(),
) -> Grouping:
    """Run Algorithm 1 over ``sequences``.

    Returns a :class:`Grouping`; ``sequences`` itself is not reordered.
    The groups are those of the paper's greedy scan, in which each
    sequence is compared against its current group seed; see the module
    docstring for how the comparisons are batched.
    """
    n = len(sequences)
    if n == 0:
        return Grouping(
            order=np.empty(0, dtype=np.int64),
            group_sizes=np.empty(0, dtype=np.int64),
        )
    order = sorted_order(sequences)
    run_end = _run_ends([sequences[i] for i in order.tolist()], config).tolist()
    group_sizes: List[int] = []
    s = 0
    while s < n:
        group_sizes.append(run_end[s] - s)
        s = run_end[s]
    return Grouping(order=order, group_sizes=np.asarray(group_sizes, dtype=np.int64))


def _run_ends(ordered: Sequence[str], config: GroupingConfig) -> np.ndarray:
    """``run_end[s]``: where the group seeded at sorted position ``s`` ends.

    That is the first ``s + o`` (``1 <= o < gsize``) farther from seed
    ``s`` than its cutoff, otherwise ``min(s + gsize, n)``.
    """
    n = len(ordered)
    positions = np.arange(n, dtype=np.int64)
    run_end = np.minimum(positions + config.gsize, n)
    encoded = EncodedSequences(ordered)
    lengths = encoded.lengths
    seeds = positions
    for offset in range(1, config.gsize):
        seeds = seeds[seeds + offset < n]
        if not seeds.size:
            break
        candidates = seeds + offset
        cutoff = config.cutoffs(lengths[seeds], lengths[candidates])
        far = encoded.distances(seeds, candidates) > cutoff
        run_end[seeds[far]] = candidates[far]
        seeds = seeds[~far]
    return run_end
