"""The master's mapping table (paper Section III-B / Fig. 4).

Each rank indexes its peptides under dense *local* ids 0..n_m-1.  When
rank ``m`` reports a match for local id ``l``, the master resolves the
original (global) peptide id with one array access:
``table[offset[m] + l]``.  The paper describes exactly this layout —
"a simple array of size N where each i-th chunk of size N/p contains
the indices of peptide index entries mapped to machine i" — except our
chunks may differ by one entry because ranks may own unequal counts.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.partition import PartitionAssignment
from repro.errors import ConfigurationError, PartitionError

__all__ = ["MappingTable"]


class MappingTable:
    """O(1) virtual-to-global index resolution.

    Parameters
    ----------
    per_rank_globals:
        For each rank, the array of global ids in local-id order.

    Notes
    -----
    The flat layout (`table` + `offsets`) is what the master would hold
    in 4-byte entries; :meth:`nbytes` reports that figure for the
    memory model.
    """

    def __init__(self, per_rank_globals: Sequence[np.ndarray]) -> None:
        if not per_rank_globals:
            raise ConfigurationError("mapping table needs at least one rank")
        self.offsets = np.zeros(len(per_rank_globals) + 1, dtype=np.int64)
        parts: List[np.ndarray] = []
        for r, globals_ in enumerate(per_rank_globals):
            arr = np.asarray(globals_, dtype=np.int64)
            if arr.ndim != 1:
                raise ConfigurationError("per-rank global id arrays must be 1-D")
            parts.append(arr)
            self.offsets[r + 1] = self.offsets[r] + arr.size
        self.table = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        # A global id must appear exactly once across all ranks.  Sort
        # and compare neighbours: numpy's hash-based ``unique`` is ~50x
        # slower on a plan's 1e5 ids.
        ordered = np.sort(self.table)
        if np.any(ordered[1:] == ordered[:-1]):
            raise PartitionError("mapping table contains duplicate global ids")

    @classmethod
    def from_assignment(
        cls,
        assignment: PartitionAssignment,
        grouped_to_global: np.ndarray,
    ) -> "MappingTable":
        """Build from a partition assignment.

        ``grouped_to_global[k]`` is the global peptide id of
        grouped-order position ``k`` (the grouping's ``order`` array).
        Local ids on each rank follow ascending grouped-order position,
        matching the order in which ranks extract their partition while
        scanning the clustered database (Section III-D).
        """
        if grouped_to_global.size != assignment.n_items:
            raise PartitionError(
                f"assignment covers {assignment.n_items} items but "
                f"{grouped_to_global.size} global ids were provided"
            )
        per_rank = [
            np.asarray(grouped_to_global)[assignment.members(rank)]
            for rank in range(assignment.n_ranks)
        ]
        return cls(per_rank)

    @property
    def n_ranks(self) -> int:
        """Number of ranks covered."""
        return int(self.offsets.size - 1)

    @property
    def n_entries(self) -> int:
        """Total mapped entries N."""
        return int(self.table.size)

    def rank_size(self, rank: int) -> int:
        """Number of entries owned by ``rank``."""
        self._check_rank(rank)
        return int(self.offsets[rank + 1] - self.offsets[rank])

    def to_global(self, rank: int, local_id: int) -> int:
        """Resolve one (rank, local id) pair — a single array access."""
        self._check_rank(rank)
        if not 0 <= local_id < self.rank_size(rank):
            raise PartitionError(
                f"local id {local_id} outside rank {rank}'s "
                f"{self.rank_size(rank)} entries"
            )
        return int(self.table[self.offsets[rank] + local_id])

    def to_global_batch(self, rank: int, local_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`to_global` for result merging."""
        self._check_rank(rank)
        local_ids = np.asarray(local_ids, dtype=np.int64)
        size = self.rank_size(rank)
        if local_ids.size and (local_ids.min() < 0 or local_ids.max() >= size):
            raise PartitionError(
                f"local ids outside rank {rank}'s {size} entries"
            )
        return self.table[self.offsets[rank] + local_ids]

    def globals_of(self, rank: int) -> np.ndarray:
        """All global ids of ``rank`` in local-id order (a view)."""
        self._check_rank(rank)
        return self.table[self.offsets[rank] : self.offsets[rank + 1]]

    def nbytes(self) -> int:
        """Master-side bytes at the original's 4-byte entry width."""
        return 4 * self.n_entries + 4 * (self.n_ranks + 1)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ConfigurationError(f"rank {rank} outside [0, {self.n_ranks})")
