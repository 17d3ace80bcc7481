"""LBE — the paper's contribution.

The pipeline of Section III:

1. :mod:`~repro.core.grouping` clusters similar peptide sequences
   (Algorithm 1) using the bit-parallel edit-distance kernel of
   :mod:`~repro.core.editdist`;
2. :mod:`~repro.core.partition` spreads the groups across ranks with
   the Chunk / Cyclic / Random policies of Section III-D;
3. :mod:`~repro.core.mapping` builds the master's O(1)
   virtual-index → global-index mapping table (Fig. 4);
4. :mod:`~repro.core.planner` declares the shared
   :class:`~repro.core.planner.SearchParams` and ties the stages into
   an :class:`~repro.core.planner.LBEPlan` through
   :func:`~repro.core.planner.make_lbe_plan`, the one plan constructor
   every search backend uses.
"""

from repro.core.editdist import EncodedSequences, edit_distance
from repro.core.grouping import Grouping, GroupingConfig, group_peptides
from repro.core.partition import (
    PartitionAssignment,
    PartitionPolicy,
    ChunkPolicy,
    CyclicPolicy,
    RandomPolicy,
    make_policy,
)
from repro.core.predict import PredictivePolicy, WorkModel
from repro.core.mapping import MappingTable
from repro.core.planner import LBEPlan, SearchParams, make_lbe_plan

__all__ = [
    "EncodedSequences",
    "edit_distance",
    "Grouping",
    "GroupingConfig",
    "group_peptides",
    "PartitionAssignment",
    "PartitionPolicy",
    "ChunkPolicy",
    "CyclicPolicy",
    "RandomPolicy",
    "PredictivePolicy",
    "WorkModel",
    "make_policy",
    "MappingTable",
    "LBEPlan",
    "SearchParams",
    "make_lbe_plan",
]
