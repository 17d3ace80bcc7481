"""SLM-Transform index substrate.

Reimplementation of the SLM-Transform fragment-ion index (Haseeb et
al., 2019 — reference [6] of the LBE paper), the host data structure
LBE partitions:

* :mod:`~repro.index.arena` — the flat CSR fragment arena feeding the
  hot-path kernels: one float64 m/z array + int64 offsets per
  fragmentation setting, and nothing per resolution.
* :mod:`~repro.index.slm` — the index proper: fragment ions quantized
  at resolution ``r`` (once per build,
  :meth:`~repro.index.arena.FragmentArena.quantize`) into a CSR bucket
  layout with parent-peptide back-references; shared-peak filtration
  queries.
* :mod:`~repro.index.chunks` — the paper's Fig. 1 scheme (sort by
  precursor mass, split into bounded chunks) over a rank's sub-arena:
  the rank index of every windowed search.
* :mod:`~repro.index.memory` — byte-accurate memory accounting used to
  reproduce Fig. 5 at paper scale.
"""

from repro.index.arena import FragmentArena, Workspace, concat_ranges
from repro.index.slm import SLMIndex, SLMIndexSettings, FilterResult
from repro.index.chunks import ChunkedIndex
from repro.index.memory import IndexMemoryModel, MemoryBreakdown

__all__ = [
    "FragmentArena",
    "Workspace",
    "concat_ranges",
    "SLMIndex",
    "SLMIndexSettings",
    "FilterResult",
    "ChunkedIndex",
    "IndexMemoryModel",
    "MemoryBreakdown",
]
