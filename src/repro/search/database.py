"""The indexed database: base peptides plus modified-variant entries.

The paper's pipeline (Section V-A.1) is: proteome → in-silico digestion
→ duplicate removal → variable-modification expansion → index.  The
*entries* (base peptides and their modified variants) are what the SLM
index stores and what LBE distributes; entry counts are the paper's
"index size (million peptides & spectra)" axis.

Entries are laid out base-major: the entries of base peptide ``b``
occupy the contiguous global-id range ``entry_offsets[b] ..
entry_offsets[b+1]``, with the unmodified peptide first.  Grouping runs
on base sequences (Section III-C: variants belong to their base's
group) and is expanded to entry space with
:meth:`IndexedDatabase.expand_grouping`.

:meth:`IndexedDatabase.build` is one pass that re-derives nothing per
entry.  The digest yields ``(sequence, protein_id, mass)`` rows whose
masses are incremental folds (:mod:`repro.db.digest`); dedup keeps the
first row of each sequence string, so duplicates never become objects;
each unique row becomes a base peptide, and each base its variants
(:mod:`repro.chem.modifications`), through the one trusted constructor
:meth:`Peptide._trusted <repro.chem.peptide.Peptide._trusted>`.  Its
precondition — sequence already validated, mods position-sorted and in
range, mass equal to ``peptide_mass``'s fold — holds by construction
here: the digest's split at non-alphabet residues is what validates
FASTA input.  Input from outside the build (an index archive, decoys)
still goes through the validating ``Peptide(...)``.

The one on-disk form is an *index archive* (:meth:`IndexedDatabase.save`,
``repro index``): the entries' arena as a
:class:`~repro.parallel.shared_arena.SharedArenaStore` (its m/z data:
every rank quantizes and sorts its own slice), and beside it the
entry table, the base → entry offsets and the
:class:`~repro.index.slm.SLMIndexSettings`.
:meth:`IndexedDatabase.load` reopens it with the arena memory-mapped,
and a session over the result attaches its workers to the archive's
own files (``repro serve --index``).  Grouping and plan manifests are
not stored: they depend on the serve-time rank count and policy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.chem.fragments import FragmentationSettings
from repro.chem.modifications import ModificationSet, VariantEnumerator, paper_modifications
from repro.chem.peptide import Peptide
from repro.core.grouping import Grouping, GroupingConfig, group_peptides
from repro.db.dedup import first_occurrences
from repro.db.digest import DigestionConfig, digest_rows, peptides_from_rows
from repro.db.fasta import FastaRecord
from repro.db.proteome import ProteomeConfig, generate_proteome
from repro.errors import ConfigurationError, FormatError, InvalidSequenceError, PartitionError
from repro.index.arena import FragmentArena, concat_ranges
from repro.index.slm import SLMIndexSettings
from repro.parallel.shared_arena import SharedArenaStore

__all__ = ["DatabaseConfig", "IndexedDatabase"]

#: The entry-table manifest an index archive keeps beside its arena store.
_TABLE_NAME = "database.json"
_TABLE_VERSION = 1


def _settings_from(record: dict) -> SLMIndexSettings:
    """Inverse of ``asdict(settings)`` (JSON turns tuples into lists)."""
    frag = dict(record["fragmentation"], charges=tuple(record["fragmentation"]["charges"]))
    return SLMIndexSettings(**dict(record, fragmentation=FragmentationSettings(**frag)))


@dataclass(frozen=True, slots=True)
class DatabaseConfig:
    """End-to-end database construction parameters.

    Attributes
    ----------
    proteome:
        Synthetic proteome parameters (ignored when explicit records
        are supplied to :meth:`IndexedDatabase.build`).
    digestion:
        Tryptic digestion parameters.
    modifications:
        Variable-modification set (default: the paper's three mods).
    max_variants_per_peptide:
        Truncation knob for variant enumeration — the workload
        builder's index-size control.
    """

    proteome: ProteomeConfig = ProteomeConfig()
    digestion: DigestionConfig = DigestionConfig()
    modifications: ModificationSet = field(default_factory=paper_modifications)
    max_variants_per_peptide: int | None = 16


class IndexedDatabase:
    """Base peptides plus expanded entries, with id arithmetic.

    Attributes
    ----------
    base_peptides:
        Deduplicated unmodified peptides; base id = position.
    entries:
        All index entries (every base peptide followed by its modified
        variants), base-major order; entry id = position.
    entry_offsets:
        ``entry_offsets[b] .. entry_offsets[b+1]`` is base ``b``'s
        entry range; length ``n_bases + 1``.
    """

    def __init__(self, base_peptides: List[Peptide], entries: List[Peptide],
                 entry_offsets: np.ndarray) -> None:
        if entry_offsets.ndim != 1 or entry_offsets.size != len(base_peptides) + 1:
            raise ConfigurationError("entry_offsets must have n_bases + 1 elements")
        if int(entry_offsets[-1]) != len(entries):
            raise ConfigurationError("entry_offsets inconsistent with entries")
        self.base_peptides = base_peptides
        self.entries = entries
        self.entry_offsets = entry_offsets
        self._arena_cache: dict[FragmentationSettings, FragmentArena] = {}
        self._grouping_cache: dict[GroupingConfig, Grouping] = {}
        self._entries_arr: np.ndarray | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_peptides(
        cls,
        base_peptides: Sequence[Peptide],
        modifications: ModificationSet | None = None,
        *,
        max_variants_per_peptide: int | None = 16,
    ) -> "IndexedDatabase":
        """Expand ``base_peptides`` (unmodified) into an entry database."""
        mods = modifications if modifications is not None else paper_modifications()
        enum = VariantEnumerator(mods, max_variants_per_peptide=max_variants_per_peptide)
        entries: List[Peptide] = []
        offsets = np.zeros(len(base_peptides) + 1, dtype=np.int64)
        for b, pep in enumerate(base_peptides):
            entries.extend(enum.variants(pep))
            offsets[b + 1] = len(entries)
        return cls(list(base_peptides), entries, offsets)

    @classmethod
    def build(
        cls,
        config: DatabaseConfig = DatabaseConfig(),
        *,
        records: Sequence[FastaRecord] | None = None,
    ) -> "IndexedDatabase":
        """Full pipeline: proteome → digest → dedup → expand.

        ``records`` overrides the synthetic proteome (e.g. proteins
        read from a FASTA file).  Dedup runs on the digest's sequence
        strings, so only unique bases ever become peptides.
        """
        if records is None:
            records = generate_proteome(config.proteome).records
        bases = peptides_from_rows(
            first_occurrences(digest_rows(records, config.digestion))
        )
        return cls.from_peptides(
            bases,
            config.modifications,
            max_variants_per_peptide=config.max_variants_per_peptide,
        )

    # -- id arithmetic ----------------------------------------------------

    @property
    def n_bases(self) -> int:
        """Number of base peptides."""
        return len(self.base_peptides)

    @property
    def n_entries(self) -> int:
        """Number of entries (the paper's "index size")."""
        return len(self.entries)

    def entry_counts(self) -> np.ndarray:
        """Entries per base peptide, length ``n_bases``."""
        return np.diff(self.entry_offsets)

    def base_of_entry(self, entry_id: int) -> int:
        """Base id owning ``entry_id`` (binary search)."""
        if not 0 <= entry_id < self.n_entries:
            raise ConfigurationError(
                f"entry id {entry_id} outside [0, {self.n_entries})"
            )
        return int(np.searchsorted(self.entry_offsets, entry_id, side="right") - 1)

    def base_sequences(self) -> List[str]:
        """Base peptide sequences (Algorithm 1's input)."""
        return [p.sequence for p in self.base_peptides]

    def entries_at(self, entry_ids: np.ndarray) -> List[Peptide]:
        """Entries at ``entry_ids``, gathered in C (no per-id Python loop).

        The object-array gather is what lets each rank assemble its
        peptide partition without iterating the manifest in Python.
        """
        if self._entries_arr is None:
            arr = np.empty(len(self.entries), dtype=object)
            arr[:] = self.entries
            self._entries_arr = arr
        return list(self._entries_arr[np.asarray(entry_ids, dtype=np.int64)])

    # -- fragment arena ----------------------------------------------------

    def arena_for(
        self, fragmentation: FragmentationSettings = FragmentationSettings()
    ) -> FragmentArena:
        """The flat fragment arena of every entry, built once and cached.

        Fragment generation dominates repeated index builds (every
        policy × rank-count combination rebuilds partial indexes over
        the same entries), so the arena is keyed by the — hashable —
        fragmentation settings and shared across engines.  The arena
        also carries per-entry residue counts and float32 masses, so
        consumers never loop over :class:`Peptide` objects on the hot
        path.
        """
        cached = self._arena_cache.get(fragmentation)
        if cached is None:
            cached = FragmentArena.from_peptides(self.entries, fragmentation)
            self._arena_cache[fragmentation] = cached
        return cached

    # -- on-disk form --------------------------------------------------------

    def save(
        self, directory: Union[str, Path], settings: SLMIndexSettings = SLMIndexSettings()
    ) -> Path:
        """Write the database as an index archive under ``directory``.

        The entries' arena at ``settings.fragmentation`` is spilled as a
        :class:`~repro.parallel.shared_arena.SharedArenaStore` the way a
        session spills it (:class:`~repro.parallel.shared_arena.SharedSpill`):
        its four flat arrays, the m/z data and per-entry metadata, since
        the arena holds no quantization state and every rank quantizes
        and sorts its own slice.  Beside
        it go the entry table (residues at full length, protein ids,
        mods as CSR), the base → entry offsets and, last, so that a torn
        write never loads, ``settings``.  ``directory`` must be absent or
        empty.  Returns it.
        """
        directory = Path(directory)
        if directory.exists() and (not directory.is_dir() or any(directory.iterdir())):
            raise ConfigurationError(
                f"{directory} is not an empty directory; an index archive needs its own"
            )
        SharedArenaStore.spill(self.arena_for(settings.fragmentation), directory)
        entries = self.entries
        mods = [mod for p in entries for mod in p.mods]
        residues = "".join(p.sequence for p in entries).encode("ascii")
        for name, array in {
            "entry_offsets": self.entry_offsets.astype(np.int64),
            "residues": np.frombuffer(residues, dtype=np.uint8),
            "protein_ids": np.array([p.protein_id for p in entries], dtype=np.int64),
            "mod_offsets": np.cumsum([0] + [len(p.mods) for p in entries], dtype=np.int64),
            "mod_positions": np.array([m[0] for m in mods], dtype=np.int64),
            "mod_deltas": np.array([m[1] for m in mods], dtype=np.float64),
        }.items():
            np.save(directory / f"{name}.npy", array)
        table = {"version": _TABLE_VERSION, "n_bases": self.n_bases,
                 "n_entries": self.n_entries, "settings": asdict(settings)}
        (directory / _TABLE_NAME).write_text(json.dumps(table, indent=2) + "\n", encoding="ascii")
        return directory

    @classmethod
    def load(cls, directory: Union[str, Path]) -> Tuple["IndexedDatabase", SLMIndexSettings]:
        """Reopen an archive written by :meth:`save`: ``(database, settings)``.

        Nothing is digested, enumerated or fragmented.  Entries come
        from the stored table through the validating ``Peptide(...)``,
        bases from the stored offsets, and the arena cache is seeded
        with the store's memory-mapped arena, so a session over the
        database spills nothing: its workers attach the archive's own
        files.  A missing, torn, retyped, stale or inconsistent file
        raises :class:`~repro.errors.FormatError`.
        """
        directory = Path(directory)
        try:
            table = json.loads((directory / _TABLE_NAME).read_text(encoding="ascii"))
        except (OSError, ValueError) as bad:
            raise FormatError(f"no readable index archive table in {directory}: {bad}") from None
        version = table.get("version") if isinstance(table, dict) else None
        if version != _TABLE_VERSION:
            raise FormatError(f"unsupported index archive version {version!r}")
        try:
            settings = _settings_from(table["settings"])
            n_bases, n_entries = int(table["n_bases"]), int(table["n_entries"])
        except (KeyError, TypeError, ValueError) as bad:
            raise FormatError(f"index archive table in {directory} is malformed: {bad!r}") from None
        store = SharedArenaStore.open(directory)
        if n_entries != store.n_entries:
            raise FormatError(
                f"index archive entry table ({n_entries} entries) does not "
                f"match its arena store ({store.n_entries} entries)"
            )
        arena = store.load()
        offsets = np.array(store.map("entry_offsets.npy", np.int64, n_bases + 1))
        mod_offsets = store.map("mod_offsets.npy", np.int64, n_entries + 1).tolist()
        mods = list(zip(
            store.map("mod_positions.npy", np.int64, mod_offsets[-1]).tolist(),
            store.map("mod_deltas.npy", np.float64, mod_offsets[-1]).tolist(),
        ))
        pids = store.map("protein_ids.npy", np.int64, n_entries).tolist()
        ends = np.cumsum(arena.lengths).tolist()
        residues = store.map("residues.npy", np.uint8, ends[-1] if ends else 0)
        try:
            text = residues.tobytes().decode("ascii")
            entries = [
                Peptide(text[start:stop], tuple(mods[mod_offsets[i]:mod_offsets[i + 1]]),
                        protein_id=pids[i])
                for i, (start, stop) in enumerate(zip([0] + ends[:-1], ends))
            ]
            database = cls([entries[b] for b in offsets[:-1].tolist()], entries, offsets)
        except (ConfigurationError, IndexError, InvalidSequenceError, UnicodeDecodeError) as bad:
            raise FormatError(f"index archive {directory} holds a bad entry table: {bad}") from None
        masses = np.array([p.mass for p in entries], dtype=np.float32)
        if offsets[0] != 0 or (np.diff(offsets) <= 0).any() or not np.array_equal(
            masses, arena.masses
        ):
            raise FormatError(f"index archive {directory} entry table disagrees with its arena")
        database._arena_cache[settings.fragmentation] = arena
        return database, settings

    # -- grouping expansion ------------------------------------------------

    def group_bases(self, config: GroupingConfig = GroupingConfig()) -> Grouping:
        """Run Algorithm 1 over the base sequences.

        Cached per configuration: grouping is policy- and
        rank-count-independent, so every engine built over this
        database shares one grouping run (the real cost is still
        charged virtually to the master each time).
        """
        cached = self._grouping_cache.get(config)
        if cached is None:
            cached = group_peptides(self.base_sequences(), config)
            self._grouping_cache[config] = cached
        return cached

    def expand_grouping(self, base_grouping: Grouping) -> Grouping:
        """Lift a base-space grouping to entry space.

        Each base peptide's entries stay contiguous (variants travel
        with their base, Section III-C); entry-space group sizes are
        the per-group sums of entry counts.
        """
        if base_grouping.n_sequences != self.n_bases:
            raise PartitionError(
                f"grouping covers {base_grouping.n_sequences} bases, "
                f"database has {self.n_bases}"
            )
        counts = self.entry_counts()
        offsets = self.entry_offsets
        order = np.asarray(base_grouping.order, dtype=np.int64)
        expanded_order = concat_ranges(offsets[order], offsets[order + 1])
        counts_in_grouped = counts[order]
        bounds = np.asarray(base_grouping.group_bounds(), dtype=np.int64)
        counts_cum = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(counts_in_grouped, out=counts_cum[1:])
        group_sizes = counts_cum[bounds[1:]] - counts_cum[bounds[:-1]]
        return Grouping(order=expanded_order, group_sizes=group_sizes)
