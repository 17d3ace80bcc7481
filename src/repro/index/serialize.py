"""Index persistence: save/load SLM indexes as ``.npz`` archives.

The shared-memory scheme of the paper's Fig. 1 assumes chunks "may be
stored on disks when not in use"; the distributed engine likewise
benefits from building partial indexes once and reloading them per
run.  The archive stores the numpy structures verbatim plus the
peptide table the index's local ids point into (sequences,
modifications, protein ids) and the settings needed to validate
compatibility on load.  The index itself holds no peptides, so the
table travels beside it: :func:`save_index` takes it as an argument and
:func:`load_index` returns it with the index.

Zero-copy loading
-----------------
``load_index(path, mmap_mode="r")`` opens the big flat arrays
(``ion_parents``, ``bucket_offsets``, ``masses``) as read-only
``np.memmap`` views straight into the archive instead of copying them
into private memory — N processes loading the same archive then share
one physical copy through the OS page cache.  This requires an
**uncompressed** archive (``save_index(..., compress=False)``); numpy
itself ignores ``mmap_mode`` for zip archives, so the member regions
are located via the zip directory and mapped directly.

Relation to :class:`~repro.parallel.shared_arena.SharedArenaStore`:
the arena store shares the *fragment arena* (pre-index m/z data, the
input every worker carves its partition from) as a directory of raw
``.npy`` files, while this module shares a *built index* (the
post-construction CSR) as a single archive.  Both converge on the same
memory model — read-only flat arrays, one page-cache copy per machine
however many processes map them.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.chem.fragments import FragmentationSettings
from repro.chem.peptide import Peptide
from repro.errors import ConfigurationError, FormatError
from repro.index.slm import SLMIndex, SLMIndexSettings

__all__ = ["save_index", "load_index"]

_FORMAT_VERSION = 1

#: Archive members eligible for memory-mapping (the flat query-path
#: arrays; everything else is small object/bookkeeping data).
_MMAP_FIELDS = ("ion_parents", "bucket_offsets", "masses")


def _settings_payload(settings: SLMIndexSettings) -> str:
    frag = settings.fragmentation
    return json.dumps(
        {
            "version": _FORMAT_VERSION,
            "resolution": settings.resolution,
            "fragment_tolerance": settings.fragment_tolerance,
            "shared_peak_threshold": settings.shared_peak_threshold,
            "precursor_tolerance": settings.precursor_tolerance,
            "charges": list(frag.charges),
            "include_b": frag.include_b,
            "include_y": frag.include_y,
        }
    )


def _settings_from_payload(payload: str) -> SLMIndexSettings:
    data = json.loads(payload)
    if data.get("version") != _FORMAT_VERSION:
        raise FormatError(
            f"unsupported index archive version {data.get('version')!r}"
        )
    return SLMIndexSettings(
        resolution=data["resolution"],
        fragment_tolerance=data["fragment_tolerance"],
        shared_peak_threshold=data["shared_peak_threshold"],
        precursor_tolerance=data["precursor_tolerance"],
        fragmentation=FragmentationSettings(
            charges=tuple(data["charges"]),
            include_b=data["include_b"],
            include_y=data["include_y"],
        ),
    )


def save_index(
    path: Union[str, Path],
    index: SLMIndex,
    peptides: Sequence[Peptide],
    *,
    compress: bool = True,
) -> Path:
    """Serialize ``index`` and its peptide table to ``path`` (``.npz``).

    ``peptides[i]`` is the entry behind the index's local id ``i``, so
    the table must be exactly ``index.n_peptides`` long.  Peptide
    modifications are flattened into three parallel arrays (owner
    peptide, position, delta) so the archive stays pure-numpy.
    ``compress=False`` writes an uncompressed archive — larger on
    disk, but the only layout :func:`load_index` can memory-map.
    Returns the path.
    """
    path = Path(path)
    if len(peptides) != index.n_peptides:
        raise ConfigurationError(
            f"peptide table holds {len(peptides)} entries for an index "
            f"over {index.n_peptides}"
        )
    sequences = np.array([p.sequence for p in peptides], dtype="U64")
    protein_ids = np.array([p.protein_id for p in peptides], dtype=np.int64)
    mod_owner: List[int] = []
    mod_pos: List[int] = []
    mod_delta: List[float] = []
    for local_id, pep in enumerate(peptides):
        for pos, delta in pep.mods:
            mod_owner.append(local_id)
            mod_pos.append(pos)
            mod_delta.append(delta)
    savez = np.savez_compressed if compress else np.savez
    savez(
        path,
        settings=np.array(_settings_payload(index.settings)),
        sequences=sequences,
        protein_ids=protein_ids,
        mod_owner=np.asarray(mod_owner, dtype=np.int64),
        mod_pos=np.asarray(mod_pos, dtype=np.int64),
        mod_delta=np.asarray(mod_delta, dtype=np.float64),
        ion_parents=index.ion_parents,
        bucket_offsets=index.bucket_offsets,
        masses=index.masses,
    )
    return path


def _mmap_npz_member(
    path: Path, zf: zipfile.ZipFile, member: str, mmap_mode: str
) -> np.memmap:
    """Memory-map one stored ``.npy`` member of an ``.npz`` archive.

    Locates the member's raw bytes inside the zip (local file header +
    npy header), then maps the data region of the archive file
    directly — no decompression, no copy.  Only ``ZIP_STORED`` members
    can be mapped; compressed members raise :class:`FormatError`.
    """
    info = zf.getinfo(member)
    if info.compress_type != zipfile.ZIP_STORED:
        raise FormatError(
            f"archive member {member!r} is compressed and cannot be "
            "memory-mapped; write the archive with "
            "save_index(..., compress=False)"
        )
    with open(path, "rb") as f:
        # The central directory's header_offset points at the local
        # file header; its name/extra lengths may differ from the
        # central record's, so read them from the local header itself.
        f.seek(info.header_offset)
        local = f.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            raise FormatError(f"corrupt local header for member {member!r}")
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        f.seek(info.header_offset + 30 + name_len + extra_len)
        version = np.lib.format.read_magic(f)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(f)
        else:
            raise FormatError(
                f"unsupported npy format version {version} in {member!r}"
            )
        data_offset = f.tell()
    return np.memmap(
        path,
        dtype=dtype,
        mode=mmap_mode,
        offset=data_offset,
        shape=shape,
        order="F" if fortran else "C",
    )


def load_index(
    path: Union[str, Path], *, mmap_mode: str | None = None
) -> Tuple[List[Peptide], SLMIndex]:
    """Load an archive written by :func:`save_index`: ``(peptides, index)``.

    The numpy structures are restored verbatim (no fragment
    regeneration), so loading is fast and bit-exact: a loaded index
    filters identically to the one that was saved, and ``peptides`` is
    the table that was saved beside it.

    Parameters
    ----------
    path:
        The ``.npz`` archive.
    mmap_mode:
        ``None`` (default) copies every array into private memory.
        ``"r"`` (read-only) or ``"c"`` (copy-on-write) memory-map the
        flat query-path arrays (``ion_parents``, ``bucket_offsets``,
        ``masses``) directly from the archive: loading is O(metadata),
        pages fault in on first touch, and concurrent processes share
        one physical copy — the same model
        :class:`~repro.parallel.shared_arena.SharedArenaStore` applies
        to the fragment arena.  Requires an archive written with
        ``compress=False``; raises :class:`FormatError` otherwise.
    """
    path = Path(path)
    if mmap_mode not in (None, "r", "c"):
        raise ConfigurationError(
            f"mmap_mode must be None, 'r', or 'c', got {mmap_mode!r}"
        )
    with np.load(path, allow_pickle=False) as data:
        try:
            settings = _settings_from_payload(str(data["settings"]))
            sequences = data["sequences"]
            protein_ids = data["protein_ids"]
            mod_owner = data["mod_owner"]
            mod_pos = data["mod_pos"]
            mod_delta = data["mod_delta"]
            if mmap_mode is None:
                ion_parents = data["ion_parents"]
                bucket_offsets = data["bucket_offsets"]
                masses = data["masses"]
        except KeyError as missing:
            raise FormatError(f"index archive missing field {missing}") from None

    if mmap_mode is not None:
        with zipfile.ZipFile(path) as zf:
            members = set(zf.namelist())
            arrays = {}
            for field in _MMAP_FIELDS:
                member = field + ".npy"
                if member not in members:
                    raise FormatError(f"index archive missing field '{field}'")
                arrays[field] = _mmap_npz_member(path, zf, member, mmap_mode)
        ion_parents = arrays["ion_parents"]
        bucket_offsets = arrays["bucket_offsets"]
        masses = arrays["masses"]

    mods_by_owner: dict[int, List[tuple[int, float]]] = {}
    for owner, pos, delta in zip(mod_owner, mod_pos, mod_delta):
        mods_by_owner.setdefault(int(owner), []).append((int(pos), float(delta)))
    peptides = [
        Peptide(
            str(seq),
            tuple(mods_by_owner.get(i, ())),
            protein_id=int(pid),
        )
        for i, (seq, pid) in enumerate(zip(sequences, protein_ids))
    ]

    # Rebuild the object around the stored arrays without recomputing.
    index = SLMIndex.from_sorted_arrays(settings, masses, ion_parents, bucket_offsets)
    return peptides, index
