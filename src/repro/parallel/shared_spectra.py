"""Spill a preprocessed query batch to disk; reopen it memmap-shared.

The file carrier for :class:`~repro.spectra.packed.PackedSpectra`:
:meth:`SharedSpectraStore.spill` packs a batch of (already
preprocessed) :class:`~repro.spectra.model.Spectrum` objects and saves
one raw ``.npy`` file per column plus a small JSON manifest;
:meth:`SharedSpectraStore.load` reopens the two peak columns with
``np.load(..., mmap_mode="r")`` and rebuilds the ``Spectrum`` list as
zero-copy slices of the maps, so N readers share one page-cache copy.

The serving path does not use it: at the 8-60 KB a batch weighs,
creating, reopening and removing eight files per batch costs more than
pickling the same bytes, so the service sends the columns in-band.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import List, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, FormatError
from repro.spectra.model import Spectrum
from repro.spectra.packed import PackedSpectra

__all__ = ["SharedSpectraStore"]

_MANIFEST_NAME = "spectra_manifest.json"
_FORMAT_VERSION = 1
_COLUMNS = tuple(f.name for f in fields(PackedSpectra))  # one file each
_MAPPED = ("mzs", "intensities")  # the peak data: reopened as memmaps


class SharedSpectraStore:
    """A directory of ``.npy`` files holding one spilled query batch.

    Construct through :meth:`spill` (write) or :meth:`open` (attach);
    :meth:`load` materializes the memmap-backed spectrum list.
    Instances are cheap handles — all state is on disk.
    """

    def __init__(self, directory: Path, manifest: dict) -> None:
        self.directory = Path(directory)
        self.manifest = manifest

    # -- writing --------------------------------------------------------

    @classmethod
    def spill(
        cls, spectra: Sequence[Spectrum], directory: Union[str, Path]
    ) -> "SharedSpectraStore":
        """Write ``spectra`` as flat CSR arrays under ``directory``.

        The directory is created if needed.  Stores are immutable once
        written — spill each batch to a fresh directory (rewriting in
        place could tear the memmaps of workers still reading).
        """
        spectra = list(spectra)
        if not spectra:
            raise ConfigurationError("cannot spill an empty spectra batch")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        packed = PackedSpectra.from_spectra(spectra)
        for column in _COLUMNS:
            np.save(directory / f"{column}.npy", getattr(packed, column))
        manifest = {
            "version": _FORMAT_VERSION,
            "n_spectra": packed.n_spectra,
            "n_peaks": int(packed.mzs.size),
        }
        (directory / _MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="ascii"
        )
        return cls(directory, manifest)

    # -- reading --------------------------------------------------------

    @classmethod
    def exists(cls, directory: Union[str, Path]) -> bool:
        """True when ``directory`` holds a spilled batch (a manifest)."""
        return (Path(directory) / _MANIFEST_NAME).is_file()

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "SharedSpectraStore":
        """Attach to a store written by :meth:`spill`."""
        directory = Path(directory)
        manifest_path = directory / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise FormatError(
                f"no spectra store at {directory} (missing manifest)"
            )
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        if manifest.get("version") != _FORMAT_VERSION:
            raise FormatError(
                f"unsupported spectra store version {manifest.get('version')!r}"
            )
        return cls(directory, manifest)

    def load(self, *, mmap_mode: str = "r") -> List[Spectrum]:
        """Rebuild the spectrum list over memory-mapped peak arrays.

        Each spectrum's ``mzs``/``intensities`` are zero-copy slices of
        the shared maps — read-only under the default ``mmap_mode="r"``,
        which is what lets N workers share one physical copy of the
        batch.  ``"c"`` (copy-on-write) is accepted for callers that
        must scribble on private pages.
        """
        if mmap_mode not in ("r", "c"):
            raise ConfigurationError(
                f"mmap_mode must be 'r' or 'c', got {mmap_mode!r}"
            )
        d = self.directory
        try:
            packed = PackedSpectra(
                **{
                    column: np.load(
                        d / f"{column}.npy",
                        mmap_mode=mmap_mode if column in _MAPPED else None,
                    )
                    for column in _COLUMNS
                }
            )
        except FileNotFoundError as missing:
            raise FormatError(
                f"spectra store {d} is missing {missing.filename!r}"
            ) from None
        defect = packed.defect()
        if defect is None and packed.n_spectra != self.n_spectra:
            defect = (
                f"{packed.n_spectra} spectra on disk, "
                f"{self.n_spectra} in the manifest"
            )
        if defect is not None:
            raise FormatError(f"spectra store {d} is torn: {defect}")
        return packed.to_spectra()

    # -- introspection --------------------------------------------------

    @property
    def n_spectra(self) -> int:
        """Spectra in the spilled batch."""
        return int(self.manifest["n_spectra"])

    @property
    def n_peaks(self) -> int:
        """Total peaks across the batch."""
        return int(self.manifest["n_peaks"])

    def nbytes(self) -> int:
        """Total on-disk bytes — the one physical copy all readers share."""
        return sum(p.stat().st_size for p in self.directory.glob("*.npy"))
