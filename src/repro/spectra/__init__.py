"""Experimental MS/MS spectra substrate.

Stands in for the paper's query-side pipeline (Section V-A.2):

* PRIDE dataset PXD009072 → :mod:`~repro.spectra.synthetic` (synthetic
  LC-MS/MS run generator),
* ``msconvert`` MS2 output → :mod:`~repro.spectra.ms2` (reader/writer),
* SLM-Transform's fragment extraction → :mod:`~repro.spectra.preprocess`
  (top-N peak picking and normalization),
* the master → worker wire form → :mod:`~repro.spectra.packed`.
"""

from repro.spectra.model import Spectrum
from repro.spectra.ms2 import read_ms2, write_ms2
from repro.spectra.mzml_lite import read_mzml_lite, write_mzml_lite
from repro.spectra.preprocess import PreprocessConfig, preprocess_spectrum, preprocess_batch
from repro.spectra.synthetic import SyntheticRunConfig, generate_run

__all__ = [
    "Spectrum",
    "read_ms2",
    "write_ms2",
    "read_mzml_lite",
    "write_mzml_lite",
    "PreprocessConfig",
    "preprocess_spectrum",
    "preprocess_batch",
    "SyntheticRunConfig",
    "generate_run",
]
