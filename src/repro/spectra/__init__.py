"""Experimental MS/MS spectra substrate.

Stands in for the paper's query-side pipeline (Section V-A.2):

* PRIDE dataset PXD009072 → :mod:`~repro.spectra.synthetic` (synthetic
  LC-MS/MS run generator),
* ``msconvert`` MS2 output → :mod:`~repro.spectra.ms2` (reader/writer),
* SLM-Transform's fragment extraction → :mod:`~repro.spectra.preprocess`
  (top-N peak picking and normalization),
* the master → worker wire form → :mod:`~repro.spectra.packed`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.spectra.model": ("Spectrum",),
    "repro.spectra.ms2": ("read_ms2", "write_ms2"),
    "repro.spectra.preprocess": (
        "PreprocessConfig",
        "preprocess_spectrum",
        "preprocess_batch",
    ),
    "repro.spectra.synthetic": ("SyntheticRunConfig", "generate_run"),
})
