"""Minimal mzML-style XML spectra format ("mzML-lite").

The paper converts raw data "to mzML or MS2 format using msconvert"
(Section III-E); :mod:`repro.spectra.ms2` covers MS2, and this module
covers the mzML side with a faithful-in-spirit subset: an XML document
whose ``<spectrum>`` elements carry precursor metadata as attributes
and peak data as base64-encoded little-endian float64 arrays — the
same encoding real mzML uses — so files are round-trippable and
binary-exact.

This is intentionally *not* a full PSI mzML implementation (no CV
params, no indexed wrapper): it substitutes for one.
"""

from __future__ import annotations

import base64
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import List, Sequence, Union

import numpy as np

from repro.errors import FormatError
from repro.spectra.model import Spectrum

__all__ = ["write_mzml_lite", "read_mzml_lite"]

_ROOT_TAG = "mzMLLite"
_VERSION = "1.0"


def _encode(array: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(array, dtype="<f8").tobytes()
    ).decode("ascii")


def _decode(text: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception:
        raise FormatError("invalid base64 peak data") from None
    if len(raw) % 8:
        raise FormatError("peak data length is not a multiple of 8 bytes")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def write_mzml_lite(path: Union[str, Path], spectra: Sequence[Spectrum]) -> int:
    """Write ``spectra`` to ``path``; returns the number written."""
    root = ET.Element(_ROOT_TAG, version=_VERSION, count=str(len(spectra)))
    run = ET.SubElement(root, "run")
    for spec in spectra:
        attrs = {
            "scan": str(spec.scan_id),
            "precursorMz": f"{spec.precursor_mz:.8f}",
            "charge": str(spec.charge),
        }
        if spec.true_peptide is not None:
            attrs["truePeptide"] = str(spec.true_peptide)
        elem = ET.SubElement(run, "spectrum", attrs)
        ET.SubElement(elem, "mzArray").text = _encode(spec.mzs)
        ET.SubElement(elem, "intensityArray").text = _encode(spec.intensities)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=True)
    return len(spectra)


def read_mzml_lite(path: Union[str, Path]) -> List[Spectrum]:
    """Read spectra written by :func:`write_mzml_lite`."""
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise FormatError(f"not well-formed XML: {exc}") from None
    root = tree.getroot()
    if root.tag != _ROOT_TAG:
        raise FormatError(f"unexpected root element {root.tag!r}")
    spectra: List[Spectrum] = []
    for elem in root.iter("spectrum"):
        try:
            scan = int(elem.attrib["scan"])
            precursor_mz = float(elem.attrib["precursorMz"])
            charge = int(elem.attrib["charge"])
        except (KeyError, ValueError):
            raise FormatError(
                f"spectrum element missing/invalid attributes: {elem.attrib!r}"
            ) from None
        true_peptide = (
            int(elem.attrib["truePeptide"]) if "truePeptide" in elem.attrib else None
        )
        mz_elem = elem.find("mzArray")
        in_elem = elem.find("intensityArray")
        if mz_elem is None or in_elem is None:
            raise FormatError(f"spectrum {scan}: missing peak arrays")
        mzs = _decode(mz_elem.text or "")
        intensities = _decode(in_elem.text or "")
        if mzs.size != intensities.size:
            raise FormatError(f"spectrum {scan}: peak array length mismatch")
        spectra.append(
            Spectrum(
                scan_id=scan,
                precursor_mz=precursor_mz,
                charge=charge,
                mzs=mzs,
                intensities=intensities,
                true_peptide=true_peptide,
            )
        )
    return spectra
