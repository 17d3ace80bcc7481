"""Hand a process's freed heap back to the OS (glibc ``malloc_trim``).

numpy's freed transients stay in the allocator's arenas (glibc raises
its mmap threshold after each large free), so a process keeps a build's
peak resident until ``malloc_trim(0)`` returns the free pages.
"""

from __future__ import annotations

import ctypes

__all__ = ["release_heap"]


def _malloc_trim():
    """glibc's ``malloc_trim``, or ``None`` where the C library lacks it."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def release_heap() -> bool:
    """Return the process's freed heap to the OS; False where unsupported."""
    trim = _malloc_trim()
    if trim is None:
        return False
    trim(0)
    return True
