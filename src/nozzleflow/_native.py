"""Native routines, set up once when the package is imported.

``flapack`` is scipy's compiled LAPACK module, ``scipy.linalg._flapack``,
loaded from its extension file under its own name: ``import scipy.linalg``
would add 0.2 s of package init (its array-API layer imports numpy.f2py,
numpy.testing and more) for the two routines the package calls, ``dgtsv``
and ``dstevd``.  A later ``import scipy.linalg`` finds the module registered
and hands out the same function objects.

Importing this module also sets glibc's heap thresholds for the process
(mallopt(3)); see TRIM_THRESHOLD.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys

FLAPACK = "scipy.linalg._flapack"

# glibc hands a free heap top above 128 KiB back to the kernel, and maps
# each block above 128 KiB afresh, until a freed mapped block raises both
# limits; scipy.linalg's import used to do that.  At the defaults a lockstep
# step's freed rows of ~100 KiB are trimmed and faulted in again: 78k minor
# faults on a first `ladder` pass, against 3.3k with these values.  The trim
# threshold does most of it (6.8k alone; the mmap one alone, 94k).  Setting
# either stops glibc raising both, so the mmap threshold keeps blocks up to
# 4 MiB (two rows of 0.25M nodes) on the heap, where they are reused.
TRIM_THRESHOLD = 32 << 20
MMAP_THRESHOLD = 4 << 20
# their mallopt parameter numbers in glibc's malloc.h
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def load_flapack(linalg_dir: str):
    """scipy's ``_flapack`` module and whether it came from its extension
    file in ``linalg_dir``; without that file, ``from scipy.linalg import
    _flapack``, the same module reached through scipy.linalg's init."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg_dir, "_flapack" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(FLAPACK, path)
            spec = importlib.util.spec_from_file_location(FLAPACK, path,
                                                          loader=loader)
            module = sys.modules[FLAPACK] = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module, True
    from scipy.linalg import _flapack
    return _flapack, False


def keep_freed_pages() -> bool:
    """Set both thresholds where the C library has mallopt; True when set."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no libc
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
                and mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD))


if FLAPACK in sys.modules:  # scipy.linalg was imported first
    flapack, flapack_from_file = sys.modules[FLAPACK], False
else:
    _scipy = importlib.util.find_spec("scipy")  # finds scipy, imports nothing
    if _scipy is None:
        raise ImportError("nozzleflow needs scipy")
    flapack, flapack_from_file = load_flapack(
        os.path.join(os.path.dirname(_scipy.origin), "linalg"))
heap_thresholds_set = keep_freed_pages()
