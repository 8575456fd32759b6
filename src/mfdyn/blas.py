"""Thread-pool size of the OpenBLAS library bundled with numpy, the only
BLAS a run computes in: no run loads `scipy.linalg`, so scipy's OpenBLAS
is left as the caller set it. The pool is reached through the library's
own `set` entry point, and only if this process has already loaded it:
loading it would start a pool.
"""
from __future__ import annotations

import ctypes
import glob
import os

import numpy

# library glob in numpy.libs, pool-size setter
OPENBLAS_LIB = ("libscipy_openblas64_*.so*", "scipy_openblas_set_num_threads64_")


def openblas_pool():
    """The pool-size setter of numpy's loaded OpenBLAS, or None when it
    cannot be found: then no pool size can be relied on."""
    pattern, setter = OPENBLAS_LIB
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, pattern))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not loaded in this process
            continue
        set_fn = getattr(lib, setter, None)
        if set_fn is not None:
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            return set_fn
    return None


def pin_one_thread() -> bool:
    """Set numpy's OpenBLAS pool to one thread for the rest of this
    process, and so for every process it forks later. Returns whether
    the pool was found."""
    set_ = openblas_pool()
    if set_ is not None:
        set_(1)
    return set_ is not None
