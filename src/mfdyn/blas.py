"""Thread-pool size of the OpenBLAS libraries bundled with numpy and scipy.

The pools are reached through the libraries' own `set` entry points, and
only in libraries this process has already loaded: a library that is not
loaded has no pool to size, and loading it would start one.
"""
from __future__ import annotations

import ctypes
import glob
import os
import sys

# (package, library glob in <package>.libs, pool-size setter)
OPENBLAS_LIBS = [
    ("numpy", "libscipy_openblas64_*.so*", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so*", "scipy_openblas_set_num_threads"),
]


def openblas_pools() -> list | None:
    """The pool-size setter of every loaded bundled OpenBLAS, or None when
    numpy's cannot be found: then no pool size can be relied on."""
    pools = {}
    for pkg, pattern, setter in OPENBLAS_LIBS:
        mod = sys.modules.get(pkg)
        if mod is None:
            continue
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)), pkg + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, pattern))):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:  # not loaded in this process
                continue
            set_fn = getattr(lib, setter, None)
            if set_fn is not None:
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                pools[pkg] = set_fn
                break
    return list(pools.values()) if "numpy" in pools else None


def pin_one_thread() -> bool:
    """Set each loaded OpenBLAS pool to one thread for the rest of this
    process, and so for every process it forks later. Returns whether
    numpy's pool was found; if not, no pool is touched."""
    pools = openblas_pools()
    for set_ in pools or ():
        set_(1)
    return pools is not None
