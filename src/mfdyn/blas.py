"""Thread-pool size of the OpenBLAS libraries bundled with numpy and scipy.

The pools are reached through the libraries' own `set`/`get` entry points,
and only in libraries this process has already loaded: a library that is
not loaded has no pool to size, and loading it would start one.
"""
from __future__ import annotations

import ctypes
import glob
import os
import sys
from contextlib import contextmanager

# (package, library glob in <package>.libs, pool-size setter, getter)
OPENBLAS_LIBS = [
    ("numpy", "libscipy_openblas64_*.so*",
     "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so*",
     "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
]


def openblas_pools() -> list | None:
    """(setter, getter) of every loaded bundled OpenBLAS, or None when
    numpy's cannot be found: then no pool size can be relied on."""
    pools = {}
    for pkg, pattern, setter, getter in OPENBLAS_LIBS:
        mod = sys.modules.get(pkg)
        if mod is None:
            continue
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)), pkg + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, pattern))):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:  # not loaded in this process
                continue
            set_fn, get_fn = getattr(lib, setter, None), getattr(lib, getter, None)
            if set_fn is not None and get_fn is not None:
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                pools[pkg] = (set_fn, get_fn)
                break
    return list(pools.values()) if "numpy" in pools else None


@contextmanager
def one_blas_thread():
    """Run the block, and every process forked inside it, with each loaded
    OpenBLAS pool at one thread; the old sizes come back on exit. Yields
    whether the pools could be pinned."""
    pools = openblas_pools()
    if pools is None:
        yield False
        return
    old = [get() for _, get in pools]
    for set_, _ in pools:
        set_(1)
    try:
        yield True
    finally:
        for (set_, _), n in zip(pools, old):
            set_(n)
