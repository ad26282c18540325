"""OpenBLAS's thread count, set through the library this process has loaded.

`adbcr.cli.main` runs BLAS on one thread unless the environment names a
count, and every forked search worker does so too; the library's `train`
and `search` leave the count alone. On these matrix sizes a second thread
buys nothing: on a 2-vCPU x86_64 VM a 12-run gate search took 39.2 s wall
and 64.4 s CPU with two threads against 38.5 s and 38.5 s with one.
"""
from __future__ import annotations

import ctypes


def openblas_function(name: str):
    """OpenBLAS's `openblas_<name>` from a library this process has loaded, or None.

    Looks in the shared objects /proc/self/maps lists, under the symbol
    names of plain, 64-bit-interface and SciPy-bundled OpenBLAS builds.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({fields[5].strip() for fields in (line.split(None, 5) for line in f)
                            if len(fields) == 6 and "openblas" in fields[5]})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (f"openblas_{name}", f"openblas_{name}64_",
                       f"scipy_openblas_{name}", f"scipy_openblas_{name}64_"):
            function = getattr(lib, symbol, None)
            if function is not None:
                return function
    return None


def set_threads(count: int) -> bool:
    """Run OpenBLAS on count threads; False, changing nothing, where none is loaded."""
    function = openblas_function("set_num_threads")
    if function is None:
        return False
    function.argtypes = (ctypes.c_int,)
    function.restype = None
    function(count)
    return True
